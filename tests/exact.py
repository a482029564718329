"""Exact-arithmetic ground truth for the rank and zero-block verdicts.

Take Gaussian-integer S, C-, C+, Omega-, Omega+ with S a signed
permutation or i times one. Then 2A, B and C of the quadrature realization
are integer matrices: the quadrature image [[Re(U + V), -Im(U - V)],
[Im(U + V), Re(U - V)]] of integer blocks has no sqrt(2), and A's only
fraction is the 1/2 of -(1/2) C^flat C. So the Krylov matrix
[B, (2A) B, ..., (2A)^{N-1} B] and the observability matrix
[C; C (2A); ...; C (2A)^{N-1}] (N = 2n) are integer matrices, and their
ranks are decided with no tolerance by Bareiss's fraction-free elimination
(Math. Comp. 22(103):565-578, 1968) on Python ints. D, the quadrature
image of S, is an integer matrix too, so whether a quadrature block G_xy
vanishes identically (D_xy = 0 and every Markov parameter
C_x A^k B_y = C_x (2A)^k B_y / 2^k is zero, k < N by Cayley-Hamilton) is
decided in Python ints as well.

A real orthogonal mode change (C+- -> C+- Q^T, Omega+- -> Q Omega+- Q^T)
is the orthogonal similarity blockdiag(Q, Q) of the quadrature
realization, so the exact ranks of the integer system are also the truth
for the rotated float system, whose structural zeros are no longer exact
floating-point zeros.

A uniform mode phase rotation by w = (3 + 4i) / 5 (C- -> w C-,
C+ -> C+ / w, Omega+ -> Omega+ / w^2) leaves G(s) unchanged, so the integer
system's zero blocks are also the truth for the rotated float system; w is
a Gaussian rational of modulus 1, but its float value (0.6, 0.8) is
inexact in binary, so no structural zero survives as an exact 0.0.

Everything here is test-side and independent of qlinbae's realization:
the blocks are multiplied out in int64 from the closed forms.

The oracles at the end (is_imag, is_doubled_up, quadrature_transform,
cayley_tf, closed_loop_tf, crossterm_hamiltonian_shift) are not exact
arithmetic: they are float formulas that reach a quantity by another path
than the package does (a Cayley form for the resolvent, an algebraic loop
closure for the network reduction, an explicit unitary for the quadrature
image), so a test compares two independent float results within a
tolerance.

The two QND-law oracles (qnd_law_states, qnd_law_mean) recompute the exact
conditioned state of a measurement whose K and L_j commute with the first
record operator from its closed form, by matrix exponentials in the
record operator's eigenbasis and by Gauss-Hermite quadrature, and share
no code with smesim's law path.
"""

import numpy as np

from qlinbae import feedback, matcore, qsys, xferfn


def bareiss_rank(rows):
    """Rank of an integer matrix, given as a list of rows of Python ints.

    Fraction-free elimination with row pivoting; a column without a pivot
    is skipped. After k pivots every remaining entry is a (k+1) x (k+1)
    minor, so each division by the previous pivot is exact (Sylvester's
    identity) and the entries stay as large as those minors.
    """
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for row in m[rank + 1:]:
            f = row[col]
            for j in range(col + 1, len(top)):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def _object(x):
    return np.array(np.asarray(x).tolist(), dtype=object)


def krylov_rank(a2, b):
    """Exact rank of [B, (2A) B, ..., (2A)^{N-1} B] for integer 2A and B."""
    a2, block = _object(a2), _object(b)
    cols = [block]
    for _ in range(a2.shape[0] - 1):
        block = a2 @ block
        cols.append(block)
    return bareiss_rank(np.hstack(cols).tolist())


def observability_rank(a2, c):
    """Exact rank of [C; C (2A); ...; C (2A)^{N-1}] for integer 2A and C."""
    return krylov_rank(np.asarray(a2).T, np.asarray(c).T)


# ---------------------------------------------- Gaussian-integer systems
# A Gaussian-integer matrix is a pair (re, im) of int64 arrays.

def _mul(x, y):
    return (x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0])


def _add(x, y, sign=1):
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def _h(x):
    return (x[0].T, -x[1].T)


def _t(x):
    return (x[0].T, x[1].T)


def _conj(x):
    return (x[0], -x[1])


def _image(u, v):
    plus, minus = _add(u, v), _add(u, v, -1)
    return np.block([[plus[0], -minus[1]], [plus[1], minus[0]]])


def integer_realization(s, cm, cp, om, op):
    """(2A, B, C) of the quadrature realization, as int64 arrays.

    The doubled-up blocks of 2A are -2i Omega-+ - (C-^dag C-+ - C+^T
    C-+^#) with the sign pairing of qsys.quad_realization, those of B are
    (-C-^dag S, C+^T S^#) and those of C are (C-, C+).
    """
    def minus_2i(x):
        return (2 * x[1], -2 * x[0])

    u = _add(minus_2i(om), _add(_mul(_h(cm), cm), _mul(_t(cp), _conj(cp)), -1), -1)
    v = _add(minus_2i(op), _add(_mul(_h(cm), cp), _mul(_t(cp), _conj(cm)), -1), -1)
    b_u = _mul(_h(cm), s)
    b = _image((-b_u[0], -b_u[1]), _mul(_t(cp), _conj(s)))
    return _image(u, v), b, _image(cm, cp)


def integer_feedthrough(s):
    """D of the quadrature realization, the image of (S, 0), as int64."""
    return _image(s, (np.zeros_like(s[0]), np.zeros_like(s[1])))


BLOCKS = {"qq": (0, 0), "qp": (0, 1), "pq": (1, 0), "pp": (1, 1)}


def _block(x, name, m):
    i, j = BLOCKS[name]
    return x[i * m:(i + 1) * m, j * m:(j + 1) * m]


def zero_blocks(blocks):
    """The quadrature blocks of G that vanish identically, for
    Gaussian-integer blocks (S, C-, C+, Omega-, Omega+): block xy is zero
    iff D_xy = 0 and C_x (2A)^k B_y = 0 for k < N, in Python ints. Stops
    as soon as every block has a nonzero term."""
    a2, b, c = integer_realization(*blocks)
    d = integer_feedthrough(blocks[0])
    m = d.shape[0] // 2
    zero = {name for name in BLOCKS if not _block(d, name, m).any()}
    a2, x, c = _object(a2), _object(b), _object(c)
    for _ in range(a2.shape[0]):
        if not zero:
            break
        markov = c @ x
        zero = {name for name in zero if not any(_block(markov, name, m).flat)}
        x = a2 @ x
    return zero


def _gauss(rng, shape, kind="complex", span=3):
    re = rng.integers(-span, span + 1, shape)
    im = rng.integers(-span, span + 1, shape)
    if kind == "real":
        im = np.zeros_like(im)
    elif kind == "imag":
        re = np.zeros_like(re)
    return (re, im)


def _scattering(rng, m):
    perm = np.eye(m, dtype=np.int64)[rng.permutation(m)]
    signed = perm * rng.choice([-1, 1], m)
    zero = np.zeros_like(signed)
    return (zero, signed) if rng.integers(2) else (signed, zero)


FAMILIES = ("generic", "autonomous", "imag_omega")


def integer_system(rng, family, n, m):
    """Gaussian-integer (S, C-, C+, Omega-, Omega+), each a (re, im) pair.

    generic: free couplings and Hamiltonian;
    autonomous: C- = sign C+ and a real Omega- = sign Omega+ (the
      p_coupling / q_coupling case);
    imag_omega: purely imaginary Omega with C- = sign C+ real or purely
      imaginary (the imag_omega case).
    """
    s = _scattering(rng, m)
    sign = int(rng.choice([-1, 1]))
    if family == "generic":
        cm, cp = _gauss(rng, (m, n)), _gauss(rng, (m, n))
        h, y = _gauss(rng, (n, n)), _gauss(rng, (n, n))
        om = _add(h, _h(h))
        op = _add(y, _t(y))
        return s, cm, cp, om, op
    if family == "autonomous":
        cm = _gauss(rng, (m, n))
        r = rng.integers(-3, 4, (n, n))
        om = (r + r.T, np.zeros((n, n), dtype=np.int64))
        return s, cm, (sign * cm[0], sign * cm[1]), om, (sign * om[0], sign * om[1])
    if family == "imag_omega":
        cm = _gauss(rng, (m, n), kind=("real", "imag")[int(rng.integers(2))])
        r, t = rng.integers(-3, 4, (n, n)), rng.integers(-3, 4, (n, n))
        zero = np.zeros((n, n), dtype=np.int64)
        return s, cm, (sign * cm[0], sign * cm[1]), (zero, r - r.T), (zero, t + t.T)
    raise ValueError(f"unknown family {family!r}")


def chain_system(n, detune=1):
    """Gaussian-integer blocks of a chain of n modes with unit hopping
    (Omega- tridiagonal with unit off-diagonals), coupled to one channel at
    mode 1 only (C- = e_1, C+ = 0, S = 1), the far mode detuned by
    `detune`. The quadrature input p reaches the output q only through the
    whole chain and back, so G_qp has high relative degree: its first
    nonzero Markov parameter C_q A^k B_p has k = 2n - 1, and far from the
    spectrum it is of size |s|^{-2n}."""
    zero, one = np.zeros((n, n), dtype=np.int64), np.ones((1, 1), dtype=np.int64)
    om = np.diag(np.ones(n - 1, dtype=np.int64), 1)
    om = om + om.T
    om[n - 1, n - 1] = detune
    cm = np.zeros((1, n), dtype=np.int64)
    cm[0, 0] = 1
    nil = np.zeros_like(cm)
    return (one, 0 * one), (cm, nil), (nil, nil), (om, zero), (zero, zero)


def float_system(blocks, q=None, w=1.0, c=1.0):
    """The float system of integer blocks, after the real orthogonal mode
    change q (none if q is None), the mode phase rotation w and the change
    of time unit c (C+- -> sqrt(c) C+-, Omega+- -> c Omega+-)."""
    s, cm, cp, om, op = (x[0] + 1j * x[1] for x in blocks)
    if q is not None:
        cm, cp = cm @ q.T, cp @ q.T
        om, op = q @ om @ q.T, q @ op @ q.T
    cm, cp, op = w * cm, cp / w, op / w ** 2
    return qsys.new_system(s, np.sqrt(c) * cm, np.sqrt(c) * cp, c * om, c * op)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ----------------------------------------------------------- float oracles

def is_imag(x, tol=matcore.DEFAULT_TOL):
    """True when the real part is negligible relative to the matrix."""
    return matcore._negligible(np.real(x), matcore.inf_norm(x), tol)


def is_doubled_up(x, tol=matcore.DEFAULT_TOL):
    """True when x = [[U, V], [V^#, U^#]] within tol ||x||_inf."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] % 2 or x.shape[1] % 2:
        return False
    k, r = x.shape[0] // 2, x.shape[1] // 2
    scale = matcore.inf_norm(x)
    return (matcore._negligible(x[k:, :r] - x[:k, r:].conj(), scale, tol)
            and matcore._negligible(x[k:, r:] - x[:k, :r].conj(), scale, tol))


def quadrature_transform(n):
    """Unitary V_n = (1/sqrt(2)) [[I, I], [-iI, iI]], mapping (a, a^#) to
    (q, p) with q = (a + a^#)/sqrt(2)."""
    i = np.eye(n)
    return np.block([[i, i], [-1j * i, 1j * i]]) / np.sqrt(2.0)


def cayley_tf(sys, s):
    """Annihilation-creation transfer function via the Cayley form
    (I - Sigma[s]) (I + Sigma[s])^{-1} Delta(S, 0); independent of the
    realization path."""
    sig = xferfn.sigma_tf(sys, s)
    m2 = sig.shape[0]
    dd = matcore.delta(sys.s, np.zeros_like(sys.s))
    return (np.eye(m2) - sig) @ np.linalg.solve(np.eye(m2) + sig, dd)


def closed_loop_tf(net, s):
    """Direct frequency-domain oracle: evaluate the full plant's quadrature
    transfer function and algebraically close the loop u2 = Sigma_b y2."""
    g = xferfn.eval_tf(qsys.quad_realization(net.plant), s)
    return feedback._close_loop(net, g)


def crossterm_hamiltonian_shift(net):
    """Simplified loop-induced Hamiltonian shift using only the direct
    cross terms between the external and looped couplings:
      Omega-_shifted = Omega- - i (k11^dag S_b k21 - k21^dag S_b^dag k11)
      Omega+_shifted = Omega+ - i (k11^dag S_b k22 - k21^dag S_b^dag k12)
    feedback.reduce_network uses the full interconnection formulas instead.
    """
    sb = net.s_b
    om = net.plant.omega_minus - 1j * (
        net.k11.conj().T @ sb @ net.k21 - net.k21.conj().T @ sb.conj().T @ net.k11
    )
    op = net.plant.omega_plus - 1j * (
        net.k11.conj().T @ sb @ net.k22 - net.k21.conj().T @ sb.conj().T @ net.k12
    )
    return om, op


# ------------------------------------------------------- QND-law oracles

def _qnd_frame(ops):
    """U from eigh of the first record operator L_1 + L_1^dag, and the
    diagonals kappa of U^dag K U and lam_j of U^dag L_j U,
    K = -iH - 1/2 sum_j L_j^dag L_j."""
    ls = [np.asarray(l, dtype=complex) for l in ops.l_ops]
    k_gen = -1j * ops.h - 0.5 * sum(l.conj().T @ l for l in ls)
    _, u = np.linalg.eigh(ls[0] + ls[0].conj().T)
    diag = lambda x: np.diag(u.conj().T @ x @ u)
    return u, diag(k_gen), np.array([diag(l) for l in ls])


def qnd_law_states(ops, rho0, times, n_traj, seed):
    """The conditioned states at times of simulate_qsme's exact law,
    recomputed on its Philox streams, (n_traj, len(times), d, d), and the
    largest |Y_j| drawn. Per trajectory: the eigenvector index K from the
    populations p_0 = diag(U^dag rho0 U) by one uniform, then the standard
    normal increments of W_j over the intervals of times;
    Y_j = 2 Re lam_jK t + W_j, G = U diag(exp(kappa t + sum_j (lam_j Y_j
    - 1/2 lam_j^2 t))) U^dag and rho = G rho0 G^dag / Tr(G rho0 G^dag),
    in complex arithmetic in the Fock basis."""
    u, kappa, lam = _qnd_frame(ops)
    rho0 = np.asarray(rho0, dtype=complex)
    p0 = np.diag(u.conj().T @ rho0 @ u).real
    times = np.asarray(times, dtype=float)
    out = np.empty((n_traj, len(times)) + rho0.shape, dtype=complex)
    max_y = 0.0
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_traj)):
        gen = np.random.Generator(np.random.Philox(child))
        k = np.searchsorted(np.cumsum(p0), gen.random() * p0.sum(), side="right")
        xi = gen.standard_normal((len(times) - 1, len(lam)))
        w = np.vstack([np.zeros((1, len(lam))), np.cumsum(
            xi * np.sqrt(np.diff(times))[:, None], axis=0)])
        for s, t in enumerate(times):
            y = 2.0 * lam[:, k].real * t + w[s]
            max_y = max(max_y, float(np.abs(y).max(initial=0.0)))
            z = kappa * t + (lam * y[:, None] - 0.5 * lam * lam * t).sum(axis=0)
            g = (u * np.exp(z - z.real.max())) @ u.conj().T
            rho = g @ rho0 @ g.conj().T
            out[i, s] = rho / np.trace(rho).real
    return out, max_y


def qnd_law_mean(ops, rho0, t, f, nodes=100):
    """E f(p_t, lam) of the conditioned populations p_t of a one-channel QND
    measurement at time t under the exact law, by Gauss-Hermite quadrature
    over the record: K has the law p_0 = diag(U^dag rho0 U), Y = 2 Re lam_K t
    + sqrt(t) xi, and p_t is p_0 exp(2 Re lam Y - 2 (Re lam)^2 t) over its
    sum, the squared modulus of the law's g. f maps (p, lam) to a number;
    p has one row per quadrature node."""
    u, _, lam = _qnd_frame(ops)
    (lam,) = lam
    p0 = np.diag(u.conj().T @ np.asarray(rho0, dtype=complex) @ u).real
    x, w = np.polynomial.hermite.hermgauss(nodes)  # weight exp(-x^2)
    rate = 2.0 * lam.real
    with np.errstate(divide="ignore"):
        log_p0 = np.log(p0)
    total = 0.0
    for pk, rk in zip(p0, rate):
        if pk > 0.0:
            y = rk * t + np.sqrt(2.0 * t) * x
            e = log_p0 + np.outer(y, rate) - 0.5 * rate * rate * t
            p = np.exp(e - e.max(axis=1, keepdims=True))
            total += pk * (w @ f(p / p.sum(axis=1, keepdims=True), lam))
    return total / np.sqrt(np.pi)
