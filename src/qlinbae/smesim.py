"""Finite-dimensional stochastic-master-equation trajectory simulation.

Operators are realized on a truncated Fock space; the conditioned density
operator is sampled from its exact law under a QND measurement and
otherwise integrated by a Kraus map, both positive by construction; the
exact master-equation means give a reference for the ensemble, and
ensemble statistics test the martingale structure of conditional
expectations under a measurement that commutes with the dynamics.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, PreconditionError, ResourceError
from .matcore import DEFAULT_TOL, _negligible, rounding_gamma

DIM_CAP = 4096


@dataclass(frozen=True)
class TruncatedOperators:
    fock_dim: int
    n_modes: int
    a_ops: tuple
    l_ops: tuple
    h: np.ndarray

    @property
    def dim(self):
        return self.h.shape[0]


def ladder(fock_dim):
    """Truncated annihilation operator: <k-1|a|k> = sqrt(k)."""
    return np.diag(np.sqrt(np.arange(1, fock_dim)), k=1).astype(complex)


def build_truncated_operators(sys, fock_dim):
    """Tensor-product ladder operators, coupling operators
    L_j = sum_k (C-)_{jk} a_k + (C+)_{jk} a_k^dag, and the quadratic
    Hamiltonian assembled from the Omega blocks (Hermitized)."""
    if fock_dim < 2:
        raise PreconditionError("fock_dim must be at least 2")
    n = sys.n_modes
    d = fock_dim ** n
    if d > DIM_CAP:
        raise ResourceError(
            f"truncated dimension {d} exceeds the cap {DIM_CAP}; "
            "reduce fock_dim or the mode count"
        )
    a1 = ladder(fock_dim)
    a_ops = [np.kron(np.kron(np.eye(fock_dim ** k, dtype=complex), a1),
                     np.eye(fock_dim ** (n - 1 - k), dtype=complex))
             for k in range(n)]
    cm, cp = sys.c_minus, sys.c_plus
    l_ops = []
    for j in range(sys.m_channels):
        lj = np.zeros((d, d), dtype=complex)
        for k in range(n):
            lj += cm[j, k] * a_ops[k] + cp[j, k] * a_ops[k].conj().T
        l_ops.append(lj)
    om, op = sys.omega_minus, sys.omega_plus
    h = np.zeros((d, d), dtype=complex)
    for j in range(n):
        for k in range(n):
            adj = a_ops[j].conj().T
            h += 0.5 * (om[j, k] * adj @ a_ops[k]
                        + op[j, k] * adj @ a_ops[k].conj().T
                        + np.conj(op[j, k]) * a_ops[j] @ a_ops[k]
                        + np.conj(om[j, k]) * a_ops[j] @ a_ops[k].conj().T)
    h = 0.5 * (h + h.conj().T)
    return TruncatedOperators(fock_dim=fock_dim, n_modes=n,
                              a_ops=tuple(a_ops), l_ops=tuple(l_ops), h=h)


def spectral_projections(l_hermitian, tol=DEFAULT_TOL):
    """Spectral decomposition of a Hermitian measurement operator with
    eigenvalues clustered within tol * max|l|; returns [(eigenvalue,
    projector)]. The Hermiticity test and the clusters take the scale
    max|l| with no floor, so l and c l give the same projectors for any
    c > 0; the zero operator is one cluster."""
    l = np.asarray(l_hermitian, dtype=complex)
    scale = np.abs(l).max()
    if not _negligible(l - l.conj().T, scale, tol):
        raise PreconditionError("spectral_projections requires a Hermitian operator")
    w, v = np.linalg.eigh(l)
    out = []
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[i] <= tol * scale:
            j += 1
        vec = v[:, i:j]
        out.append((float(np.mean(w[i:j])), vec @ vec.conj().T))
        i = j
    return out


@dataclass(frozen=True)
class SMETrajectoryBatch:
    times: np.ndarray            # stored grid (n_times,)
    tracked_names: tuple
    tracked_values: np.ndarray   # (n_traj, n_times, n_tracked), real parts
    tracked_norms: tuple         # operator norms, for bias allowances
    seed: int
    dt: float
    n_steps: int
    final_states: np.ndarray     # (n_traj, d, d)
    max_trace_deviation: float   # largest |Tr(M rho M^dag) - 1| of any
                                 # step; 0.0 on the law path, which has none
    positivity_margin: float     # smallest eigenvalue of any final state
    method: str                  # "exact_law" or "kraus" (simulate_qsme)
    replayed_blocks: int         # Kraus blocks run again step by step; 0
                                 # on the law path

    @property
    def max_repair_mass(self):
        """The mass a clip of negative eigenvalues would remove from the
        worst final state, max(0, -positivity_margin); no step repairs."""
        return max(0.0, -self.positivity_margin)


def _generator(ops):
    """The coupling operators as complex arrays and the non-Hermitian
    generator K = -iH - 1/2 sum_j L_j^dag L_j."""
    l_ops = [np.asarray(l, dtype=complex) for l in ops.l_ops]
    k_gen = -1j * ops.h - 0.5 * sum((l.conj().T @ l for l in l_ops),
                                    np.zeros_like(ops.h))
    return l_ops, k_gen


def _require(ok, name, requirement, value):
    if not ok:
        raise PreconditionError(
            f"simulate_qsme setting {name} must be {requirement}, got {value!r}")


def _is_count(x, low):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= low


def step_count(dt, T):
    """n_steps = round(T / dt) of `simulate_qsme`; PreconditionError unless
    dt is finite and > 0, T finite and >= 0, and T / dt finite."""
    _require(np.isfinite(dt) and dt > 0, "dt", "finite and > 0", dt)
    _require(np.isfinite(T) and T >= 0, "T", "finite and >= 0", T)
    ratio = float(T) / float(dt)  # inf on overflow, with no warning
    _require(np.isfinite(ratio), f"T / dt = {T!r} / {dt!r}", "finite", ratio)
    return int(round(ratio))


def _square_operator(caller, name, x, d):
    """x as a complex array; it must be a finite d x d matrix."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        got = f"shape {x.shape}"
    elif not np.isfinite(x).all():
        got = "a non-finite entry"
    else:
        return x
    raise PreconditionError(
        f"{caller} setting {name} must be a finite {d} x {d} matrix, got {got}")


def _real_form(x):
    """R(X) = kron(Re X, I_2) + kron(Im X, [[0, 1], [-1, 0]]), the real
    2d x 2d form of a complex d x d matrix X:
    x @ X == (x.view(float) @ R(X)).view(complex) for a complex row x.
    Each 2 x 2 block is filled with the products and sums the two krons
    take, so every entry, signed zeros included, is theirs."""
    re, im = x.real, x.imag
    r = np.empty((2 * len(x), 2 * x.shape[1]))
    r[::2, ::2] = r[1::2, 1::2] = re * 1.0 + im * 0.0
    r[::2, 1::2] = re * 0.0 + im * 1.0
    r[1::2, ::2] = re * 0.0 + im * -1.0
    return r


def _eigenframe(x, r):
    """V = R(conj U) and the weights [1 | lam tiled r times] of
    `_square_read`, lam = (mu_1, mu_1, mu_2, mu_2, ...), for a Hermitian
    x = U diag(mu) U^dag. V is orthogonal and R(x^T) = V diag(lam) V^T,
    so for a complex row phi with float view f and psi = f V, the float
    view of phi conj(U), Re(phi x^T phi^dag) = sum lam psi^2 and
    ||phi||^2 = sum psi^2."""
    mu, u = np.linalg.eigh(x)
    lam = np.tile(np.repeat(mu, 2), r)
    return _real_form(u.conj()), np.stack([np.ones_like(lam), lam], axis=1)


def _square_read(psi, weights, scratch):
    """psi^2, flat per trajectory, times weights: against those of
    `_eigenframe`, each trajectory's norm t of its r x 2d factor psi and
    t times its record. scratch has psi's shape and takes psi^2."""
    np.square(psi, out=scratch)
    return scratch.reshape(len(psi), -1) @ weights


def _noise_block(d, width, n):
    """Steps (stores on the law path) per refill of a buffer that takes
    width floats per step and trajectory: it holds no more than the 4 d^2
    floats per trajectory of the product path's per-step Kraus buffer (one
    step at least), and at most the run's n."""
    return max(1, min(n, 4 * d * d // max(width, 1)))


def _frame_forms(xs, v, formed=None):
    """Each complex d x d matrix X of xs as its real form rotated once,
    W' = V^T R(X^T) V, and whether every W' is diagonal in the complex
    frame within the rounding of its formation and its rotation. formed
    bounds the rounding of forming each X, entry by entry, as an array of
    xs's shape (see `_kraus_basis`); None for xs given exactly.
    Returns (forms, diagonal), forms of shape (len(xs), 2d, 2d).

    With V = R(conj U), R(Y)^T = R(Y^dag) and R(Y) R(Z) = R(Y Z) give
    W' = R((U^dag X U)^T) exactly: block (a, b) of W' is
    [[Re y, Im y], [-Im y, Re y]] for y = (U^dag X U)_ab, so W' is block
    diagonal just where U^dag X U is diagonal, and row 2a of block (a, a)
    is the float view of (U^dag X U)_aa.

    Formed as (V^T W) V, two products of inner dimension 2d, W' departs
    from V^T W V by less than 2 gamma |V|^T |W| |V| entry by entry, to
    first order, with gamma = gamma_{2d} (matcore.rounding_gamma; Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.5). The
    computed X departs from the X its formula gives in exact arithmetic by
    some F with |F| <= formed, and R is real linear with entries Re and
    +-Im, so |R(F^T)| <= kron(formed^T, ones(2, 2)) and W departs from the
    exact real form by at most |V|^T kron(formed^T, ones(2, 2)) |V| after
    the rotation. B is the sum of the two. If every entry of every
    off-diagonal block is within B, each U^dag X U is diagonal within the
    rounding of its own formation and rotation, as it is for an X that
    commutes with the record operator (and is not split by a repeated
    eigenvalue of it); its exact off-diagonal entries are then below 2B,
    so dropping them moves W' by at most 2B, entry by entry."""
    n = len(v)
    w = np.array([_real_form(x.T) for x in xs]).reshape(len(xs), n, n)
    rotated = v.T @ w @ v
    av = np.abs(v)
    bound = 2.0 * rounding_gamma(n) * (av.T @ np.abs(w) @ av)
    if formed is not None:
        bound += av.T @ np.kron(np.swapaxes(formed, 1, 2), np.ones((2, 2))) @ av
    off = np.kron(~np.eye(n // 2, dtype=bool), np.ones((2, 2), dtype=bool))
    return rotated, bool((np.abs(rotated) <= bound)[:, off].all())


def _kraus_basis(l_ops, k_gen, h, dt):
    """(basis, formed): the Kraus basis [I + K dt, L_j, P_jk for j <= k] of
    `simulate_qsme`, pairs in np.triu_indices order, and a first-order
    bound, entry by entry, on the rounding of forming each element from H
    and the m coupling operators L_j, as a (n_basis, d, d) array; the
    `formed` of `_frame_forms`.

    With u = eps / 2 and gamma_k = k u / (1 - k u), a complex inner
    product of d terms is within sqrt(2) gamma_{d+2} of its value against
    |x|^T |y| (Higham, Accuracy and Stability of Numerical Algorithms,
    Lemma 3.5 and sec. 3.6), and a complex sum, difference or product with
    a real scalar rounds each part once, by u. K = -iH - 1/2 sum_j
    L_j^dag L_j (`_generator`) forms m products (sqrt(2) gamma_{d+2}),
    sums them (gamma_m), halves them and multiplies H by -i (both exact)
    and subtracts (u); I + K dt then rounds the product with dt and the
    sum (2u). To first order these add to less than sqrt(2)
    gamma_{d+m+5} times |I| + dt (|H| + 1/2 sum_j |L_j|^T |L_j|). The
    L_j are the operators given, formed by nothing here. A pair
    P_jk = 1/2 (L_j L_k + L_k L_j), j < k, forms two products and one sum,
    P_jj = 1/2 L_j^2 one product, each within sqrt(2) gamma_{d+3} times
    P_jk formed on the |L_j|."""
    d, m = len(h), len(l_ops)

    def complex_gamma(k):  # sqrt(2) gamma_k
        return np.sqrt(2.0) * rounding_gamma(k)

    def pair(x, j, k):  # 1/2 (X_j X_k + X_k X_j), 1/2 X_j^2 where j = k
        return 0.5 * (x[j] @ x[k] + x[k] @ x[j] if j < k else x[j] @ x[j])

    mod = [np.abs(l) for l in l_ops]
    gram = sum((x.T @ x for x in mod), np.zeros((d, d)))
    basis = [np.eye(d) + dt * k_gen, *l_ops]
    formed = [complex_gamma(d + m + 5) * (np.eye(d) + dt * (np.abs(h) + 0.5 * gram)),
              *np.zeros((m, d, d))]
    for j, k in zip(*np.triu_indices(m)):
        basis.append(pair(l_ops, j, k))
        formed.append(complex_gamma(d + 3) * pair(mod, j, k))
    return basis, np.array(formed)


def _trace_deviation(ratios, first):
    """max |Tr(M rho M^dag) - 1| over a block of steps whose ratios fill
    the rows of ratios, as max(hi - 1, 1 - lo) over the block's smallest
    and largest ratio. A ratio that is not finite and > 0 raises
    InstabilityError naming the first step with one; first is the step
    of row 0."""
    lo, hi = ratios.min(), ratios.max()
    if not (lo > 0.0 and hi < np.inf):
        ok = ((ratios > 0.0) & (ratios < np.inf)).all(axis=1)
        raise InstabilityError(f"step {first + int(ok.argmin())}: the "
                               "conditioned state is not finite; reduce dt")
    return max(float(hi - 1.0), float(1.0 - lo))


def _sample_law(l_ops, k_gen, v, psi0, streams, times, forms, diagonal,
                values):
    """The law path of `simulate_qsme`: the exact law of the records sampled
    at the store times, the tracked values written into values. Returns
    psi at the last store and its norm t."""
    n_traj, (r, n) = len(streams), psi0.shape
    d, m = n // 2, len(l_ops)
    a = np.arange(d)  # row 2a of block (a, a) of a form: (U^dag X U)_aa
    diag = _frame_forms([k_gen, *l_ops], v)[0].reshape(-1, d, 2, d, 2)[
        :, a, 0, a].reshape(m + 1, n).view(complex)
    lam = diag[1:]
    drift = diag[0] - 0.5 * np.sum(lam * lam, axis=0)  # kappa - 1/2 sum lam^2
    p0 = np.square(psi0).reshape(r, d, 2).sum(axis=(0, 2))
    support = p0 > 0.0
    cdf = np.cumsum(p0)
    u = np.array([gen.random() for gen in streams])
    index = np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"),
                       np.flatnonzero(support)[-1])
    rate = 2.0 * lam.real[:, index].T  # dY_j / dt given K, (n_traj, m)
    psi0 = psi0.view(complex)
    if diagonal:  # row 2a of the diagonal: Re (U^dag X U)_aa
        forms = forms[::2]
    steps = np.sqrt(np.diff(times))

    def exponent(part, t, y):  # part(z), z = t drift + sum_j lam_j Y_j
        z = np.empty(y.shape[:2] + (d,))
        z[...] = np.multiply.outer(t, part(drift))
        for j in range(m):
            z += y[:, :, j, None] * part(lam[j])
        return z

    block = _noise_block(d, m + 2 * d, len(times))
    w = np.zeros((n_traj, block + 1, m))  # row 0 carries W into the block
    for start in range(0, len(times), block):
        stop = min(start + block, len(times))
        c, first = stop - start, max(start, 1)  # store 0 has no increment
        fresh = w[:, 1 + first - start:1 + c]
        for row, gen in zip(fresh, streams):
            gen.standard_normal(out=row)
        fresh *= steps[first - 1:stop - 1, None]
        w[:, 1:1 + first - start] = 0.0
        np.cumsum(w[:, :1 + c], axis=1, out=w[:, :1 + c])
        t = times[start:stop]
        y = rate[:, None, :] * t[:, None] + w[:, 1:1 + c]  # (n_traj, c, m)
        w[:, 0] = w[:, c]

        re_z = exponent(np.real, t, y)
        re_z -= re_z.max(axis=-1, keepdims=True, where=support,
                         initial=-np.inf)
        np.minimum(re_z, 0.0, out=re_z)  # off the support psi0's column is 0
        pop = p0 * np.exp(2.0 * re_z)
        total = pop.sum(axis=-1)
        if diagonal:
            values[:, start:stop] = pop @ forms / total[..., None]
        if not diagonal or stop == len(times):
            im_z = exponent(np.imag, t, y)
            for s in range(0 if not diagonal else c - 1, c):
                g = np.exp(re_z[:, s] + 1j * im_z[:, s])
                psi = (psi0 * g[:, None, :]).view(float)
                if not diagonal:  # matmul is slow on a swapaxes view
                    flat = np.ascontiguousarray(psi.swapaxes(1, 2)) @ psi
                    # one product per trajectory, not a GEMM over all
                    read = np.matmul(flat.reshape(n_traj, 1, -1), forms)
                    values[:, start + s] = read[:, 0] / total[:, s, None]
    return psi, total[:, -1]


def _kraus_steps(l_ops, basis_re, v, weights, psi0, streams, dt, n_steps,
                 slots, forms, diagonal, values):
    """The product path of `simulate_qsme`: n_steps steps of the Kraus map
    on psi, the tracked values written into values[:, slots[i]] at each
    step i that slots holds, step 0 included. Returns the last psi, its
    norm t, max_trace_deviation and the number of blocks replayed.

    The steps run a block of c innovations at a time (`_noise_block`).
    Row k of the block's read buffer holds the read [t, t dy_j without
    noise] that its step k starts from, row k + 1 the read after it, and
    row k of the ratio buffer s^2 where step k renormalizes, 1 elsewhere,
    so the block's trace ratios are rows 1..c of t over s^2 times rows
    0..c-1: one product and one division. A block renormalizes at its
    first step; one whose norms leave the safe range of `simulate_qsme` is
    run again by the same loop from a copy of its starting psi,
    renormalizing at every step."""
    n_traj, (r, n) = len(streams), psi0.shape
    d, m = n // 2, len(l_ops)
    block = _noise_block(d, m, n_steps)
    noise = np.empty((block, n_traj, m))  # step-major, refilled per block
    reads = np.empty((block + 1, n_traj, 1 + m))
    ratios = np.empty((block, n_traj, 1))  # s^2 where a step renormalizes
    safe = np.sqrt(np.finfo(float).tiny)  # every norm in [safe, 1 / safe]
    if diagonal:
        forms = np.tile(forms, (r, 1))
    psi = np.broadcast_to(psi0, (n_traj, r, n)).copy()
    spare = np.empty_like(psi)  # squares, product
    kraus_re = np.empty((n_traj, n * n))
    basis_flat = basis_re.reshape(-1, n * n)
    if m > 1:  # [R_2 | ... | R_m], rotated
        record_gain = np.concatenate([
            v.T @ _real_form(dt * (l + l.conj().T).T) @ v
            for l in l_ops[1:]], axis=1)

    def squares_read(out):
        out[:, :2] = _square_read(psi, weights, spare)
        if m > 1:  # channels 2..m: psi dotted with psi V^T R_j V
            gained = psi.reshape(n_traj * r, n) @ record_gain
            out[:, 2:] = np.einsum("trjc,trc->tj",
                                   gained.reshape(n_traj, r, m - 1, n), psi)

    def record(read, step):
        if diagonal:  # spare holds the squares of the read just taken
            flat = spare.reshape(n_traj, -1)
        else:  # matmul is slow on a swapaxes view; copy it first
            flat = (np.ascontiguousarray(psi.swapaxes(1, 2)) @ psi).reshape(
                n_traj, -1)
        values[:, slots[step]] = flat @ forms / read[:, :1]

    jj, kk = np.triu_indices(m)
    pair_shift = np.where(jj == kk, -dt, 0.0)  # the Ito term -delta_jk dt
    coef = np.ones((n_traj, len(basis_re)))
    dy, pair = coef[:, 1:m + 1], coef[:, m + 1:]  # formed in place

    def steps(first, count, period):
        """The block's steps first .. first + count - 1, psi renormalized
        at every period-th of them, from the read in row 0."""
        nonlocal psi, spare
        for k in range(count):
            t = reads[k, :, :1]
            np.divide(reads[k, :, 1:], t, out=dy)
            np.add(dy, noise[k], out=dy)
            if m == 1:
                np.multiply(dy, dy, out=pair)
            else:
                np.multiply(dy[:, jj], dy[:, kk], out=pair)
            np.add(pair, pair_shift, out=pair)
            if k % period:
                np.matmul(coef, basis_flat, out=kraus_re)
            else:  # the power of two s with s^2 t in [1/2, 2)
                s = np.ldexp(1.0, -(np.frexp(t)[1] // 2))
                np.matmul(coef * s, basis_flat, out=kraus_re)
                np.multiply(s, s, out=ratios[k])
            np.matmul(psi, kraus_re.reshape(n_traj, n, n), out=spare)
            psi, spare = spare, psi
            squares_read(reads[k + 1])
            if first + k + 1 in slots:
                record(reads[k + 1], first + k + 1)

    squares_read(reads[0])
    max_trace_dev, replayed = 0.0, 0
    record(reads[0], 0)
    # a non-finite step raises InstabilityError below; numpy's overflow and
    # invalid-value warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n_steps, block):
            count = min(block, n_steps - start)
            for i, gen in enumerate(streams):
                noise[:count, i] = gen.normal(0.0, np.sqrt(dt),
                                              size=(count, m))
            start_psi = psi.copy()
            ratios[:count] = 1.0
            steps(start, count, count)
            norms = reads[1:count + 1, :, 0]
            if not (safe <= norms.min() and norms.max() <= 1.0 / safe):
                psi[...] = start_psi
                steps(start, count, 1)
                replayed += 1
            ratio = ratios[:count, :, 0]  # s^2 t, then t' / (s^2 t)
            np.multiply(ratio, reads[:count, :, 0], out=ratio)
            np.divide(reads[1:count + 1, :, 0], ratio, out=ratio)
            max_trace_dev = max(max_trace_dev, _trace_deviation(ratio, start))
            reads[0] = reads[count]
    return psi, reads[0, :, 0], max_trace_dev, replayed


def simulate_qsme(ops, rho0, dt, T, n_traj, seed, tracked, store_every=1):
    """Trajectories of the diffusive conditioned-state equation
      drho = L*(rho) dt
           + sum_j (L_j rho + rho L_j^dag - Tr[rho (L_j + L_j^dag)] rho) dnu_j
    with innovations dnu_j ~ Normal(0, dt), independent per channel, and
    L*(rho) = K rho + rho K^dag + sum_j L_j rho L_j^dag,
    K = -iH - 1/2 sum_j L_j^dag L_j, on the grid of steps dt to
    n_steps = round(T / dt), stored every store_every steps (endpoints
    included). dt must be finite and > 0, T finite and >= 0, T / dt
    finite (`step_count`), n_traj and store_every integers >= 1, rho0 and
    every tracked operator finite ops.dim x ops.dim matrices. Trajectories
    use independent counter-based RNG streams derived from (seed,
    trajectory index), so results are reproducible and order-independent.
    Two paths share everything but the time evolution; `method` names the
    one taken.

    The factor. rho0 is Hermitized and factored once: with eigh(rho0) =
    U diag(w) U^dag and only the positive w kept (the precondition rejects
    any w below -1e-8), the r x d matrix phi = (U sqrt(w))^T, r = rank
    rho0, gives rho = phi^T conj(phi). Both paths carry phi in the
    eigenbasis of the first channel's record operator, in real arithmetic:
    a complex row x times X is x.view(float) @ R(X) with
    R(X) = kron(Re X, I_2) + kron(Im X, [[0, 1], [-1, 0]]), R_1 =
    R(dt (L_1 + L_1^dag)^T) is symmetric, R_1 = V diag(lam) V^T with
    V = R(conj U) orthogonal for eigh(dt (L_1 + L_1^dag)) = U diag(mu)
    U^dag (see `_eigenframe`), and psi = phi V is the float view of
    phi conj(U). Positivity holds by construction: every
    phi^T conj(phi) is a Gram matrix. Nothing is clipped or repaired;
    positivity_margin, the smallest eigenvalue of the final states, carries
    only the rounding of the rotation, product, sum and division that form
    them.

    The path. The rotated form of a Kraus basis element B of
    [I + K dt, L_j, P_jk for j <= k] (below) is R((U^dag B U)^T)
    (`_frame_forms`). When every one is diagonal in the complex frame
    within the rounding of its formation (`_kraus_basis`) and rotation, as
    in a QND measurement, where K and every L_j commute with the first
    record operator and no repeated eigenvalue of it is mixed (a complex
    coupling phase included, whose K is real but formed with an imaginary
    part of rounding), the run samples the exact law ("exact_law"); any
    other system, a record operator with a repeated eigenvalue whose
    eigenspace some B mixes included, steps the Kraus map ("kraus").

    The exact law (Adler, Brody, Brun & Hughston 2001, J. Phys. A 34:8795;
    Jacobs & Steck 2006, Contemp. Phys. 47:279). In that frame K and the
    L_j act as their diagonals kappa = diag(U^dag K U) and
    lam_j = diag(U^dag L_j U), so the unnormalized equation
    d phi~ = phi~ (K dt + sum_j L_j dy_j)^T, whose normalized solution is
    the conditioned state, scales column a of phi~ conj(U) by g_a with
    dg = g (kappa dt + sum_j lam_j dy_j). The records satisfy
    dy_j dy_k = delta_jk dt (Ito), so
      g(t) = exp(kappa t + sum_j (lam_j Y_j(t) - 1/2 lam_j^2 t)),
    Y_j = int dy_j, and the state depends on the record only through its
    integral. The populations are p_0 |g|^2 over their sum, p_0 the column
    norms of phi_0 conj(U); they are the posterior of an eigenvector index
    K drawn from p_0, and the records are Y_j(t) = 2 Re lam_jK t + W_j(t)
    with independent Brownian motions W_j: the record dy_j =
    Tr[rho (L_j + L_j^dag)] dt + dnu_j has the law of that mixture. Each
    trajectory draws from its stream one uniform for K, then the standard
    normal increments of W over the store intervals, scaled by the square
    root of each interval's length, a block of stores at a time
    (`_noise_block`, m + 2d floats per store); W is carried from block to
    block, so the block size changes no output bit. No time step is
    taken: the cost is O(n_store), not O(n_steps), per trajectory, there
    is no discretization bias, and dt sets only the store grid, the times
    i dt of the stored steps i. z = log g is formed at each store, its
    real part shifted by the trajectory's largest over the support of p_0,
    so that every population is at most its p_0 and their sum, the norm t,
    at least the p_0 > 0 of the largest, never 0 and never overflowing;
    off the support, where the column of phi_0 conj(U) is 0, it is
    clamped at 0. Memory holds the stored values and the arrays of one
    block, a few times 4 d^2 floats per trajectory, whatever T and dt:
    the records, the real parts of z and the populations, m + 2d floats
    per store, and their temporaries. The Kraus map's one-step
    M is this law's second-order expansion per step (Rouchon & Ralph 2015,
    PRA 91, 012118), and the law is what `kraus` converges to at weak
    order 1 in dt. max_trace_deviation is 0.0 on this path, because no
    step normalizes, and no warning of a large dt is given: any finite dt
    gives finite states of unit trace.

    The Kraus map (Rouchon & Ralph 2015). Each step reads the record
    dy_j = Tr[rho (L_j + L_j^dag)] dt + dnu_j and maps
    rho <- M rho M^dag / Tr(M rho M^dag) with
      M = I + K dt + sum_j L_j dy_j
            + 1/2 sum_jk L_j L_k (dy_j dy_k - delta_jk dt)
    (M = I + K dt without channels). By the Ito rule dy_j dy_k =
    delta_jk dt, (sum_j L_j dy_j) rho (sum_k L_k^dag dy_k) supplies the
    sum_j L_j rho L_j^dag dt of perfect detection, so no separate term
    adds it; dividing by the trace, 1 + sum_j Tr[rho (L_j + L_j^dag)] dy_j
    to first order, turns the increments dy_j into the innovations dnu_j.
    It warns when dt times the generator scale max|H| + sum_j max|L_j|^2
    exceeds 0.1, where its bias may be large. The innovations are drawn a
    block of steps at a time into one step-major buffer, no larger than
    the per-step Kraus buffer (`_noise_block`), so memory does not grow
    with T; a Philox stream drawn in chunks gives the same numbers as one
    draw of the whole run, so the block size changes no output bit.

    The map is linear in rho, so it acts on the factor: M rho M^dag =
    (phi M^T)^T conj(phi M^T), each step is phi <- phi M^T, and
    Tr(M rho M^dag) = ||phi M^T||_F^2. R is real linear, so
    psi <- psi V^T R(M^T) V is the coefficients (1, dy_j, c_jk) times the
    rotated real forms V^T R(B^T) V of the basis, one real GEMM for all
    trajectories, then one batched real product; the double sum is
    symmetric in (j, k), so against P_jk = 1/2 (L_j L_k + L_k L_j) and
    P_jj = 1/2 L_j^2 it takes the Ito term c_jk = dy_j dy_k - delta_jk dt.
    Where the 1/2 of P_jj sits changes no bit: a factor 2 moved between the
    factors of a product, or of a fused multiply-add, keeps its exact value
    and so its rounding, and P_jj's forms and rounding bounds halve
    together. The one exception is a subnormal entry, which a halving may
    round. With rho = phi^T conj(phi) / t, the norm
    t = ||phi||_F^2 = sum psi^2 and the first record
    Tr[rho dt (L_1 + L_1^dag)] = sum lam psi^2 / t come from one pass of
    squares psi^2 and one flat product per trajectory against [1 | lam]
    (`_square_read`); each further channel j >= 2 reads the real dot
    product of psi with psi V^T R_j V, one GEMM for all of them. After the
    product, Tr(M rho M^dag) is the new t over the old. No pass divides
    psi by its norm. A scale by a power of two rounds nothing while the
    values it scales stay normal, and every output is a quotient by t
    (the records, the ratios, the stored values, the final states), so
    where psi is renormalized changes no output bit. At the first step of
    each block of innovations M carries the power of two s with
    s^2 t in [1/2, 2), which brings psi to near unit norm; the block's
    other steps leave the norm to drift by their ratios. Without channels
    V = I, so a step with M = I leaves psi, t and every stored value
    bit-identical; with a channel the eigenbasis rounds, so psi and its
    rotations agree with phi's to rounding only.

    The safe range. float64's normal magnitudes run from tiny = 2^-1022
    to just below 2^1024. Renormalizing at every step, as a block of one
    step does, starts each step at a norm in [1/2, 2); a block
    renormalized once forms that loop's values times powers of two set by
    the drift, the same for a whole trajectory: 2^e on psi and its
    products, 2^2e on their squares and reads, with 2^2e within a factor
    2 of the norm t the step starts from. The norms are kept in
    [sqrt(tiny), 1 / sqrt(tiny)] = [2^-511, 2^511], half of the exponent
    range on either side of 1: every entry of psi is then at most 2^256
    and its square at most 2^511, half the range below overflow, and a
    square is subnormal only for an entry below 2^-255 sqrt(t), which adds
    nothing above rounding to t or to any record. So a block whose every
    norm lies in the range gives the per-step loop's bits, unless a value
    of either loop leaves the normal range all the same (such a tiny
    entry, or a Kraus entry near 2^767), and its ratios lie within
    [2^-1022, 2^1022], finite and > 0. A block with a norm outside the
    range, a non-finite one included, is run again from a copy of its
    starting psi by the same loop renormalizing at every step
    (`_kraus_steps`), which is the per-step loop itself, and
    replayed_blocks counts it: 0 on the exact law and on any run whose
    norms drift by less than a factor 2^510 within a block.

    max_trace_deviation is there the largest |Tr(M rho M^dag) - 1|, the
    step's normalization, not a rounding error. Each step writes its read
    [t, t dy_j without noise] into a block buffer, and once the block
    ends its ratios are one division, each t over the one before times
    s^2 where that step renormalized; max_trace_deviation is max(hi - 1,
    1 - lo) over each block's smallest and largest ratio, the same float
    as a max over each step. A step whose new t is not finite and
    positive raises InstabilityError naming the first such step, once its
    block ends and has been replayed, with numpy's overflow and
    invalid-value warnings silenced so that the error is the one report:
    a finite positive t bounds every entry of psi and of
    phi^T conj(phi), so the check is on the ratios alone, and psi can
    stay finite where the state it stands for overflows.

    tracked: list of (name, operator) pairs; Tr(rho X) is recorded on the
    stored grid, read in the eigenbasis against each X rotated once
    (`_frame_forms`). When every rotated X is diagonal to within the
    rounding of its rotation, as each X that commutes with the first
    record operator is, a stored value is the populations, the squares
    that the Kraus step's read just left or p_0 |g|^2 on the law path,
    times diag W', one small product; otherwise it is the real Gram matrix
    psi^T psi dotted with W', psi formed from g at each store on the law
    path. Either agrees with Re Tr(phi^T conj(phi) X) / t to rounding. On
    the law path each trajectory's read is its own product, so the first k
    trajectories of a run of n are a run of k bit for bit; the Kraus
    path's GEMMs over all trajectories agree with that to rounding only.
    phi = psi V^T is rotated back and Y = phi^T conj(phi) formed once, at
    the end: the final states are (Y + Y^dag) / (2t), whose entry (b, a),
    fl(y_ba + conj(y_ab)) over a real, is the exact conjugate of entry
    (a, b), so every final state is exactly Hermitian.
    """
    n_steps = step_count(dt, T)
    _require(_is_count(n_traj, 1), "n_traj", "an integer >= 1", n_traj)
    _require(_is_count(store_every, 1), "store_every", "an integer >= 1",
             store_every)
    d = ops.dim
    rho0 = _square_operator("simulate_qsme", "rho0", rho0, d)
    obs = [_square_operator("simulate_qsme", f"tracked {name!r}", x, d)
           for name, x in tracked]
    tol = 1e-8  # on the trace and the smallest eigenvalue of rho0
    tr0 = np.trace(rho0).real
    if abs(tr0 - 1.0) > tol:
        raise PreconditionError(f"rho0 trace {tr0} is not 1")
    w, u = np.linalg.eigh(0.5 * (rho0 + rho0.conj().T))
    if w.min() < -tol:
        raise PreconditionError("rho0 is not positive semidefinite")
    keep = w > 0
    r = int(keep.sum())

    l_ops, k_gen = _generator(ops)
    m = len(l_ops)
    streams = [np.random.Generator(np.random.Philox(child))
               for child in np.random.SeedSequence(seed).spawn(n_traj)]

    names = tuple(name for name, _ in tracked)
    norms = tuple(float(np.linalg.norm(x, 2)) for x in obs)
    store_idx = [*range(0, n_steps, store_every), n_steps]
    times = np.array([i * dt for i in store_idx])
    values = np.empty((n_traj, len(store_idx), len(obs)))

    if m:
        v, weights = _eigenframe(dt * (l_ops[0] + l_ops[0].conj().T), r)
    else:  # no record to read; V = I rounds nothing
        v, weights = np.eye(2 * d), np.ones((2 * r * d, 1))
    basis, formed = _kraus_basis(l_ops, k_gen, ops.h, dt)
    basis_re, population = _frame_forms(basis, v, formed)
    forms, diagonal = _frame_forms([0.5 * (x + x.conj().T) for x in obs], v)
    if diagonal:  # Tr(rho X) t from the populations
        forms = np.diagonal(forms, axis1=1, axis2=2).T
    else:  # from the real Gram matrix psi^T psi
        forms = forms.reshape(len(obs), 4 * d * d).T
    phi0 = np.ascontiguousarray((u[:, keep] * np.sqrt(w[keep])).T)
    psi0 = phi0.view(float) @ v  # the float view of phi0 conj(U)

    if population:
        method, max_trace_dev, replayed = "exact_law", 0.0, 0
        psi, t = _sample_law(l_ops, k_gen, v, psi0, streams, times, forms,
                             diagonal, values)
    else:
        method = "kraus"
        gen_scale = np.abs(ops.h).max() + sum(np.abs(l).max() ** 2
                                              for l in l_ops)
        if dt * gen_scale > 0.1:
            warnings.warn(
                f"dt * generator scale = {dt * gen_scale:.3f} > 0.1; "
                "the Kraus-map bias may be large", stacklevel=2)
        psi, t, max_trace_dev, replayed = _kraus_steps(
            l_ops, basis_re, v, weights, psi0, streams, dt, n_steps,
            {i: s for s, i in enumerate(store_idx)}, forms, diagonal, values)

    phi = np.matmul(psi, v.T).view(complex)  # rotated back once
    y = np.matmul(phi.swapaxes(-1, -2), phi.conj())  # phi^T conj(phi)
    rho = y + y.conj().swapaxes(-1, -2)
    rho /= (2.0 * t)[:, None, None]
    return SMETrajectoryBatch(
        times=times, tracked_names=names, tracked_values=values,
        tracked_norms=norms, seed=seed, dt=dt, n_steps=n_steps,
        final_states=rho, max_trace_deviation=max_trace_dev,
        positivity_margin=float(np.linalg.eigvalsh(rho).min()),
        method=method, replayed_blocks=replayed)


def lindblad_means(ops, rho0, times, tracked):
    """Exact ensemble means E Tr[rho(t) X] of simulate_qsme's equation at
    each of times, as a (len(times), len(tracked)) real array.

    The innovation terms have zero mean, so the mean conditioned state
    solves the master equation d rho / dt = L*(rho) and equals
    exp(t L*)(rho0). With row-major vectorization vec(A X B) =
    (A kron B^T) vec(X), L* is the d^2 x d^2 matrix
      kron(K, I) + kron(I, conj K) + sum_j kron(L_j, conj L_j),
    and Tr[rho X] = vec(rho) . vec(X^T). Each time takes one expm. rho0 and
    every tracked operator must be finite ops.dim x ops.dim matrices. rho0
    is Hermitized as simulate_qsme Hermitizes it. simulate_qsme's factor
    also drops rho0's negative eigenvalues, at most 1e-8 in modulus by its
    precondition, and divides by the trace that remains; this reference
    keeps rho0 as given."""
    from scipy.linalg import expm  # importing the CLI loads no scipy

    d = ops.dim
    rho0 = _square_operator("lindblad_means", "rho0", rho0, d)
    obs = [_square_operator("lindblad_means", f"tracked {name!r}", x, d)
           for name, x in tracked]
    l_ops, k_gen = _generator(ops)
    eye = np.eye(d)
    liouvillian = (np.kron(k_gen, eye) + np.kron(eye, k_gen.conj())
                   + sum((np.kron(l, l.conj()) for l in l_ops),
                         np.zeros((d * d, d * d), dtype=complex)))
    vec0 = (0.5 * (rho0 + rho0.conj().T)).reshape(d * d)
    probes = np.array([x.T for x in obs],
                      dtype=complex).reshape(len(tracked), d * d)
    return np.array([(probes @ (expm(t * liouvillian) @ vec0)).real
                     for t in times]).reshape(len(times), len(tracked))


@dataclass(frozen=True)
class MartingaleEntry:
    name: str
    means: np.ndarray
    standard_errors: np.ndarray
    drift: float
    allowance: float
    passed: bool


def martingale_stats(batch):
    """Ensemble mean and standard error of each tracked quantity on the
    stored grid; the drift (mean at the final time minus mean at time 0) is
    compared against 3 x the final standard error, plus, on a "kraus"
    batch, 3 dt ||X|| for the integrator's first-order weak bias. An
    "exact_law" batch samples the exact law and has no such bias, so its
    allowance does not depend on dt. The standard error needs n_traj >= 2
    trajectories.
    """
    out = []
    n_traj = batch.tracked_values.shape[0]
    if n_traj < 2:
        raise PreconditionError(
            f"martingale_stats needs n_traj >= 2 for a standard error, "
            f"got n_traj = {n_traj}")
    # one reduction over the trajectory axis for all tracked quantities;
    # row k is quantity k
    means = batch.tracked_values.mean(axis=0).T
    ses = batch.tracked_values.std(axis=0, ddof=1).T / np.sqrt(n_traj)
    for k, name in enumerate(batch.tracked_names):
        drift = float(means[k, -1] - means[k, 0])
        bias = batch.dt * batch.tracked_norms[k] if batch.method == "kraus" else 0.0
        allowance = 3.0 * (float(ses[k, -1]) + bias)
        out.append(MartingaleEntry(
            name=name, means=means[k], standard_errors=ses[k], drift=drift,
            allowance=allowance, passed=abs(drift) <= allowance))
    return out
