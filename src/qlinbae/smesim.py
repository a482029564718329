"""Finite-dimensional stochastic-master-equation trajectory simulation.

Operators are realized on a truncated Fock space; the conditioned density
operator is integrated by a Kraus map that keeps it positive by
construction, the exact master-equation means give a reference for the
ensemble, and ensemble statistics test the martingale structure of
conditional expectations under a measurement that commutes with the
dynamics.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, PreconditionError, ResourceError
from .matcore import DEFAULT_TOL, _negligible

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
    max_trace_deviation: float   # largest |Tr(M rho M^dag) - 1| of any step
    positivity_margin: float     # smallest eigenvalue of any final state

    @property
    def max_repair_mass(self):
        """The mass a clip of negative eigenvalues would remove from the
        worst final state, max(0, -positivity_margin); no step repairs."""
        return max(0.0, -self.positivity_margin)


def _dagger(x):
    return x.conj().swapaxes(-1, -2)


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


def _is_count(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


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
    x @ X == (x.view(float) @ R(X)).view(complex) for a complex row x."""
    return (np.kron(x.real, np.eye(2))
            + np.kron(x.imag, np.array([[0.0, 1.0], [-1.0, 0.0]])))


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


def _noise_block(d, m, n_steps):
    """Steps per refill of the innovation buffer: its m innovations per
    step and trajectory fill no more than the 4 d^2 entries per trajectory
    of the per-step Kraus buffer (one step at least), and at most the run."""
    return max(1, min(n_steps, 4 * d * d // max(m, 1)))


def _tracked_forms(obs, v, r):
    """Each tracked X as a real form on psi: with H = (X + X^dag) / 2,
    Re Tr(phi^T conj(phi) X) is the sum over the rows f of phi's float view
    of f R(H^T) f^T, and f = psi V^T, so it is sum psi W' psi^T over psi's
    rows with W' = V^T R(H^T) V, rotated once.

    Formed as (V^T W) V, two products of inner dimension 2d, W' departs
    from V^T W V by less than B = 2 gamma |V|^T |W| |V| entry by entry, to
    first order, with gamma = 2d u / (1 - 2d u), u = eps / 2 (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.5). If every
    off-diagonal |W'_ab| <= B_ab, each W' is diagonal within the rounding
    of its own rotation, as for an X that commutes with the record operator
    (and is not split by a repeated eigenvalue of it), and the forms are
    the columns diag W' tiled r times: Tr(rho X) t = psi^2 . diag W', a flat
    product against the squares that `_square_read` leaves. Dropping the
    off-diagonals then moves Tr(rho X) by at most ||2B||_2, since the exact
    off-diagonals are below 2B. Otherwise the forms are the flattened W',
    and Tr(rho X) t is the real Gram matrix psi^T psi dotted with W'.
    Returns (forms, diagonal)."""
    n = len(v)
    w = np.array([_real_form(0.5 * (x + x.conj().T).T) for x in obs]
                 ).reshape(len(obs), n, n)
    rotated = v.T @ w @ v
    nu = n * np.finfo(float).eps / 2
    gamma = nu / (1.0 - nu)
    bound = 2.0 * gamma * (np.abs(v).T @ np.abs(w) @ np.abs(v))
    off = ~np.eye(n, dtype=bool)
    if (np.abs(rotated) <= bound)[:, off].all():
        return np.tile(np.diagonal(rotated, axis1=1, axis2=2).T, (r, 1)), True
    return rotated.reshape(len(obs), n * n).T, False


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


def simulate_qsme(ops, rho0, dt, T, n_traj, seed, tracked, store_every=1):
    """Kraus-map integration (Rouchon & Ralph 2015, PRA 91, 012118) of the
    diffusive conditioned-state equation
      drho = L*(rho) dt
           + sum_j (L_j rho + rho L_j^dag - Tr[rho (L_j + L_j^dag)] rho) dnu_j
    with innovations dnu_j ~ Normal(0, dt), independent per channel, and
    L*(rho) = K rho + rho K^dag + sum_j L_j rho L_j^dag,
    K = -iH - 1/2 sum_j L_j^dag L_j. dt must be finite and > 0, T finite
    and >= 0, n_traj and store_every integers >= 1, rho0 and every tracked
    operator finite ops.dim x ops.dim matrices. Trajectories use
    independent counter-based RNG streams derived from (seed, trajectory
    index), so results are reproducible and order-independent. The
    innovations are drawn a block of steps at a time into one step-major
    buffer, no larger than the per-step Kraus buffer (`_noise_block`), so
    memory does not grow with T; a Philox stream drawn in chunks gives the
    same numbers as one draw of the whole run, so the block size changes
    no output bit.

    Each step reads the record dy_j = Tr[rho (L_j + L_j^dag)] dt + dnu_j
    and maps rho <- M rho M^dag / Tr(M rho M^dag) with
      M = I + K dt + sum_j L_j dy_j
            + 1/2 sum_jk L_j L_k (dy_j dy_k - delta_jk dt)
    (M = I + K dt without channels). By the Ito rule dy_j dy_k =
    delta_jk dt, (sum_j L_j dy_j) rho (sum_k L_k^dag dy_k) supplies the
    sum_j L_j rho L_j^dag dt of perfect detection, so no separate term
    adds it; dividing by the trace, 1 + sum_j Tr[rho (L_j + L_j^dag)] dy_j
    to first order, turns the increments dy_j into the innovations dnu_j.

    The map is linear in rho, so it acts on a factor. rho0 is Hermitized
    and factored once: with eigh(rho0) = U diag(w) U^dag and only the
    positive w kept (the precondition rejects any w below -1e-8), the
    r x d matrix phi = (U sqrt(w))^T, r = rank rho0, gives
    rho = phi^T conj(phi). Then M rho M^dag = (phi M^T)^T conj(phi M^T),
    so each step is phi <- phi M^T, and Tr(M rho M^dag) = ||phi M^T||_F^2.
    Positivity holds by construction: every phi^T conj(phi) is a Gram
    matrix. Nothing is clipped or repaired; positivity_margin, the
    smallest eigenvalue of the final states, carries only the rounding of
    the rotation, product, sum and division that form them, whatever the
    step count.

    The step runs in real arithmetic on the float view of phi, where a
    complex row x times X is x.view(float) @ R(X) with
    R(X) = kron(Re X, I_2) + kron(Im X, [[0, 1], [-1, 0]]), and in the
    eigenbasis of the first channel's record operator: R_1 =
    R(dt (L_1 + L_1^dag)^T) is symmetric, R_1 = V diag(lam) V^T with
    V = R(conj U) orthogonal for eigh(dt (L_1 + L_1^dag)) = U diag(mu)
    U^dag (see `_eigenframe`), and the loop carries psi = phi V, the float
    view of phi conj(U). R is real linear, so psi <- psi V^T R(M^T) V is
    the coefficients (1, dy_j, c_jk) times the rotated real forms
    V^T R(B^T) V of the basis [I + K dt, L_j,
    1/2 (L_j L_k + L_k L_j) for j <= k], one real GEMM for all
    trajectories, then one batched real product; the double sum is
    symmetric in (j, k), so c_jj = (dy_j^2 - dt) / 2 and, for j < k,
    c_jk = dy_j dy_k. With rho = phi^T conj(phi) / t, the norm
    t = ||phi||_F^2 = sum psi^2 and the first record
    Tr[rho dt (L_1 + L_1^dag)] = sum lam psi^2 / t come from one pass of
    squares psi^2 and one flat product per trajectory against [1 | lam]
    (`_square_read`); each further channel j >= 2 reads the real dot
    product of psi with psi V^T R_j V, one GEMM for all of them. After the
    product, Tr(M rho M^dag) is the new t over the old. Rather than a pass
    that divides psi, M carries the power of two s with s^2 t in [1/2, 2),
    which keeps psi near unit norm: scaling by a power of two rounds
    nothing, so psi^2 and t scale together exactly. Without channels V = I,
    so a step with M = I leaves psi, t and every stored value
    bit-identical; with a channel the eigenbasis rounds, so psi and its
    rotations agree with phi's to rounding only.

    tracked: list of (name, operator) pairs; Tr(rho X) is recorded on the
    stored grid (every store_every steps, endpoints included), read on psi
    in the eigenbasis against each X rotated once (`_tracked_forms`). When
    every rotated X is diagonal to within the rounding of its rotation, as
    each X that commutes with the first record operator is, a stored value
    is the squares psi^2 that the step's read just left, times diag W',
    one small GEMM; otherwise it is the real Gram matrix psi^T psi dotted
    with W'. Either agrees with Re Tr(phi^T conj(phi) X) / t to rounding.
    phi = psi V^T is rotated back and Y = phi^T conj(phi) formed once, at
    the end: the final states are (Y + Y^dag) / (2t), whose entry (b, a),
    fl(y_ba + conj(y_ab)) over a real, is the exact conjugate of entry
    (a, b), so every final state is exactly Hermitian.

    max_trace_deviation is the largest |Tr(M rho M^dag) - 1|, the step's
    normalization, not a rounding error. Each step writes its ratios into
    a block buffer; per block of steps it is max(hi - 1, 1 - lo) over the
    block's smallest and largest ratio, the same float as a max over each
    step. A step whose new t is not finite and positive raises
    InstabilityError naming the first such step, once its block ends,
    with numpy's overflow and invalid-value warnings silenced so that the
    error is the one report: a finite positive t bounds every entry of psi
    and of phi^T conj(phi), so the check is on the ratios alone, and psi
    can stay finite where the state it stands for overflows.
    """
    _require(np.isfinite(dt) and dt > 0, "dt", "finite and > 0", dt)
    _require(np.isfinite(T) and T >= 0, "T", "finite and >= 0", T)
    _require(_is_count(n_traj), "n_traj", "an integer >= 1", n_traj)
    _require(_is_count(store_every), "store_every", "an integer >= 1",
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
    gen_scale = np.abs(ops.h).max() + sum(np.abs(l).max() ** 2 for l in l_ops)
    if dt * gen_scale > 0.1:
        warnings.warn(
            f"dt * generator scale = {dt * gen_scale:.3f} > 0.1; "
            "the Kraus-map bias may be large", stacklevel=2)

    n_steps = int(round(T / dt))
    m = len(l_ops)
    streams = [np.random.Generator(np.random.Philox(child))
               for child in np.random.SeedSequence(seed).spawn(n_traj)]
    block = _noise_block(d, m, n_steps)
    noise = np.empty((block, n_traj, m))  # step-major, refilled per block
    ratios = np.empty((block, n_traj))  # Tr(M rho M^dag), checked per block

    names = tuple(name for name, _ in tracked)
    norms = tuple(float(np.linalg.norm(x, 2)) for x in obs)
    store_idx = list(range(0, n_steps + 1, store_every))
    if store_idx[-1] != n_steps:
        store_idx.append(n_steps)
    store_set = set(store_idx)
    times = np.array([i * dt for i in store_idx])
    values = np.empty((n_traj, len(store_idx), len(obs)))

    if m:
        v, weights = _eigenframe(dt * (l_ops[0] + l_ops[0].conj().T), r)
    else:  # no record to read; V = I rounds nothing
        v, weights = np.eye(2 * d), np.ones((2 * r * d, 1))
    forms, diagonal = _tracked_forms(obs, v, r)
    phi0 = np.ascontiguousarray((u[:, keep] * np.sqrt(w[keep])).T)
    psi = np.broadcast_to(phi0.view(float) @ v, (n_traj, r, 2 * d)).copy()
    spare = np.empty_like(psi)  # squares, product, rotation back
    read = _square_read(psi, weights, spare)  # [t, t dy_1 without noise]
    max_trace_dev = 0.0

    def record(slot):
        if diagonal:  # spare holds psi^2 from the read just taken
            flat = spare.reshape(n_traj, -1)
        else:  # matmul is slow on a swapaxes view; copy it first
            psi_t = np.ascontiguousarray(psi.swapaxes(1, 2))
            flat = (psi_t @ psi).reshape(n_traj, -1)
        values[:, slot] = flat @ forms / read[:, :1]

    jj, kk = np.triu_indices(m)
    basis = [np.eye(d) + dt * k_gen, *l_ops,
             *(0.5 * (l_ops[j] @ l_ops[k] + l_ops[k] @ l_ops[j])
               for j, k in zip(jj, kk))]
    basis_re = np.array([v.T @ _real_form(b.T) @ v for b in basis]).reshape(
        len(basis), 4 * d * d)
    if m > 1:  # [R_2 | ... | R_m], rotated
        record_gain = np.concatenate([
            v.T @ _real_form(dt * (l + l.conj().T).T) @ v for l in l_ops[1:]],
            axis=1)
    pair_scale = np.where(jj == kk, 0.5, 1.0)
    pair_shift = np.where(jj == kk, -0.5 * dt, 0.0)
    coef = np.ones((n_traj, len(basis)))
    kraus_re = np.empty((n_traj, 2 * d, 2 * d))
    slot = 0
    record(slot)
    # a non-finite step raises InstabilityError below; numpy's overflow and
    # invalid-value warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            for i, g in enumerate(streams):
                noise[:stop - start, i] = g.normal(0.0, np.sqrt(dt),
                                                   size=(stop - start, m))
            for step in range(start, stop):
                t = read[:, 0]
                dy = coef[:, 1:m + 1]  # the records, formed in place
                # channel 1 (none without channels)
                np.divide(read[:, 1:], t[:, None], out=dy[:, :1])
                if m > 1:
                    gained = psi.reshape(n_traj * r, 2 * d) @ record_gain
                    np.divide(np.einsum("trjc,trc->tj", gained.reshape(
                        n_traj, r, m - 1, 2 * d), psi), t[:, None],
                        out=dy[:, 1:])
                dy += noise[step - start]
                coef[:, m + 1:] = dy[:, jj] * dy[:, kk] * pair_scale + pair_shift
                s = np.ldexp(1.0, -(np.frexp(t)[1] // 2))  # s^2 t in [1/2, 2)
                np.matmul(coef * s[:, None], basis_re,
                          out=kraus_re.reshape(n_traj, 4 * d * d))
                np.matmul(psi, kraus_re, out=spare)
                psi, spare = spare, psi
                read = _square_read(psi, weights, spare)
                np.divide(read[:, 0], s * s * t, out=ratios[step - start])
                if step + 1 in store_set:
                    slot += 1
                    record(slot)
            max_trace_dev = max(max_trace_dev,
                                _trace_deviation(ratios[:stop - start], start))

    np.matmul(psi, v.T, out=spare)  # phi = psi V^T, rotated back once
    phi = spare.view(complex)
    y = np.matmul(phi.swapaxes(-1, -2), phi.conj())  # phi^T conj(phi)
    rho = y + _dagger(y)
    rho /= (2.0 * read[:, 0])[:, None, None]
    return SMETrajectoryBatch(
        times=times, tracked_names=names, tracked_values=values,
        tracked_norms=norms, seed=seed, dt=dt, n_steps=n_steps,
        final_states=rho, max_trace_deviation=max_trace_dev,
        positivity_margin=float(np.linalg.eigvalsh(rho).min()))


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
    compared against 3 x (standard error + dt-proportional bias allowance).
    The standard error needs n_traj >= 2 trajectories.
    """
    out = []
    n_traj = batch.tracked_values.shape[0]
    if n_traj < 2:
        raise PreconditionError(
            f"martingale_stats needs n_traj >= 2 for a standard error, "
            f"got n_traj = {n_traj}")
    for k, name in enumerate(batch.tracked_names):
        vals = batch.tracked_values[:, :, k]
        means = vals.mean(axis=0)
        ses = vals.std(axis=0, ddof=1) / np.sqrt(n_traj)
        drift = float(means[-1] - means[0])
        allowance = 3.0 * (float(ses[-1]) + batch.dt * batch.tracked_norms[k])
        out.append(MartingaleEntry(
            name=name, means=means, standard_errors=ses, drift=drift,
            allowance=allowance, passed=abs(drift) <= allowance))
    return out
