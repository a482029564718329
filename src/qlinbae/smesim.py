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
from .matcore import DEFAULT_TOL

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
    eye = np.eye(fock_dim, dtype=complex)
    a_ops = []
    for k in range(n):
        factors = [eye] * n
        factors[k] = a1
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        a_ops.append(op)
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
    eigenvalues clustered within tol; returns [(eigenvalue, projector)]."""
    l = np.asarray(l_hermitian, dtype=complex)
    scale = max(np.abs(l).max(), 1.0)
    if np.abs(l - l.conj().T).max() > tol * scale:
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


def simulate_qsme(ops, rho0, dt, T, n_traj, seed, tracked, store_every=1):
    """Kraus-map integration (Rouchon & Ralph 2015, PRA 91, 012118) of the
    diffusive conditioned-state equation
      drho = L*(rho) dt
           + sum_j (L_j rho + rho L_j^dag - Tr[rho (L_j + L_j^dag)] rho) dnu_j
    with innovations dnu_j ~ Normal(0, dt), independent per channel, and
    L*(rho) = K rho + rho K^dag + sum_j L_j rho L_j^dag,
    K = -iH - 1/2 sum_j L_j^dag L_j. dt must be finite and > 0, T finite
    and >= 0, n_traj and store_every integers >= 1. rho0 is Hermitized
    once. Trajectories use independent counter-based RNG streams derived
    from (seed, trajectory index), so results are reproducible and
    order-independent.

    Each step reads the record dy_j = Tr[rho (L_j + L_j^dag)] dt + dnu_j
    and maps rho <- M rho M^dag / Tr(M rho M^dag) with
      M = I + K dt + sum_j L_j dy_j
            + 1/2 sum_jk L_j L_k (dy_j dy_k - delta_jk dt)
    (M = I + K dt without channels). By the Ito rule dy_j dy_k =
    delta_jk dt, (sum_j L_j dy_j) rho (sum_k L_k^dag dy_k) supplies the
    sum_j L_j rho L_j^dag dt of perfect detection, so no separate term
    adds it; dividing by the trace, 1 + sum_j Tr[rho (L_j + L_j^dag)] dy_j
    to first order, turns the increments dy_j into the innovations dnu_j.

    Positivity holds by construction: x^dag M rho M^dag x =
    (M^dag x)^dag rho (M^dag x) >= 0 for every x, and the trace is
    positive. Nothing is clipped or repaired; rounding alone moves
    eigenvalues, by about d eps ||M||^2 per step, and positivity_margin
    reports the smallest eigenvalue of the final states.

    Every stored state is exactly Hermitian: with Y = (M rho) M^dag the
    step stores (Y + Y^dag) / (2 Re Tr Y), whose entry (b, a),
    fl(y_ba + conj(y_ab)), is the exact conjugate of entry (a, b), and
    division by a real keeps the pairs. So Tr[rho (L_j + L_j^dag)] is the
    real inner product of two Hermitian matrices' float views, one real
    GEMM for all trajectories. A second real GEMM builds every M: the
    coefficients (1, dy_j, c_jk) times the float view of the basis
    [I + K dt, L_j, 1/2 (L_j L_k + L_k L_j) for j <= k], since a real
    coefficient scales both parts of an entry alike; the double sum is
    symmetric in (j, k), so c_jj = (dy_j^2 - dt) / 2 and, for j < k,
    c_jk = dy_j dy_k.

    tracked: list of (name, operator) pairs; Tr(rho X) is recorded on the
    stored grid (every store_every steps, endpoints included).

    max_trace_deviation is the largest |Tr(M rho M^dag) - 1|, the step's
    normalization, not a rounding error. A step that leaves a NaN or an
    infinite entry raises InstabilityError naming the step, with numpy's
    overflow and invalid-value warnings silenced so that the error is the
    one report; the entries of a trace-one positive state have modulus at
    most 1, so the check is on the sum of all entries.
    """
    _require(np.isfinite(dt) and dt > 0, "dt", "finite and > 0", dt)
    _require(np.isfinite(T) and T >= 0, "T", "finite and >= 0", T)
    _require(_is_count(n_traj), "n_traj", "an integer >= 1", n_traj)
    _require(_is_count(store_every), "store_every", "an integer >= 1",
             store_every)
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    tol = 1e-8  # on the trace and the smallest eigenvalue of rho0
    tr0 = np.trace(rho0).real
    if abs(tr0 - 1.0) > tol:
        raise PreconditionError(f"rho0 trace {tr0} is not 1")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -tol:
        raise PreconditionError("rho0 is not positive semidefinite")

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
    noise = np.empty((n_traj, n_steps, m))
    for i, g in enumerate(streams):
        noise[i] = g.normal(0.0, np.sqrt(dt), size=(n_steps, m))

    names = tuple(name for name, _ in tracked)
    obs = [np.asarray(x, dtype=complex) for _, x in tracked]
    norms = tuple(float(np.linalg.norm(x, 2)) for x in obs)

    store_idx = list(range(0, n_steps + 1, store_every))
    if store_idx[-1] != n_steps:
        store_idx.append(n_steps)
    store_set = set(store_idx)
    times = np.array([i * dt for i in store_idx])
    values = np.empty((n_traj, len(store_idx), len(obs)))

    rho = np.broadcast_to(0.5 * (rho0 + _dagger(rho0)), (n_traj, d, d)).copy()
    max_trace_dev = 0.0

    def record(slot):
        for k, x in enumerate(obs):
            values[:, slot, k] = np.einsum("tij,ji->t", rho, x).real

    jj, kk = np.triu_indices(m)
    basis = np.array(
        [np.eye(d) + dt * k_gen, *l_ops,
         *(0.5 * (l_ops[j] @ l_ops[k] + l_ops[k] @ l_ops[j])
           for j, k in zip(jj, kk))], dtype=complex)
    basis_re = basis.view(float).reshape(len(basis), 2 * d * d)
    record_gain = dt * np.array([l + l.conj().T for l in l_ops],
                                dtype=complex).reshape(m, d, d)
    record_gain = record_gain.view(float).reshape(m, 2 * d * d).T
    pair_scale = np.where(jj == kk, 0.5, 1.0)
    pair_shift = np.where(jj == kk, -0.5 * dt, 0.0)
    coef = np.ones((n_traj, len(basis)))
    kraus_rho = np.empty_like(rho)
    y = np.empty_like(rho)
    rho_re = rho.view(float).reshape(n_traj, 2 * d * d)
    slot = 0
    record(slot)
    # a non-finite step raises InstabilityError below; numpy's overflow and
    # invalid-value warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(n_steps):
            dy = rho_re @ record_gain + noise[:, step]
            coef[:, 1:m + 1] = dy
            coef[:, m + 1:] = dy[:, jj] * dy[:, kk] * pair_scale + pair_shift
            kraus = (coef @ basis_re).view(complex).reshape(n_traj, d, d)
            np.matmul(kraus, rho, out=kraus_rho)
            np.matmul(kraus_rho, _dagger(kraus), out=y)
            np.conjugate(y.swapaxes(-1, -2), out=rho)
            rho += y
            tr = np.einsum("tii->t", rho).real  # 2 Tr(M rho M^dag)
            max_trace_dev = max(max_trace_dev, float(np.abs(0.5 * tr - 1.0).max()))
            rho_re /= tr[:, None]
            if not np.isfinite(rho_re.sum()):
                raise InstabilityError(
                    f"step {step}: the conditioned state is not finite; reduce dt")
            if step + 1 in store_set:
                slot += 1
                record(slot)

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
    and Tr[rho X] = vec(rho) . vec(X^T). Each time takes one expm. rho0 is
    Hermitized as simulate_qsme Hermitizes it."""
    from scipy.linalg import expm  # importing the CLI loads no scipy

    l_ops, k_gen = _generator(ops)
    d = ops.dim
    eye = np.eye(d)
    liouvillian = (np.kron(k_gen, eye) + np.kron(eye, k_gen.conj())
                   + sum((np.kron(l, l.conj()) for l in l_ops),
                         np.zeros((d * d, d * d), dtype=complex)))
    rho0 = np.asarray(rho0, dtype=complex)
    vec0 = (0.5 * (rho0 + rho0.conj().T)).reshape(d * d)
    probes = np.array([np.asarray(x, dtype=complex).T for _, x in tracked],
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
    """
    out = []
    n_traj = batch.tracked_values.shape[0]
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
