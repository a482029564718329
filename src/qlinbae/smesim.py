"""Finite-dimensional stochastic-master-equation trajectory simulation.

Operators are realized on a truncated Fock space; the conditioned density
operator is integrated by Euler-Maruyama with per-step positivity repair,
and ensemble statistics test the martingale structure of conditional
expectations under a measurement that commutes with the dynamics.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, PreconditionError, ResourceError
from .matcore import DEFAULT_TOL

DIM_CAP = 4096
CLIP_FLOOR = -1e-8
REPAIR_BUDGET = 0.05


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
    max_trace_deviation: float
    max_repair_mass: float
    repair_counts: np.ndarray    # (n_steps,) trajectories repaired at each step
    worst_trace_step: int        # step of max_trace_deviation (None: no steps)


def _dagger(x):
    return x.conj().swapaxes(-1, -2)


def _maybe_below_floor(rho, shift):
    """Flags states whose smallest eigenvalue may lie below -shift.

    A batched Cholesky factorization of rho + shift*I, vectorized over the
    trajectory axis: a non-positive pivot means rho + shift*I is not
    positive definite. It costs a fraction of a batched eigendecomposition
    and is backward stable, so with shift well inside the clip floor every
    state that needs repair is flagged."""
    n_traj, d, _ = rho.shape
    a = rho + shift * np.eye(d)
    fac = np.zeros_like(a)
    flagged = np.zeros(n_traj, dtype=bool)
    for k in range(d):
        row = fac[:, k, :k]
        pivot = a[:, k, k].real - np.einsum("tj,tj->t", row, row.conj()).real
        flagged |= ~(pivot > 0.0)
        root = np.sqrt(np.where(pivot > 0.0, pivot, 1.0))
        fac[:, k, k] = root
        below = (fac[:, k + 1:, :k] @ row.conj()[:, :, None])[:, :, 0]
        fac[:, k + 1:, k] = (a[:, k + 1:, k] - below) / root[:, None]
    return flagged


def simulate_qsme(ops, rho0, dt, T, n_traj, seed, tracked, store_every=1):
    """Euler-Maruyama integration of the diffusive conditioned-state
    equation
      drho = L*(rho) dt
           + sum_j (L_j rho + rho L_j^dag - Tr[rho (L_j + L_j^dag)] rho) dnu_j
    with innovation increments dnu_j ~ Normal(0, dt), independent per
    channel. rho0 is Hermitized once. Each step Hermitizes, clips
    eigenvalues below -1e-8 to zero
    (any single step needing more than REPAIR_BUDGET of repaired mass per
    trajectory aborts with an instability error) and renormalizes the
    trace. Trajectories use
    independent counter-based
    RNG streams derived from (seed, trajectory index), so results are
    reproducible and order-independent.

    tracked: list of (name, operator) pairs; Tr(rho X) is recorded on the
    stored grid (every store_every steps, endpoints included).

    The batch reports, per step, how many trajectories had eigenvalues
    clipped (repair_counts) and the first step whose trace deviation before
    renormalization is max_trace_deviation (worst_trace_step).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    tr0 = np.trace(rho0).real
    if abs(tr0 - 1.0) > 1e-8:
        raise PreconditionError(f"rho0 trace {tr0} is not 1")
    w0 = np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T))
    if w0.min() < CLIP_FLOOR:
        raise PreconditionError("rho0 is not positive semidefinite")

    h = ops.h
    l_ops = [np.asarray(l, dtype=complex) for l in ops.l_ops]
    ldl = [l.conj().T @ l for l in l_ops]
    gen_scale = np.abs(h).max() + sum(np.abs(l).max() ** 2 for l in l_ops)
    if dt * gen_scale > 0.1:
        warnings.warn(
            f"dt * generator scale = {dt * gen_scale:.3f} > 0.1; "
            "the Euler-Maruyama bias may be large", stacklevel=2)

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
    l_dag = [_dagger(l) for l in l_ops]
    max_trace_dev = 0.0
    worst_trace_step = 0 if n_steps else None
    repair = np.zeros(n_traj)
    repair_counts = np.zeros(n_steps, dtype=int)

    def record(slot):
        for k, x in enumerate(obs):
            values[:, slot, k] = np.einsum("tij,ji->t", rho, x).real

    # With K = -iH - 1/2 sum_j L_j^dag L_j the drift is
    # K rho + rho K^dag + sum_j L_j rho L_j^dag. rho is Hermitian at the
    # start of every step, so X rho + rho X^dag is formed as Y + Y^dag
    # from the single product Y = X rho.
    k_gen = -1j * h - 0.5 * sum(ldl, np.zeros_like(h))
    slot = 0
    record(slot)
    for step in range(n_steps):
        kr = k_gen @ rho
        drho = kr + _dagger(kr)
        lrs = [l @ rho for l in l_ops]
        for lr, ld in zip(lrs, l_dag):
            drho += lr @ ld
        drho *= dt
        for j, lr in enumerate(lrs):
            exp_j = 2.0 * np.einsum("tii->t", lr).real
            mj = lr + _dagger(lr) - exp_j[:, None, None] * rho
            drho += mj * noise[:, step, j, None, None]
        rho = rho + drho
        rho = 0.5 * (rho + _dagger(rho))
        tr = np.einsum("tii->t", rho).real
        trace_dev = float(np.abs(tr - 1.0).max())
        if trace_dev > max_trace_dev:
            max_trace_dev, worst_trace_step = trace_dev, step
        idx = np.flatnonzero(_maybe_below_floor(rho, 0.5 * -CLIP_FLOOR))
        if idx.size:
            w, v = np.linalg.eigh(rho[idx])
            bad = w < CLIP_FLOOR
            step_mass = np.where(bad, -w, 0.0).sum(axis=1)
            repair[idx] = np.maximum(repair[idx], step_mass)
            if step_mass.max() > REPAIR_BUDGET:
                raise InstabilityError(
                    f"single-step positivity repair mass "
                    f"{step_mass.max():.3e} exceeds {REPAIR_BUDGET}; reduce dt")
            fix = bad.any(axis=1)
            repair_counts[step] = np.count_nonzero(fix)
            if fix.any():
                w, v = np.where(bad, 0.0, w)[fix], v[fix]
                fixed = np.einsum("tik,tk,tjk->tij", v, w, v.conj())
                rho[idx[fix]] = 0.5 * (fixed + _dagger(fixed))
        tr = np.einsum("tii->t", rho).real
        rho /= tr[:, None, None]
        if step + 1 in store_set:
            slot += 1
            record(slot)

    return SMETrajectoryBatch(
        times=times, tracked_names=names, tracked_values=values,
        tracked_norms=norms, seed=seed, dt=dt, n_steps=n_steps,
        final_states=rho, max_trace_deviation=max_trace_dev,
        max_repair_mass=float(repair.max()), repair_counts=repair_counts,
        worst_trace_step=worst_trace_step)


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
