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

    A left-looking Cholesky factorization of rho + shift*I, vectorized over
    the trajectory axis: column k of the factor is
    rho[:, k:, k] - fac[:, k:, :k] conj(fac[:, k, :k]), formed by one batched
    multiply-and-sum, and the shift enters the pivot only. A non-positive (or NaN)
    pivot means rho + shift*I is not positive definite. Cholesky is backward
    stable, so with shift well inside the clip floor every state that needs
    repair is flagged. The factor keeps the trajectory axis last, so every
    operation runs over contiguous runs of n_traj entries. Measured per
    call on a 2-core x86 machine, one BLAS thread, after a warm-up call:
    500 states of dimension 8 take 0.5 ms, against 1.2-1.8 ms for the
    right-looking form on an explicit rho + shift*I that this replaced and
    4-5 ms for a batched eigvalsh; 200 states take 0.3 ms (0.56 ms before),
    20 states 0.18 ms (0.26 ms), and 500 states of dimension 27 7.8 ms
    (16 ms)."""
    n_traj, d, _ = rho.shape
    fac = np.empty((d, d, n_traj), dtype=complex)  # strict lower part read
    ok = np.empty((d, n_traj), dtype=bool)
    for k in range(d):
        col = rho[:, k:, k].T - (fac[k:, :k] * fac[k, :k].conj()).sum(axis=1)
        pivot = col[0].real + shift
        ok[k] = pivot > 0.0
        fac[k + 1:, k] = col[1:] / np.sqrt(np.where(ok[k], pivot, 1.0))
    return ~ok.all(axis=0)


def _require(ok, name, requirement, value):
    if not ok:
        raise PreconditionError(
            f"simulate_qsme setting {name} must be {requirement}, got {value!r}")


def _is_count(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


def simulate_qsme(ops, rho0, dt, T, n_traj, seed, tracked, store_every=1):
    """Euler-Maruyama integration of the diffusive conditioned-state
    equation
      drho = L*(rho) dt
           + sum_j (L_j rho + rho L_j^dag - Tr[rho (L_j + L_j^dag)] rho) dnu_j
    with innovation increments dnu_j ~ Normal(0, dt), independent per
    channel. dt must be finite and > 0, T finite and >= 0, n_traj and
    store_every integers >= 1. rho0 is Hermitized once. Each step clips
    eigenvalues below CLIP_FLOOR to zero (any single step needing more than
    REPAIR_BUDGET of repaired mass per trajectory aborts with an
    InstabilityError naming the step and the trajectory) and renormalizes
    the trace. Trajectories use independent counter-based RNG streams
    derived from (seed, trajectory index), so results are reproducible and
    order-independent.

    With K = -iH - 1/2 sum_j L_j^dag L_j the Lindblad drift is
    L*(rho) = K rho + rho K^dag + sum_j L_j rho L_j^dag. rho is exactly
    Hermitian at the start of every step, so (rho X^dag)^dag = X rho,
    L_j rho L_j^dag is Hermitian and Tr[rho (L_j + L_j^dag)] =
    2 Re Tr(rho L_j^dag). The whole increment is therefore Y + Y^dag with
      Y^dag = dt rho K^dag + sum_j [dnu_j rho L_j^dag
              + (dt/2) L_j rho L_j^dag - dnu_j Re Tr(rho L_j^dag) rho].
    Every right product rho K^dag, rho L_j^dag comes from one matrix
    product of the stacked states with [dt K^dag | L_1^dag | ... ], and
    sum_j L_j rho L_j^dag = sum_j (rho L_j^dag)^dag L_j^dag from a second.
    The trace terms add up to -e rho with the real e = sum_j dnu_j
    Tr[rho (L_j + L_j^dag)]; with Z = Y^dag + e rho / 2 the step is
      rho <- (1 - e) rho + (Z + Z^dag).
    Entry (a, b) of Z + Z^dag is fl(z_ab + conj(z_ba)) and entry (b, a) is
    fl(z_ba + conj(z_ab)), its exact conjugate; scaling by the real 1 - e
    and adding two exactly Hermitian matrices keep exact conjugate pairs,
    and so do the repair and the trace division. rho stays Hermitian in
    floating point with no separate Hermitization.

    tracked: list of (name, operator) pairs; Tr(rho X) is recorded on the
    stored grid (every store_every steps, endpoints included).

    The batch reports, per step, how many trajectories had eigenvalues
    clipped (repair_counts) and the first step whose trace deviation before
    renormalization is max_trace_deviation (worst_trace_step).
    """
    _require(np.isfinite(dt) and dt > 0, "dt", "finite and > 0", dt)
    _require(np.isfinite(T) and T >= 0, "T", "finite and >= 0", T)
    _require(_is_count(n_traj), "n_traj", "an integer >= 1", n_traj)
    _require(_is_count(store_every), "store_every", "an integer >= 1",
             store_every)
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
    max_trace_dev = 0.0
    worst_trace_step = 0 if n_steps else None
    repair = np.zeros(n_traj)
    repair_counts = np.zeros(n_steps, dtype=int)

    def record(slot):
        for k, x in enumerate(obs):
            values[:, slot, k] = np.einsum("tij,ji->t", rho, x).real

    k_gen = -1j * h - 0.5 * sum(ldl, np.zeros_like(h))
    l_dag = _dagger(np.array(l_ops, dtype=complex).reshape(m, d, d))
    right = np.concatenate([dt * _dagger(k_gen), *l_dag], axis=1)
    left = 0.5 * dt * l_dag.reshape(m * d, d)
    # lr[t, b, j, a] = (L_j rho)[b, a], so one product sums over j and a
    lr = np.empty((n_traj, d, m, d), dtype=complex)
    inc = np.empty_like(rho)
    # a real scaling of the float view scales both parts of every entry
    # exactly as complex arithmetic would, at a fraction of its cost
    rho_re = rho.view(float)
    slot = 0
    record(slot)
    for step in range(n_steps):
        prods = (rho.reshape(-1, d) @ right).reshape(n_traj, d, m + 1, d)
        rl = prods[:, :, 1:]  # rho L_j^dag
        dnu = noise[:, step]
        np.conjugate(rl.transpose(0, 3, 2, 1), out=lr)
        z = (lr.reshape(n_traj * d, m * d) @ left).reshape(n_traj, d, d)
        z += prods[:, :, 0]
        for j in range(m):
            z += dnu[:, j, None, None] * rl[:, :, j]
        e = 2.0 * (dnu * np.einsum("tiji->tj", rl).real).sum(axis=1)
        np.conjugate(z.swapaxes(-1, -2), out=inc)
        inc += z
        rho_re *= (1.0 - e)[:, None, None]
        rho += inc
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
            worst = int(np.argmax(step_mass))
            if step_mass[worst] > REPAIR_BUDGET:
                raise InstabilityError(
                    f"step {step}: trajectory {idx[worst]} needs positivity "
                    f"repair mass {step_mass[worst]:.3e}, above the per-step "
                    f"budget REPAIR_BUDGET = {REPAIR_BUDGET}; reduce dt")
            fix = bad.any(axis=1)
            repair_counts[step] = np.count_nonzero(fix)
            if fix.any():
                w, v = np.where(bad, 0.0, w)[fix], v[fix]
                fixed = np.einsum("tik,tk,tjk->tij", v, w, v.conj())
                rho[idx[fix]] = 0.5 * (fixed + _dagger(fixed))
        tr = np.einsum("tii->t", rho).real
        rho_re /= tr[:, None, None]
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
