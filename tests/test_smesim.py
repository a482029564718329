"""Truncated operators, spectral projections, and the conditioned-state
integrator."""

import numpy as np
import pytest

from qlinbae import qsys, smesim
from qlinbae.errors import PreconditionError, ResourceError


def _measured_mode(coupling=1.0):
    """One mode measured through L = coupling * sqrt(2) * q, H = 0."""
    c = np.array([[coupling]], dtype=complex)
    z = np.zeros((1, 1))
    return qsys.new_system(np.eye(1), c, c, z, z)


# ----------------------------------------------------------------- operators

def test_ladder_matrix_elements():
    a = smesim.ladder(5)
    for k in range(1, 5):
        assert a[k - 1, k] == pytest.approx(np.sqrt(k))
    assert np.count_nonzero(a) == 4
    # the canonical commutator only fails at the truncation edge
    defect = a @ a.conj().T - a.conj().T @ a - np.eye(5)
    assert np.allclose(defect[:4, :4], 0.0)
    assert defect[4, 4] == pytest.approx(-5.0)


def test_build_truncated_operators_shapes_and_guards():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=6)
    assert ops.dim == 6
    assert len(ops.l_ops) == 1
    assert np.allclose(ops.h, 0.0)
    # L = C- a + C+ a^dag = a + a^dag = sqrt(2) q, Hermitian
    assert np.allclose(ops.l_ops[0], ops.l_ops[0].conj().T)
    with pytest.raises(PreconditionError):
        smesim.build_truncated_operators(_measured_mode(), fock_dim=1)
    rng = np.random.default_rng(0)
    big = qsys.random_system(rng, 3, 1)
    with pytest.raises(ResourceError):
        smesim.build_truncated_operators(big, fock_dim=17)  # 17^3 > 4096


def test_hamiltonian_assembly_is_hermitian():
    rng = np.random.default_rng(1)
    for _ in range(5):
        sys_obj = qsys.random_system(rng, 2, 1)
        ops = smesim.build_truncated_operators(sys_obj, fock_dim=4)
        assert np.allclose(ops.h, ops.h.conj().T)


# ------------------------------------------------------------- projections

def test_spectral_projections_diagonal_example():
    proj = smesim.spectral_projections(np.diag([1.0, 1.0, 2.0]))
    as_dict = {round(val, 9): p for val, p in proj}
    assert set(as_dict) == {1.0, 2.0}
    assert np.allclose(as_dict[1.0], np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(as_dict[2.0], np.diag([0.0, 0.0, 1.0]))


def test_spectral_projections_resolution_of_identity():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    proj = smesim.spectral_projections(ops.l_ops[0])
    assert len(proj) == 8  # truncated quadrature has distinct eigenvalues
    total = sum(p for _, p in proj)
    assert np.allclose(total, np.eye(8))
    for i, (_, pi) in enumerate(proj):
        assert np.allclose(pi @ pi, pi)
        assert np.linalg.matrix_rank(pi) == 1
        for j, (_, pj) in enumerate(proj):
            if i != j:
                assert np.abs(pi @ pj).max() < 1e-9


# --------------------------------------------------------------- integrator

def _ground_state_mixture(d):
    gs = np.zeros(d)
    gs[0] = 1.0
    return 0.6 * np.outer(gs, gs) + 0.4 * np.eye(d) / d


def test_free_evolution_is_exactly_stationary():
    d = 4
    ops = smesim.TruncatedOperators(
        fock_dim=d, n_modes=1, a_ops=(smesim.ladder(d),), l_ops=(),
        h=np.zeros((d, d), dtype=complex))
    # dyadic weights so the trace is exactly 1.0 in floating point
    rho0 = np.diag([0.625, 0.125, 0.125, 0.125]).astype(complex)
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-2, T=0.1, n_traj=3,
                                 seed=0, tracked=[("n", np.diag(np.arange(d)).astype(complex))])
    assert np.all(batch.tracked_values == batch.tracked_values[:, :1, :])
    assert np.allclose(batch.final_states, rho0)


def test_eigenstate_of_measured_observable_is_stationary():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    proj = smesim.spectral_projections(ops.l_ops[0])
    _, p0 = proj[0]
    rho0 = p0 / np.trace(p0).real
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.2, n_traj=4, seed=3,
                                 tracked=[("L", ops.l_ops[0])])
    drift = np.abs(batch.tracked_values[:, -1, 0]
                   - batch.tracked_values[:, 0, 0]).max()
    assert drift < 1e-6


def test_seed_determinism_bit_identical():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=6)
    rho0 = _ground_state_mixture(6)
    kw = dict(dt=1e-3, T=0.05, n_traj=5, seed=42,
              tracked=[("L", ops.l_ops[0])])
    b1 = smesim.simulate_qsme(ops, rho0, **kw)
    b2 = smesim.simulate_qsme(ops, rho0, **kw)
    assert np.array_equal(b1.tracked_values, b2.tracked_values)
    assert np.array_equal(b1.final_states, b2.final_states)


def test_one_step_matches_reference_recomputation():
    """Single Euler-Maruyama step recomputed from scratch: drift plus
    measurement noise, Hermitize, clip, renormalize."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=6)
    rho0 = _ground_state_mixture(6)
    dt, seed = 1e-3, 7
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=dt, n_traj=1, seed=seed,
                                 tracked=[("L", ops.l_ops[0])])

    stream = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    dnu = stream.normal(0.0, np.sqrt(dt), size=(1, 1))[0, 0]
    l = ops.l_ops[0]
    h = ops.h
    ldl = l.conj().T @ l
    drift = -1j * (h @ rho0 - rho0 @ h) + l @ rho0 @ l.conj().T \
        - 0.5 * (ldl @ rho0 + rho0 @ ldl)
    exp_l = np.trace(rho0 @ (l + l.conj().T)).real
    meas = l @ rho0 + rho0 @ l.conj().T - exp_l * rho0
    rho = rho0 + drift * dt + meas * dnu
    rho = 0.5 * (rho + rho.conj().T)
    w, v = np.linalg.eigh(rho)
    if w.min() < smesim.CLIP_FLOOR:
        w = np.where(w < smesim.CLIP_FLOOR, 0.0, w)
        rho = v @ np.diag(w) @ v.conj().T
    rho = rho / np.trace(rho).real
    assert np.allclose(batch.final_states[0], rho, atol=1e-14)


def _two_channel_mode():
    """One mode read out through two channels, L_1 = a + 0.3 a^dag and
    L_2 = 0.5i a, with the quadratic H of Omega_- = 1, Omega_+ = 0.5."""
    return qsys.new_system(np.eye(2), np.array([[1.0], [0.5j]]),
                           np.array([[0.3], [0.0]]), np.array([[1.0]]),
                           np.array([[0.5]]))


def test_steps_match_per_product_reference():
    """Twenty steps of six two-channel trajectories from a pure state
    (rank one, so most steps clip) recomputed one matrix product at a time
    from the equation in the simulate_qsme docstring, on the same Philox
    streams: drift and measurement terms, Hermitize, clip, renormalize.

    Tolerance, derived before comparing: each entry of one step is a sum of
    at most 3d products (the d-term inner products of L rho L^dag), so each
    side rounds it with error at most 3d eps times the sum of the terms'
    magnitudes (Higham, gamma_n). With ||rho||_2 <= 1 that sum is at most
    scale = 1 + dt (2||H|| + 2 sum_j ||L_j||^2) + max|dnu| sum_j 4||L_j||.
    The clip is a projection onto the PSD cone, which is 1-Lipschitz in the
    Frobenius norm, and the trace division is by a trace within the
    repaired mass (below 1e-3 here) of 1, so to first order the errors of
    the n_steps steps add: atol = n_steps * 2 sides * 3d eps * scale
    (3.5e-13 here, with scale = 2.2)."""
    ops = smesim.build_truncated_operators(_two_channel_mode(), fock_dim=6)
    d, h, ls = ops.dim, ops.h, ops.l_ops
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0
    dt, n_steps, n_traj, seed = 1e-3, 20, 6, 4
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                 n_traj=n_traj, seed=seed, tracked=[])

    counts = np.zeros(n_steps, dtype=int)
    finals, max_dnu = [], 0.0
    for child in np.random.SeedSequence(seed).spawn(n_traj):
        dnu = np.random.Generator(np.random.Philox(child)).normal(
            0.0, np.sqrt(dt), size=(n_steps, len(ls)))
        max_dnu = max(max_dnu, np.abs(dnu).max())
        rho = rho0
        for step in range(n_steps):
            new = rho - 1j * (h @ rho - rho @ h) * dt
            for j, l in enumerate(ls):
                ldl = l.conj().T @ l
                new = new + (l @ rho @ l.conj().T
                             - 0.5 * (ldl @ rho + rho @ ldl)) * dt
                exp_l = np.trace(rho @ (l + l.conj().T)).real
                new = new + (l @ rho + rho @ l.conj().T - exp_l * rho) * dnu[step, j]
            rho = 0.5 * (new + new.conj().T)
            w, v = np.linalg.eigh(rho)
            if w.min() < smesim.CLIP_FLOOR:
                counts[step] += 1
                w = np.where(w < smesim.CLIP_FLOOR, 0.0, w)
                rho = v @ np.diag(w) @ v.conj().T
            rho = rho / np.trace(rho).real
        finals.append(rho)

    norm = lambda x: np.linalg.norm(x, 2)
    scale = (1.0 + dt * (2 * norm(h) + 2 * sum(norm(l) ** 2 for l in ls))
             + max_dnu * sum(4 * norm(l) for l in ls))
    atol = n_steps * 2 * 3 * d * np.finfo(float).eps * scale
    assert counts.sum() > n_steps  # the clip is exercised
    assert np.array_equal(batch.repair_counts, counts)
    assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)


def test_positivity_instability_detection():
    """A wildly large step forces an eigenvalue repair beyond the per-step
    budget and must abort rather than silently project."""
    ops = smesim.build_truncated_operators(_measured_mode(coupling=40.0),
                                           fock_dim=6)
    rho0 = _ground_state_mixture(6)
    from qlinbae.errors import InstabilityError
    with pytest.warns(UserWarning, match="Euler-Maruyama bias"):
        with pytest.raises(InstabilityError, match=r"step \d+: trajectory \d+ "
                           r"needs positivity repair mass .* REPAIR_BUDGET = 0\.05"):
            smesim.simulate_qsme(ops, rho0, dt=0.05, T=1.0, n_traj=8, seed=0,
                                 tracked=[("L", ops.l_ops[0])])


def _repaired_states(rng, n, d):
    """Trace-one PSD states built as the repair builds them, v diag(w) v^dag
    with w >= 0: ranks run from 1 to d, so most have exact zero
    eigenvalues that rounding leaves within a few eps of zero."""
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    v, _ = np.linalg.qr(g)
    w = rng.uniform(0.0, 1.0, size=(n, d))
    w[np.arange(d) >= rng.integers(1, d + 1, size=n)[:, None]] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    rho = np.einsum("tik,tk,tjk->tij", v, w, v.conj())
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def test_cholesky_gate_flags_every_state_below_the_clip_floor():
    """The batched Cholesky gate in front of the repair eigendecomposition
    must flag every state whose smallest eigenvalue is below CLIP_FLOOR,
    and no state that is positive semidefinite to within the shift, among
    low-rank states and rank-deficient states with exact zero eigenvalues,
    each as built and pushed down by up to 3 CLIP_FLOOR, at every
    fock_dim**n_modes size the CLI reaches up to 27."""
    rng = np.random.default_rng(5)
    shift = 0.5 * -smesim.CLIP_FLOOR
    for d in (2, 4, 8, 9, 27):
        n = 4000 if d <= 9 else 400
        g = rng.normal(size=(n, d, 2)) + 1j * rng.normal(size=(n, d, 2))
        low_rank = g @ g.conj().transpose(0, 2, 1)
        low_rank /= np.einsum("tii->t", low_rank).real[:, None, None]
        rho = np.concatenate([low_rank, _repaired_states(rng, n, d)])
        pushed = rho - rng.uniform(0.0, 3e-8, size=2 * n)[:, None, None] * np.eye(d)
        rho = np.concatenate([rho, pushed])
        flagged = smesim._maybe_below_floor(rho, shift)
        w_min = np.linalg.eigvalsh(rho).min(axis=1)
        below = w_min < smesim.CLIP_FLOOR
        above = w_min > -shift + 1e-12
        assert below.sum() > n // 4 and above.sum() > 2 * n, d
        assert np.all(flagged[below]), d
        assert not np.any(flagged[above]), d
        assert not np.any(smesim._maybe_below_floor(
            np.broadcast_to(np.eye(d) / d, (3, d, d)).copy(), shift)), d


def test_batch_reports_repairs_per_step():
    """repair_counts counts the trajectories clipped at each step and
    worst_trace_step is the first step of the largest trace deviation; a
    shorter run on the same noise streams reproduces both as prefixes."""
    ops = smesim.build_truncated_operators(_measured_mode(coupling=2.0),
                                           fock_dim=6)
    rho0 = _ground_state_mixture(6)

    def run(steps):
        return smesim.simulate_qsme(ops, rho0, dt=1e-3, T=steps * 1e-3,
                                    n_traj=8, seed=0, tracked=[])

    batch = run(200)
    assert batch.repair_counts.shape == (200,)
    assert 0 < batch.repair_counts.sum() and batch.repair_counts.max() <= 8
    assert np.array_equal(batch.final_states,
                          batch.final_states.conj().swapaxes(-1, -2))
    assert batch.max_repair_mass > 0.0
    worst = batch.worst_trace_step
    head = run(worst + 1)
    assert np.array_equal(head.repair_counts, batch.repair_counts[:worst + 1])
    assert (head.worst_trace_step, head.max_trace_deviation) == \
        (worst, batch.max_trace_deviation)
    assert run(worst).max_trace_deviation < batch.max_trace_deviation


def test_batch_reports_no_repairs_on_a_clean_run():
    ops = smesim.build_truncated_operators(_measured_mode(coupling=0.5),
                                           fock_dim=6)
    batch = smesim.simulate_qsme(ops, _ground_state_mixture(6), dt=1e-3,
                                 T=0.05, n_traj=8, seed=0, tracked=[])
    assert np.array_equal(batch.repair_counts, np.zeros(50, dtype=int))
    assert batch.max_repair_mass == 0.0
    assert 0 <= batch.worst_trace_step < 50


def test_store_every_subsampling():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    rho0 = _ground_state_mixture(4)
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.01, n_traj=2,
                                 seed=1, tracked=[("L", ops.l_ops[0])],
                                 store_every=4)
    assert batch.times[0] == 0.0
    assert batch.times[-1] == pytest.approx(0.01)
    assert len(batch.times) == 4  # steps 0, 4, 8, 10


def test_rho0_validation():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    with pytest.raises(PreconditionError):
        smesim.simulate_qsme(ops, 2.0 * np.eye(4) / 4.0, dt=1e-3, T=0.01,
                             n_traj=1, seed=0, tracked=[])


@pytest.mark.parametrize("setting", [
    dict(dt=0.0), dict(dt=-1e-3), dict(dt=np.nan), dict(dt=np.inf),
    dict(T=-0.01), dict(T=np.nan), dict(T=np.inf),
    dict(n_traj=0), dict(n_traj=2.0), dict(n_traj=True),
    dict(store_every=0), dict(store_every=1.5)])
def test_settings_are_checked_up_front(setting):
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    kw = dict(dt=1e-3, T=0.01, n_traj=2, seed=0, tracked=[], store_every=1)
    kw.update(setting)
    (name,) = setting
    with pytest.raises(PreconditionError, match=f"setting {name} must be"):
        smesim.simulate_qsme(ops, _ground_state_mixture(4), **kw)


# ---------------------------------------------------------- martingale stats

def test_martingale_stats_small_ensemble():
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    rho0 = _ground_state_mixture(8)
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.2, n_traj=200,
                                 seed=11, tracked=[("L", ops.l_ops[0])],
                                 store_every=20)
    (entry,) = smesim.martingale_stats(batch)
    assert entry.name == "L"
    assert entry.passed, (entry.drift, entry.allowance)
    assert entry.means.shape == batch.times.shape
