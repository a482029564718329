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


def test_positivity_instability_detection():
    """A wildly large step forces an eigenvalue repair beyond the per-step
    budget and must abort rather than silently project."""
    ops = smesim.build_truncated_operators(_measured_mode(coupling=40.0),
                                           fock_dim=6)
    rho0 = _ground_state_mixture(6)
    from qlinbae.errors import InstabilityError
    with pytest.warns(UserWarning, match="Euler-Maruyama bias"):
        with pytest.raises(InstabilityError):
            smesim.simulate_qsme(ops, rho0, dt=0.05, T=1.0, n_traj=8, seed=0,
                                 tracked=[("L", ops.l_ops[0])])


def test_cholesky_gate_flags_every_state_below_the_clip_floor():
    """The batched Cholesky gate in front of the repair eigendecomposition
    must flag every state whose smallest eigenvalue is below CLIP_FLOOR,
    and no state that is positive semidefinite."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4000, 6, 2)) + 1j * rng.normal(size=(4000, 6, 2))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.einsum("tii->t", rho).real[:, None, None]
    rho -= rng.uniform(0.0, 3e-8, size=4000)[:, None, None] * np.eye(6)
    shift = 0.5 * -smesim.CLIP_FLOOR
    flagged = smesim._maybe_below_floor(rho, shift)
    w_min = np.linalg.eigvalsh(rho).min(axis=1)
    below = w_min < smesim.CLIP_FLOOR
    assert below.sum() > 1000
    assert np.all(flagged[below])
    assert not np.any(flagged[w_min > -shift + 1e-12])
    assert not np.any(smesim._maybe_below_floor(
        np.broadcast_to(np.eye(6) / 6.0, (3, 6, 6)).copy(), shift))


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
