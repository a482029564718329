"""Truncated operators, spectral projections, and the conditioned-state
integrator."""

import numpy as np
import pytest

from qlinbae import qsys, smesim
from qlinbae.errors import InstabilityError, PreconditionError, ResourceError


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
    """Single Kraus-map step recomputed from scratch: record increment,
    M = I + K dt + L dy + 1/2 L^2 (dy^2 - dt), M rho M^dag, Hermitize,
    renormalize; max_trace_deviation is that step's |Tr(M rho M^dag) - 1|."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=6)
    rho0 = _ground_state_mixture(6)
    dt, seed = 1e-3, 7
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=dt, n_traj=1, seed=seed,
                                 tracked=[("L", ops.l_ops[0])])

    stream = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    dnu = stream.normal(0.0, np.sqrt(dt), size=(1, 1))[0, 0]
    l = ops.l_ops[0]
    k_gen = -1j * ops.h - 0.5 * l.conj().T @ l
    dy = np.trace(rho0 @ (l + l.conj().T)).real * dt + dnu
    m = np.eye(6) + k_gen * dt + l * dy + 0.5 * l @ l * (dy * dy - dt)
    rho = m @ rho0 @ m.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    assert np.allclose(batch.final_states[0], rho / tr, atol=1e-14)
    assert batch.max_trace_deviation == pytest.approx(abs(tr - 1.0), abs=1e-14)


def _two_channel_mode():
    """One mode read out through two channels, L_1 = a + 0.3 a^dag and
    L_2 = 0.5i a, with the quadratic H of Omega_- = 1, Omega_+ = 0.5."""
    return qsys.new_system(np.eye(2), np.array([[1.0], [0.5j]]),
                           np.array([[0.3], [0.0]]), np.array([[1.0]]),
                           np.array([[0.5]]))


def _kraus_reference(ops, rho0, dt, n_steps, n_traj, seed, tracked=(),
                     unmeasured_term=False, cross_term=True):
    """The Kraus map of the simulate_qsme docstring recomputed one matrix
    product at a time, vectorized only over trajectories, on the same
    Philox streams: dy_j = Tr[rho (L_j + L_j^dag)] dt + dnu_j, M from the
    double sum over (j, k) as written, M rho M^dag, Hermitize, divide by
    the trace. unmeasured_term adds dt sum_j L_j rho L_j^dag before the
    division (a mutation: perfect detection already contains that term),
    and cross_term=False drops the j != k products. Returns the final
    states, Tr(rho X) after every step (n_traj, n_steps + 1, n_tracked)
    and the largest |dy_j|."""
    d, ls = ops.dim, ops.l_ops
    k_gen = -1j * ops.h - 0.5 * sum(l.conj().T @ l for l in ls)
    dnu = np.array([
        np.random.Generator(np.random.Philox(child)).normal(
            0.0, np.sqrt(dt), size=(n_steps, len(ls)))
        for child in np.random.SeedSequence(seed).spawn(n_traj)])
    rho = np.broadcast_to(np.asarray(rho0, dtype=complex), (n_traj, d, d))
    values = np.empty((n_traj, n_steps + 1, len(tracked)))
    max_dy = 0.0

    def record(i):
        for k, (_, x) in enumerate(tracked):
            values[:, i, k] = np.trace(rho @ x, axis1=1, axis2=2).real

    record(0)
    for step in range(n_steps):
        dy = [np.trace(rho @ (l + l.conj().T), axis1=1, axis2=2).real * dt
              + dnu[:, step, j] for j, l in enumerate(ls)]
        max_dy = max([max_dy] + [np.abs(x).max() for x in dy])
        m = np.broadcast_to(np.eye(d) + k_gen * dt, (n_traj, d, d))
        for j, lj in enumerate(ls):
            m = m + dy[j][:, None, None] * lj
            for k, lk in enumerate(ls):
                if j != k and not cross_term:
                    continue
                c = 0.5 * (dy[j] * dy[k] - (dt if j == k else 0.0))
                m = m + c[:, None, None] * (lj @ lk)
        new = m @ rho @ m.conj().swapaxes(1, 2)
        if unmeasured_term:
            for l in ls:
                new = new + dt * (l @ rho @ l.conj().T)
        new = 0.5 * (new + new.conj().swapaxes(1, 2))
        rho = new / np.trace(new, axis1=1, axis2=2).real[:, None, None]
        record(step + 1)
    return rho, values, max_dy


def test_steps_match_per_product_reference():
    """Twenty steps of six two-channel trajectories from a pure state
    recomputed by _kraus_reference, whose double sum carries the
    1/2 (L_1 L_2 + L_2 L_1) dy_1 dy_2 cross term that simulate_qsme folds
    into one symmetrized basis element.

    Tolerance, derived before comparing: M is a sum of at most nb = 7
    terms (the reference's; simulate_qsme's basis has 6), so each side
    rounds its entries with error at most nb eps s, where
      s = 1 + dt ||K|| + sum_j |dy_j| ||L_j||
            + 1/2 sum_jk (|dy_j dy_k| + dt) ||L_j|| ||L_k||
    bounds ||M||_2 (max |dy| over all steps). The two products of
    M rho M^dag have inner dimension d each, so with ||rho||_2 <= 1 a side
    rounds them with error at most 2d eps s^2 (Higham, gamma_n), the
    division by a trace t >= t_min = 1 - max_trace_deviation adds a
    relative eps, and subtracting the change in the trace at most doubles
    the error of the normalized state. To first order the errors of the
    n_steps steps add:
      atol = n_steps * 2 sides * 2 * (nb + 2d + 1) eps s^2 / t_min.
    Dropping the cross term must move the result by far more than atol."""
    ops = smesim.build_truncated_operators(_two_channel_mode(), fock_dim=6)
    d, ls = ops.dim, ops.l_ops
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0
    dt, n_steps, n_traj, seed = 1e-3, 20, 6, 4
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                 n_traj=n_traj, seed=seed, tracked=[])
    finals, _, max_dy = _kraus_reference(ops, rho0, dt, n_steps, n_traj, seed)

    norm = lambda x: np.linalg.norm(x, 2)
    k_gen = -1j * ops.h - 0.5 * sum(l.conj().T @ l for l in ls)
    lsum = sum(norm(l) for l in ls)
    s = (1.0 + dt * norm(k_gen) + max_dy * lsum
         + 0.5 * (max_dy ** 2 + dt) * lsum ** 2)
    t_min = 1.0 - batch.max_trace_deviation
    assert t_min > 0.5
    eps = np.finfo(float).eps
    atol = n_steps * 2 * 2 * (7 + 2 * d + 1) * eps * s ** 2 / t_min
    assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)
    no_cross, _, _ = _kraus_reference(ops, rho0, dt, n_steps, n_traj, seed,
                                      cross_term=False)
    assert np.abs(no_cross - finals).max() > 100 * atol


# A family-wise bound for comparing ensemble means with the exact Lindblad
# means (see test_ensemble_means_match_the_lindblad_reference).
FAMILY_Z = 4.5


def _worst_z(values, exact, norms, dt):
    """Largest |z| of the ensemble means against the exact means over the
    stored times after the first, after taking off the dt ||X|| bias
    allowance: max (|mean - exact| - dt ||X||) / standard error."""
    means = values.mean(axis=0)
    ses = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    excess = np.abs(means - exact) - dt * np.asarray(norms)
    return float((excess[1:] / ses[1:]).max())


def _negative_control():
    """The non-commuting control of acceptance 9: L = q, H = p^2 analog."""
    c = np.array([[1.0]], dtype=complex) / np.sqrt(2.0)
    return qsys.new_system(np.eye(1), c, c, np.array([[1.0]]),
                           np.array([[-1.0]]))


def _half_ground_mixture(d):
    gs = np.zeros(d)
    gs[0] = 1.0
    return 0.5 * np.outer(gs, gs) + 0.5 * np.eye(d) / d


@pytest.mark.parametrize("control, n_traj, T, seed", [
    ("positive", 500, 0.5, 900), ("negative", 200, 1.0, 901)])
def test_ensemble_means_match_the_lindblad_reference(control, n_traj, T, seed):
    """The ensemble means of L and L^2 against lindblad_means at every
    stored time, on the benchmark's positive- and negative-control shapes.

    Family-wise bound: at each of the N = 2 x (n_times - 1) stored times
    after the first, z = (|mean - exact| - dt ||X||) / se, where dt ||X||
    is martingale_stats' allowance for the integrator's first-order weak
    bias and se the standard error of the n_traj independent
    trajectories. By the central limit theorem each unbiased z is about
    standard normal, so by the union bound
      P(max z > c) <= N * 2 (1 - Phi(c)) = 100 * 6.8e-6 = 6.8e-4
    at c = FAMILY_Z = 4.5 and N <= 100 (about twice that for a Student t
    with 199 degrees of freedom). At time 0 every trajectory is rho0, so
    the means agree with the exact means to rounding."""
    sys_obj = {"positive": _measured_mode,
               "negative": _negative_control}[control]()
    ops = smesim.build_truncated_operators(sys_obj, fock_dim=8)
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    rho0 = _half_ground_mixture(8)
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=T, n_traj=n_traj,
                                 seed=seed, tracked=tracked, store_every=10)
    exact = smesim.lindblad_means(ops, rho0, batch.times, tracked)
    assert exact.shape == (len(batch.times), 2)
    assert np.allclose(batch.tracked_values[:, 0].mean(axis=0), exact[0],
                       rtol=0.0, atol=1e-12)
    z = _worst_z(batch.tracked_values, exact, batch.tracked_norms, batch.dt)
    assert z <= FAMILY_Z, z
    drift = exact[-1] - exact[0]
    if control == "positive":  # L commutes with H: a QND variable
        assert np.abs(drift).max() < 1e-9
    else:
        assert drift[1] > 1.0


def test_lindblad_reference_catches_an_unmeasured_channel_term():
    """Mutation test: _kraus_reference reproduces simulate_qsme on the
    positive control and passes the family-wise Lindblad comparison;
    adding the unmeasured-channel term dt sum_j L_j rho L_j^dag to the
    step, which perfect detection already contains, biases L^2 upward at
    the rate Var(L^2) and must fail it."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    rho0 = _half_ground_mixture(8)
    dt, n_steps, n_traj, seed = 1e-3, 200, 200, 902
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                 n_traj=n_traj, seed=seed, tracked=tracked,
                                 store_every=10)
    exact = smesim.lindblad_means(ops, rho0, batch.times, tracked)
    _, values, _ = _kraus_reference(ops, rho0, dt, n_steps, n_traj, seed,
                                    tracked)
    assert np.allclose(values[:, ::10], batch.tracked_values, rtol=0.0,
                       atol=1e-9)
    norms = batch.tracked_norms
    assert _worst_z(values[:, ::10], exact, norms, dt) <= FAMILY_Z
    _, mutated, _ = _kraus_reference(ops, rho0, dt, n_steps, n_traj, seed,
                                     tracked, unmeasured_term=True)
    assert _worst_z(mutated[:, ::10], exact, norms, dt) > FAMILY_Z


def test_lindblad_means_of_free_evolution_are_constant():
    """With no channel and H = 0 the Liouvillian vanishes."""
    d = 3
    ops = smesim.TruncatedOperators(
        fock_dim=d, n_modes=1, a_ops=(smesim.ladder(d),), l_ops=(),
        h=np.zeros((d, d), dtype=complex))
    rho0 = np.diag([0.5, 0.25, 0.25]).astype(complex)
    n_op = np.diag(np.arange(d)).astype(complex)
    exact = smesim.lindblad_means(ops, rho0, [0.0, 1.0, 2.0],
                                  [("n", n_op), ("I", np.eye(d))])
    assert np.array_equal(exact, np.array([[0.75, 1.0]] * 3))


def test_large_step_warns_of_the_kraus_bias_and_stays_positive():
    """A wildly large step, once aborted by the positivity repair, runs:
    M rho M^dag is positive whatever M is."""
    ops = smesim.build_truncated_operators(_measured_mode(coupling=40.0),
                                           fock_dim=6)
    with pytest.warns(UserWarning, match="the Kraus-map bias may be large"):
        batch = smesim.simulate_qsme(ops, _ground_state_mixture(6), dt=0.05,
                                     T=1.0, n_traj=8, seed=0,
                                     tracked=[("L", ops.l_ops[0])])
    assert batch.n_steps == 20
    assert batch.positivity_margin >= -1e-12


def test_non_finite_state_raises_instability_naming_the_step():
    """A finite dt so large that M rho M^dag overflows: the error is the one
    report, with no numpy RuntimeWarning before it (the suite turns those
    into errors)."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    with pytest.warns(UserWarning, match="Kraus-map bias"):
        with pytest.raises(InstabilityError, match=r"^step 0: the "
                           r"conditioned state is not finite"):
            smesim.simulate_qsme(ops, _ground_state_mixture(4), dt=1e200,
                                 T=2e200, n_traj=3, seed=0, tracked=[])


def test_benchmark_seed_86_negative_control_runs_to_the_end():
    """Regression: the benchmark's sme_martingale negative control at
    seed 86 (200 trajectories, T = 1, dt = 1e-3, the trajectory seed drawn
    as the benchmark draws it) aborted at step 849, where trajectory 37
    needed more positivity repair than the per-step budget allowed. The
    Kraus map runs it to the end."""
    seed = int(np.random.default_rng(86).integers(0, 2**31, size=2)[1])
    ops = smesim.build_truncated_operators(_negative_control(), fock_dim=8)
    batch = smesim.simulate_qsme(ops, _half_ground_mixture(8), dt=1e-3,
                                 T=1.0, n_traj=200, seed=seed, tracked=[],
                                 store_every=10)
    assert batch.n_steps == 1000
    assert batch.positivity_margin >= -1e-12
    assert np.all(np.isfinite(batch.final_states))


def test_batch_reports_its_positivity_margin():
    """positivity_margin is the smallest eigenvalue of the final states,
    max_repair_mass what a clip would remove from the worst of them, and
    every final state is exactly Hermitian with unit trace."""
    ops = smesim.build_truncated_operators(_measured_mode(coupling=2.0),
                                           fock_dim=6)
    batch = smesim.simulate_qsme(ops, _ground_state_mixture(6), dt=1e-3,
                                 T=0.2, n_traj=8, seed=0, tracked=[])
    finals = batch.final_states
    assert batch.positivity_margin == np.linalg.eigvalsh(finals).min()
    assert batch.positivity_margin >= -1e-12
    assert batch.max_repair_mass == max(0.0, -batch.positivity_margin)
    assert np.array_equal(finals, finals.conj().swapaxes(-1, -2))
    assert np.allclose(np.einsum("tii->t", finals), 1.0, rtol=0.0, atol=1e-14)
    assert batch.max_trace_deviation > 0.0


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
