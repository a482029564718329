"""Truncated operators, spectral projections, and the conditioned-state
integrator."""

import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import qsys, smesim
from qlinbae.errors import InstabilityError, PreconditionError, ResourceError

import exact


def _measured_mode(coupling=1.0):
    """One mode measured through L = coupling * sqrt(2) * q, H = 0."""
    c = np.array([[coupling]], dtype=complex)
    z = np.zeros((1, 1))
    return qsys.new_system(np.eye(1), c, c, z, z)


def _qnd_mode():
    """The paper's QND case on one mode: C- = C+ = 1 and
    Omega- = Omega+ = 1, so L = sqrt(2) q and H = q^2 commute."""
    c, o = np.array([[1.0]], dtype=complex), np.array([[1.0]])
    return qsys.new_system(np.eye(1), c, c, o, o)


def _path(ops, dt=1e-3):
    """The path simulate_qsme takes for ops at step dt, from its own
    certificate on the Kraus basis in the first record operator's frame:
    "population" for the exact law (method "exact_law"), "product" for
    the Kraus map (method "kraus")."""
    l_ops, k_gen = smesim._generator(ops)
    if l_ops:
        v, _ = smesim._eigenframe(dt * (l_ops[0] + l_ops[0].conj().T), 1)
    else:
        v = np.eye(2 * ops.dim)
    basis = smesim._kraus_basis(l_ops, k_gen, dt)
    formed = smesim._basis_rounding(l_ops, ops.h, dt)
    return "population" if smesim._frame_forms(basis, v, formed)[1] else "product"


def _force_product_path(monkeypatch):
    """Make simulate_qsme take the product path (and the Gram read) on any
    system: the certificate reports no form diagonal."""
    frame_forms = smesim._frame_forms
    monkeypatch.setattr(smesim, "_frame_forms",
                        lambda xs, v, formed=None: (frame_forms(xs, v)[0], False))


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


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e10])
def test_spectral_projections_keep_their_verdict_at_any_scale(c):
    """c l gives the projectors of l at any scale c: the Hermiticity test
    and the clusters are relative to max|l|, with no floor."""
    proj = smesim.spectral_projections(c * np.diag([1.0, 1.0 + 1e-12, 1.5]))
    assert [round(val / c, 9) for val, _ in proj] == [1.0, 1.5]
    assert np.allclose(proj[0][1], np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(PreconditionError):
        smesim.spectral_projections(c * np.array([[0.0, 1.0], [0.0, 0.0]]))
    ((val, p),) = smesim.spectral_projections(np.zeros((3, 3)))
    assert val == 0.0 and np.array_equal(p, np.eye(3))


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


def _law_atol(ops, dt, t_max, max_y, r):
    """A first-order bound on |simulate_qsme - exact.qnd_law_states| on the
    law path after a run to t_max from a rank-r rho0, entry by entry of
    the states (times sum_ab |X_ab| for a stored Tr(rho X)); max_y bounds
    the records |Y_j| drawn.

    Both sides form the exponent z = kappa t + sum_j (lam_j Y_j
    - 1/2 lam_j^2 t) from the diagonals of K and the L_j in an eigenbasis
    U of the first record operator X, each term below
      s = t ||K|| + sum_j ||L_j|| (|Y_j| + 1/2 ||L_j|| t).
    simulate_qsme reads the diagonals off forms rotated by V, each within
    2 gamma_2d < 4d eps of its norm (`smesim._frame_forms`), then sums
    2m + 2 terms and shifts once; the oracle's products of inner dimension
    d and its sums add d + 2m + 3. So z agrees within
    (5d + 4m + 5) eps s, and g = exp(z) relatively within that; g enters
    rho = G rho0 G^dag / Tr(G rho0 G^dag) twice above and twice below the
    line, 4 times. eigh passes LAPACK's acceptance test, a backward error
    of 30 d eps ||X||, so each side's U is within 30 d eps ||X|| / gap of
    the exact eigenbasis (gap the smallest distance of two eigenvalues of
    X), which moves G by at most twice that with |g| <= 1: 240 d eps
    ||X|| / gap for both sides in rho. The rotations into the frame and
    back, the Gram matrix, its trace and the division add
    (8d + 2r + 2rd + 2 + 2g) eps once (see _one_product_atol, g the
    orthogonality defect of V), and the oracle's three products of inner
    dimension d another 6d eps."""
    d, ls = ops.dim, ops.l_ops
    m = len(ls)
    norm = lambda x: np.linalg.norm(x, 2)
    k_gen = -1j * ops.h - 0.5 * sum(l.conj().T @ l for l in ls)
    s = t_max * norm(k_gen) + sum(norm(l) * (max_y + 0.5 * norm(l) * t_max)
                                  for l in ls)
    x = ls[0] + ls[0].conj().T
    gap = np.diff(np.linalg.eigvalsh(x)).min()
    g = _orthogonality_defect(ops, dt, r)
    eps = np.finfo(float).eps
    return eps * (4 * (5 * d + 4 * m + 5) * s + 240 * d * norm(x) / gap
                  + 14 * d + 2 * r + 2 * r * d + 2 + 2 * g)


def _check_law(ops, rho0, dt, n_steps, n_traj, seed, tracked=()):
    """Run simulate_qsme on a system that takes the law path and compare
    its final states and the values stored at every step with
    exact.qnd_law_states on the same streams within _law_atol; the law
    path reports no step's trace deviation. Returns the batch and that
    bound."""
    tracked = list(tracked)
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                 n_traj=n_traj, seed=seed, tracked=tracked)
    assert batch.method == "exact_law"
    assert batch.max_trace_deviation == 0.0
    states, max_y = exact.qnd_law_states(ops, rho0, batch.times, n_traj, seed)
    r = np.linalg.matrix_rank(rho0, tol=1e-12)
    atol = _law_atol(ops, dt, batch.times[-1], max_y, r)
    assert np.allclose(batch.final_states, states[:, -1], rtol=0.0, atol=atol)
    for k, (_, x) in enumerate(tracked):
        exact_values = np.einsum("tsab,ba->ts", states, x).real
        assert np.allclose(batch.tracked_values[..., k], exact_values,
                           rtol=0.0, atol=atol * np.abs(x).sum())
    return batch, atol


def test_one_step_matches_reference_recomputation(monkeypatch):
    """Single Kraus-map step recomputed from scratch: record increment,
    M = I + K dt + L dy + 1/2 L^2 (dy^2 - dt), M rho M^dag, Hermitize,
    renormalize; max_trace_deviation is that step's |Tr(M rho M^dag) - 1|.
    On the negative control, whose H does not commute with L (product
    path), and on the measured mode with the product path forced. Left to
    itself the measured mode takes the exact law: its state after one step
    is the law's, recomputed by exact.qnd_law_states (_check_law)."""
    rho0 = _ground_state_mixture(6)
    dt, seed = 1e-3, 7
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=6)
    assert _path(ops, dt) == "population"
    _check_law(ops, rho0, dt, 1, 1, seed, [("L", ops.l_ops[0])])
    for system, path in ((_measured_mode, "population"),
                         (_negative_control, "product")):
        ops = smesim.build_truncated_operators(system(), fock_dim=6)
        assert _path(ops, dt) == path
        with monkeypatch.context() as mp:
            _force_product_path(mp)
            batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=dt, n_traj=1,
                                         seed=seed,
                                         tracked=[("L", ops.l_ops[0])])
        assert batch.method == "kraus"

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
        assert batch.max_trace_deviation == pytest.approx(abs(tr - 1.0),
                                                          abs=1e-14)


def _two_channel_mode():
    """One mode read out through two channels, L_1 = a + 0.3 a^dag and
    L_2 = 0.5i a, with the quadratic H of Omega_- = 1, Omega_+ = 0.5."""
    return qsys.new_system(np.eye(2), np.array([[1.0], [0.5j]]),
                           np.array([[0.3], [0.0]]), np.array([[1.0]]),
                           np.array([[0.5]]))


def _two_channel_qnd_mode():
    """Two channels reading q, L_1 = a + a^dag and L_2 = 0.5i (a + a^dag),
    with H = q^2 (Omega_- = Omega_+ = 1): every Kraus basis element is
    diagonal in the eigenbasis of q."""
    c = np.array([[1.0], [0.5j]])
    return qsys.new_system(np.eye(2), c, c, np.array([[1.0]]),
                           np.array([[1.0]]))


TWO_CHANNEL_PATHS = ((_two_channel_mode, "product"),
                     (_two_channel_qnd_mode, "population"))


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


def test_steps_match_per_product_reference(monkeypatch):
    """Twenty steps of six two-channel trajectories from a pure state
    recomputed by _kraus_reference, whose double sum carries the
    1/2 (L_1 L_2 + L_2 L_1) dy_1 dy_2 cross term that simulate_qsme folds
    into one symmetrized basis element, agree within _one_product_atol
    (derived there before comparing) on the product path, which the
    two-channel QND mode takes when forced. Dropping the cross term must
    move the result by far more than that. Left to itself the QND mode
    takes the exact law, and agrees with exact.qnd_law_states
    (_check_law)."""
    dt, n_steps, n_traj, seed = 1e-3, 20, 6, 4
    for system, path in TWO_CHANNEL_PATHS:
        ops = smesim.build_truncated_operators(system(), fock_dim=6)
        assert _path(ops, dt) == path
        d = ops.dim
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        if path == "population":
            _check_law(ops, rho0, dt, n_steps, n_traj, seed)
        with monkeypatch.context() as mp:
            _force_product_path(mp)
            batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                         n_traj=n_traj, seed=seed, tracked=[])
        finals, _, max_dy = _kraus_reference(ops, rho0, dt, n_steps, n_traj,
                                             seed)
        t_min = 1.0 - batch.max_trace_deviation
        assert t_min > 0.5
        atol = _one_product_atol(ops, dt, n_steps, max_dy, t_min, 1)
        assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)
        no_cross, _, _ = _kraus_reference(ops, rho0, dt, n_steps, n_traj,
                                          seed, cross_term=False)
        assert np.abs(no_cross - finals).max() > 100 * atol


def _orthogonality_defect(ops, dt, r):
    """||V V^T - I||_F / eps for simulate_qsme's eigenframe V (0 without
    channels, where V = I), formed in long double so that the measurement
    adds no rounding of its own at this size."""
    if not ops.l_ops:
        return 0.0
    l1 = ops.l_ops[0]
    v, _ = smesim._eigenframe(dt * (l1 + l1.conj().T), r)
    v = v.astype(np.longdouble)
    gram = v @ v.T - np.eye(len(v), dtype=np.longdouble)
    return float(np.sqrt((gram * gram).sum())) / np.finfo(float).eps


def _one_product_atol(ops, dt, n_steps, max_dy, t_min, r):
    """A first-order bound on |simulate_qsme - _kraus_reference| after
    n_steps steps of the Kraus map (the product path) from a rank-r rho0,
    for simulate_qsme's one real product per step in the eigenbasis V of
    its first record operator.

    Both sides build M with entries bounded by
      s = 1 + dt ||K|| + sum_j |dy_j| ||L_j||
            + 1/2 sum_jk (|dy_j dy_k| + dt) ||L_j|| ||L_k||
    (max |dy| over all steps), and a trace t >= t_min divides each.
    The reference sums nb_ref = 1 + m + m^2 terms into M and rounds the
    two products of M rho M^dag, inner dimension d each, so with
    ||rho||_2 <= 1 a step adds (nb_ref + 2d + 1) eps s^2 / t_min, the 1
    for the division, doubled by the change in the trace (Higham, gamma_n).
    simulate_qsme sums nb = 1 + m + m(m + 1) / 2 real terms into
    V^T R(M^T) V, each basis element rotated by two real products of inner
    dimension 2d (4d), and rounds one real product psi V^T R(M^T) V of
    inner dimension 2d; V V^T = I + G with ||G|| = g eps, and the chain
    V V^T R(M_1^T) V V^T R(M_2^T) ... carries one G per step. An error in
    psi enters rho = phi^T conj(phi) / t twice, so a step adds
    2 (nb + 6d + 1 + g) eps s^2 / t_min, the 1 for dividing the record by
    t. The power-of-two scale of M rounds nothing. The two rotations,
    psi_0 = phi_0 V and phi = psi V^T at the end, each of inner dimension
    2d and each entering rho twice, add (8d + 2g) eps / t_min once, the
    last G the one of the end. Forming rho once at the end adds
    (2r + 2rd + 2) eps / t_min: each entry of phi^T conj(phi) sums 2r real
    products, t sums 2rd squares, and the Hermitian average and the
    division round once each. To first order the errors of the n_steps
    steps add."""
    d, ls = ops.dim, ops.l_ops
    m = len(ls)
    norm = lambda x: np.linalg.norm(x, 2)
    k_gen = -1j * ops.h - 0.5 * sum(l.conj().T @ l for l in ls)
    lsum = sum(norm(l) for l in ls)
    s = (1.0 + dt * norm(k_gen) + max_dy * lsum
         + 0.5 * (max_dy ** 2 + dt) * lsum ** 2)
    g = _orthogonality_defect(ops, dt, r)
    nb_ref, nb = 1 + m + m * m, 1 + m + m * (m + 1) // 2
    per_step = 2 * (nb_ref + 2 * d + 1) + 2 * (nb + 6 * d + 1 + g)
    eps = np.finfo(float).eps
    return (n_steps * per_step * eps * s ** 2
            + (2 * r + 2 * r * d + 2 + 8 * d + 2 * g) * eps) / t_min


def _orthonormal_columns(rng, d, k):
    z = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("weights", [(1.0,), (0.7, 0.3)],
                         ids=["pure", "rank_2"])
def test_low_rank_factor_matches_per_product_reference(weights, monkeypatch):
    """rho0 of rank 1 and 2 in a random basis, so that the factor phi has
    one or two rows: twenty two-channel steps agree with _kraus_reference
    within _one_product_atol on the product path, forced on the QND mode,
    and the QND mode's exact law agrees with exact.qnd_law_states
    (_check_law)."""
    d = 6
    v = _orthonormal_columns(np.random.default_rng(len(weights)), d,
                             len(weights))
    rho0 = (v * np.array(weights)) @ v.conj().T
    assert np.linalg.matrix_rank(rho0, tol=1e-12) == len(weights)
    dt, n_steps, n_traj, seed = 1e-3, 20, 6, 5
    for system, path in TWO_CHANNEL_PATHS:
        ops = smesim.build_truncated_operators(system(), fock_dim=d)
        assert _path(ops, dt) == path
        if path == "population":
            _check_law(ops, rho0, dt, n_steps, n_traj, seed)
        with monkeypatch.context() as mp:
            _force_product_path(mp)
            batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                         n_traj=n_traj, seed=seed, tracked=[])
        finals, _, max_dy = _kraus_reference(ops, rho0, dt, n_steps, n_traj,
                                             seed)
        t_min = 1.0 - batch.max_trace_deviation
        assert t_min > 0.5
        atol = _one_product_atol(ops, dt, n_steps, max_dy, t_min,
                                 len(weights))
        assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)


def test_second_channel_record_matches_per_product_reference(monkeypatch):
    """Channel 1 weakly measures a rotated quadrature (L_1 = 0.2 e^{0.3i} a,
    whose record operator is complex, so R(X^T) is not R(X)), and the loop
    runs in its eigenbasis; channel 2 more strongly measures p
    (L_2 = 0.5 i (a - a^dag)),
    whose record operator V^T R_2 V is dense there: its record goes
    through the rotated GEMM, not the squares (product path). With
    L_1 = 0.2 (a + a^dag) and L_2 = 0.5 (a + a^dag) instead, both records
    are diagonal in the frame: that system takes the exact law, which
    agrees with exact.qnd_law_states in the states and both records'
    operators at every step (_check_law), and is forced onto the product
    path for the comparison that follows. Eighty steps of eight
    trajectories from a rank-3 state agree with _kraus_reference within
    _one_product_atol in the final states and, since
    |Tr(drho X)| <= atol sum_ab |X_ab|, within that in Tr(rho X) for both
    records' operators at every step."""
    z = np.zeros((1, 1))
    c_q = np.array([[0.2], [0.5]])
    systems = (
        (qsys.new_system(np.eye(2), np.array([[0.2 * np.exp(0.3j)], [0.5j]]),
                         np.array([[0.0], [-0.5j]]), z, z), "product"),
        (qsys.new_system(np.eye(2), c_q, c_q, z, z), "population"))
    v = _orthonormal_columns(np.random.default_rng(7), 6, 3)
    rho0 = (v * np.array([0.5, 0.3, 0.2])) @ v.conj().T
    dt, n_steps, n_traj, seed = 1e-3, 80, 8, 6
    for sys_obj, path in systems:
        ops = smesim.build_truncated_operators(sys_obj, fock_dim=6)
        assert _path(ops, dt) == path
        tracked = [(f"X{j}", l + l.conj().T) for j, l in enumerate(ops.l_ops)]
        if path == "population":
            _check_law(ops, rho0, dt, n_steps, n_traj, seed, tracked)
        with monkeypatch.context() as mp:
            _force_product_path(mp)
            batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                         n_traj=n_traj, seed=seed,
                                         tracked=tracked)
        finals, values, max_dy = _kraus_reference(ops, rho0, dt, n_steps,
                                                  n_traj, seed, tracked)
        t_min = 1.0 - batch.max_trace_deviation
        assert t_min > 0.5
        atol = _one_product_atol(ops, dt, n_steps, max_dy, t_min, 3)
        assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)
        for k, (_, x) in enumerate(tracked):
            assert np.allclose(batch.tracked_values[..., k], values[..., k],
                               rtol=0.0, atol=atol * np.abs(x).sum())


def test_real_form_is_the_kron_form_bit_for_bit():
    """_real_form fills R(X) with the products and sums of
    kron(Re X, I_2) + kron(Im X, [[0, 1], [-1, 0]]), so its bytes are
    those of the kron form, signed zeros included: on matrices whose real
    and imaginary parts take +0.0, -0.0 and nonzero values, square and not,
    and their transposes (non-contiguous views)."""
    rng = np.random.default_rng(11)
    values = np.array([0.0, -0.0, 1.5, -2.0, 1e-300])
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for shape in ((1, 1), (3, 3), (8, 8), (2, 5)):
        for _ in range(20):
            x = np.empty(shape, dtype=complex)
            x.real, x.imag = rng.choice(values, shape), rng.choice(values, shape)
            for y in (x, x.T, x.conj()):
                kron = np.kron(y.real, np.eye(2)) + np.kron(y.imag, j)
                assert smesim._real_form(y).tobytes() == kron.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_eigenbasis_squares_read_the_norm_and_the_record(seed, d, data):
    """For a random complex r x d factor phi, r = 1..d, and a random
    Hermitian record operator X of random scale, the read-out of
    simulate_qsme, psi = phi.view(float) @ V and psi^2 against
    [1 | lam], gives t = Tr rho and Re Tr(rho X), rho = phi^T conj(phi),
    within a first-order bound. The exact value of the read for the
    computed V is f V diag(lam) V^T f^T (f a row of phi's float view), so
    it differs from Re Tr(rho X) by at most ||phi||_F^2 times
    ||V diag(lam) V^T - R(X^T)||_F (for t, ||V V^T - I||_F). eigh passes
    LAPACK's own acceptance test, a residual and an orthogonality defect
    of at most 30 d eps relative in the 2-norm, which R keeps and which
    bounds the Frobenius norm of R(E) within a factor sqrt(2d); the test
    asserts both caps on the measured values, formed in long double. The rotation rounds psi
    by at most gamma_2d |f| |V|, which moves the read by at most
    2 max|lam| gamma_2d ||V||_2 ||V||_F ||phi||_F^2, and the squares and
    the sum of 2rd terms round it by at most
    gamma_{2rd+1} max|lam| ||V||_2^2 ||phi||_F^2. The long-double
    reference forms rho by complex inner products of length r and the
    trace by a sum of d^2 products, off by at most
    4 (r + d^2 + 3) eps_ld d max|X| ||phi||_F^2 (Higham, gamma_n)."""
    r = data.draw(st.integers(1, d))
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = 10.0 ** rng.uniform(-3.0, 3.0) * (z + z.conj().T)
    v, weights = smesim._eigenframe(x, r)
    psi = (phi.view(float) @ v)[None]
    t, record = smesim._square_read(psi, weights, np.empty_like(psi))[0]

    phi_ld = phi.astype(np.clongdouble)
    rho = phi_ld.T @ phi_ld.conj()
    exact_t = float(np.trace(rho).real)
    exact_record = float((rho * x.T.astype(np.clongdouble)).sum().real)

    eps, eps_ld = np.finfo(float).eps, np.finfo(np.longdouble).eps
    gamma = lambda n, e=eps: n * e / 2 / (1 - n * e / 2)
    frob = lambda a: float(np.sqrt((a * a).sum()))
    v_ld = v.astype(np.longdouble)
    lam = weights[:2 * d, 1]
    v_2, v_f = np.linalg.norm(v, 2), np.linalg.norm(v)
    lapack = 30 * d * eps * np.sqrt(2 * d)
    assert frob(v_ld * lam @ v_ld.T - smesim._real_form(x.T)) <= (
        lapack * np.linalg.norm(x, 2))
    assert frob(v_ld @ v_ld.T - np.eye(2 * d)) <= lapack
    rounding = 2 * gamma(2 * d) * v_2 * v_f + gamma(2 * r * d + 1) * v_2 ** 2
    reference = 4 * (r + d * d + 3) * eps_ld * d
    assert abs(t - exact_t) <= exact_t * (lapack + rounding + reference)
    max_x = max(np.abs(lam).max(), np.abs(x).max())
    assert abs(record - exact_record) <= exact_t * (
        lapack * np.linalg.norm(x, 2) + max_x * (rounding + reference))


def test_factor_drops_a_slightly_negative_eigenvalue():
    """An eigenvalue of -1e-9 is within the precondition's 1e-8; the
    factor keeps only the positive eigenvalues, so with T = 0 the final
    state is rho0 without that eigenvector, renormalized, and positive."""
    d = 4
    v = _orthonormal_columns(np.random.default_rng(3), d, d)
    w = np.array([0.6 + 1e-9, 0.4, -1e-9, 0.0])
    rho0 = (v * w) @ v.conj().T
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=d)
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.0, n_traj=2,
                                 seed=0, tracked=[("I", np.eye(d))])
    dropped = v[:, 2]
    assert (dropped.conj() @ rho0 @ dropped).real == pytest.approx(-1e-9)
    expected = (rho0 + 1e-9 * np.outer(dropped, dropped.conj())) / (1 + 1e-9)
    assert np.allclose(batch.final_states, expected, rtol=0.0, atol=1e-15)
    assert batch.positivity_margin > -1e-15
    assert np.allclose(batch.tracked_values, 1.0, rtol=0.0, atol=1e-15)
    # and the run itself goes through
    smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.05, n_traj=2, seed=0,
                         tracked=[])


@pytest.mark.parametrize("n_steps", [10, 2000])
def test_positivity_margin_is_independent_of_the_step_count(n_steps):
    """The final states are (Y + Y^dag) / (2t) with Y = phi^T conj(phi)
    and t = ||phi||_F^2: a Gram matrix over its trace, positive
    semidefinite for whatever phi the steps left, so rounding enters only
    where they are formed. Each entry of Y is a complex inner product of
    length r, off by at most sqrt(2) gamma_{r+2} (|phi|^T |phi|)_ab
    (Higham), and || |phi|^T |phi| ||_F <= t; the sum and the division add
    a relative u each, and eigvalsh is backward stable with an error of
    about d u ||rho||_2 <= d u. So the smallest computed eigenvalue is at
    least -(2 (r + 2) + 2 + d) u, and the test allows twice that, with
    eps = 2u, after 10 steps and after 2000 alike. (Rounding each step's
    M rho M^dag instead leaves about -4e-13 after 2000 steps here.)"""
    d = 8
    ops = smesim.build_truncated_operators(_measured_mode(coupling=2.0),
                                           fock_dim=d)
    batch = smesim.simulate_qsme(ops, _half_ground_mixture(d), dt=1e-3,
                                 T=n_steps * 1e-3, n_traj=50, seed=0,
                                 tracked=[])
    r = d  # the mixture has full rank
    bound = (2 * (r + 2) + 2 + d) * np.finfo(float).eps
    assert batch.positivity_margin >= -bound, batch.positivity_margin


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
    is martingale_stats' allowance for the Kraus integrator's first-order
    weak bias (kept on the law too, where it only loosens the bound) and
    se the standard error of the n_traj independent
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


def test_lindblad_reference_catches_an_unmeasured_channel_term(monkeypatch):
    """Mutation test: _kraus_reference reproduces simulate_qsme's Kraus map,
    forced on the positive control, and passes the family-wise Lindblad
    comparison; adding the unmeasured-channel term
    dt sum_j L_j rho L_j^dag to the step, which perfect detection already
    contains, biases L^2 upward at the rate Var(L^2) and must fail it."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    rho0 = _half_ground_mixture(8)
    dt, n_steps, n_traj, seed = 1e-3, 200, 200, 902
    _force_product_path(monkeypatch)
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


def test_large_step_warns_of_the_kraus_bias_and_stays_positive(monkeypatch):
    """A wildly large step of the Kraus map, forced on the measured mode,
    once aborted by the positivity repair, runs: M rho M^dag is positive
    whatever M is."""
    ops = smesim.build_truncated_operators(_measured_mode(coupling=40.0),
                                           fock_dim=6)
    _force_product_path(monkeypatch)
    with pytest.warns(UserWarning, match="the Kraus-map bias may be large"):
        batch = smesim.simulate_qsme(ops, _ground_state_mixture(6), dt=0.05,
                                     T=1.0, n_traj=8, seed=0,
                                     tracked=[("L", ops.l_ops[0])])
    assert batch.n_steps == 20
    assert batch.positivity_margin >= -1e-12


def test_non_finite_state_raises_instability_naming_the_step(monkeypatch):
    """A finite dt so large that the Kraus map's M rho M^dag overflows, on
    the negative control and on the measured mode with the product path
    forced: the error is the one report, with no numpy RuntimeWarning
    before it (the suite turns those into errors)."""
    for system, force in ((_negative_control, False), (_measured_mode, True)):
        ops = smesim.build_truncated_operators(system(), fock_dim=4)
        with monkeypatch.context() as mp:
            if force:
                _force_product_path(mp)
            with pytest.warns(UserWarning, match="Kraus-map bias"):
                with pytest.raises(InstabilityError, match=r"^step 0: the "
                                   r"conditioned state is not finite"):
                    smesim.simulate_qsme(ops, _ground_state_mixture(4),
                                         dt=1e200, T=2e200, n_traj=3, seed=0,
                                         tracked=[])


def test_instability_names_the_same_step_whatever_the_block():
    """dt = 1e80 overflows the Kraus map's M rho M^dag at step 2 of 40,
    inside the first block of innovations, on the measured mode with the
    product path forced: checking the ratios once per block names the
    same step as checking them after every step (a block of one)."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    assert smesim._noise_block(ops.dim, 1, 40) == 40
    kw = dict(dt=1e80, T=40e80, n_traj=3, seed=0, tracked=[])
    for block in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            _force_product_path(mp)
            if block is not None:
                mp.setattr(smesim, "_noise_block", lambda d, m, n: block)
            with pytest.warns(UserWarning, match="Kraus-map bias"):
                with pytest.raises(InstabilityError, match=r"^step 2: "):
                    smesim.simulate_qsme(ops, _ground_state_mixture(4), **kw)


def test_law_path_takes_any_finite_step():
    """The exact law takes no step: at dt = 1e200, where the Kraus map
    overflows at its first step, the measured mode's states are finite,
    positive and of unit trace, with no warning and no InstabilityError
    (the suite turns numpy's RuntimeWarnings into errors)."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    assert _path(ops, 1e200) == "population"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = smesim.simulate_qsme(ops, _ground_state_mixture(4), dt=1e200,
                                     T=2e200, n_traj=3, seed=0,
                                     tracked=[("L", ops.l_ops[0])])
    assert batch.method == "exact_law" and batch.n_steps == 2
    finals = batch.final_states
    assert np.isfinite(finals).all() and np.isfinite(batch.tracked_values).all()
    assert np.allclose(np.einsum("tii->t", finals), 1.0, rtol=0.0, atol=1e-14)
    assert batch.positivity_margin >= -1e-12


def _conditional_variance(values):
    """Tr(rho L^2) - Tr(rho L)^2 at the last stored time, per trajectory,
    from tracked [L, L^2]."""
    return values[:, -1, 1] - values[:, -1, 0] ** 2


@pytest.mark.parametrize("system", ["measured", "qnd"])
def test_kraus_map_converges_to_the_law_at_weak_order_one(system,
                                                          monkeypatch):
    """The mean conditional variance of L at T = 0.5, from the benchmark's
    positive-control state at fock_dim 8, on the measured mode (the
    positive control) and on the paper's QND mode, against its exact
    value under the law by quadrature (exact.qnd_law_mean, no Monte Carlo
    error). The law path's 20000 trajectories agree with it within 3
    standard errors. The Kraus map, forced, at dt = 1e-3 (4000
    trajectories, standard error about 0.0018) agrees within 3; at
    dt = 1e-2 it is biased by more than 5 (about 0.02, 7 to 10 of them),
    and its bias at 1e-3 is a tenth of that within 3 standard errors of
    the difference: weak order 1. The two bias estimates are independent
    (separate streams), so that error is
    sqrt(se_1e-3^2 + (se_1e-2 / 10)^2)."""
    ops = smesim.build_truncated_operators(
        {"measured": _measured_mode, "qnd": _qnd_mode}[system](), fock_dim=8)
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    rho0, T = _half_ground_mixture(8), 0.5
    truth = exact.qnd_law_mean(
        ops, rho0, T, lambda p, lam: p @ lam.real ** 2 - (p @ lam.real) ** 2)

    def bias(dt, n_traj, seed):
        batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=T, n_traj=n_traj,
                                     seed=seed, tracked=tracked,
                                     store_every=int(round(T / dt)))
        x = _conditional_variance(batch.tracked_values)
        return batch.method, x.mean() - truth, x.std(ddof=1) / np.sqrt(n_traj)

    method, b_law, se_law = bias(1e-3, 20000, 1)
    assert method == "exact_law" and abs(b_law) <= 3 * se_law, (b_law, se_law)
    _force_product_path(monkeypatch)
    with warnings.catch_warnings():  # the QND mode warns at dt = 1e-2:
        warnings.simplefilter("ignore", UserWarning)  # that bias is measured
        method, b_coarse, se_coarse = bias(1e-2, 4000, 2)
    method, b_fine, se_fine = bias(1e-3, 4000, 2)
    assert method == "kraus"
    assert abs(b_fine) <= 3 * se_fine, (b_fine, se_fine)
    assert abs(b_coarse) > 5 * se_coarse, (b_coarse, se_coarse)
    assert abs(b_fine - b_coarse / 10) <= 3 * np.hypot(se_fine, se_coarse / 10)


def test_first_trajectories_do_not_depend_on_the_run_size():
    """Trajectory i draws from its own stream, so the first k trajectories
    of a run of n are a run of k. On the exact law each trajectory's read
    is its own product, and they agree bit for bit, with the squares read
    (L) and the Gram read (p). The Kraus map reads all trajectories in one
    GEMM, whose BLAS kernels round a row differently with the row count,
    so there they agree within twice _one_product_atol, each run being
    within that of _kraus_reference."""
    rho0 = _ground_state_mixture(6)
    dt, n_steps, seed = 1e-3, 40, 13
    for system in (_measured_mode, _negative_control):
        ops = smesim.build_truncated_operators(system(), fock_dim=6)
        a = ops.a_ops[0]
        for tracked in ([("L", ops.l_ops[0])],
                        [("L", ops.l_ops[0]), ("p", 1j * (a.conj().T - a))]):
            kw = dict(dt=dt, T=n_steps * dt, seed=seed, tracked=tracked,
                      store_every=7)
            for k, n in ((1, 9), (3, 64), (5, 6)):
                head = smesim.simulate_qsme(ops, rho0, n_traj=k, **kw)
                full = smesim.simulate_qsme(ops, rho0, n_traj=n, **kw)
                if head.method == "exact_law":
                    assert np.array_equal(full.tracked_values[:k],
                                          head.tracked_values)
                    assert np.array_equal(full.final_states[:k],
                                          head.final_states)
                    continue
                _, _, max_dy = _kraus_reference(ops, rho0, dt, n_steps, n, seed)
                t_min = 1.0 - full.max_trace_deviation
                atol = 2 * _one_product_atol(ops, dt, n_steps, max_dy, t_min, 6)
                assert np.allclose(full.final_states[:k], head.final_states,
                                   rtol=0.0, atol=atol)
                for j, (_, x) in enumerate(tracked):
                    assert np.allclose(full.tracked_values[:k, :, j],
                                       head.tracked_values[..., j], rtol=0.0,
                                       atol=atol * np.abs(x).sum())


def test_law_store_grid_is_all_that_dt_sets():
    """On the exact law dt sets only the store grid: (dt, store_every) =
    (1e-2, 10) and (1e-3, 100) store at the same times 0, 0.1, ..., 1 to
    rounding, draw the same increments over the same intervals, and give
    the same stored values and final states to rounding, though their
    Kraus-map step counts differ tenfold."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    rho0 = _half_ground_mixture(8)
    runs = [smesim.simulate_qsme(ops, rho0, dt=dt, T=1.0, n_traj=50, seed=5,
                                 tracked=tracked, store_every=every)
            for dt, every in ((1e-2, 10), (1e-3, 100))]
    coarse, fine = runs
    assert (coarse.n_steps, fine.n_steps) == (100, 1000)
    assert coarse.method == fine.method == "exact_law"
    assert np.allclose(coarse.times, fine.times, rtol=0.0, atol=1e-15)
    assert np.allclose(coarse.tracked_values, fine.tracked_values, rtol=0.0,
                       atol=1e-12)
    assert np.allclose(coarse.final_states, fine.final_states, rtol=0.0,
                       atol=1e-12)
    # the records moved the states: the comparison is not of constants
    assert np.ptp(coarse.tracked_values[..., 0]) > 1.0


def test_law_cost_does_not_grow_with_the_step_count():
    """A run of 10^7 steps of dt = 1e-7 stored every 10^6 steps samples
    the law at 11 stored times and finishes in under 5 s."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    t0 = time.perf_counter()
    batch = smesim.simulate_qsme(ops, _half_ground_mixture(8), dt=1e-7,
                                 T=1.0, n_traj=200, seed=3,
                                 tracked=[("L", ops.l_ops[0])],
                                 store_every=10 ** 6)
    elapsed = time.perf_counter() - t0
    assert batch.method == "exact_law" and batch.n_steps == 10 ** 7
    assert len(batch.times) == 11
    assert elapsed < 5.0, elapsed


def _batch_bytes(batch):
    return [batch.times.tobytes(), batch.tracked_values.tobytes(),
            batch.final_states.tobytes(), batch.max_trace_deviation,
            batch.positivity_margin, batch.method]


@pytest.mark.parametrize("case", ["one_channel", "two_channels", "free",
                                  "one_channel_product"])
def test_outputs_are_byte_identical_whatever_the_noise_block(case, monkeypatch):
    """The Kraus map draws its innovations a block of steps at a time and
    checks the trace ratios once per block; the exact law draws its
    increments and forms its exponents a block of stores at a time,
    carrying W from block to block. With the block monkeypatched to 1, to
    a prime that divides neither the run nor the store interval, and to
    the whole run (150 steps, or 39 stores), every output byte equals that
    of the default block. The one-channel and free cases take the exact
    law, and are run again with the product path forced; the two-channel
    case and the negative control (one channel) take the product path.
    The number operator n takes the Gram read in every case but the free
    one."""
    if case == "free":
        d = 4
        ops = smesim.TruncatedOperators(
            fock_dim=d, n_modes=1, a_ops=(smesim.ladder(d),), l_ops=(),
            h=np.diag(np.arange(d)).astype(complex))
    else:
        mode = {"one_channel": _measured_mode, "two_channels": _two_channel_mode,
                "one_channel_product": _negative_control}[case]()
        ops = smesim.build_truncated_operators(mode, fock_dim=5)
    assert _path(ops) == ("product" if case in ("two_channels",
                                                "one_channel_product")
                          else "population")
    d = ops.dim
    a = smesim.ladder(d) if case == "free" else ops.a_ops[0]
    tracked = [(f"L{j}", l) for j, l in enumerate(ops.l_ops)] + [
        ("x", a + a.conj().T), ("n", a.conj().T @ a)]
    kw = dict(dt=1e-3, T=0.15, n_traj=6, seed=11, tracked=tracked,
              store_every=4)
    rho0 = _ground_state_mixture(d)
    m = len(ops.l_ops)
    law = _path(ops) == "population"
    # (method, forced, floats per step or store, steps or stores)
    runs = [("exact_law", False, m + 2 * d, 39), ("kraus", True, m, 150)]
    for method, forced, width, length in runs if law else [
            ("kraus", False, m, 150)]:
        with monkeypatch.context() as mp:
            if forced:
                _force_product_path(mp)
            ref = _batch_bytes(smesim.simulate_qsme(ops, rho0, **kw))
            assert ref[-1] == method and len(np.frombuffer(ref[0])) == 39
            assert smesim._noise_block(d, width, length) not in (1, 7, length)
            for block in (1, 7, length):
                mp.setattr(smesim, "_noise_block", lambda d, m, n: block)
                assert _batch_bytes(smesim.simulate_qsme(ops, rho0, **kw)) == ref


def test_a_block_whose_norm_leaves_the_safe_range_is_replayed(monkeypatch):
    """At dt = 0.2 the negative control's trace ratios reach about 1200, so
    a block renormalized only at its first step drifts past the safe range
    [sqrt(tiny), 1 / sqrt(tiny)] = [2^-511, 2^511] while staying finite:
    its steps' ratios multiply to more than 2^511 (the product of the
    first few hundred is still finite). The run replays that block step by
    step and reports it, and every output byte equals that of a run with
    a block of one step, which renormalizes at every step and replays
    nothing."""
    ops = smesim.build_truncated_operators(_negative_control(), fock_dim=8)
    l = ops.l_ops[0]
    kw = dict(dt=0.2, T=20.0, n_traj=8, seed=0,
              tracked=[("L", l), ("L2", l @ l)])
    rho0 = _half_ground_mixture(8)
    assert smesim._noise_block(ops.dim, 1, 100) == 100
    trace_deviation, blocks = smesim._trace_deviation, []
    monkeypatch.setattr(smesim, "_trace_deviation", lambda ratios, first: (
        blocks.append(ratios.copy()), trace_deviation(ratios, first))[1])
    with pytest.warns(UserWarning, match="Kraus-map bias"):
        batch = smesim.simulate_qsme(ops, rho0, **kw)
    (ratios,) = blocks
    drift = np.log2(np.cumprod(ratios, axis=0)).max()
    assert 511 < drift < 1000, drift
    assert batch.method == "kraus" and batch.replayed_blocks == 1
    assert np.isfinite(batch.final_states).all()
    monkeypatch.setattr(smesim, "_noise_block", lambda d, m, n: 1)
    with pytest.warns(UserWarning, match="Kraus-map bias"):
        stepwise = smesim.simulate_qsme(ops, rho0, **kw)
    assert stepwise.replayed_blocks == 0
    assert _batch_bytes(batch) == _batch_bytes(stepwise)


def test_runs_within_the_safe_range_replay_nothing():
    """At dt = 1e-3 a block's norms drift by far less than 2^510: the
    negative control, the two-channel mode and the exact law replay no
    block."""
    for system in (_negative_control, _two_channel_mode, _measured_mode):
        ops = smesim.build_truncated_operators(system(), fock_dim=5)
        batch = smesim.simulate_qsme(ops, _half_ground_mixture(5), dt=1e-3,
                                     T=0.3, n_traj=4, seed=2, tracked=[])
        assert batch.replayed_blocks == 0


def _phase_measured_mode():
    """q measured through a complex coupling phase, C- = C+ = 0.2 e^{0.3i}:
    L = 0.2 e^{0.3i} sqrt(2) q, H = 0. K = -1/2 L^dag L is real, but its
    computed imaginary part carries rounding that no rotation removes."""
    return _measured_mode(0.2 * np.exp(0.3j))


def _q_and_p_modes():
    """Two channels on one mode, q and p (C-_2 = 0.5i, C+_2 = -0.5i): the
    second record operator does not commute with the first."""
    z = np.zeros((1, 1))
    return qsys.new_system(np.eye(2), np.array([[1.0], [0.5j]]),
                           np.array([[1.0], [-0.5j]]), z, z)


@pytest.mark.parametrize("system, path", [
    ("measured", "population"), ("qnd", "population"),
    ("phase", "population"), ("two_channels", "product"),
    ("negative", "product"), ("q_and_p", "product")])
def test_each_system_takes_its_path(system, path):
    """The measured mode (L = sqrt(2) q, H = 0), the paper's QND mode
    (H = q^2 commutes with L) and a q measurement with a complex coupling
    phase take the population path, the exact law: every Kraus basis
    element is diagonal in the record operator's eigenbasis, within the
    rounding of its formation and rotation. The two-channel mode (L_2 = 0.5i a), the
    negative control of acceptance 9 and of the benchmark (H does not
    commute with L) and the two-channel q and p measurement take the
    product path."""
    ops = smesim.build_truncated_operators(
        {"measured": _measured_mode, "qnd": _qnd_mode,
         "phase": _phase_measured_mode, "two_channels": _two_channel_mode,
         "negative": _negative_control, "q_and_p": _q_and_p_modes}[system](),
        fock_dim=8)
    assert _path(ops) == path


def test_complex_coupling_phase_matches_the_product_path(monkeypatch):
    """Under C- = C+ = 0.2 e^{0.3i} the off-diagonal entries of the rotated
    I + K dt sit near 1e-22, where the rounding of the rotation alone
    allows about 1e-36: only the rounding of forming K
    (`smesim._basis_rounding`) admits the exact law. Its complex lam =
    0.2 e^{0.3i} sqrt(2) q enters the exponent with its phase, and its
    final states and stored values agree with exact.qnd_law_states
    (_check_law). The product path, forced, agrees with _kraus_reference
    within _one_product_atol, as in
    test_second_channel_record_matches_per_product_reference."""
    ops = smesim.build_truncated_operators(_phase_measured_mode(), fock_dim=8)
    assert _path(ops) == "population"
    l_ops, k_gen = smesim._generator(ops)
    v, _ = smesim._eigenframe(1e-3 * (l_ops[0] + l_ops[0].conj().T), 1)
    forms, _ = smesim._frame_forms(smesim._kraus_basis(l_ops, k_gen, 1e-3), v)
    off = np.kron(~np.eye(8, dtype=bool), np.ones((2, 2), dtype=bool))
    assert 0 < np.abs(forms[0])[off].max()
    assert not smesim._frame_forms(smesim._kraus_basis(l_ops, k_gen, 1e-3), v)[1]

    d = ops.dim
    v = _orthonormal_columns(np.random.default_rng(3), d, 3)
    rho0 = (v * np.array([0.5, 0.3, 0.2])) @ v.conj().T
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    dt, n_steps, n_traj, seed = 1e-3, 200, 10, 12
    law, atol = _check_law(ops, rho0, dt, n_steps, n_traj, seed, tracked)
    # the records moved the states: the comparison is not of two constants
    assert np.ptp(law.tracked_values[..., 0]) > 1e3 * atol * np.abs(l).sum()
    _force_product_path(monkeypatch)
    product = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                   n_traj=n_traj, seed=seed, tracked=tracked)
    finals, values, max_dy = _kraus_reference(ops, rho0, dt, n_steps, n_traj,
                                              seed, tracked)
    t_min = 1.0 - product.max_trace_deviation
    assert t_min > 0.5
    atol = _one_product_atol(ops, dt, n_steps, max_dy, t_min, 3)
    assert np.allclose(product.final_states, finals, rtol=0.0, atol=atol)
    for k, (_, x) in enumerate(tracked):
        assert np.allclose(product.tracked_values[..., k], values[..., k],
                           rtol=0.0, atol=atol * np.abs(x).sum())


def test_repeated_record_eigenvalue_mixed_by_h_takes_the_product_path():
    """L = diag(1/2, 1/2, -1/2, 1/4) has a repeated eigenvalue, and H swaps
    its two eigenvectors: H commutes with L, yet U^dag H U, U from eigh, is
    not diagonal, so the step takes the product path and still agrees with
    _kraus_reference within _one_product_atol, for the final states and
    for Tr(rho L) and Tr(rho H) at every step. With an H that does not mix
    that eigenspace it takes the population path, the exact law."""
    d = 4
    l = np.diag([0.5, 0.5, -0.5, 0.25]).astype(complex)
    swap = np.zeros((d, d), dtype=complex)
    swap[0, 1] = swap[1, 0] = 1.0
    assert np.array_equal(swap @ l, l @ swap)
    make = lambda h: smesim.TruncatedOperators(
        fock_dim=d, n_modes=1, a_ops=(smesim.ladder(d),), l_ops=(l,), h=h)
    ops = make(swap)
    dt, n_steps, n_traj, seed = 1e-3, 40, 6, 9
    assert _path(ops, dt) == "product"
    assert _path(make(np.diag([1.0, 1.0, 0.0, 2.0]).astype(complex)),
                 dt) == "population"
    v = _orthonormal_columns(np.random.default_rng(9), d, 3)
    rho0 = (v * np.array([0.5, 0.3, 0.2])) @ v.conj().T
    tracked = [("L", l), ("H", swap)]
    batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                 n_traj=n_traj, seed=seed, tracked=tracked)
    finals, values, max_dy = _kraus_reference(ops, rho0, dt, n_steps, n_traj,
                                              seed, tracked)
    t_min = 1.0 - batch.max_trace_deviation
    assert t_min > 0.5
    atol = _one_product_atol(ops, dt, n_steps, max_dy, t_min, 3)
    assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)
    for k, (_, x) in enumerate(tracked):
        assert np.allclose(batch.tracked_values[..., k], values[..., k],
                           rtol=0.0, atol=atol * np.abs(x).sum())


def test_commuting_tracked_operators_are_read_from_the_squares():
    """Under a q measurement L, L^2 and L's spectral projectors are
    diagonal in the loop's eigenbasis, within the rounding of their
    rotation; p, or any set that contains it, is not."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    l = ops.l_ops[0]
    v, _ = smesim._eigenframe(1e-3 * (l + l.conj().T), 8)
    p = 1j * (ops.a_ops[0].conj().T - ops.a_ops[0])
    commuting = [l, l @ l] + [x for _, x in smesim.spectral_projections(l)]
    forms, diagonal = smesim._frame_forms(commuting, v)
    assert diagonal and forms.shape == (len(commuting), 16, 16)
    assert not smesim._frame_forms([p], v)[1]
    assert not smesim._frame_forms(commuting + [p], v)[1]


def test_non_commuting_tracked_operator_matches_per_product_reference(
        monkeypatch):
    """p under a q measurement takes the Gram read, psi^T psi dotted with
    the rotated form of p, at every stored time. The measured mode's exact
    law forms psi from g at each store for it, and agrees with
    exact.qnd_law_states at every step (_check_law). On the measured mode
    with the product path forced and on the negative control (product
    path), from a rank-3 state with <p> != 0, and with L beside it, the
    Kraus map agrees with _kraus_reference within _one_product_atol at
    every step, as in
    test_second_channel_record_matches_per_product_reference."""
    v = _orthonormal_columns(np.random.default_rng(8), 6, 3)
    rho0 = (v * np.array([0.5, 0.3, 0.2])) @ v.conj().T
    dt, n_steps, n_traj, seed = 1e-3, 40, 6, 8
    for system, path in ((_measured_mode, "population"),
                         (_negative_control, "product")):
        ops = smesim.build_truncated_operators(system(), fock_dim=6)
        assert _path(ops, dt) == path
        a = ops.a_ops[0]
        tracked = [("p", 1j * (a.conj().T - a)), ("L", ops.l_ops[0])]
        if path == "population":
            law, atol = _check_law(ops, rho0, dt, n_steps, n_traj, seed,
                                   tracked)
            assert np.ptp(law.tracked_values[..., 0]) > 1e3 * atol * np.abs(
                tracked[0][1]).sum()
        with monkeypatch.context() as mp:
            _force_product_path(mp)
            batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=n_steps * dt,
                                         n_traj=n_traj, seed=seed,
                                         tracked=tracked)
        finals, values, max_dy = _kraus_reference(ops, rho0, dt, n_steps,
                                                  n_traj, seed, tracked)
        t_min = 1.0 - batch.max_trace_deviation
        assert t_min > 0.5
        atol = _one_product_atol(ops, dt, n_steps, max_dy, t_min, 3)
        assert np.allclose(batch.final_states, finals, rtol=0.0, atol=atol)
        for k, (_, x) in enumerate(tracked):
            assert np.allclose(batch.tracked_values[..., k], values[..., k],
                               rtol=0.0, atol=atol * np.abs(x).sum())
        # <p> moves by far more than the bound: no constant passes the test
        assert np.ptp(batch.tracked_values[..., 0]) > 1e3 * atol * np.abs(
            tracked[0][1]).sum()


_PEAK_GROWTH = """
import sys
import numpy as np
from qlinbae import qsys, smesim

def peak_kb():  # VmHWM: this process's peak resident set since exec
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

c = np.array([[1.0]], dtype=complex)
h = np.array([[float(sys.argv[2] == "kraus")]])  # H = a^dag a + 1/2 or 0
ops = smesim.build_truncated_operators(
    qsys.new_system(np.eye(1), c, c, h, np.zeros((1, 1))), 3)
run = lambda T: smesim.simulate_qsme(ops, np.eye(3) / 3, 1e-2, T, 2000, 0,
                                     [("L", ops.l_ops[0])], store_every=100)
assert run(0.5).method == sys.argv[2]
before = peak_kb()
run(float(sys.argv[1]))
print(peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc")
def test_memory_does_not_grow_with_the_simulated_time():
    """The peak resident set gained by a 2000-trajectory run after a
    warm-up run of T = 0.5, in a fresh process: at T = 16 (1600 steps) it
    stays within twice that at T = 1, or 1 MB, on the exact law (q
    measured, H = 0) and on the Kraus map (H = a^dag a + 1/2, which does
    not commute with q). Drawing the Kraus map's innovations up front took
    24 MB more at T = 16 and 0.8 MB more at T = 1. The peak is the
    kernel's VmHWM, not getrusage's ru_maxrss: Linux carries the pre-exec
    peak of the forked parent into a child's ru_maxrss, so under a large
    test process it would read no growth."""
    src = pathlib.Path(smesim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    for method in ("exact_law", "kraus"):
        growth = {}
        for T in (1, 16):
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_GROWTH, str(T), method],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            growth[T] = int(proc.stdout)
        assert growth[16] <= 2 * max(growth[1], 1024), (method, growth)


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
    every final state is exactly Hermitian with unit trace, on the exact
    law (the measured mode) and on the Kraus map (the negative control).
    max_trace_deviation is the Kraus map's largest step normalization, and
    0.0 on the law, which takes no step."""
    for system, method in ((_measured_mode(coupling=2.0), "exact_law"),
                           (_negative_control(), "kraus")):
        ops = smesim.build_truncated_operators(system, fock_dim=6)
        batch = smesim.simulate_qsme(ops, _ground_state_mixture(6), dt=1e-3,
                                     T=0.2, n_traj=8, seed=0, tracked=[])
        finals = batch.final_states
        assert batch.method == method
        assert batch.positivity_margin == np.linalg.eigvalsh(finals).min()
        assert batch.positivity_margin >= -1e-12
        assert batch.max_repair_mass == max(0.0, -batch.positivity_margin)
        assert np.array_equal(finals, finals.conj().swapaxes(-1, -2))
        assert np.allclose(np.einsum("tii->t", finals), 1.0, rtol=0.0,
                           atol=1e-14)
        assert (batch.max_trace_deviation > 0.0) == (method == "kraus")


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


def _bad_operator(case, d):
    """simulate_qsme's and lindblad_means' keyword arguments for one
    mis-shaped or non-finite input, with the message it must raise."""
    rho0 = _ground_state_mixture(d)
    nan_rho0 = rho0.copy()
    nan_rho0[1, 2] = np.nan
    inf_op = np.eye(d)
    inf_op[0, 0] = np.inf
    return {
        "rho0_too_small": (dict(rho0=np.eye(4) / 4, tracked=[]),
                           rf"rho0 must be a finite {d} x {d} matrix, "
                           r"got shape \(4, 4\)"),
        "rho0_not_square": (dict(rho0=np.eye(d, 4) / 4, tracked=[]),
                            rf"rho0 must be a finite {d} x {d} matrix, "
                            rf"got shape \({d}, 4\)"),
        "rho0_nan": (dict(rho0=nan_rho0, tracked=[]),
                     r"rho0 must be .* got a non-finite entry"),
        "tracked_too_small": (dict(rho0=rho0, tracked=[("X", np.eye(4))]),
                              rf"tracked 'X' must be a finite {d} x {d} "
                              r"matrix, got shape \(4, 4\)"),
        "tracked_inf": (dict(rho0=rho0, tracked=[("X", inf_op)]),
                        r"tracked 'X' must be .* got a non-finite entry"),
    }[case]


@pytest.mark.parametrize("case", ["rho0_too_small", "rho0_not_square",
                                  "rho0_nan", "tracked_too_small",
                                  "tracked_inf"])
@pytest.mark.parametrize("caller", ["simulate_qsme", "lindblad_means"])
def test_operators_are_checked_up_front(caller, case):
    """rho0 and every tracked operator must be finite ops.dim x ops.dim
    matrices: each violation raises a PreconditionError naming the
    setting, where numpy's broadcast and reshape errors, a misleading
    trace message or a LinAlgError used to surface."""
    d = 8
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=d)
    kw, message = _bad_operator(case, d)
    with pytest.raises(PreconditionError, match=f"^{caller} setting {message}"):
        if caller == "simulate_qsme":
            smesim.simulate_qsme(ops, dt=1e-3, T=0.01, n_traj=2, seed=0, **kw)
        else:
            smesim.lindblad_means(ops, times=[0.0, 0.01], **kw)


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
    """The stats of L pass on a law run; the means and standard errors of
    every tracked quantity, taken in one reduction over the trajectory
    axis, equal those of each quantity's own slice, bit for bit."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    rho0 = _ground_state_mixture(8)
    l = ops.l_ops[0]
    a = ops.a_ops[0]
    tracked = [("L", l), ("L2", l @ l), ("n", a.conj().T @ a)] + [
        (f"P{j}", p) for j, (_, p) in enumerate(
            smesim.spectral_projections(l))]
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.2, n_traj=200,
                                 seed=11, tracked=tracked, store_every=20)
    stats = smesim.martingale_stats(batch)
    entry = stats[0]
    assert entry.name == "L"
    assert entry.passed, (entry.drift, entry.allowance)
    assert entry.means.shape == batch.times.shape
    assert [e.name for e in stats] == [name for name, _ in tracked]
    for k, e in enumerate(stats):
        vals = batch.tracked_values[:, :, k]
        means = vals.mean(axis=0)
        ses = vals.std(axis=0, ddof=1) / np.sqrt(200)
        assert means.tobytes() == e.means.tobytes()
        assert ses.tobytes() == e.standard_errors.tobytes()
        assert e.drift == float(means[-1] - means[0])
        assert e.allowance == 3.0 * float(ses[-1])


def test_martingale_allowance_follows_the_method():
    """The exact law has no discretization bias: on a law run each
    allowance is exactly 3 standard errors of the final mean, and a run at
    four times the dt on the same stored times gives the same values and
    the same allowances. A Kraus run keeps 3 dt ||X|| for the integrator's
    first-order weak bias."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=8)
    l = ops.l_ops[0]
    tracked = [("L", l), ("L2", l @ l)]
    rho0 = _half_ground_mixture(8)
    allowances = []
    for dt, store_every in ((1e-3, 20), (4e-3, 5)):
        batch = smesim.simulate_qsme(ops, rho0, dt=dt, T=0.2, n_traj=50,
                                     seed=11, tracked=tracked,
                                     store_every=store_every)
        assert batch.method == "exact_law"
        stats = smesim.martingale_stats(batch)
        for entry in stats:
            assert entry.allowance == 3.0 * float(entry.standard_errors[-1])
        allowances.append([entry.allowance for entry in stats])
    assert allowances[0] == allowances[1]

    ops = smesim.build_truncated_operators(_negative_control(), fock_dim=8)
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=0.02, n_traj=20,
                                 seed=11, tracked=[("L", ops.l_ops[0])])
    assert batch.method == "kraus"
    (entry,) = smesim.martingale_stats(batch)
    assert entry.allowance == 3.0 * (float(entry.standard_errors[-1])
                                     + batch.dt * batch.tracked_norms[0])


def test_martingale_stats_needs_two_trajectories():
    """One trajectory has no standard error: the stats raise up front
    instead of warning and returning a NaN allowance."""
    ops = smesim.build_truncated_operators(_measured_mode(), fock_dim=4)
    batch = smesim.simulate_qsme(ops, _ground_state_mixture(4), dt=1e-3,
                                 T=0.01, n_traj=1, seed=0,
                                 tracked=[("L", ops.l_ops[0])])
    with pytest.raises(PreconditionError, match=r"n_traj >= 2"):
        smesim.martingale_stats(batch)
