"""Network reduction against a direct closed-loop oracle, and the
coupling-gain designer."""

import numpy as np
import pytest
from scipy import optimize

from qlinbae import bae, feedback, matcore, qsys, xferfn
from qlinbae.errors import DimensionError, PreconditionError, WellPosednessError

from conftest import rand_symmetric, random_feedback_network, schur_deviation_bound

# the two-mode worked interconnection used as a regression anchor: an
# indefinite-real-part Hamiltonian whose loop shift renders it purely
# imaginary
OM_MINUS = np.array([[2.0, 3.0 + 2.0j], [3.0 - 2.0j, 4.0]])
OM_PLUS = np.array([[2.0, 3.0 - 1.0j], [3.0 - 1.0j, 5.0]])
K11 = np.array([[1.0, 1.0 + 1.0j]])
K12 = np.array([[1.0, 2.0 - 1.0j]])
K21 = np.array([[1.0 + 1.0j, 1.0 + 1.0j]])
K22 = np.array([[1.0 + 1.0j, 2.0 + 2.0j]])


def _anchor_network():
    return feedback.make_network(OM_MINUS, OM_PLUS, K11, K12, K21, K22,
                                 s_b=-1j * np.eye(1))


# ------------------------------------------------------------ construction

def test_make_network_partitions():
    net = _anchor_network()
    assert net.m1 == 1 and net.m2 == 1
    assert np.allclose(net.k11, K11)
    assert np.allclose(net.k22, K22)
    assert np.allclose(net.plant.s, np.eye(2))


def test_nonunitary_beamsplitter_rejected():
    with pytest.raises(DimensionError):
        feedback.make_network(OM_MINUS, OM_PLUS, K11, K12, K21, K22,
                              s_b=2.0 * np.eye(1))


def test_singular_loop_raises():
    net = feedback.make_network(OM_MINUS, OM_PLUS, K11, K12, K21, K22,
                                s_b=np.eye(1))  # I - S22 S_b = 0
    with pytest.raises(WellPosednessError):
        feedback.reduce_network(net)


# -------------------------------------------------------------- reduction

def test_open_loop_reduction_is_trivial():
    """With the looped couplings removed the reduction returns the outer
    subsystem untouched."""
    z = np.zeros((1, 2))
    net = feedback.make_network(OM_MINUS, OM_PLUS, K11, K12, z, z,
                                s_b=-np.eye(1))
    red = feedback.reduce_network(net)
    assert np.allclose(red.c_minus, K11)
    assert np.allclose(red.c_plus, K12)
    assert np.allclose(red.omega_minus, OM_MINUS)
    assert np.allclose(red.omega_plus, OM_PLUS)


def _loop_sensitivity(net, g):
    """(1 + ||M^{-1} Sb G21||)(1 + ||G12 M^{-1} Sb||) with M = I - Sb G22 and
    Sb the real form of s_b: to first order, a change dG of the plant's
    quadrature G moves the closed loop G11 + G12 M^{-1} Sb G21 by at most
    this times ||dG||_2 (expand the four terms of the product rule)."""
    m, m1, m2 = net.plant.m_channels, net.m1, net.m2
    idx1, idx2 = np.r_[0:m1, m:m + m1], np.r_[m1:m, m + m1:2 * m]
    sb = np.block([[np.real(net.s_b), -np.imag(net.s_b)],
                   [np.imag(net.s_b), np.real(net.s_b)]])
    inner = np.eye(2 * m2) - sb @ g[np.ix_(idx2, idx2)]
    right = np.linalg.solve(inner, sb @ g[np.ix_(idx2, idx1)])
    left = g[np.ix_(idx1, idx2)] @ np.linalg.solve(inner, sb)
    return (1 + np.linalg.norm(right, 2)) * (1 + np.linalg.norm(left, 2))


def test_reduction_matches_closed_loop_oracle():
    """The report, whose grids are evaluated once each, matches a per-point
    evaluation with closed_loop_tf and eval_tf within the Schur-form
    forward-error bound of both realizations, the plant's carried through
    the loop."""
    rng = np.random.default_rng(0)
    omegas = np.logspace(-2, 2, 16)
    for _ in range(25):
        net = random_feedback_network(rng, n=2, m1=1, m2=2)
        report = feedback.verify_reduction(net, tol=1e-9)
        assert report.passed, report.max_deviation
        reduced = qsys.quad_realization(feedback.reduce_network(net, tol=1e-9))
        plant = qsys.quad_realization(net.plant)
        dev, scale, slack = 0.0, 1.0, 0.0
        for w in omegas:
            direct = feedback.closed_loop_tf(net, 1j * w)
            dev = max(dev, matcore.inf_norm(direct - xferfn.eval_tf(reduced, 1j * w)))
            scale = max(scale, matcore.inf_norm(direct))
            slack = max(slack, schur_deviation_bound(reduced, 1j * w)
                        + _loop_sensitivity(net, xferfn.eval_tf(plant, 1j * w))
                        * schur_deviation_bound(plant, 1j * w))
        assert abs(report.max_deviation - dev) <= slack
        assert abs(report.scale - scale) <= slack


def test_reduction_preserves_structural_validity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = random_feedback_network(rng, n=2, m1=2, m2=1)
        red = feedback.reduce_network(net)  # new_system re-validates
        assert np.allclose(red.omega_minus, red.omega_minus.conj().T)
        assert np.allclose(red.omega_plus, red.omega_plus.T)
        assert matcore.inf_norm(red.s @ red.s.conj().T - np.eye(net.m1)) < 1e-9


def test_anchor_network_oracle_and_crossterm_shift():
    """The worked interconnection: the reduction must match the closed-loop
    oracle, and the simplified cross-term shift must land on purely
    imaginary Hamiltonian blocks."""
    net = _anchor_network()
    report = feedback.verify_reduction(net, tol=1e-9)
    assert report.passed
    om, op = feedback.crossterm_hamiltonian_shift(net)
    assert matcore.is_imag(om, tol=1e-10)
    assert matcore.is_imag(op, tol=1e-10)
    assert np.allclose(om, np.array([[0.0, 1.0j], [-1.0j, 0.0]]))
    assert np.allclose(op, np.array([[0.0, 0.0], [0.0, 3.0j]]))


# ---------------------------------------------------------------- designer

def _validated_residuals(x, om, op, m1, m2, n, sb, sg, branch):
    """The design residual through the validated path: make_network and
    reduce_network on the unpacked gains."""
    net = feedback.make_network(om, op, *feedback._unpack(x, m1, m2, n), sb,
                                s_plant=sg)
    red = feedback.reduce_network(net)
    c_bar = np.hstack([red.c_minus, red.c_plus])
    c_part = np.imag(c_bar) if branch == "imag" else np.real(c_bar)
    return np.concatenate([np.real(red.omega_minus).ravel(),
                           np.real(red.omega_plus).ravel(), c_part.ravel()])


def test_design_residuals_match_validated_reduction():
    """The search's residual, on the loop gain hoisted once per topology,
    is bit-identical to the one built through make_network and
    reduce_network, so hoisting cannot move the optimizer's path."""
    nets = [_anchor_network()]
    rng = np.random.default_rng(2)
    nets += [random_feedback_network(rng, n=2, m1=2, m2=2) for _ in range(20)]
    for net in nets:
        m1, m2, n = net.m1, net.m2, net.plant.n_modes
        om, op = net.plant.omega_minus, net.plant.omega_plus
        x = feedback._pack(net.k11, net.k12, net.k21, net.k22)
        for sg_tag in ("identity", "swap"):
            sg = feedback._sg_matrix(sg_tag, m1, m2)
            topology = feedback.make_network(om, op, net.k11, net.k12,
                                             net.k21, net.k22, net.s_b,
                                             s_plant=sg)
            w = feedback._loop_gain(topology)
            for branch in ("imag", "real"):
                hoisted = feedback._design_residuals(
                    x, om, op, m1, m2, n, topology.s12, topology.s22, w,
                    branch)
                assert np.array_equal(hoisted, _validated_residuals(
                    x, om, op, m1, m2, n, net.s_b, sg, branch))


def test_designer_trivial_target(monkeypatch):
    """An already purely imaginary Hamiltonian needs no loop: the search
    must return certified candidates from the open-loop start. The identity
    beamsplitter on the identity plant makes I - S22 S_b = 0 for every gain,
    so that topology is skipped without running the optimizer."""
    calls = []
    least_squares = optimize.least_squares

    def counting(*args, **kwargs):
        calls.append(kwargs["args"])
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(optimize, "least_squares", counting)
    om = np.array([[1.0j * 0.0]])  # zero is trivially purely imaginary
    op = np.array([[0.5j]])
    cfg = feedback.SearchConfig(n_starts=2, seed=1)
    cands = feedback.design_couplings(om, op, (1, 1), search_cfg=cfg,
                                      s_b_candidates=("identity", "-i"),
                                      s_g_candidates=("identity",))
    # only the -i topology runs: two starts, one refinement per branch
    assert len(calls) == 2 * cfg.n_starts
    assert cands
    assert all(np.array_equal(c.s_b, -1j * np.eye(1)) for c in cands)
    best = cands[0]
    assert best.objective <= 1e-12
    assert best.report.consistency
    red = best.reduced
    assert matcore.is_imag(red.omega_minus, tol=1e-5)
    assert matcore.is_imag(red.omega_plus, tol=1e-5)


def test_designer_indefinite_target_needs_swap_topology():
    """The anchor Hamiltonian has an indefinite real part, which the
    identity routing cannot cancel; the swap routing can."""
    cfg = feedback.SearchConfig(n_starts=3, seed=0)
    only_identity = feedback.design_couplings(
        OM_MINUS, OM_PLUS, (1, 1), search_cfg=cfg,
        s_b_candidates=("-i",), s_g_candidates=("identity",))
    assert only_identity == []
    with_swap = feedback.design_couplings(
        OM_MINUS, OM_PLUS, (1, 1), search_cfg=cfg,
        s_g_candidates=("swap",))
    assert with_swap
    best = with_swap[0]
    assert best.objective <= 1e-12
    red = best.reduced
    assert matcore.is_imag(red.omega_minus, tol=1e-5)
    assert matcore.is_imag(red.omega_plus, tol=1e-5)
    assert best.report.certified_pairs
    assert best.report.consistency


def test_designer_refines_every_start_at_large_scale(monkeypatch):
    """Every start is refined, whatever the target's scale: at 1e6 times the
    anchor Hamiltonian the starts' objectives exceed 1e12, and the search
    must still run both branches from each and reach the threshold."""
    calls = []
    least_squares = optimize.least_squares

    def counting(*args, **kwargs):
        calls.append(kwargs["args"])
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(optimize, "least_squares", counting)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands = feedback.design_couplings(1e6 * OM_MINUS, 1e6 * OM_PLUS, (1, 1),
                                      search_cfg=cfg, s_b_candidates=("-i",),
                                      s_g_candidates=("swap",))
    assert len(calls) == 2 * cfg.n_starts
    assert cands
    assert cands[0].objective <= feedback.CANDIDATE_THRESHOLD


def _topologies():
    """((net index, plant tag), fixed residual arguments) for the anchor and
    20 random two-plus-two-channel networks, each at its own target and at
    1e6 times it, on the identity and swap plant topologies with the
    network's beamsplitter."""
    nets = [_anchor_network()]
    rng = np.random.default_rng(3)
    nets += [random_feedback_network(rng, n=2, m1=2, m2=2) for _ in range(20)]
    for k, net in enumerate(nets):
        m1, m2, n = net.m1, net.m2, net.plant.n_modes
        for scale in (1.0, 1e6):
            om = scale * net.plant.omega_minus
            op = scale * net.plant.omega_plus
            for sg_tag in ("identity", "swap"):
                topology = feedback.make_network(
                    om, op, net.k11, net.k12, net.k21, net.k22, net.s_b,
                    s_plant=feedback._sg_matrix(sg_tag, m1, m2))
                yield (k, sg_tag), (om, op, m1, m2, n, topology.s12,
                                    topology.s22, feedback._loop_gain(topology))


def test_quadratic_model_is_the_residual():
    """The tabulated polynomial equals the residual kernel, and its Jacobian
    equals the kernel's central difference at unit step (exact for a
    quadratic), within 1e-12 (1 + |x|^2) max(1, |Omega|). L and H do not
    depend on Omega at all: at 1e6 times the target they are bit for bit
    those at the target, and r0 is the target's real part."""
    rng = np.random.default_rng(4)
    tables = {}
    for label, fixed in _topologies():
        om, op, m1, m2, n = fixed[:5]
        dim = 4 * n * (m1 + m2)
        bound_scale = max(1.0, np.abs(om).max(), np.abs(op).max())
        eye = np.eye(dim)
        for branch in ("imag", "real"):
            r0, lin, hess = feedback._quadratic_model(fixed, branch)
            assert np.array_equal(r0[:2 * om.size], np.concatenate(
                [np.real(om).ravel(), np.real(op).ravel()]))
            key = (*label, branch)
            if key in tables:
                assert all(np.array_equal(a, b) for a, b in
                           zip(tables.pop(key), (lin, hess)))
            else:
                tables[key] = (lin, hess)
            for _ in range(3):
                x = rng.standard_normal(dim) * 3.0 / np.sqrt(dim)
                bound = 1e-12 * (1.0 + x @ x) * bound_scale
                kernel = feedback._design_residuals(x, *fixed, branch)
                model = feedback._quadratic_residuals(x, r0, lin, hess)
                assert np.max(np.abs(model - kernel)) <= bound
                central = (feedback._design_residuals(x + eye, *fixed, branch)
                           - feedback._design_residuals(x - eye, *fixed, branch)).T / 2
                jac = feedback._quadratic_jacobian(x, r0, lin, hess)
                assert np.max(np.abs(jac - central)) <= bound
    assert not tables  # every table was compared with its 1e6 scaling


def test_designer_evaluates_the_residual_a_fixed_number_of_times(monkeypatch):
    """One tabulation per refined (topology, branch) and one gate per
    refinement: the residual kernel's call count does not grow with the
    optimizer's evaluations, so finite differences cannot return unnoticed.
    The identity routing with S_b = -i is pruned (its floor on the anchor
    is ||(Re Omega-)_-||_F^2 = 0.026): no tabulation, no refinement."""
    kernel_calls, evals = [], []
    design_residuals = feedback._design_residuals
    least_squares = optimize.least_squares

    def counting_kernel(*args):
        kernel_calls.append((args[0].shape, args[6].any()))  # s12 != 0: swap
        return design_residuals(*args)

    def counting_solver(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        evals.append(res.nfev)
        return res

    monkeypatch.setattr(feedback, "_design_residuals", counting_kernel)
    monkeypatch.setattr(optimize, "least_squares", counting_solver)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1), search_cfg=cfg,
                              s_b_candidates=("-i",),
                              s_g_candidates=("identity", "swap"))
    assert all(swap for _, swap in kernel_calls)  # none on the identity
    n_tables = 2  # the swap topology x branches
    assert len(evals) == n_tables * cfg.n_starts
    assert len(kernel_calls) == n_tables * (1 + cfg.n_starts)
    assert sum(evals) > len(kernel_calls)
    # the tabulations are batched, the gates single points
    assert sum(len(shape) == 2 for shape, _ in kernel_calls) == n_tables


def _identity_plant_topologies(rng):
    """(fixed residual arguments, sign of H) on the identity plant, n = 2,
    m1 = 1: Re Omega- positive definite, negative definite or indefinite,
    Omega+ real-part-free or generic, m2 in {1, 2}, S_b = e^{i phi} I with
    H = cot(phi / 2) / 2 I of either sign or (phi = pi) zero, and for m2 = 2
    S_b = diag(e^{i phi}, e^{-i phi}), whose H is indefinite."""
    n, m1 = 2, 1
    for m2 in (1, 2):
        phases = [(rng.uniform(0.3, np.pi - 0.3),) * m2,
                  (rng.uniform(np.pi + 0.3, 2 * np.pi - 0.3),) * m2,
                  (np.pi,) * m2]
        if m2 == 2:
            phi = rng.uniform(0.3, np.pi - 0.3)
            phases.append((phi, -phi))
        for kind in ("positive", "negative", "indefinite"):
            for phase in phases:
                a = rng.standard_normal((n, n))
                a = a @ a.T + 0.1 * np.eye(n)
                small = rng.uniform(0.05, 0.5)
                real = {"positive": a, "negative": -a,
                        "indefinite": np.diag(rng.permutation([3.0, -small]))}[kind]
                im = rng.standard_normal((n, n))
                om = real + 1j * (im - im.T)
                op = rand_symmetric(rng, n)
                if rng.random() < 0.5:
                    op = 1j * op.imag  # lets the shift cancel Re Omega- alone
                sb = np.diag(np.exp(1j * np.array(phase)))
                topology = feedback.make_network(
                    om, op, np.ones((m1, n)), np.zeros((m1, n)),
                    np.zeros((m2, n)), np.zeros((m2, n)), sb)
                cot = 1.0 / np.tan(np.array(phase) / 2)
                sign = 1 if cot.min() > 1e-9 else -1 if cot.max() < -1e-9 else 0
                yield ((om, op, m1, m2, n, topology.s12, topology.s22,
                        feedback._loop_gain(topology)), sign)


def test_objective_floor_bounds_every_refined_objective():
    """On the identity plant the floor is ||(Re Omega-)_+||_F^2 where H > 0,
    ||(Re Omega-)_-||_F^2 where H < 0 and 0 where H is indefinite or zero,
    and no refinement, run as the designer runs it, gets a kernel J below
    it. The floor is attained where the shift can cancel the opposite-sign
    part, so a bound of the wrong sign fails here."""
    rng = np.random.default_rng(5)
    attained = below_wrong_sign = 0
    for fixed, sign in _identity_plant_topologies(rng):
        om, _, m1, m2, n = fixed[:5]
        floor = feedback._objective_floor(fixed)
        eigs = np.linalg.eigvalsh(np.real(om))
        parts = {s: float(np.sum(np.maximum(s * eigs, 0.0) ** 2)) for s in (1, -1)}
        want = parts[sign] if sign else 0.0
        assert want - 1e-9 * (1 + want) <= floor <= want
        best = np.inf
        for branch in ("imag", "real"):
            model = feedback._quadratic_model(fixed, branch)
            for _ in range(2):
                res = optimize.least_squares(
                    feedback._quadratic_residuals,
                    rng.standard_normal(4 * n * (m1 + m2)),
                    jac=feedback._quadratic_jacobian, args=model,
                    method="trf", max_nfev=feedback.REFINE_MAXITER,
                    xtol=1e-15, ftol=1e-15, gtol=1e-15)
                r = feedback._design_residuals(res.x, *fixed, branch)
                j = float(np.sum(r ** 2))
                assert j >= floor, (j, floor, sign)
                best = min(best, j)
        attained += sign != 0 and best <= floor + 1e-9 * (1 + floor)
        below_wrong_sign += sign != 0 and best < parts[-sign]
    assert attained >= 4 and below_wrong_sign >= 4


def test_search_config_rejects_bad_counts():
    """n_starts = 0 or -3 used to run one start; a bool or a float is no
    count, and numpy rejects a negative seed."""
    for field, value in [("n_starts", 0), ("n_starts", -3), ("n_starts", 2.0),
                         ("n_starts", True), ("seed", True), ("seed", 1.5),
                         ("seed", "0"), ("seed", -1)]:
        with pytest.raises(PreconditionError, match=f"SearchConfig {field}"):
            feedback.SearchConfig(**{field: value})
    assert feedback.SearchConfig(n_starts=np.int64(3), seed=np.int64(7)).n_starts == 3
