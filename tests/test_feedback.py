"""Network reduction against a direct closed-loop oracle, and the
coupling-gain designer."""

import numpy as np
import pytest
from scipy import optimize

from qlinbae import bae, feedback, matcore, qsys, xferfn
from qlinbae.errors import (DimensionError, PreconditionError, ValidationError,
                            WellPosednessError)

import exact
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
# the designer's coupling branches, in the order of feedback._branch_rows
BRANCHES = ("C real", "C purely imaginary")


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
            direct = exact.closed_loop_tf(net, 1j * w)
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
    om, op = exact.crossterm_hamiltonian_shift(net)
    assert exact.is_imag(om, tol=1e-10)
    assert exact.is_imag(op, tol=1e-10)
    assert np.allclose(om, np.array([[0.0, 1.0j], [-1.0j, 0.0]]))
    assert np.allclose(op, np.array([[0.0, 0.0], [0.0, 3.0j]]))


# ---------------------------------------------------------------- designer

def _count_refinements(monkeypatch):
    """Record the branch rows of every refinement the designer runs: one
    call of feedback._refine per start and branch."""
    calls = []
    refine = feedback._refine

    def counting(x0, model, fixed, rows):
        calls.append(rows)
        return refine(x0, model, fixed, rows)

    monkeypatch.setattr(feedback, "_refine", counting)
    return calls


def _validated_residuals(x, om, op, m1, m2, n, sb, sg, branch):
    """The design residual through the validated path: make_network and
    reduce_network on the unpacked gains."""
    net = feedback.make_network(om, op, *feedback._unpack(x, m1, m2, n), sb,
                                s_plant=sg)
    red = feedback.reduce_network(net)
    c_bar = np.hstack([red.c_minus, red.c_plus])
    c_part = np.imag(c_bar) if branch == "C real" else np.real(c_bar)
    return np.concatenate([np.real(red.omega_minus).ravel(),
                           np.real(red.omega_plus).ravel(), c_part.ravel()])


def test_design_residuals_match_validated_reduction():
    """The search's residual, on the loop gain hoisted once per topology,
    read on each branch's rows, is bit-identical to the one built through
    make_network and reduce_network, so hoisting cannot move the
    optimizer's path, and so are the reduced C+- and Omega+- it returns
    with it."""
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
            w = feedback._loop_gain(topology.s22, topology.s_b)
            hoisted, reduced = feedback._design_residuals(
                x, om, op, m1, m2, n, topology.s12, topology.s22, w)
            red = feedback.reduce_network(topology)
            assert all(np.array_equal(a, b) for a, b in zip(reduced, (
                red.c_minus, red.c_plus, red.omega_minus, red.omega_plus)))
            for branch, rows in zip(BRANCHES, feedback._branch_rows(m1, n)):
                assert np.array_equal(hoisted[rows], _validated_residuals(
                    x, om, op, m1, m2, n, net.s_b, sg, branch))


def test_designer_trivial_target(monkeypatch):
    """An already purely imaginary Hamiltonian needs no loop: the search
    must return certified candidates from the open-loop start. The identity
    beamsplitter on the identity plant makes I - S22 S_b = 0 for every gain,
    so that topology is skipped without running the optimizer."""
    calls = _count_refinements(monkeypatch)
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
    assert exact.is_imag(red.omega_minus, tol=1e-5)
    assert exact.is_imag(red.omega_plus, tol=1e-5)


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
    assert exact.is_imag(red.omega_minus, tol=1e-5)
    assert exact.is_imag(red.omega_plus, tol=1e-5)
    assert best.report.certified_pairs
    assert best.report.consistency


def test_designer_skips_a_swap_routing_of_unequal_split(monkeypatch):
    """Swap routing needs m1 = m2: with split (1, 2) it is no topology, so
    the search refines nothing and returns no candidate."""
    calls = _count_refinements(monkeypatch)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    assert feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 2), search_cfg=cfg,
                                     s_g_candidates=("swap",)) == []
    assert calls == []


@pytest.mark.xfail(strict=True, reason=(
    "CANDIDATE_THRESHOLD is absolute: at 1e-6 times the anchor, gains of the "
    "identity routing reach J = 5e-13 with a reduced Re Omega a quarter of "
    "Omega_red, and pass as candidates"))
def test_designer_candidates_hold_the_target_at_a_small_time_unit():
    """The identity routing cannot cancel the anchor's indefinite Re Omega-
    (_objective_floor), and at 1 and 1e-3 times the anchor it is pruned. A
    candidate must hold "Omega purely imaginary" at the default tolerance in
    any time unit; at 1e-6 times the anchor the routing's two candidates do
    not, nor do they match any cataloged condition."""
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands = feedback.design_couplings(1e-6 * OM_MINUS, 1e-6 * OM_PLUS, (1, 1),
                                      search_cfg=cfg, s_g_candidates=("identity",))
    for cand in cands:
        holds = bae._Verdicts(cand.reduced, matcore.DEFAULT_TOL)
        assert holds["Omega purely imaginary"], cand.objective


def test_designer_reduces_each_candidate_without_a_network(monkeypatch):
    """The search builds no network: design_couplings calls neither
    make_network nor reduce_network, and new_system runs once for the
    target and once per candidate, as certify_bae does per candidate. Each
    candidate's reduced system is, array for array, reduce_network's on a
    network of its gains, beamsplitter and plant scattering, and its
    objective is the kernel J of its refinement's branch at its gains. An
    invalid target fails before any search."""
    calls, refined = [], []

    def counting(name, module=feedback):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in ("make_network", "reduce_network", "new_system"):
        counting(name)
    counting("certify_bae", bae)
    refine = feedback._refine

    def recording(x0, model, fixed, rows):
        x, j, reduced = refine(x0, model, fixed, rows)
        refined.append((x, rows))
        return x, j, reduced

    monkeypatch.setattr(feedback, "_refine", recording)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands = feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1), search_cfg=cfg)
    searched = sorted(calls)
    calls.clear()
    with pytest.raises(ValidationError, match="Omega_minus is not Hermitian"):
        feedback.design_couplings(OM_MINUS + 1j, OM_PLUS, (1, 1), search_cfg=cfg)
    monkeypatch.undo()
    assert cands and calls == ["new_system"]
    assert searched == sorted(["new_system"] * (1 + len(cands))
                              + ["certify_bae"] * len(cands))
    for cand in cands:
        gains = (cand.k11, cand.k12, cand.k21, cand.k22)
        net = feedback.make_network(OM_MINUS, OM_PLUS, *gains, cand.s_b,
                                    s_plant=cand.s_plant)
        red = feedback.reduce_network(net)
        assert all(np.array_equal(getattr(cand.reduced, f), getattr(red, f))
                   for f in ("s", "c_minus", "c_plus", "omega_minus", "omega_plus"))
        x = feedback._pack(*gains)
        rows = [r for xr, r in refined if np.array_equal(xr, x)]
        assert len(rows) == 1
        fixed = (OM_MINUS, OM_PLUS, 1, 1, 2, net.s12, net.s22,
                 feedback._loop_gain(net.s22, net.s_b))
        r = feedback._design_residuals(x, *fixed)[0][rows[0]]
        assert cand.objective == float(np.sum(r ** 2))


def test_designer_refines_every_start_at_large_scale(monkeypatch):
    """Every start is refined, whatever the target's scale: at 1e6 times the
    anchor Hamiltonian the starts' objectives exceed 1e12, and the search
    must still run both branches from each and reach the threshold."""
    calls = _count_refinements(monkeypatch)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands = feedback.design_couplings(1e6 * OM_MINUS, 1e6 * OM_PLUS, (1, 1),
                                      search_cfg=cfg, s_b_candidates=("-i",),
                                      s_g_candidates=("swap",))
    assert len(calls) == 2 * cfg.n_starts
    assert cands
    assert cands[0].objective <= feedback.CANDIDATE_THRESHOLD


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_designer_certifies_the_bilateral_pairs_at_any_scale(scale):
    """Every candidate of the anchor search, at the anchor target and at
    1e6 times it, renders the reduced Hamiltonian purely imaginary through
    the swap routing, and its certificate holds both bilateral
    off-diagonal zeros, q_out <- q_in and p_out <- p_in, consistently."""
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands = feedback.design_couplings(scale * OM_MINUS, scale * OM_PLUS, (1, 1),
                                      search_cfg=cfg, s_b_candidates=("-i",),
                                      s_g_candidates=("swap",))
    assert len(cands) == 4
    for cand in cands:
        assert {bae.QQ, bae.PP} <= cand.report.certified_pairs
        assert cand.report.consistency


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
                yield (k, sg_tag), (om, op, m1, m2, n, topology.s12, topology.s22,
                                    feedback._loop_gain(topology.s22, topology.s_b))


def test_quadratic_model_is_the_residual():
    """The tabulated polynomial, read on each branch's rows as the designer
    reads it, equals the residual kernel on those rows, and its Jacobian
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
        table = feedback._quadratic_model(fixed)
        for branch, rows in zip(BRANCHES, feedback._branch_rows(m1, n)):
            r0, lin, hess = (a[rows] for a in table)
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
                kernel = feedback._design_residuals(x, *fixed)[0][rows]
                model = feedback._quadratic_residuals(x, r0, lin, hess)
                assert np.max(np.abs(model - kernel)) <= bound
                central = (feedback._design_residuals(x + eye, *fixed)[0][:, rows]
                           - feedback._design_residuals(x - eye, *fixed)[0][:, rows]).T / 2
                jac = feedback._quadratic_jacobian(x, r0, lin, hess)
                assert np.max(np.abs(jac - central)) <= bound
    assert not tables  # every table was compared with its 1e6 scaling


def test_designer_evaluates_the_residual_a_fixed_number_of_times(monkeypatch):
    """One tabulation per refined topology, for both branches, and one gate
    per refinement: the residual kernel's call count does not grow with the
    refinement's evaluations of the tabulated polynomial, so finite
    differences cannot return unnoticed. The identity routing with
    S_b = -i is pruned (its floor on the anchor is ||(Re Omega-)_-||_F^2 =
    0.026): no tabulation, no refinement."""
    kernel_calls, evals = [], []
    design_residuals = feedback._design_residuals
    quadratic_residuals = feedback._quadratic_residuals

    def counting_kernel(*args):
        kernel_calls.append((args[0].shape, args[6].any()))  # s12 != 0: swap
        return design_residuals(*args)

    def counting_polynomial(*args):
        evals.append(args[0].shape)
        return quadratic_residuals(*args)

    monkeypatch.setattr(feedback, "_design_residuals", counting_kernel)
    monkeypatch.setattr(feedback, "_quadratic_residuals", counting_polynomial)
    refinements = _count_refinements(monkeypatch)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1), search_cfg=cfg,
                              s_b_candidates=("-i",),
                              s_g_candidates=("identity", "swap"))
    assert all(swap for _, swap in kernel_calls)  # none on the identity
    n_branches = 2  # one table, on the swap topology
    assert len(refinements) == n_branches * cfg.n_starts
    assert len(kernel_calls) == 1 + n_branches * cfg.n_starts
    assert len(evals) > len(kernel_calls)
    # the tabulation is batched, the gates single points
    assert sum(len(shape) == 2 for shape, _ in kernel_calls) == 1


def test_a_nan_refinement_is_no_candidate(monkeypatch):
    """A refinement whose kernel J is NaN fails the gate "J at most
    CANDIDATE_THRESHOLD": with Newton returning NaN gains for the first
    refinement and the trust region returning NaN gains too, the search
    raises nothing and returns every other refinement's candidate, bit for
    bit those of the search left alone."""
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    kwargs = dict(search_cfg=cfg, s_b_candidates=("-i",), s_g_candidates=("swap",))
    clean = feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1), **kwargs)
    newton, refined, handed = feedback._newton, [], []

    def nan_first(x0, *model):
        refined.append(x0)
        return np.full_like(x0, np.nan) if len(refined) == 1 else newton(x0, *model)

    def nan_trust_region(fun, x0, **kwargs):
        handed.append(x0)
        return optimize.OptimizeResult(x=np.full_like(x0, np.nan))

    monkeypatch.setattr(feedback, "_newton", nan_first)
    monkeypatch.setattr(optimize, "least_squares", nan_trust_region)
    cands = feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1), **kwargs)
    assert len(handed) == 1 and handed[0] is refined[0]

    def key(cand):
        return (feedback._pack(cand.k11, cand.k12, cand.k21, cand.k22).tobytes(),
                cand.objective.hex())

    assert len(cands) == len(clean) - 1
    assert {key(c) for c in cands} < {key(c) for c in clean}


def test_a_stalled_newton_hands_every_start_to_the_trust_region(monkeypatch):
    """Where Newton makes no progress, every start goes on to the
    trust-region least squares and the candidates are still found: the
    anchor search of test_designer_certifies_the_bilateral_pairs_at_any
    _scale, with Newton returning its start, still gives its four
    certified candidates."""
    handoffs = []
    least_squares = optimize.least_squares

    def counting(*args, **kwargs):
        handoffs.append(args[1])
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(feedback, "_newton", lambda x0, *model: x0)
    monkeypatch.setattr(optimize, "least_squares", counting)
    refinements = _count_refinements(monkeypatch)
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands = feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1), search_cfg=cfg,
                                      s_b_candidates=("-i",),
                                      s_g_candidates=("swap",))
    assert len(handoffs) == len(refinements) == 2 * cfg.n_starts
    assert len(cands) == 4
    for cand in cands:
        assert cand.objective <= feedback.CANDIDATE_THRESHOLD
        assert {bae.QQ, bae.PP} <= cand.report.certified_pairs
        assert cand.report.consistency


def _newton_runs(monkeypatch, *args, **kwargs):
    """design_couplings(*args, **kwargs) with the trust-region hand-off
    forbidden: its candidates and, per refinement, the tabulated model,
    Newton's accepted iterates (the points where it took a Jacobian, then
    the point it returned) and the number of Jacobians it took."""
    runs, points = [], []
    jacobian, newton = feedback._quadratic_jacobian, feedback._newton

    def recording_jacobian(x, *model):
        points.append(x.copy())
        return jacobian(x, *model)

    def recording_newton(x0, *model):
        points.clear()
        x = newton(x0, *model)
        iterates = points.copy()
        if not iterates or not np.array_equal(x, iterates[-1]):
            iterates.append(x)
        runs.append((model, iterates, len(points)))
        return x

    def no_hand_off(*args, **kwargs):
        raise AssertionError("a start was handed to the trust region")

    monkeypatch.setattr(feedback, "_quadratic_jacobian", recording_jacobian)
    monkeypatch.setattr(feedback, "_newton", recording_newton)
    monkeypatch.setattr(optimize, "least_squares", no_hand_off)
    return feedback.design_couplings(*args, **kwargs), runs


def _full_steps(model, iterates):
    """(||r_k||, ||r_k+1||, the bound h ||r_k||^2 / (2 sigma_k^2)) for each
    full Newton step x_k+1 = x_k - J_k^+ r_k among the iterates, with h and
    sigma_k as in feedback._newton; the step is re-solved with the
    designer's own solver, and sigma_k is the smallest singular value it
    keeps."""
    r0, lin, hess = model
    h = np.linalg.norm(np.linalg.norm(hess, 2, axis=(1, 2)))
    out = []
    for x, x_next in zip(iterates, iterates[1:]):
        r = feedback._quadratic_residuals(x, *model)
        jac = feedback._quadratic_jacobian(x, *model)
        step, sv = feedback._min_norm_solver(*jac.shape)(jac, r)
        if not np.array_equal(x_next, x - step):
            continue  # a damped step
        sigma = sv[sv > np.finfo(float).eps * max(jac.shape) * sv[0]].min()
        r_norm = np.linalg.norm(r)
        out.append((r_norm, np.linalg.norm(feedback._quadratic_residuals(x_next, *model)),
                    h * r_norm ** 2 / (2 * sigma ** 2)))
    return out


ROUNDING_FLOOR = 1e-12  # a residual norm at or below this is set by rounding


def test_newton_alone_reaches_the_anchor_candidates(monkeypatch):
    """On the anchor's swap routing Newton reaches the threshold from every
    start and branch with no trust-region hand-off, and every full step
    obeys _newton's bound ||r_k+1|| <= h ||r_k||^2 / (2 sigma_k^2). J loses
    rank at the anchor's zeros, where a Newton step cuts ||r|| by only
    about 4 and a refinement of Newton steps alone takes 26-34 Jacobians;
    with the doubled step and the rounding-floor stop each takes at most
    20."""
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands, runs = _newton_runs(monkeypatch, OM_MINUS, OM_PLUS, (1, 1),
                               search_cfg=cfg, s_g_candidates=("swap",))
    assert len(runs) == len(cands) == 3 * 2 * cfg.n_starts
    for model, iterates, jacobians in runs:
        steps = _full_steps(model, iterates)
        assert steps  # the bound is checked on at least one step
        for r_norm, r_next, bound in steps:
            assert r_next <= bound + ROUNDING_FLOOR, (r_norm, r_next, bound)
        assert jacobians <= 20


def test_newton_step_is_the_lstsq_solution(monkeypatch):
    """On every Jacobian of the anchor's Newton refinements the designer's
    dgelsd step and singular values are those of np.linalg.lstsq(J, r,
    rcond=None) within the solver's rounding: the singular values within
    8 max(m, n) eps sigma_1 and the step within 8 max(m, n) eps kappa of
    its norm, kappa = sigma_1 / sigma_min over the kept singular values,
    which lstsq and the step keep alike. Near the singular zeros kappa
    grows to 1 / (16 eps), so the step bound is checked to be at most
    1e-8 on more than half of the Jacobians."""
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    _, runs = _newton_runs(monkeypatch, OM_MINUS, OM_PLUS, (1, 1),
                           search_cfg=cfg, s_g_candidates=("swap",))
    monkeypatch.undo()
    eps = np.finfo(float).eps
    compared, tight = 0, 0
    for model, iterates, jacobians in runs:
        for x in iterates[:jacobians]:
            jac = feedback._quadratic_jacobian(x, *model)
            r = feedback._quadratic_residuals(x, *model)
            step, sv = feedback._min_norm_solver(*jac.shape)(jac, r)
            want, _, rank, sv_want = np.linalg.lstsq(jac, r, rcond=None)
            tol = 8 * max(jac.shape) * eps
            kept = sv[sv > eps * max(jac.shape) * sv[0]]
            assert len(kept) == rank
            assert np.max(np.abs(sv - sv_want)) <= tol * sv_want[0]
            kappa = kept[0] / kept[-1]
            assert np.linalg.norm(step - want) <= tol * kappa * np.linalg.norm(want)
            compared += 1
            tight += tol * kappa <= 1e-8
    assert compared >= len(runs) and 2 * tight > compared


def test_newton_takes_the_doubled_step_at_a_double_root(monkeypatch):
    """r(x) = (x_1^2, x_2) has a double root at 0, where J loses rank:
    Newton steps alone halve x_1 per Jacobian and took 53-55 of them from
    these starts. The doubled step removes x_1 once x_2 is solved, so two
    or three Jacobians reach the root exactly."""
    r0, lin = np.zeros(2), np.array([[0.0, 0.0], [0.0, 1.0]])
    hess = np.zeros((2, 2, 2))
    hess[0, 0, 0] = 2.0
    jacobians = []
    jacobian = feedback._quadratic_jacobian

    def counting(x, *model):
        jacobians.append(x)
        return jacobian(x, *model)

    monkeypatch.setattr(feedback, "_quadratic_jacobian", counting)
    for x0 in ([1.0, 1.0], [0.7, -1.3], [-3.0, 0.2]):
        jacobians.clear()
        x = feedback._newton(np.array(x0), r0, lin, hess)
        assert len(jacobians) <= 3, (x0, len(jacobians))
        r = feedback._quadratic_residuals(x, r0, lin, hess)
        assert np.linalg.norm(r) <= 1e-30, (x0, r)


def test_newton_stops_at_its_rounding_floor(monkeypatch):
    """On the anchor Newton takes no Jacobian at a point whose ||r||^2 is at
    most CANDIDATE_THRESHOLD and whose ||r|| is within its rounding floor,
    and some refinements end there. At 1e6 times the anchor, where the
    floor is within a few decades of the threshold, every candidate is
    still below it and the stop hands no start to the trust region: at
    most one start is handed off, as with Newton steps alone (the trivial
    start's "C purely imaginary" refinement, whose gains grow to a norm of
    about 7e6), and only one whose Newton ends above the threshold."""
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    _, runs = _newton_runs(monkeypatch, OM_MINUS, OM_PLUS, (1, 1),
                           search_cfg=cfg, s_g_candidates=("swap",))
    monkeypatch.undo()

    def at_floor(x, model):
        r = feedback._quadratic_residuals(x, *model)
        return (r @ r <= feedback.CANDIDATE_THRESHOLD
                and np.linalg.norm(r) <= feedback._rounding_floor(x, *model))

    floor_stops = 0
    for model, iterates, jacobians in runs:
        assert not any(at_floor(x, model) for x in iterates[:jacobians])
        floor_stops += len(iterates) > jacobians and at_floor(iterates[-1], model)
    assert floor_stops > 0

    newton_ends, handed = [], []
    newton, least_squares = feedback._newton, optimize.least_squares

    def recording_newton(x0, *model):
        x = newton(x0, *model)
        r = feedback._quadratic_residuals(x, *model)
        newton_ends.append(r @ r)
        return x

    def counting(*args, **kwargs):
        handed.append(newton_ends[-1])
        return least_squares(*args, **kwargs)

    monkeypatch.setattr(feedback, "_newton", recording_newton)
    monkeypatch.setattr(optimize, "least_squares", counting)
    cands = feedback.design_couplings(1e6 * OM_MINUS, 1e6 * OM_PLUS, (1, 1),
                                      search_cfg=cfg, s_b_candidates=("-i",),
                                      s_g_candidates=("swap",))
    assert len(cands) == 2 * cfg.n_starts
    assert all(c.objective <= feedback.CANDIDATE_THRESHOLD for c in cands)
    assert len(handed) <= 1
    assert all(f > feedback.CANDIDATE_THRESHOLD for f in handed), handed


def test_newton_converges_quadratically_at_a_regular_zero(monkeypatch):
    """On a random two-mode target with split (2, 2), where J keeps full
    rank on the distinct residuals at the zeros Newton reaches, the ratio
    ||r_k+1|| / ||r_k||^2 over the last steps above rounding is at most
    _newton's h / (2 sigma_k^2), with sigma_k bounded away from 0."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    cfg = feedback.SearchConfig(n_starts=2, seed=0)
    cands, runs = _newton_runs(monkeypatch, (a + a.conj().T) / 2, (b + b.T) / 2,
                               (2, 2), search_cfg=cfg, s_g_candidates=("swap",))
    assert len(runs) == len(cands) == 3 * 2 * cfg.n_starts
    for model, iterates, _ in runs:
        steps = [s for s in _full_steps(model, iterates) if s[1] > ROUNDING_FLOOR]
        assert len(steps) >= 2
        for r_norm, r_next, bound in steps[-2:]:
            ratio = r_next / r_norm ** 2
            assert ratio <= bound / r_norm ** 2 <= 100.0, (ratio, bound)


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
                        feedback._loop_gain(topology.s22, topology.s_b)), sign)


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
        table = feedback._quadratic_model(fixed)
        for rows in feedback._branch_rows(m1, n):
            model = tuple(a[rows] for a in table)
            for _ in range(2):
                _, j, _ = feedback._refine(rng.standard_normal(4 * n * (m1 + m2)),
                                           model, fixed, rows)
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
