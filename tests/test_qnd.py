"""Commutator criteria, single-channel closed forms, the four tractable
families, and observability-based QND-variable reports."""

import numpy as np
import pytest
from scipy.linalg import null_space

from qlinbae import bae, matcore, qnd, qsys, xferfn
from qlinbae.errors import PreconditionError

from conftest import (
    autonomous_quadrature_system,
    commuting_interaction_system,
    imag_omega_coupled_system,
    siso_conserved_quadrature_system,
    special_case_system,
)


# -------------------------------------------------- interaction criterion

def _three_forms(sys_obj, tol=1e-10):
    """The three equivalent statements of [L, H] = 0: the annihilation and
    creation coefficient pairs, and the collapsed doubled-up product."""
    coeffs = qnd.commutator_coeffs(sys_obj)
    scale = max(matcore.inf_norm(sys_obj.coupling)
                * matcore.inf_norm(sys_obj.omega), 1.0)
    pairwise = (
        matcore.inf_norm(sys_obj.c_minus @ sys_obj.omega_minus
                         - sys_obj.c_plus @ sys_obj.omega_plus.conj().T)
        <= tol * scale
        and matcore.inf_norm(sys_obj.c_minus @ sys_obj.omega_plus
                             - sys_obj.c_plus @ sys_obj.omega_minus.T)
        <= tol * scale)
    coeff_form = coeffs.max_norm() <= tol * scale
    collapsed = (sys_obj.coupling
                 - 2.0 * matcore.delta(sys_obj.c_minus,
                                       np.zeros_like(sys_obj.c_plus))
                 ) @ sys_obj.omega
    collapsed_form = matcore.inf_norm(collapsed) <= tol * scale
    return pairwise, coeff_form, collapsed_form


def test_interaction_criterion_three_forms_agree():
    rng = np.random.default_rng(0)
    for i in range(100):
        if i % 2 == 0:
            sys_obj = commuting_interaction_system(rng, n=3, m=1)
            expect = True
        else:
            sys_obj = qsys.random_system(rng, int(rng.integers(1, 4)),
                                         int(rng.integers(1, 4)))
            expect = None
        pairwise, coeff_form, collapsed_form = _three_forms(sys_obj)
        assert pairwise == coeff_form == collapsed_form
        assert qnd.is_qnd_interaction(sys_obj, tol=1e-10) == coeff_form
        if expect is not None:
            assert coeff_form is expect


def test_conjugate_channel_coefficients_vanish_together():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sys_obj = commuting_interaction_system(rng, n=4, m=1)
        coeffs = qnd.commutator_coeffs(sys_obj)
        assert coeffs.max_norm() <= 1e-12 * max(
            matcore.inf_norm(sys_obj.coupling), 1.0)


# ------------------------------------------------------ coupling properties

def test_coupling_properties_self_adjoint():
    rng = np.random.default_rng(2)
    cm = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    sys_obj = qsys.new_system(np.eye(2), cm, cm.conj(),
                              np.zeros((3, 3)), np.zeros((3, 3)))
    props = qnd.coupling_properties(sys_obj)
    assert props["self_adjoint"]


def test_coupling_properties_noncommuting_example():
    # C- C+^T = [[0, 0], [1, 0]] is not symmetric: channels do not commute
    cm = np.eye(2, dtype=complex)
    cp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sys_obj = qsys.new_system(np.eye(2), cm, cp,
                              np.zeros((2, 2)), np.zeros((2, 2)))
    props = qnd.coupling_properties(sys_obj)
    assert not props["mutually_commuting"]
    assert not props["self_adjoint"]


def test_coupling_properties_proportional_blocks_commute():
    cm = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    sys_obj = qsys.new_system(np.eye(2), cm, 0.5j * cm,
                              np.zeros((2, 2)), np.zeros((2, 2)))
    assert qnd.coupling_properties(sys_obj)["mutually_commuting"]


def test_predicate_table_is_whole():
    """bae._PREDICATES is the one table of structural hypotheses: every
    hypothesis named by the BAE catalog, the QND cases, the special cases
    (with special_case_tf's S = I) or the coupling properties is a key, and
    every key is named."""
    named = {h for cond in bae.CONDITION_CATALOG for h in cond.hypotheses}
    named |= {h for _, hypotheses in qnd.QND_CASES for h in hypotheses}
    named |= set(qnd.SPECIAL_CASES.values()) | set(qnd.COUPLING_PROPERTIES.values())
    named |= {"S = I"}
    assert named == set(bae._PREDICATES)


# ------------------------------------------------------------ SISO analysis

def test_siso_requires_single_channel():
    rng = np.random.default_rng(3)
    with pytest.raises(PreconditionError):
        qnd.siso_analysis(qsys.random_system(rng, 2, 2))


def test_siso_gain_one_allpass_value():
    # |C-|^2 - |C+|^2 = 1 gives the all-pass value (1 - 1/2)/(1 + 1/2) = 1/3
    sys_obj = qsys.new_system(np.eye(1), np.array([[1.0]]),
                              np.zeros((1, 1)), np.zeros((1, 1)),
                              np.zeros((1, 1)))
    res = qnd.siso_analysis(sys_obj)
    assert res.gain == pytest.approx(1.0)
    assert res.which_quadrature == "q"  # H = 0 conserves both quadratures
    assert res.tf_at(1.0) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("branch", ["q", "p"])
def test_siso_conserved_quadrature_allpass(branch):
    """When one self-adjoint quadrature of L commutes with H, the matching
    diagonal transfer entry is the scalar all-pass (s - g/2)/(s + g/2)."""
    rng = np.random.default_rng(4 if branch == "q" else 5)
    s_values = 0.4 + 1j * np.logspace(-2, 2, 32)
    for _ in range(20):
        sys_obj = siso_conserved_quadrature_system(rng, n=3, branch=branch)
        res = qnd.siso_analysis(sys_obj, tol=1e-8)
        assert res.which_quadrature == branch
        r = qsys.quad_realization(sys_obj)
        idx = 0 if branch == "q" else 1
        for s in s_values:
            g = xferfn.eval_tf(r, s)
            assert abs(g[idx, idx] - res.tf_at(s)) <= 1e-10 * max(abs(g[idx, idx]), 1.0)


# ------------------------------------------------------------ special cases

def test_special_case_scalar_values():
    one = np.array([[1.0]])
    zero = np.zeros((1, 1))
    sys1 = qsys.new_system(one, one, zero, zero, zero)
    g1 = qnd.special_case_tf(sys1, "Cplus_zero", 1.0)
    assert np.allclose(np.diag(g1), 1.0 / 3.0)
    sys2 = qsys.new_system(one, zero, one, zero, zero)
    g2 = qnd.special_case_tf(sys2, "Cminus_zero", 1.0)
    assert np.allclose(np.diag(g2), 3.0)


def test_special_case_rejects_wrong_family():
    one = np.array([[1.0]])
    zero = np.zeros((1, 1))
    sys1 = qsys.new_system(one, one, zero, zero, zero)
    with pytest.raises(PreconditionError):
        qnd.special_case_tf(sys1, "Cminus_zero", 1.0)
    with pytest.raises(PreconditionError):
        qnd.special_case_tf(sys1, "bogus", 1.0)


@pytest.mark.parametrize("case", qnd.SPECIAL_CASES)
def test_special_case_matches_full_evaluation(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(20):
        n = int(rng.integers(3, 5))
        m = int(rng.integers(1, (n - 1) // 2 + 1))
        sys_obj = special_case_system(rng, case, n=n, m=m)
        r = qsys.ac_realization(sys_obj)
        s = complex(rng.uniform(0.5, 2.0), rng.standard_normal())
        g_closed = qnd.special_case_tf(sys_obj, case, s)
        g_full = xferfn.eval_tf(r, s)
        scale = max(matcore.inf_norm(g_full), 1.0)
        assert matcore.inf_norm(g_closed - g_full) <= 1e-10 * scale


@pytest.mark.parametrize("case", ["Cplus_zero", "Omegaplus_zero"])
def test_special_case_preconditions_do_not_depend_on_the_time_unit(case):
    """A block at 1e-12 of its pair counts as zero in every time unit:
    with C+ = 1e-12 C- (or Omega+ at 1e-12 of Omega-), the system in units
    c = 1e8 (C+- -> sqrt(c) C+-, Omega+- -> c Omega+-) is accepted as at
    c = 1, and its transfer function at c s is the one at s."""
    rng = np.random.default_rng(21)
    cm = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    cp = (1e-12 if case == "Cplus_zero" else 0.5j) * cm
    k = null_space(np.vstack([cm, cp.conj()]))
    om = k @ np.array([[1.3]]) @ k.conj().T
    op = k @ np.array([[0.7 - 0.2j]]) @ k.T
    if case == "Omegaplus_zero":
        op = 1e-12 * op
    s = 0.8 + 0.3j
    ref = qnd.special_case_tf(qsys.new_system(np.eye(1), cm, cp, om, op), case, s)
    c = 1e8
    scaled = qsys.new_system(np.eye(1), np.sqrt(c) * cm, np.sqrt(c) * cp,
                             c * om, c * op)
    assert np.allclose(qnd.special_case_tf(scaled, case, c * s), ref,
                       rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("s_mat", [-np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])],
                         ids=["minus_identity", "swap"])
def test_special_case_rejects_unitary_scattering_other_than_identity(s_mat):
    """S = I is read from bae._PREDICATES at S's own scale: a unitary S
    other than the identity is refused as given and in the time units
    c = 1e-6 and 1e6 (C+- -> sqrt(c) C+-, Omega+- -> c Omega+-), while the
    same couplings and Hamiltonian with S = I are accepted."""
    base = special_case_system(np.random.default_rng(5), "Cplus_zero", n=5, m=2)
    for c in (1.0, 1e-6, 1e6):
        blocks = (np.sqrt(c) * base.c_minus, np.sqrt(c) * base.c_plus,
                  c * base.omega_minus, c * base.omega_plus)
        qnd.special_case_tf(qsys.new_system(np.eye(2), *blocks), "Cplus_zero", c)
        with pytest.raises(PreconditionError, match="identity scattering"):
            qnd.special_case_tf(qsys.new_system(s_mat, *blocks), "Cplus_zero", c)


@pytest.mark.parametrize("case", ["Cplus_zero", "Cminus_zero"])
def test_one_sided_coupling_identities(case):
    """With one coupling block absent, the commuting condition collapses
    the Hamiltonian out of the dynamics: C J Omega = 0, and Sigma[s]
    reduces to C C^flat / (2 s)."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        sys_obj = special_case_system(rng, case, n=3, m=1)
        c = sys_obj.coupling
        n = sys_obj.n_modes
        prod = c @ matcore.j_diag(n) @ sys_obj.omega
        assert matcore.inf_norm(prod) <= 1e-10 * max(matcore.inf_norm(c), 1.0)
        s = complex(rng.uniform(0.5, 2.0), rng.standard_normal())
        sigma = xferfn.sigma_tf(sys_obj, s)
        ccflat = c @ matcore.flat_adjoint(c)
        assert matcore.inf_norm(sigma * 2.0 * s - ccflat) <= \
            1e-10 * max(matcore.inf_norm(ccflat), 1.0)


# -------------------------------------------------------- observability

def test_observability_rank_basics():
    a = np.zeros((2, 2))
    assert qnd.observability_rank(a, np.array([[1.0, 0.0]])) == 1
    assert qnd.observability_rank(a, np.eye(2)) == 2
    assert qnd.observability_rank(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                  np.array([[1.0, 0.0]])) == 2


# ----------------------------------------------------- QND variable report

def test_p_coupling_report_observable():
    rng = np.random.default_rng(6)
    sys_obj = autonomous_quadrature_system(rng, n=1, m=1, which="p")
    rep = qnd.qnd_variable_report(sys_obj)
    assert rep.case_matched == "p_coupling"
    assert rep.dimension == 1 and abs(rep.basis[1, 0]) == pytest.approx(1.0)
    assert rep.isotropy_residual == pytest.approx(0.0, abs=1e-12)
    assert rep.p_is_qnd and not rep.q_is_qnd
    assert any(w.full for w in rep.witnesses)
    assert [w.output for w in rep.witnesses] == ["q", "p"]


def test_q_coupling_report_observable():
    rng = np.random.default_rng(7)
    sys_obj = autonomous_quadrature_system(rng, n=1, m=1, which="q")
    rep = qnd.qnd_variable_report(sys_obj)
    assert rep.case_matched == "q_coupling"
    assert rep.q_is_qnd and not rep.p_is_qnd
    assert [w.output for w in rep.witnesses] == ["q", "p"]


def test_p_coupling_report_unobservable():
    # two modes seen through one static channel: rank 1 < 2, not QND
    rng = np.random.default_rng(8)
    sys_obj = autonomous_quadrature_system(rng, n=2, m=1, which="p")
    rep = qnd.qnd_variable_report(sys_obj)
    assert rep.case_matched == "p_coupling"
    assert rep.dimension == 2
    assert np.linalg.norm(rep.basis[:2]) <= 1e-12  # V = span(p)
    assert not rep.p_is_qnd
    assert all(w.rank < 2 and not w.full for w in rep.witnesses)
    assert [w.output for w in rep.witnesses] == ["q", "p"]


@pytest.mark.parametrize("which,c_style", [
    ("p", "real"), ("p", "imag"), ("q", "real"), ("q", "imag"),
])
def test_imag_omega_variants(which, c_style):
    """Purely imaginary Hamiltonian blocks with a single coupled quadrature:
    the verdict must track the observability of (i(Omega- -+ Omega+), C-),
    seen through the one output quadrature that C- reaches."""
    rng = np.random.default_rng(9)
    seen = "p" if (which == "p") == (c_style == "real") else "q"
    for _ in range(10):
        sys_obj = imag_omega_coupled_system(rng, n=2, m=2, which=which,
                                            c_style=c_style)
        rep = qnd.qnd_variable_report(sys_obj)
        assert rep.case_matched == f"imag_omega_{which}"
        assert rep.dimension == 2
        witnesses = {w.output: w for w in rep.witnesses}
        assert sorted(witnesses) == ["p", "q"]
        witness = witnesses[seen]
        assert witnesses["q" if seen == "p" else "p"].rank == 0
        flagged = rep.p_is_qnd if which == "p" else rep.q_is_qnd
        assert flagged == witness.full
        om, op = sys_obj.omega_minus, sys_obj.omega_plus
        sign = -1.0 if which == "p" else 1.0
        a_sub = np.real(1j * (om + sign * op))
        assert witness.full == (qnd.observability_rank(a_sub, sys_obj.c_minus)
                                == a_sub.shape[0])


def test_imag_omega_variant_unobservable():
    # a mode invisible to the coupling and untouched by the Hamiltonian
    om = np.zeros((2, 2), dtype=complex)
    op = np.zeros((2, 2), dtype=complex)
    c = np.array([[1.0, 0.0]])
    sys_obj = qsys.new_system(np.eye(1), c, c, om, op)
    rep = qnd.qnd_variable_report(sys_obj)
    assert rep.case_matched in ("q_coupling", "imag_omega_q")
    assert not rep.q_is_qnd


def test_passive_real_has_no_qnd_variable():
    rng = np.random.default_rng(10)
    cm = rng.standard_normal((1, 2))
    a = rng.standard_normal((2, 2))
    om = 0.5 * (a + a.T)
    sys_obj = qsys.new_system(np.eye(1), cm, np.zeros((1, 2)), om, om)
    rep = qnd.qnd_variable_report(sys_obj)
    assert rep.case_matched.startswith("passive_real")
    assert not rep.q_is_qnd and not rep.p_is_qnd


def test_zero_coupling_matches_no_case():
    sys_obj = qsys.new_system(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)),
                              np.eye(1), np.zeros((1, 1)))
    rep = qnd.qnd_variable_report(sys_obj)
    assert "no_case_matched" in rep.case_matched
    assert not rep.q_is_qnd and not rep.p_is_qnd
    # nothing is driven, so every quadrature is a QND variable, but q and p
    # do not commute and no output sees them
    assert rep.dimension == 2
    assert rep.isotropy_residual == pytest.approx(1.0)
    assert [w.rank for w in rep.witnesses] == [0, 0]
