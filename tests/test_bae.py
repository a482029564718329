"""Catalog soundness and closed-form checks for zero-block certification."""

import dataclasses
import itertools
import zlib

import numpy as np
import pytest

from qlinbae import bae, matcore, qsys, xferfn
from qlinbae.errors import PreconditionError

import exact
from conftest import FAMILY_KWARGS, node_error_bound

CATALOG_BY_ID = {c.condition_id: c for c in bae.CONDITION_CATALOG}


def test_family_kwargs_cover_whole_catalog():
    assert set(FAMILY_KWARGS) == set(CATALOG_BY_ID)


@pytest.mark.parametrize("condition_id", sorted(FAMILY_KWARGS))
def test_catalog_soundness(condition_id):
    """Prediction is contained in certification on every hypothesis-
    satisfying random system."""
    rng = np.random.default_rng(zlib.crc32(condition_id.encode()))
    cond = CATALOG_BY_ID[condition_id]
    for _ in range(20):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys_obj = qsys.random_system(rng, n, m, **FAMILY_KWARGS[condition_id])
        report = bae.certify_bae(sys_obj, tol=1e-10)
        matched_ids = {mc.condition_id for mc in report.matched_conditions}
        assert condition_id in matched_ids
        assert cond.predicted_pairs <= report.certified_pairs
        assert report.consistency


def _diagnose_per_condition(sys_obj, tol=matcore.DEFAULT_TOL):
    """Reference: the catalog matched condition by condition, calling a
    predicate once for every condition it appears in."""
    matched = []
    for cond in bae.CONDITION_CATALOG:
        checked = {h: bae._Verdicts(sys_obj, tol)[h] for h in cond.hypotheses}
        if all(checked.values()):
            matched.append(bae.MatchedCondition(cond.condition_id, checked,
                                                cond.predicted_pairs))
    return matched


def test_diagnose_evaluates_each_predicate_once(monkeypatch):
    """Over every random_system family, diagnose_conditions calls each
    predicate the catalog names once, and no other, and returns the
    reference's MatchedConditions."""
    calls = []

    def counting(name, residual):
        def counted(*blocks):
            calls.append(name)
            return residual(*blocks)
        return counted

    counted = {h: (blocks, power, counting(h, residual))
               for h, (blocks, power, residual) in bae._PREDICATES.items()}
    named = sorted({h for cond in bae.CONDITION_CATALOG for h in cond.hypotheses})
    rng = np.random.default_rng(4)
    matched = 0
    for omega, coupling, scattering, relation in itertools.product(
            ("generic", "imag", "zero", "equal_re", "opposite_re"),
            ("generic", "real", "imag", "zero"),
            ("identity", "real", "imag", "generic"),
            ("free", "equal", "opposite")):
        sys_obj = qsys.random_system(rng, 2, 2, omega=omega, coupling=coupling,
                                     scattering=scattering, c_relation=relation)
        want = _diagnose_per_condition(sys_obj)
        monkeypatch.setattr(bae, "_PREDICATES", counted)
        calls.clear()
        got = bae.diagnose_conditions(sys_obj)
        monkeypatch.undo()
        assert sorted(calls) == named
        assert got == want
        matched += len(got)
    assert matched >= 300


def test_block_predicates_match_the_doubled_up_ones():
    """The C and Omega predicates test the blocks (U, V) at their joint
    scale and give exactly the verdicts of is_real / is_imag on the
    doubled-up Delta(U, V), over every random_system family, with and
    without a perturbation near the tolerance."""
    rng = np.random.default_rng(6)
    changed = 0  # families whose verdicts some perturbation and tol change
    for omega, coupling, scattering, relation in itertools.product(
            ("generic", "imag", "zero", "equal_re", "opposite_re"),
            ("generic", "real", "imag", "zero"),
            ("identity", "real", "imag", "generic"),
            ("free", "equal", "opposite")):
        base = qsys.random_system(rng, 2, 2, omega=omega, coupling=coupling,
                                  scattering=scattering, c_relation=relation)
        verdicts = set()
        for eps in (0.0, 1e-12, 1e-9, 1e-6):
            noise = lambda x: eps * (rng.standard_normal(x.shape)
                                     + 1j * rng.standard_normal(x.shape))
            sys_obj = dataclasses.replace(
                base, c_plus=base.c_plus + noise(base.c_plus),
                omega_minus=base.omega_minus + noise(base.omega_minus))
            for tol in (1e-12, 1e-9, 1e-6):
                holds = bae._Verdicts(sys_obj, tol)
                got = tuple(holds[h] for h in (
                    "C real", "C purely imaginary", "Omega purely imaginary"))
                want = (matcore.is_real(sys_obj.coupling, tol),
                        exact.is_imag(sys_obj.coupling, tol),
                        exact.is_imag(sys_obj.omega, tol))
                assert got == want, (omega, coupling, scattering, relation, eps, tol)
                verdicts.add(want)
        changed += len(verdicts) > 1
    assert changed >= 150


@pytest.mark.parametrize("n", [8, 16, 32])
def test_structural_zeros_are_exact(n):
    """On every cataloged family without a phase rotation, the closed-form
    quadrature realization keeps the predicted blocks exactly zero, so every
    Markov parameter of them is 0.0; their node maxima stay within the
    derived forward-error bound, and certification is consistent at any
    size."""
    rng = np.random.default_rng(n)
    for condition_id, kwargs in sorted(FAMILY_KWARGS.items()):
        sys_obj = qsys.random_system(rng, n, 2, **kwargs)
        report = bae.certify_bae(sys_obj)
        assert report.consistency, condition_id
        r = qsys.quad_realization(sys_obj)
        params = np.array(xferfn.markov_params(r, 2 * r.a.shape[0]))
        predicted = CATALOG_BY_ID[condition_id].predicted_pairs
        for name, pair in bae._PAIR_FOR_BLOCK.items():
            if pair in predicted:
                i, j = xferfn._BLOCK_SLICES[name]
                assert not params[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2].any(), (
                    condition_id, name)
                cert = getattr(report.pattern, name)
                assert cert.node_max <= node_error_bound(r) * cert.scale, (
                    condition_id, name)


def test_generic_system_matches_nothing():
    rng = np.random.default_rng(99)
    sys_obj = qsys.random_system(rng, 2, 2, scattering="generic")
    assert bae.diagnose_conditions(sys_obj) == []
    report = bae.certify_bae(sys_obj)
    assert report.consistency  # vacuous: no predictions to contradict


def test_michelson_certifies_q_measurement():
    report = bae.certify_bae(qsys.michelson_system(), tol=1e-10)
    assert bae.QP in report.certified_pairs
    assert any(mc.condition_id == "q_coupling_imag_C"
               for mc in report.matched_conditions)
    assert report.consistency


def test_michelson_grid_qp_zero():
    for mass in (0.5, 1.0, 2.0):
        for omega_m in (0.5, 1.0, 2.0):
            for lam in (0.5, 1.0, 2.0):
                sys_obj = qsys.michelson_system(mass, omega_m, lam)
                pattern = xferfn.block_pattern(
                    qsys.quad_realization(sys_obj), tol=1e-10)
                assert "qp" in pattern.zero_blocks(), (mass, omega_m, lam)


# ---------------------------------------------------------- closed forms

def test_closed_form_preconditions():
    rng = np.random.default_rng(2)
    generic = qsys.random_system(rng, 2, 2)
    with pytest.raises(PreconditionError):
        bae.closed_form_diag_tf(generic, 1.0)


@pytest.mark.parametrize("scattering", ["identity", "real"])
def test_closed_form_matches_state_space(scattering):
    """Diagonal-block closed forms against the quadrature realization."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys_obj = qsys.random_system(rng, n, m, omega="imag",
                                     coupling="real", scattering=scattering)
        r = qsys.quad_realization(sys_obj)
        s = complex(rng.uniform(0.5, 2.0), rng.standard_normal())
        gq, gp = bae.closed_form_diag_tf(sys_obj, s)
        g = xferfn.eval_tf(r, s)
        scale = max(matcore.inf_norm(g), 1.0)
        assert matcore.inf_norm(g[:m, :m] - gq) <= 1e-10 * scale
        assert matcore.inf_norm(g[m:, m:] - gp) <= 1e-10 * scale
        assert matcore.inf_norm(g[:m, m:]) <= 1e-10 * scale
        assert matcore.inf_norm(g[m:, :m]) <= 1e-10 * scale
