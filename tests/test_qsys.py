"""Validation and state-space realization tests."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import matcore, qsys
from qlinbae.errors import ValidationError

import exact
from conftest import rand_complex, rand_hermitian, rand_symmetric, rand_unitary

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random(seed, **kw):
    rng = np.random.default_rng(seed)
    n = kw.pop("n", int(rng.integers(1, 4)))
    m = kw.pop("m", int(rng.integers(1, 4)))
    return qsys.random_system(rng, n, m, **kw)


# ---------------------------------------------------------------- validation

def test_new_system_rejects_nonunitary_scattering():
    with pytest.raises(ValidationError) as e:
        qsys.new_system(2.0 * np.eye(1), np.ones((1, 1)), np.zeros((1, 1)),
                        np.zeros((1, 1)), np.zeros((1, 1)))
    assert any("unitar" in v.lower() for v in e.value.violations)


def test_new_system_rejects_nonhermitian_omega_minus():
    with pytest.raises(ValidationError) as e:
        qsys.new_system(np.eye(1), np.ones((1, 2)), np.zeros((1, 2)),
                        np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    assert any("Omega_minus" in v for v in e.value.violations)


def test_new_system_rejects_nonsymmetric_omega_plus():
    with pytest.raises(ValidationError) as e:
        qsys.new_system(np.eye(1), np.ones((1, 2)), np.zeros((1, 2)),
                        np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert any("Omega_plus" in v for v in e.value.violations)


@pytest.mark.parametrize("unit", [1.0, 1e-6, 1e6])
def test_omega_checks_keep_their_verdict_in_any_time_unit(unit):
    """Omega- = c [[1, 0.501], [0.5, 1]] is not Hermitian and its transpose
    as Omega+ is not symmetric, relative asymmetry 1e-3, in any time unit
    c: the checks are at the scale ||Omega+-||_inf, with no floor at 1
    that a small unit would fall under. The same blocks made exact
    pass."""
    bad = unit * np.array([[1.0, 0.501], [0.5, 1.0]])
    c = np.sqrt(unit) * np.ones((1, 2))
    for om, op, name in ((bad, np.zeros((2, 2)), "Omega_minus"),
                         (np.zeros((2, 2)), bad, "Omega_plus")):
        with pytest.raises(ValidationError) as e:
            qsys.new_system(np.eye(1), c, np.zeros((1, 2)), om, op, tol=1e-9)
        assert [v for v in e.value.violations if name in v]
    good = 0.5 * (bad + bad.T)
    qsys.new_system(np.eye(1), c, np.zeros((1, 2)), good, good, tol=1e-9)


@pytest.mark.parametrize("args", [
    # non-unitary S and non-Hermitian Omega-
    (2.0 * np.eye(1), np.ones((1, 2)), np.zeros((1, 2)),
     np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))),
    # S and Omega+ of the wrong shape
    (np.eye(2), np.ones((1, 2)), np.zeros((1, 2)),
     np.zeros((2, 2)), np.zeros((3, 3))),
], ids=["invariants", "shapes"])
def test_new_system_collects_multiple_violations(args):
    with pytest.raises(ValidationError) as e:
        qsys.new_system(*args)
    assert len(e.value.violations) >= 2


def test_new_system_clean_system():
    sys_obj = qsys.new_system(np.eye(1), np.ones((1, 1)), np.zeros((1, 1)),
                              np.zeros((1, 1)), np.zeros((1, 1)))
    assert sys_obj.n_modes == 1 and sys_obj.m_channels == 1


# ------------------------------------------------------------- realizations

@given(seeds)
@settings(max_examples=40, deadline=None)
def test_ac_realization_structure(seed):
    sys_obj = _random(seed)
    r = sys_obj and qsys.ac_realization(sys_obj)
    n, m = sys_obj.n_modes, sys_obj.m_channels
    assert r.form == "annihilation_creation"
    assert r.a.shape == (2 * n, 2 * n)
    assert r.b.shape == (2 * n, 2 * m)
    assert r.c.shape == (2 * m, 2 * n)
    assert r.d.shape == (2 * m, 2 * m)
    # defining relations of the matrices
    c = sys_obj.coupling
    assert np.allclose(r.c, c)
    assert np.allclose(r.d, matcore.delta(sys_obj.s,
                                          np.zeros_like(sys_obj.s)))
    assert np.allclose(r.b, -matcore.flat_adjoint(c) @ r.d)
    assert np.allclose(
        r.a,
        -1j * matcore.j_diag(n) @ sys_obj.omega
        - 0.5 * matcore.flat_adjoint(c) @ c)


def _conjugation_agrees(quad, ac, n, m):
    """Each quadrature matrix equals V ac V^dag (V_n, V_m on either side)
    within 1e-14 of the realization's largest entry. That scale is at least
    1 (D holds the unitary S), and a conjugated block that should vanish
    holds roundoff at that scale, where the closed form gives exact zeros."""
    vn = exact.quadrature_transform(n)
    vm = exact.quadrature_transform(m)
    scale = max(matcore.inf_norm(x) for x in (ac.a, ac.b, ac.c, ac.d))
    return all(
        matcore.inf_norm(got - want) <= 1e-14 * scale
        for got, want in ((quad.a, vn @ ac.a @ vn.conj().T),
                          (quad.b, vn @ ac.b @ vm.conj().T),
                          (quad.c, vm @ ac.c @ vn.conj().T),
                          (quad.d, vm @ ac.d @ vm.conj().T)))


def test_quad_realization_is_unitary_image_of_ac():
    """The closed-form quadrature realization is the conjugated
    annihilation-creation one, over every random_system family and
    n = 1, ..., 32; a drift whose -(1/2) C^flat C term has the wrong sign
    (still doubled-up and real in quadratures) fails the comparison."""
    rng = np.random.default_rng(11)
    flipped_checked = 0
    for i, (omega, coupling, scattering, relation) in enumerate(
            itertools.product(
                ("generic", "imag", "zero", "equal_re", "opposite_re"),
                ("generic", "real", "imag", "zero"),
                ("identity", "real", "imag", "generic"),
                ("free", "equal", "opposite"))):
        n, m = 1 + i % 32, 1 + i % 3
        sys_obj = qsys.random_system(rng, n, m, omega=omega, coupling=coupling,
                                     scattering=scattering, c_relation=relation)
        ac = qsys.ac_realization(sys_obj)
        quad = qsys.quad_realization(sys_obj)
        assert quad.form == "quadrature"
        assert all(x.dtype == np.float64 for x in (quad.a, quad.b, quad.c, quad.d))
        assert _conjugation_agrees(quad, ac, n, m), (omega, coupling, scattering,
                                                      relation, n, m)
        if coupling != "zero" and relation == "free":  # else C^flat C may vanish
            flipped = dataclasses.replace(
                ac, a=ac.a + matcore.flat_adjoint(ac.c) @ ac.c)
            assert not _conjugation_agrees(quad, flipped, n, m)
            flipped_checked += 1
    assert flipped_checked == 60


# ----------------------------------------------------------- random families

@pytest.mark.parametrize("omega,coupling,scattering,c_relation", [
    ("imag", "real", "real", "free"),
    ("imag", "imag", "imag", "free"),
    ("equal_re", "real", "identity", "free"),
    ("opposite_re", "imag", "real", "free"),
    ("zero", "zero", "generic", "free"),
    ("generic", "imag", "real", "equal"),
    ("generic", "imag", "real", "opposite"),
])
def test_random_system_families(omega, coupling, scattering, c_relation):
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = qsys.random_system(rng, 2, 2, omega=omega, coupling=coupling,
                               scattering=scattering, c_relation=c_relation)
        if omega == "imag":
            assert exact.is_imag(s.omega)
        if omega == "zero":
            assert matcore.inf_norm(s.omega) == 0.0
        if omega == "equal_re":
            assert np.allclose(np.real(s.omega_minus), np.real(s.omega_plus))
        if omega == "opposite_re":
            assert np.allclose(np.real(s.omega_minus), -np.real(s.omega_plus))
        if coupling == "real":
            assert matcore.is_real(s.coupling)
        if coupling == "imag":
            assert exact.is_imag(s.coupling)
        if coupling == "zero":
            assert matcore.inf_norm(s.coupling) == 0.0
        if scattering == "real":
            assert matcore.is_real(s.s)
        if scattering == "imag":
            assert exact.is_imag(s.s)
        if scattering == "identity":
            assert np.allclose(s.s, np.eye(2))
        if c_relation == "equal":
            assert np.allclose(s.c_minus, s.c_plus)
        if c_relation == "opposite":
            assert np.allclose(s.c_minus, -s.c_plus)


# --------------------------------------------------------------- michelson

def test_michelson_default_parameters():
    s = qsys.michelson_system()
    assert s.n_modes == 2 and s.m_channels == 2
    assert np.allclose(s.omega_minus, np.eye(2))
    assert np.allclose(s.omega_plus, np.zeros((2, 2)))
    expected_c = 0.5 * np.array([[1j, 1j], [1j, -1j]])
    assert np.allclose(s.c_minus, expected_c)
    assert np.allclose(s.c_plus, expected_c)
    assert np.allclose(s.s, np.eye(2))


def test_michelson_parameter_scaling():
    s = qsys.michelson_system(mass=2.0, omega_m=3.0, lam=4.0)
    w_minus = 0.5 * (2.0 * 9.0 + 1.0 / 2.0)
    w_plus = 0.5 * (2.0 * 9.0 - 1.0 / 2.0)
    assert np.allclose(s.omega_minus, w_minus * np.eye(2))
    assert np.allclose(s.omega_plus, w_plus * np.eye(2))
    assert np.allclose(s.c_minus, np.sqrt(4.0) / 2.0
                       * np.array([[1j, 1j], [1j, -1j]]))
