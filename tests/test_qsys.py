"""Validation and state-space realization tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import matcore, qsys
from qlinbae.errors import InternalConsistencyError, ValidationError

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


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_quad_realization_is_unitary_image_of_ac(seed):
    sys_obj = _random(seed)
    n, m = sys_obj.n_modes, sys_obj.m_channels
    ac = qsys.ac_realization(sys_obj)
    quad = qsys.quad_realization(sys_obj)
    vn = matcore.quadrature_transform(n)
    vm = matcore.quadrature_transform(m)
    assert quad.form == "quadrature"
    for mat in (quad.a, quad.b, quad.c, quad.d):
        assert mat.dtype.kind == "f"
    assert np.allclose(quad.a, vn @ ac.a @ vn.conj().T)
    assert np.allclose(quad.b, vn @ ac.b @ vm.conj().T)
    assert np.allclose(quad.c, vm @ ac.c @ vn.conj().T)
    assert np.allclose(quad.d, vm @ ac.d @ vm.conj().T)


def test_quad_realization_cross_checks_a(monkeypatch):
    """A drift whose -(1/2) C^flat C term has the wrong sign is still
    doubled-up and real in quadratures; only the check of A catches it."""
    sys_obj = _random(5, n=2, m=2)
    ac_realization = qsys.ac_realization

    def flipped(s):
        r = ac_realization(s)
        return dataclasses.replace(
            r, a=r.a + matcore.flat_adjoint(r.c) @ r.c)

    monkeypatch.setattr(qsys, "ac_realization", flipped)
    with pytest.raises(InternalConsistencyError, match="quadrature A"):
        qsys.quad_realization(sys_obj)


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
            assert matcore.is_imag(s.omega)
        if omega == "zero":
            assert matcore.inf_norm(s.omega) == 0.0
        if omega == "equal_re":
            assert np.allclose(np.real(s.omega_minus), np.real(s.omega_plus))
        if omega == "opposite_re":
            assert np.allclose(np.real(s.omega_minus), -np.real(s.omega_plus))
        if coupling == "real":
            assert matcore.is_real(s.coupling)
        if coupling == "imag":
            assert matcore.is_imag(s.coupling)
        if coupling == "zero":
            assert matcore.inf_norm(s.coupling) == 0.0
        if scattering == "real":
            assert matcore.is_real(s.s)
        if scattering == "imag":
            assert matcore.is_imag(s.s)
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
