"""Property tests for the doubled-up matrix algebra utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import matcore
from qlinbae.errors import DimensionError, PreconditionError

from conftest import rand_complex, rand_hermitian, rand_symmetric


def _rng(seed):
    return np.random.default_rng(seed)


dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------- basics

def test_j_matrices():
    k = 3
    jd = matcore.j_diag(k)
    js = matcore.j_sym(k)
    assert np.allclose(jd @ jd, np.eye(2 * k))
    assert np.allclose(js @ js, -np.eye(2 * k))
    assert np.allclose(jd[:k, :k], np.eye(k))
    assert np.allclose(jd[k:, k:], -np.eye(k))


def test_inf_norm_and_close_to():
    assert matcore.inf_norm(np.array([[1.0, -3.5], [0.0, 2.0]])) == 3.5
    assert matcore.close_to(np.eye(2), np.eye(2) + 1e-12)
    assert not matcore.close_to(np.eye(2), np.zeros((2, 2)))


def test_inf_norm_of_arrays_lists_scalars_and_empty_input():
    x = np.array([[1.0 - 2.0j, 0.5], [-3.0, 2.0j]])
    assert matcore.inf_norm(x) == float(np.max(np.abs(x))) == 3.0
    assert matcore.inf_norm(x.tolist()) == 3.0
    assert matcore.inf_norm(-4.0) == 4.0
    assert matcore.inf_norm(np.float64(-4.0)) == 4.0
    assert matcore.inf_norm(np.zeros((0, 3))) == 0.0
    assert matcore.inf_norm([]) == 0.0
    assert np.isnan(matcore.inf_norm(np.array([1.0, np.nan])))


def test_is_real_is_imag_zero_counts_as_both():
    z = np.zeros((2, 2))
    assert matcore.is_real(z) and matcore.is_imag(z)
    assert matcore.is_real(np.array([[1.0, 2.0]]))
    assert matcore.is_imag(1j * np.array([[1.0, 2.0]]))
    assert not matcore.is_real(np.array([[1.0 + 1.0j]]))


def test_check_finite_rejects_nan():
    with pytest.raises(PreconditionError):
        matcore.check_finite(np.array([[np.nan]]), "bad")


# ------------------------------------------------------ adjoint properties

@given(seeds, dims, dims)
@settings(max_examples=50, deadline=None)
def test_flat_adjoint_involution_and_antihomomorphism(seed, k, r):
    rng = _rng(seed)
    x = rand_complex(rng, (2 * k, 2 * r))
    y = rand_complex(rng, (2 * r, 2 * k))
    assert np.allclose(matcore.flat_adjoint(matcore.flat_adjoint(x)), x)
    assert np.allclose(matcore.flat_adjoint(x @ y),
                       matcore.flat_adjoint(y) @ matcore.flat_adjoint(x))


@given(seeds, dims, dims)
@settings(max_examples=50, deadline=None)
def test_sharp_adjoint_involution_and_antihomomorphism(seed, k, r):
    rng = _rng(seed)
    x = rand_complex(rng, (2 * k, 2 * r))
    y = rand_complex(rng, (2 * r, 2 * k))
    assert np.allclose(matcore.sharp_adjoint(matcore.sharp_adjoint(x)), x)
    assert np.allclose(matcore.sharp_adjoint(x @ y),
                       matcore.sharp_adjoint(y) @ matcore.sharp_adjoint(x))


def test_adjoints_require_even_dimensions():
    with pytest.raises(DimensionError):
        matcore.flat_adjoint(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        matcore.sharp_adjoint(np.ones((2, 3)))


# --------------------------------------------------- doubled-up structure

@given(seeds, dims, dims)
@settings(max_examples=50, deadline=None)
def test_delta_roundtrip_and_closure(seed, k, r):
    rng = _rng(seed)
    u, v = rand_complex(rng, (k, r)), rand_complex(rng, (k, r))
    d = matcore.delta(u, v)
    assert matcore.is_doubled_up(d)
    ul, ur, ll, lr = matcore.blocks(d)
    assert np.allclose(ul, u) and np.allclose(ur, v)
    assert np.allclose(ll, v.conj()) and np.allclose(lr, u.conj())
    # products of doubled-up matrices are doubled up
    u2, v2 = rand_complex(rng, (r, k)), rand_complex(rng, (r, k))
    assert matcore.is_doubled_up(d @ matcore.delta(u2, v2))


@given(seeds, dims)
@settings(max_examples=30, deadline=None)
def test_flat_adjoint_of_doubled_up_is_doubled_up(seed, k):
    rng = _rng(seed)
    d = matcore.delta(rand_complex(rng, (k, k)), rand_complex(rng, (k, k)))
    assert matcore.is_doubled_up(matcore.flat_adjoint(d))


def test_is_doubled_up_rejects_generic():
    assert not matcore.is_doubled_up(np.arange(16.0).reshape(4, 4))


# -------------------------------------------------- structure predicates

def _bogoliubov(rng, n):
    """exp(-i J Delta(Om, Op)) preserves the flat form, hence is Bogoliubov."""
    from scipy.linalg import expm
    gen = -1j * matcore.j_diag(n) @ matcore.delta(
        rand_hermitian(rng, n), rand_symmetric(rng, n))
    return expm(gen)


@given(seeds, dims)
@settings(max_examples=20, deadline=None)
def test_bogoliubov_and_symplectic_predicates(seed, n):
    rng = _rng(seed)
    x = _bogoliubov(rng, n)
    assert matcore.structure_test(x, "bogoliubov", tol=1e-8)
    v = matcore.quadrature_transform(n)
    y = np.real(v @ x @ v.conj().T)
    assert matcore.structure_test(y, "symplectic", tol=1e-8)
    assert not matcore.structure_test(2.0 * x, "bogoliubov", tol=1e-8)


@given(seeds, dims, dims)
@settings(max_examples=50, deadline=None)
def test_quadrature_transform_realifies_doubled_up(seed, k, r):
    rng = _rng(seed)
    u, v = rand_complex(rng, (k, r)), rand_complex(rng, (k, r))
    vk = matcore.quadrature_transform(k)
    vr = matcore.quadrature_transform(r)
    assert np.allclose(vk @ vk.conj().T, np.eye(2 * k))
    image = vk @ matcore.delta(u, v) @ vr.conj().T
    assert matcore.inf_norm(np.imag(image)) < 1e-12
    assert np.allclose(image, matcore.quadrature_image(u, v))
