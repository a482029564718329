"""Property tests for the doubled-up matrix algebra utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import matcore
from qlinbae.errors import DimensionError, PreconditionError

import exact
from conftest import rand_complex


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
    """close_to, a comparison with a scale floor at 1, is gone: a tolerance
    test reads matcore._negligible at its blocks' own scale."""
    assert matcore.inf_norm(np.array([[1.0, -3.5], [0.0, 2.0]])) == 3.5
    assert not hasattr(matcore, "close_to")


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
    assert matcore.is_real(z) and exact.is_imag(z)
    assert matcore.is_real(np.array([[1.0, 2.0]]))
    assert exact.is_imag(1j * np.array([[1.0, 2.0]]))
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


def test_adjoints_require_even_dimensions():
    with pytest.raises(DimensionError):
        matcore.flat_adjoint(np.ones((3, 2)))


# --------------------------------------------------- doubled-up structure

@given(seeds, dims, dims)
@settings(max_examples=50, deadline=None)
def test_delta_roundtrip_and_closure(seed, k, r):
    rng = _rng(seed)
    u, v = rand_complex(rng, (k, r)), rand_complex(rng, (k, r))
    d = matcore.delta(u, v)
    assert exact.is_doubled_up(d)
    ul, ur, ll, lr = d[:k, :r], d[:k, r:], d[k:, :r], d[k:, r:]
    assert np.allclose(ul, u) and np.allclose(ur, v)
    assert np.allclose(ll, v.conj()) and np.allclose(lr, u.conj())
    # products of doubled-up matrices are doubled up
    u2, v2 = rand_complex(rng, (r, k)), rand_complex(rng, (r, k))
    assert exact.is_doubled_up(d @ matcore.delta(u2, v2))


@given(seeds, dims)
@settings(max_examples=30, deadline=None)
def test_flat_adjoint_of_doubled_up_is_doubled_up(seed, k):
    rng = _rng(seed)
    d = matcore.delta(rand_complex(rng, (k, k)), rand_complex(rng, (k, k)))
    assert exact.is_doubled_up(matcore.flat_adjoint(d))


def test_is_doubled_up_rejects_generic():
    assert not exact.is_doubled_up(np.arange(16.0).reshape(4, 4))


@given(seeds, dims, dims)
@settings(max_examples=50, deadline=None)
def test_quadrature_transform_realifies_doubled_up(seed, k, r):
    rng = _rng(seed)
    u, v = rand_complex(rng, (k, r)), rand_complex(rng, (k, r))
    vk = exact.quadrature_transform(k)
    vr = exact.quadrature_transform(r)
    assert np.allclose(vk @ vk.conj().T, np.eye(2 * k))
    image = vk @ matcore.delta(u, v) @ vr.conj().T
    assert matcore.inf_norm(np.imag(image)) < 1e-12
    assert np.allclose(image, matcore.quadrature_image(u, v))


# ----------------------------------------------------------- Krylov kernel

def test_krylov_basis_spans_the_reachable_subspace():
    # a chain x0 -> x1 -> x2 driven at x0: three reachable directions,
    # and x3, which nothing drives
    a = np.diag([1.0, 1.0, 0.0], -1)
    b = np.array([[1.0], [0.0], [0.0], [0.0]])
    basis = matcore.krylov_basis(a, b, 1e-9)
    assert basis.shape == (4, 3)
    assert np.allclose(basis.conj().T @ basis, np.eye(3))
    assert np.allclose(basis[3], 0.0)
    assert matcore.krylov_basis(a, np.zeros((4, 1)), 1e-9).shape == (4, 0)
    assert matcore.krylov_basis(np.zeros((4, 4)), b, 1e-9).shape == (4, 1)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=12),
       c=st.sampled_from([1e-6, 1e-3, 1e3, 1e6]))
def test_krylov_basis_invariant_under_time_rescaling(seed, n, c):
    """(A, B) -> (cA, sqrt(c) B) keeps every rank decision, so the span."""
    rng = _rng(seed)
    k = int(rng.integers(1, n + 1))
    w = np.linalg.qr(rng.standard_normal((n, n)))[0]
    # A block triangular in the basis w: span(w[:, :k]) is invariant, and
    # B lies inside it, so the reachable subspace has dimension k
    t = rng.standard_normal((n, n))
    t[k:, :k] = 0.0
    a = w @ t @ w.T
    b = w[:, :k] @ rng.standard_normal((k, 2))
    ref = matcore.krylov_basis(a, b, 1e-9)
    scaled = matcore.krylov_basis(c * a, np.sqrt(c) * b, 1e-9)
    assert ref.shape == scaled.shape == (n, k)
    assert np.allclose(ref @ ref.T, scaled @ scaled.T, atol=1e-8)
