"""Zero-product back-action criteria on the controllable-and-observable
block, and the Markov-parameter identity they rest on."""

import numpy as np
import pytest

from qlinbae import kalman
from qlinbae.errors import DimensionError, PreconditionError

from conftest import random_kalman_subsystem


# ------------------------------------------------------------- kappa example

def _kappa_example(kappa=2.0):
    root = np.sqrt(kappa)
    return kalman.KalmanCoSubsystem(
        a_co=-0.5 * kappa * np.eye(2),
        b_co=-root * np.eye(2),
        c_co=root * np.eye(2))


def test_kappa_example_products_exactly_zero():
    k = _kappa_example()
    assert np.all(k.c_q @ k.b_p == 0.0)
    assert np.all(k.c_p @ k.b_q == 0.0)
    verdict = kalman.check_kalman_bae(k)
    assert verdict["q_wrt_p"] and verdict["p_wrt_q"]
    assert verdict["re_gamma_product_symmetric"] is None  # no coupling blocks


def test_kappa_example_from_gamma():
    kappa = 2.0
    gq = np.array([[np.sqrt(kappa / 2.0)]])
    gp = 1j * np.array([[np.sqrt(kappa / 2.0)]])
    k = kalman.from_gamma(-0.5 * kappa * np.eye(2), gq, gp)
    ref = _kappa_example(kappa)
    assert np.allclose(k.c_co, ref.c_co)
    assert np.allclose(k.b_co, ref.b_co)
    verdict = kalman.check_kalman_bae(k)
    assert verdict["q_wrt_p"] and verdict["p_wrt_q"]
    assert verdict["re_gamma_product_symmetric"]


# ------------------------------------------------------------ construction

def test_partition_properties():
    rng = np.random.default_rng(0)
    k = random_kalman_subsystem(rng, r=2, m=3)
    assert k.m == 3
    assert k.c_q.shape == (3, 4) and k.c_p.shape == (3, 4)
    assert k.b_q.shape == (4, 3) and k.b_p.shape == (4, 3)
    assert np.allclose(np.vstack([k.c_q, k.c_p]), k.c_co)
    assert np.allclose(np.hstack([k.b_q, k.b_p]), k.b_co)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        kalman.KalmanCoSubsystem(a_co=np.eye(3), b_co=np.eye(3),
                                 c_co=np.eye(3))
    with pytest.raises(DimensionError):
        kalman.KalmanCoSubsystem(a_co=np.eye(2), b_co=np.ones((2, 2)),
                                 c_co=np.ones((4, 2)))



@pytest.mark.parametrize("name", ["a_co", "b_co", "c_co"])
def test_non_finite_entries_are_precondition_errors(name):
    mats = {"a_co": -np.eye(2), "b_co": -np.eye(2), "c_co": np.eye(2)}
    mats[name][0, 0] = np.nan
    with pytest.raises(PreconditionError, match=f"{name} contains NaN"):
        kalman.KalmanCoSubsystem(**mats)

def test_b_from_gamma_quadrature_blocks():
    """B_q and B_p assembled from the coupling blocks have the sign-swapped
    real/imaginary structure that makes the zero-product criteria symmetric."""
    rng = np.random.default_rng(1)
    gq = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    gp = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = kalman.b_from_gamma(gq, gp)
    bq, bp = b[:, :2], b[:, 2:]
    root2 = np.sqrt(2.0)
    assert np.allclose(bq, root2 * np.vstack([-np.imag(gp).T, np.imag(gq).T]))
    assert np.allclose(bp, root2 * np.vstack([np.real(gp).T, -np.real(gq).T]))


def test_q_product_reduces_to_re_gamma_commutator():
    rng = np.random.default_rng(2)
    k = random_kalman_subsystem(rng, r=3, m=2)
    prod = np.real(k.gamma_q) @ np.real(k.gamma_p).T
    assert np.allclose(k.c_q @ k.b_p, 2.0 * (prod - prod.T))


# ------------------------------------------------------ Markov identity

def test_markov_identity_holds_under_premise():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = random_kalman_subsystem(rng, r=2, m=2, consistent_dynamics=True)
        out = kalman.markov_identity_check(k)
        assert out["premise_holds"]
        scale = max(np.abs(k.c_co).max() * np.abs(k.b_co).max(), 1.0) ** 7
        assert out["residual"] <= 1e-9 * scale


def test_markov_identity_flags_premise_failure():
    rng = np.random.default_rng(4)
    k = random_kalman_subsystem(rng, r=2, m=2, consistent_dynamics=False)
    out = kalman.markov_identity_check(k)
    assert not out["premise_holds"]
    assert out["premise_residual"] > 1e-6


def _verdicts(k):
    theorem = kalman.check_kalman_bae(k)
    return (theorem["q_wrt_p"], theorem["p_wrt_q"],
            theorem["re_gamma_product_symmetric"],
            bool(kalman.markov_identity_check(k)["premise_holds"]))


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6])
def test_verdicts_keep_the_time_unit(c):
    """A co-subsystem moved to time unit c (A -> c A, B -> sqrt(c) B,
    C -> sqrt(c) C, Gamma -> sqrt(c) Gamma) keeps every verdict: a generic
    one fails all four, one with a symmetric Re product and the premise
    passes the q test and the premise."""
    rng = np.random.default_rng(7)
    generic = random_kalman_subsystem(rng, r=2, m=2, consistent_dynamics=False)
    structured = random_kalman_subsystem(rng, r=2, m=2, symmetric_product=True)
    assert _verdicts(generic) == (False, False, False, False)
    assert _verdicts(structured) == (True, False, False, True)
    root = np.sqrt(c)
    for k in (generic, structured):
        moved = kalman.KalmanCoSubsystem(c * k.a_co, root * k.b_co, root * k.c_co,
                                         root * k.gamma_q, root * k.gamma_p)
        assert _verdicts(moved) == _verdicts(k)


# ----------------------------------------------- equivalence, both ways

def _qp_markov_blocks(k, horizon):
    blocks = []
    a_pow = np.eye(k.a_co.shape[0])
    for _ in range(horizon):
        blocks.append(k.c_q @ a_pow @ k.b_p)
        a_pow = a_pow @ k.a_co
    return blocks


def test_zero_product_iff_blocked_markov_parameters_vanish():
    rng = np.random.default_rng(5)
    horizon = 9  # 2 * (2r) + 1 for r = 2
    for i in range(60):
        symmetric = i % 2 == 0
        k = random_kalman_subsystem(rng, r=2, m=2,
                                    symmetric_product=symmetric,
                                    consistent_dynamics=True)
        condition = kalman.check_kalman_bae(k, tol=1e-10)["q_wrt_p"]
        blocks = _qp_markov_blocks(k, horizon)
        scale = max(np.abs(k.c_co).max() * np.abs(k.b_co).max(), 1.0)
        all_zero = all(np.abs(b).max() <= 1e-10 * scale ** (j + 1)
                       for j, b in enumerate(blocks))
        assert condition == all_zero
        if symmetric:
            assert condition

