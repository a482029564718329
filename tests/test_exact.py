"""Float rank verdicts against exact integer arithmetic (tests/exact.py):
the QND subspace's dimension and observability, after a real orthogonal
mode change that leaves no exact floating-point zero."""

import numpy as np
import pytest

from qlinbae import qnd, qsys

import exact

SIZES = (2, 4, 8, 12, 16)


def test_bareiss_rank_small_cases():
    assert exact.bareiss_rank([[0, 0], [0, 0]]) == 0
    assert exact.bareiss_rank([[2, 4, 6], [1, 2, 3]]) == 1
    assert exact.bareiss_rank([[0, 1, 2], [0, 2, 5], [0, 3, 7]]) == 2
    assert exact.bareiss_rank([[1, 2], [3, 4], [5, 6]]) == 2
    big = 3 ** 80
    assert exact.bareiss_rank([[big, 1], [big * 7, 7]]) == 1


@pytest.mark.parametrize("n", SIZES)
def test_qnd_dimension_and_observability_match_exact_ranks(n):
    rng = np.random.default_rng(1000 + n)
    for family in exact.FAMILIES:
        for _ in range(2):
            blocks = exact.integer_system(rng, family, n, 2)
            a2, b, c = exact.integer_realization(*blocks)
            # the oracle's realization is the library's, entry for entry
            r = qsys.quad_realization(exact.float_system(blocks))
            assert np.array_equal(2 * r.a, a2)
            assert np.array_equal(r.b, b) and np.array_equal(r.c, c)
            rotated = exact.float_system(blocks, exact.orthogonal(rng, n))
            r = qsys.quad_realization(rotated)
            rep = qnd.qnd_variable_report(rotated)
            assert rep.dimension == 2 * n - exact.krylov_rank(a2, b)
            assert qnd.is_observable(r.a, r.c) == (
                exact.observability_rank(a2, c) == 2 * n)


@pytest.mark.parametrize("n", SIZES)
def test_antisymmetric_pairs_match_exact_observability(n):
    """(3 (R - R^T), c) with integer R and c: the raw-power test that this
    kernel replaced called every such pair unobservable from n = 8 on.
    Every other pair hides its last n // 2 modes: decoupled and unseen."""
    rng = np.random.default_rng(2000 + n)
    for i in range(6):
        r = rng.integers(-3, 4, (n, n))
        c = rng.integers(-3, 4, (1, n))
        if i % 2:
            r[n // 2:, :n // 2] = r[:n // 2, n // 2:] = 0
            c[:, n // 2:] = 0
        a = 3 * (r - r.T)
        truth = exact.observability_rank(2 * a, c) == n
        assert truth == (i % 2 == 0)
        q = exact.orthogonal(rng, n)
        assert qnd.is_observable(a, c) == truth
        assert qnd.is_observable(q @ a @ q.T, c @ q.T) == truth
