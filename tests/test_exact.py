"""Float verdicts against exact integer arithmetic (tests/exact.py): the
QND subspace's dimension and observability, after a real orthogonal mode
change that leaves no exact floating-point zero, and certify_bae's zero
blocks, after a mode phase rotation and a change of time unit that leave
none either."""

import numpy as np
import pytest

from qlinbae import bae, qnd, qsys, smesim

import exact

SIZES = (2, 4, 8, 12, 16)
ZERO_BLOCK_SIZES = (2, 4, 8, 16, 32)
PHASE = (3 + 4j) / 5


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
            assert (qnd.observability_rank(r.a, r.c) == 2 * n) == (
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
        assert (qnd.observability_rank(a, c) == n) == truth
        assert (qnd.observability_rank(q @ a @ q.T, c @ q.T) == n) == truth


def test_exact_zero_blocks_small_cases():
    """A decoupled mode (C = 0) leaves G = D; coupling through q alone
    (C- = C+ = i, Omega- = 1, Omega+ = 0) leaves exactly the q_out <- p_in
    block zero."""
    one, zero = np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    s = (one, zero)
    assert exact.zero_blocks((s, (zero, zero), (zero, zero), (one, zero),
                              (zero, zero))) == {"qp", "pq"}
    c = (zero, one)
    assert exact.zero_blocks((s, c, c, (one, zero), (zero, zero))) == {"qp"}


@pytest.mark.parametrize("n", ZERO_BLOCK_SIZES)
def test_zero_blocks_match_exact_markov_parameters(n):
    """certify_bae's zero blocks are the integer system's, under the phase
    w = (3 + 4i) / 5 and the time units 1, 1e3 and 1e-3, on every family."""
    rng = np.random.default_rng(3000 + n)
    zero = nonzero = 0
    for family in exact.FAMILIES:
        for _ in range(6):
            blocks = exact.integer_system(rng, family, n, 2)
            truth = exact.zero_blocks(blocks)
            r = qsys.quad_realization(exact.float_system(blocks))
            assert np.array_equal(r.d, exact.integer_feedthrough(blocks[0]))
            for c in (1.0, 1e3, 1e-3):
                moved = exact.float_system(blocks, w=PHASE, c=c)
                got = bae.certify_bae(moved).pattern.zero_blocks()
                assert got == truth, (family, c)
            zero += len(truth)
            nonzero += 4 - len(truth)
    assert zero >= 6 and nonzero >= 36


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_zero_blocks_of_a_high_relative_degree_chain(n):
    """A chain coupled to the field at one end has no zero block, though
    G_qp is of order |s|^{-2n} far from the spectrum: below the threshold
    at every node from n = 8 on, it is certified nonzero at the probes,
    under the phase w = (3 + 4i) / 5 and the time units 1, 1e3 and 1e-3."""
    for detune in (1, 3):
        blocks = exact.chain_system(n, detune)
        assert exact.zero_blocks(blocks) == set()
        for c in (1.0, 1e3, 1e-3):
            pattern = bae.certify_bae(exact.float_system(blocks, w=PHASE, c=c)).pattern
            assert pattern.zero_blocks() == set(), (detune, c)
            for cert in (pattern.qp, pattern.pq):
                assert cert.probe_ratio > 1e3
                if n >= 8:
                    assert cert.node_max <= cert.threshold


def test_qnd_law_mean_is_a_converged_expectation():
    """exact.qnd_law_mean on the measured mode L = sqrt(2) q at fock_dim 8:
    f = 1 integrates to 1, at t = 0 the conditional variance of L is that
    of rho0, Tr(rho0 L^2) - Tr(rho0 L)^2, and at t = 0.5 100 and 200
    Gauss-Hermite nodes agree to 1e-12, with the variance reduced."""
    c = np.array([[1.0]], dtype=complex)
    z = np.zeros((1, 1))
    ops = smesim.build_truncated_operators(
        qsys.new_system(np.eye(1), c, c, z, z), fock_dim=8)
    l = ops.l_ops[0]
    rho0 = 0.5 * np.eye(8) / 8
    rho0[0, 0] += 0.5
    var = lambda p, lam: p @ lam.real ** 2 - (p @ lam.real) ** 2
    one = lambda p, lam: p.sum(axis=1)
    assert exact.qnd_law_mean(ops, rho0, 0.5, one) == pytest.approx(1.0, abs=1e-13)
    at_zero = np.trace(rho0 @ l @ l).real - np.trace(rho0 @ l).real ** 2
    assert exact.qnd_law_mean(ops, rho0, 0.0, var) == pytest.approx(at_zero,
                                                                    abs=1e-12)
    mid = exact.qnd_law_mean(ops, rho0, 0.5, var)
    assert abs(exact.qnd_law_mean(ops, rho0, 0.5, var, nodes=200) - mid) < 1e-12
    assert 0.0 < mid < at_zero
