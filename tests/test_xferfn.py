"""Transfer-function evaluation, Markov parameters, and block certification."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinbae import bae, matcore, qsys, xferfn
from qlinbae.errors import PreconditionError, SingularityError

import exact
from conftest import FAMILY_KWARGS, schur_deviation_bound

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random(seed, **kw):
    rng = np.random.default_rng(seed)
    return qsys.random_system(rng, int(rng.integers(1, 4)),
                              int(rng.integers(1, 4)), **kw)


# --------------------------------------------------------------- eval_tf

@given(seeds)
@settings(max_examples=30, deadline=None)
def test_cayley_matches_state_space(seed):
    """Independent oracle: the Cayley-type expression built from Sigma[s]
    must agree with resolvent evaluation of the full realization."""
    sys_obj = _random(seed)
    r = qsys.ac_realization(sys_obj)
    rng = np.random.default_rng(seed + 1)
    for _ in range(4):
        s = complex(rng.standard_normal() + 0.5, rng.standard_normal())
        g1 = xferfn.eval_tf(r, s)
        g2 = exact.cayley_tf(sys_obj, s)
        scale = max(matcore.inf_norm(g1), 1.0)
        assert matcore.inf_norm(g1 - g2) <= 1e-9 * scale


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_quadrature_tf_is_unitary_image(seed):
    sys_obj = _random(seed)
    m = sys_obj.m_channels
    vm = exact.quadrature_transform(m)
    s = 0.7 + 1.3j
    g_ac = xferfn.eval_tf(qsys.ac_realization(sys_obj), s)
    g_quad = xferfn.eval_tf(qsys.quad_realization(sys_obj), s)
    assert matcore.inf_norm(g_quad - vm @ g_ac @ vm.conj().T) <= \
        1e-9 * max(matcore.inf_norm(g_quad), 1.0)


def test_eval_tf_singularity_at_pole():
    # an undamped oscillator: zero coupling leaves +/- i resonances
    sys_obj = qsys.new_system(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)),
                              np.eye(1), np.zeros((1, 1)))
    r = qsys.ac_realization(sys_obj)
    with pytest.raises(SingularityError):
        xferfn.eval_tf(r, -1j)


# ---------------------------------------------------------- markov params

def test_markov_params_sequence():
    sys_obj = _random(3)
    r = qsys.quad_realization(sys_obj)
    params = xferfn.markov_params(r, 4)
    assert len(params) == 5
    assert np.allclose(params[0], r.d)
    assert np.allclose(params[1], r.c @ r.b)
    assert np.allclose(params[3], r.c @ r.a @ r.a @ r.b)
    with pytest.raises(PreconditionError):
        xferfn.markov_params(r, 0)


# ---------------------------------------------------------- block pattern

def test_block_pattern_requires_quadrature_form():
    sys_obj = _random(5)
    with pytest.raises(PreconditionError):
        xferfn.block_pattern(qsys.ac_realization(sys_obj))


@pytest.mark.parametrize("name", ["a", "b", "c", "d"])
def test_block_pattern_rejects_non_finite_entries(name):
    """A NaN in A, B, C or D is a precondition error, not a verdict."""
    r = qsys.quad_realization(qsys.michelson_system())
    x = getattr(r, name).copy()
    x[0, 0] = np.nan
    with pytest.raises(PreconditionError, match=f"{name.upper()} contains NaN"):
        xferfn.block_pattern(dataclasses.replace(r, **{name: x}))


def test_block_pattern_generic_system_has_no_zero_blocks():
    sys_obj = _random(11)
    pattern = xferfn.block_pattern(qsys.quad_realization(sys_obj))
    assert pattern.zero_blocks() == set()


def test_block_pattern_michelson_qp_zero():
    pattern = xferfn.block_pattern(
        qsys.quad_realization(qsys.michelson_system()), tol=1e-10)
    assert "qp" in pattern.zero_blocks()
    assert pattern.qp.node_max <= pattern.qp.threshold == 1e-10 * pattern.qp.scale
    assert not pattern.pq.zero


def test_block_pattern_decoupled_quadratures():
    # real coupling, zero Hamiltonian: G is block diagonal
    sys_obj = qsys.new_system(np.eye(1), np.array([[1.0]]),
                              np.zeros((1, 1)), np.zeros((1, 1)),
                              np.zeros((1, 1)))
    pattern = xferfn.block_pattern(qsys.quad_realization(sys_obj))
    assert pattern.zero_blocks() == {"qp", "pq"}


def _nodes(r):
    """xferfn's nodes for r, sigma = max(||A||_F, ||B||_F ||C||_F)."""
    norm = np.linalg.norm
    return xferfn._nodes(len(r.a), max(norm(r.a), norm(r.b) * norm(r.c)))


def test_nodes_are_conjugate_paired_and_well_conditioned():
    """The N + 1 nodes are distinct, in the right half-plane, paired as
    s_{N-k} = conj(s_k), and cond2(s_k I - A) <= 3 / (sqrt(2) - 1) at each
    of them, on the catalog families and on non-normal, defective A."""
    rs = [_jordan_like(t, gap, rotate) for t, gap, rotate in NON_NORMAL]
    for n in (1, 2, 8):
        rng = np.random.default_rng(n)
        rs += [qsys.quad_realization(qsys.random_system(rng, n, 2, **kw))
               for kw in FAMILY_KWARGS.values()]
    limit = 3 / (np.sqrt(2) - 1)
    for r in rs:
        nodes = _nodes(r)
        a = np.asarray(r.a)
        assert len(nodes) == a.shape[0] + 1
        assert np.allclose(nodes[::-1], nodes.conj(), rtol=4 * np.finfo(float).eps, atol=0)
        assert np.all(nodes.real > 0)
        assert len(np.unique(nodes)) == len(nodes)
        conds = [np.linalg.cond(s * np.eye(a.shape[0]) - a) for s in nodes]
        assert max(conds) <= limit * (1 + 1e-12)


def _recording_solve(monkeypatch):
    """Record the points of every _schur_solve call."""
    calls = []
    solve = xferfn._schur_solve

    def recorded(schur, points, rhs, lhs):
        calls.append(points)
        return solve(schur, points, rhs, lhs)

    monkeypatch.setattr(xferfn, "_schur_solve", recorded)
    return calls


def test_complex_realization_takes_every_node(monkeypatch):
    """A real realization is solved at the N / 2 + 1 nodes with Im s <= 0
    and the probes with Im p >= 0; a complex one, here a unitary similarity
    of it with the same G, at all N + 1 nodes and every probe, and both
    give the same verdict."""
    rng = np.random.default_rng(4)
    sys_obj = qsys.random_system(rng, 3, 2, **FAMILY_KWARGS["q_coupling_imag_C"])
    r = qsys.quad_realization(sys_obj)
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    rc = qsys.Realization("quadrature", u @ r.a @ u.conj().T, u @ r.b,
                          r.c @ u.conj().T, r.d)
    points = _recording_solve(monkeypatch)
    real, cplx = xferfn.block_pattern(r), xferfn.block_pattern(rc)
    assert len(points) == 2
    assert np.array_equal(points[0][:4], _nodes(r)[:4])
    assert np.array_equal(points[1][:7], _nodes(rc))
    assert np.all(points[0][:4].imag <= 0) and points[0][3].imag == 0
    # the probes: on the imaginary axis, Im p >= 0 only for the real A
    assert np.all(points[0][4:].real == 0) and np.all(points[0][4:].imag >= 0)
    assert np.all(points[1][7:].real == 0) and np.any(points[1][7:].imag < 0)
    assert real.zero_blocks() == cplx.zero_blocks() == {"qp"}


def test_sigma_zero_pattern_is_that_of_d(monkeypatch):
    """A = 0 and B = 0 make sigma = 0 and G = D: the verdict reads D alone,
    with no Schur form."""
    schurs = _recording_schur(monkeypatch)
    d = np.array([[1.0, 0.0], [0.0, -2.0]])
    r = qsys.Realization("quadrature", np.zeros((2, 2)), np.zeros((2, 2)),
                         np.ones((2, 2)), d)
    pattern = xferfn.block_pattern(r)
    assert pattern.zero_blocks() == {"qp", "pq"}
    assert (pattern.pp.node_max, pattern.pp.scale) == (2.0, 2.0)
    assert not schurs


def test_probe_at_a_pole_is_dropped(monkeypatch):
    """An undamped mode puts its probe exactly on a pole (nu infinite):
    the probe is not solved and certifies nothing, with no warning, and the
    verdict is that of the nodes."""
    points = _recording_solve(monkeypatch)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    d = np.array([[1.0, 0.0], [0.0, 1.0]])
    r = qsys.Realization("quadrature", a, np.eye(2), np.zeros((2, 2)), d)
    schur = xferfn._schur_form(a)
    t = schur.t
    probe = 1j * abs(t[0, 0].imag)
    assert t[0, 0].real == 0 and np.isinf(xferfn._inverse_bound(schur, np.array([probe])))
    pattern = xferfn.block_pattern(r)
    assert pattern.zero_blocks() == {"qp", "pq"}
    assert all(getattr(pattern, x).probe_ratio == 0.0 for x in ("qq", "qp", "pq", "pp"))
    assert len(points) == 1 and np.all(points[0].real > 0)


def test_certify_bae_takes_one_schur_form_and_no_markov_power(monkeypatch):
    """certify_bae's verdict comes from one real Schur form and one
    back-substitution over the 9 nodes and the probes: no eig, no SVD, no
    per-point solve and no call of markov_params."""
    sys_obj = qsys.random_system(np.random.default_rng(8), 8, 2,
                                 **FAMILY_KWARGS["p_coupling_imag_C"])
    schurs = _recording_schur(monkeypatch)
    counts = [_counting(monkeypatch, name)
              for name in ("eig", "svd", "cond", "solve")]

    def no_markov(*args):
        raise AssertionError("markov_params called")

    monkeypatch.setattr(xferfn, "markov_params", no_markov)
    points = _recording_solve(monkeypatch)
    report = bae.certify_bae(sys_obj)
    assert report.consistency and bae.PQ in report.certified_pairs
    assert [(a.dtype, a.shape) for a in schurs] == [(np.float64, (16, 16))]
    assert [len(c) for c in counts] == [0, 0, 0, 0]
    assert len(points) == 1 and len(points[0]) > 9
    assert np.all(points[0][9:].real == 0)


# ------------------------------------------------- substitution kernel

@st.composite
def _triangular(draw):
    """A random complex upper-triangular T with n <= 24 and its strictly
    upper part scaled by 1, 1e2 or 1e4 (strongly non-normal), a random
    unitary Z, four random points, and the generator for further draws."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(min_value=1, max_value=24))
    t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    t[np.triu_indices(n, 1)] *= draw(st.sampled_from([1.0, 1e2, 1e4]))
    z = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return t, z, rng.standard_normal(4) + 1j * rng.standard_normal(4), rng


@given(_triangular())
@settings(max_examples=60, deadline=None)
def test_inverse_bound_matches_the_inverse_of_the_comparison_matrix(case):
    """nu(p) within 4 n eps relative of sqrt(||M^{-1}||_1 ||M^{-1}||_inf)
    from np.linalg.inv of the comparison matrix M of pI - T."""
    t, z, points, _ = case
    n = len(t)
    schur = xferfn._schur_record(z @ t @ z.conj().T, t, z)
    for p, nu in zip(points, xferfn._inverse_bound(schur, points)):
        m = -np.abs(t)
        np.fill_diagonal(m, np.abs(p - np.diag(t)))
        inverse = np.linalg.inv(m)
        want = np.sqrt(inverse.sum(axis=0).max() * inverse.sum(axis=1).max())
        assert abs(nu - want) <= 4 * n * np.finfo(float).eps * want


@given(_triangular())
@settings(max_examples=60, deadline=None)
def test_schur_solve_matches_per_point_solve(case):
    """C (sI - A)^{-1} B from `_schur_solve` on A = Z T Z^H against
    np.linalg.solve at every point where cond2(sI - A) <= COND_LIMIT,
    within 2 delta(s) (conftest's bound, c = 2), whose N + 7 counts the
    inner product made one term longer by the folded right-hand side."""
    t, z, points, rng = case
    n = len(t)
    a = z @ t @ z.conj().T
    m, p = (int(x) for x in rng.integers(1, 5, size=2))
    b = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    r = qsys.Realization("quadrature", a, b, c, np.zeros((p, m)))
    values = xferfn._schur_solve(xferfn._schur_record(a, t, z), points, b, c)
    assert values.shape == (len(points), p, m)
    for s, g in zip(points, values):
        if np.linalg.cond(s * np.eye(n) - a) > xferfn.COND_LIMIT:
            continue
        want = c @ np.linalg.solve(s * np.eye(n) - a, b)
        assert np.linalg.norm(g - want, 2) <= schur_deviation_bound(r, s)


def test_certify_and_sweep_each_take_two_substitutions(monkeypatch):
    """certify_bae and a 200-point sweep each run the substitution kernel
    twice: nu over the points (real), then one solve (complex)."""
    calls = []
    substitute = xferfn._substitute

    def counted(u, scale, x):
        calls.append(u.dtype)
        return substitute(u, scale, x)

    monkeypatch.setattr(xferfn, "_substitute", counted)
    sys_obj = qsys.random_system(np.random.default_rng(8), 8, 2,
                                 **FAMILY_KWARGS["p_coupling_imag_C"])
    bae.certify_bae(sys_obj)
    assert calls == [np.float64, np.complex128]
    calls.clear()
    xferfn.frequency_sweep(qsys.quad_realization(sys_obj), np.logspace(-3.0, 3.0, 200))
    assert calls == [np.float64, np.complex128]


# -------------------------------------------------------------- sweep

def test_frequency_sweep_shapes_and_resonance_nan():
    r = qsys.quad_realization(qsys.michelson_system())
    omegas = np.array([0.5, 1.0, 2.0])
    rows = xferfn.frequency_sweep(r, omegas)
    assert rows.shape == (3, 4, 4)
    # the mechanical resonance at omega = 1 is marked, not fabricated
    assert np.all(np.isfinite(rows[0]))
    assert np.all(np.isnan(rows[1]))
    assert np.all(np.isfinite(rows[2]))


# ------------------------------------------------------ resolvent guard

def _reference_tf(r, omegas):
    """Per-point reference: np.linalg.cond and np.linalg.solve at every
    point; None where the guard must call the point singular."""
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (r.a, r.b, r.c, r.d))
    out = []
    for w in omegas:
        m = complex(1j * w) * np.eye(a.shape[0]) - a
        cond = np.linalg.cond(m)
        singular = not np.isfinite(cond) or cond > xferfn.COND_LIMIT
        out.append(None if singular else d + c @ np.linalg.solve(m, b))
    return out


def _reference_sweep(r, omegas):
    return np.array([np.full(r.d.shape, np.nan) if g is None else np.abs(g)
                     for g in _reference_tf(r, omegas)])


def _reference_pattern(r, tol=matcore.DEFAULT_TOL):
    """block_pattern from np.linalg.solve at all N + 1 nodes, conjugates
    included, and at the probes i Im(lambda) for the eigenvalues of
    np.linalg.eigvals, each held against bar_delta(p) with the exact
    1 / smin(pI - A) in place of nu(p); a per-block, per-point loop of
    inf_norm calls. Also returns the largest Schur forward-error bound over
    the nodes."""
    m = r.m_channels
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (r.a, r.b, r.c, r.d))
    n = a.shape[0]
    eye = np.eye(n)
    nodes = _nodes(r)
    gs = [d + c @ np.linalg.solve(s * eye - a, b) for s in nodes]
    scale = max([1.0] + [matcore.inf_norm(g) for g in gs])
    probes = []
    for lam in np.linalg.eigvals(a):
        p = 1j * lam.imag
        smin = np.linalg.svd(p * eye - a, compute_uv=False)[-1]
        try:
            g = d + c @ np.linalg.solve(p * eye - a, b)
        except np.linalg.LinAlgError:  # an exact pole certifies nothing
            continue
        with np.errstate(divide="ignore"):
            gain = (abs(p) + np.linalg.norm(a)) / smin ** 2 * (
                np.linalg.norm(b) * np.linalg.norm(c))
        bound = n ** 1.5 * np.finfo(float).eps * (gain + np.linalg.norm(g))
        probes.append((g, max(tol * scale, bound)))
    certs = {}
    for name, (i, j) in {"qq": (0, 0), "qp": (0, 1), "pq": (1, 0), "pp": (1, 1)}.items():
        def block(g):
            return matcore.inf_norm(g[i * m:(i + 1) * m, j * m:(j + 1) * m])
        peak = max(block(g) for g in gs)
        ratio = max([0.0] + [block(g) / limit for g, limit in probes])
        certs[name] = xferfn.BlockCert(peak <= tol * scale and ratio <= 1, peak,
                                       tol * scale, scale, ratio)
    slack = max(schur_deviation_bound(r, s) for s in nodes)
    return xferfn.BlockPattern(**certs), slack


def _assert_sweep_matches(r, omegas, rows):
    """NaN rows exactly as the per-point reference; every other row within
    the Schur forward-error bound of it (see schur_deviation_bound)."""
    ref = _reference_sweep(r, omegas)
    assert np.array_equal(np.isnan(rows), np.isnan(ref))
    regular = ~np.isnan(ref).all(axis=(1, 2))
    for w, row, want in zip(omegas[regular], rows[regular], ref[regular]):
        assert np.abs(row - want).max() <= schur_deviation_bound(r, 1j * w)


def _assert_pattern_matches(r):
    """Zero verdicts exactly as the per-point reference; node maxima and
    scales within the largest Schur bound over the nodes."""
    got, (ref, slack) = xferfn.block_pattern(r), _reference_pattern(r)
    for name in ("qq", "qp", "pq", "pp"):
        got_block, ref_block = getattr(got, name), getattr(ref, name)
        assert got_block.zero == ref_block.zero
        assert abs(got_block.node_max - ref_block.node_max) <= slack
        assert abs(got_block.scale - ref_block.scale) <= slack
        assert got_block.threshold == matcore.DEFAULT_TOL * got_block.scale


def _pole_grid(r, rng):
    """A log grid plus each axis pole of r, exactly and at pole * (1 + 1e-13);
    every other grid is shuffled, since the guard must not depend on order."""
    eig = np.linalg.eigvals(np.asarray(r.a, dtype=complex))
    poles = [lam.imag for lam in eig if abs(lam.real) <= 1e-9 * max(abs(lam), 1.0)]
    grid = np.concatenate([np.logspace(-3.0, 3.0, 40), poles,
                           np.multiply(poles, 1 + 1e-13)])
    return rng.permutation(grid) if rng.integers(2) else np.sort(grid)


def test_guard_matches_per_point_cond_and_solve():
    """frequency_sweep and eval_tf agree with an SVD condition number at
    every point, also at and next to axis poles: NaN rows and
    SingularityError.cond exactly, values within the Schur forward-error
    bound. block_pattern's zero verdicts are those of a per-node solve."""
    couplings = ("zero", "generic", "zero", "real", "zero", "imag")
    singular = 0
    for i in range(120):
        rng = np.random.default_rng(i)
        sys_obj = qsys.random_system(rng, 1 + i % 6, 1 + i % 2,
                                     coupling=couplings[i % 6])
        r = qsys.quad_realization(sys_obj)
        omegas = _pole_grid(r, rng)
        rows = xferfn.frequency_sweep(r, omegas)
        _assert_sweep_matches(r, omegas, rows)
        _assert_pattern_matches(r)
        for w in omegas[np.isnan(rows).all(axis=(1, 2))]:
            singular += 1
            m = complex(1j * w) * np.eye(r.a.shape[0]) - r.a
            with pytest.raises(SingularityError) as err:
                xferfn.eval_tf(r, 1j * w)
            assert err.value.cond == np.linalg.cond(m)
    assert singular >= 100


def test_guard_is_exact_where_cond_crosses_the_limit():
    """On a one-ulp grid across cond2 = COND_LIMIT next to an axis pole, the
    computed cond jitters by roundoff; the factor-2 margin keeps the
    certificate out of that band, so every verdict there is the SVD's."""
    crossings = 0
    for i in range(40):
        rng = np.random.default_rng(1000 + i)
        r = qsys.quad_realization(qsys.random_system(rng, 1 + i % 8, 1 + i % 2,
                                                     coupling="zero"))
        a = np.asarray(r.a, dtype=complex)

        def cond(w):
            return np.linalg.cond(complex(1j * w) * np.eye(a.shape[0]) - a)

        for lam in np.linalg.eigvals(a):
            near, far = lam.imag, lam.imag + 1e-3
            if near <= 0 or abs(lam.real) > 1e-9 * abs(lam) \
                    or not cond(near) > xferfn.COND_LIMIT >= cond(far):
                continue
            while (mid := 0.5 * (near + far)) not in (near, far):
                if cond(mid) > xferfn.COND_LIMIT:
                    near = mid
                else:
                    far = mid
            crossings += 1
            grid = far + np.arange(400, -100, -1) * np.spacing(far)
            assert np.array_equal(xferfn.frequency_sweep(r, grid),
                                  _reference_sweep(r, grid), equal_nan=True)
    assert crossings >= 20


def _counting(monkeypatch, name, module=np.linalg):
    """Count the calls xferfn makes to <module>.<name> (np.linalg by default;
    xferfn reaches numpy and scipy.linalg through their module objects). The
    guard's per-point SVD is its np.linalg.cond call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _recording_schur(monkeypatch):
    """Record the matrix of every factorization xferfn makes (`_gees`)."""
    calls = []
    gees = xferfn._gees

    def recorded(a):
        calls.append(a)
        return gees(a)

    monkeypatch.setattr(xferfn, "_gees", recorded)
    return calls


def test_grid_takes_one_schur_form(monkeypatch):
    """One Schur form serves a whole generic 200-point grid: no eig, no SVD
    and no per-point solve. The real quadrature A gets the real Schur form,
    the complex A of the annihilation-creation realization the complex
    one. A one-point evaluation takes its own SVD and solve and no
    factorization. The all-certified sweep's rows are C-contiguous, as a
    sweep with a singular point's are."""
    sys_obj = qsys.random_system(np.random.default_rng(8), 8, 2)
    r = qsys.quad_realization(sys_obj)
    grid = np.logspace(-3.0, 3.0, 200)
    schurs = _recording_schur(monkeypatch)
    eigs, svds, solves = (_counting(monkeypatch, name)
                          for name in ("eig", "cond", "solve"))
    rows = xferfn.frequency_sweep(r, grid)
    assert np.all(np.isfinite(rows)) and rows.flags.c_contiguous
    assert (len(schurs), len(eigs), len(svds), len(solves)) == (1, 0, 0, 0)
    a = schurs[0]
    assert (a.dtype, a.shape) == (np.float64, (16, 16))
    assert not np.array_equal(a, np.triu(a))
    for calls in (schurs, eigs, svds, solves):
        calls.clear()
    xferfn.eval_tf(r, 0.3j)
    assert (len(schurs), len(eigs), len(svds), len(solves)) == (0, 0, 1, 1)
    svds.clear()
    solves.clear()
    rows = xferfn.frequency_sweep(qsys.ac_realization(sys_obj), grid)
    assert np.all(np.isfinite(rows))
    assert (len(schurs), len(eigs), len(svds), len(solves)) == (1, 0, 0, 0)
    assert (schurs[0].dtype, schurs[0].shape) == (np.complex128, (16, 16))


def test_non_finite_input_is_a_precondition_error(monkeypatch):
    """A NaN or Inf in A, B, C or D, or in the points, raises
    PreconditionError naming it, from eval_tf, frequency_sweep and sigma_tf
    alike, as block_pattern does: it is not read as a resonance, no Schur
    form or SVD is taken, and no RuntimeWarning leaks (the test settings
    turn one into an error)."""
    sys_obj = qsys.michelson_system()
    r = qsys.quad_realization(sys_obj)
    omegas = np.array([0.5, 1.0, 2.0, 30.0])
    schurs = _recording_schur(monkeypatch)
    svds = _counting(monkeypatch, "cond")
    for bad in (np.nan, np.inf, -np.inf):
        for name in "abcd":
            x = getattr(r, name).copy()
            x[0, 1] = bad
            broken = dataclasses.replace(r, **{name: x})
            with pytest.raises(PreconditionError, match=f"^{name.upper()} contains NaN"):
                xferfn.eval_tf(broken, 0.5j)
            with pytest.raises(PreconditionError, match=f"^{name.upper()} contains NaN"):
                xferfn.frequency_sweep(broken, omegas)
        with pytest.raises(PreconditionError, match="evaluation point"):
            xferfn.eval_tf(r, complex(0.0, bad))
        with pytest.raises(PreconditionError, match="evaluation point"):
            xferfn.frequency_sweep(r, np.append(omegas, bad))
        with pytest.raises(PreconditionError, match="evaluation point"):
            xferfn.sigma_tf(sys_obj, complex(bad, 1.0))
    assert (schurs, svds) == ([], [])


def _schur_fails(a):
    raise np.linalg.LinAlgError("Schur form not found")


def test_guard_without_schur_form_takes_an_svd_per_point(monkeypatch):
    """When the Schur form fails there is no certificate and no Schur solve:
    every point gets its own SVD and solve, bit for bit as the reference,
    for the michelson A, factored whole, and a block-diagonal A, whose
    halves are factored apart."""
    block = qsys.random_system(np.random.default_rng(3), 2, 2,
                               **FAMILY_KWARGS["bilateral_diag_real_coupling"])
    omegas = np.array([0.5, 1.0, 2.0, 30.0])
    monkeypatch.setattr(xferfn, "_gees", _schur_fails)
    svds = _counting(monkeypatch, "cond")
    for sys_obj in (qsys.michelson_system(), block):
        r = qsys.quad_realization(sys_obj)
        svds.clear()
        rows = xferfn.frequency_sweep(r, omegas)
        assert len(svds) == len(omegas)  # before the reference takes its own
        assert np.array_equal(rows, _reference_sweep(r, omegas), equal_nan=True)


def test_gees_that_does_not_converge_raises_linalg_error(monkeypatch):
    """gees is called directly, so its info is checked there: a nonzero info
    from dgees or zgees raises LinAlgError (which `_resolvent_points` turns
    into one SVD per point)."""
    for name, dtype in (("dgees", float), ("zgees", complex)):
        gees = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name, lambda *args, gees=gees, **kw: (
            *gees(*args, **kw)[:-1], 1))
        with pytest.raises(np.linalg.LinAlgError, match="info 1"):
            xferfn._gees(np.eye(2, dtype=dtype))


# ------------------------------------------ Schur form split at a zero block

def _single_schur(dtype, shape, data):
    """The record of one dgees of the whole real A, as `_schur_of` takes it
    for an A without a zero block."""
    a = np.frombuffer(data, dtype=dtype).reshape(shape)
    return xferfn._schur_record(a, *xferfn._complex_schur(*xferfn._gees(a)))


def _zero_blocks(a):
    """The first entry of each exactly zero lower-left or upper-right half
    block of a real A of even size: (h, 0), (0, h), both or neither."""
    h = len(a) // 2
    if len(a) % 2 or not h or np.iscomplexobj(a):
        return []
    return [(i, j) for i, j in ((h, 0), (0, h))
            if not a[i:i + h, j:j + h].any()]


def _assert_rows_agree(r, omegas, rows, want):
    """The same NaN rows, and every other row within schur_deviation_bound
    of want: both are Schur solves within delta(s) of G."""
    assert np.array_equal(np.isnan(rows), np.isnan(want))
    regular = ~np.isnan(want).all(axis=(1, 2))
    for w, row, x in zip(omegas[regular], rows[regular], want[regular]):
        assert np.abs(row - x).max() <= schur_deviation_bound(r, 1j * w)


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_split_schur_form_on_the_catalog_families(n, monkeypatch):
    """Every catalog family at n modes. A quadrature A with an exact zero
    block (12 of the 14 families) takes two half-size factorizations, every
    other A one of the whole. The record is a complex Schur form of A
    (`_assert_complex_schur_form`, c = 10) with ||A Z - Z T||_F <= 10 N eps
    ||A||_F, certify_bae's verdicts are those of the single factorization,
    and a sweep's rows lie within schur_deviation_bound of its rows."""
    grid = np.logspace(-3.0, 3.0, 50)
    rng = np.random.default_rng(n)
    schurs = _recording_schur(monkeypatch)
    split = 0
    for kwargs in FAMILY_KWARGS.values():
        sys_obj = qsys.random_system(rng, n, 2, **kwargs)
        r = qsys.quad_realization(sys_obj)
        a, size = r.a, 2 * n
        xferfn._schur_of.cache_clear()
        schurs.clear()
        _assert_complex_schur_form(a)
        zero = bool(_zero_blocks(a))
        split += zero
        assert [x.shape for x in schurs] == ([(n, n)] * 2 if zero else [(size, size)])
        assert xferfn._schur_form(a).residual <= (
            10 * size * np.finfo(float).eps * np.linalg.norm(a))
        report, rows = bae.certify_bae(sys_obj), xferfn.frequency_sweep(r, grid)
        with monkeypatch.context() as m:
            m.setattr(xferfn, "_schur_of", _single_schur)
            single = bae.certify_bae(sys_obj)
            single_rows = xferfn.frequency_sweep(r, grid)
        assert report.certified_pairs == single.certified_pairs
        assert report.consistency == single.consistency
        assert report.matched_conditions == single.matched_conditions
        assert [getattr(report.pattern, x).zero for x in ("qq", "qp", "pq", "pp")] == [
            getattr(single.pattern, x).zero for x in ("qq", "qp", "pq", "pp")]
        _assert_rows_agree(r, grid, rows, single_rows)
    assert split == 12


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_a_tiny_entry_in_the_zero_block_changes_no_verdict(n, monkeypatch):
    """Metamorphic: one exact zero of the zero block (of each, for a block
    diagonal A) set to 1e-300 sends A to one factorization of the whole,
    and block_pattern's verdicts, the sweep's singular rows and (within
    schur_deviation_bound) its other rows stay those of the split form."""
    grid = np.logspace(-3.0, 3.0, 50)
    rng = np.random.default_rng(n)
    schurs = _recording_schur(monkeypatch)
    for kwargs in FAMILY_KWARGS.values():
        r = qsys.quad_realization(qsys.random_system(rng, n, 2, **kwargs))
        entries = _zero_blocks(r.a)
        if not entries:
            continue
        a = r.a.copy()
        a[tuple(zip(*entries))] = 1e-300
        tiny = dataclasses.replace(r, a=a)
        xferfn._schur_of.cache_clear()
        schurs.clear()
        pattern, rows = xferfn.block_pattern(r), xferfn.frequency_sweep(r, grid)
        tiny_pattern = xferfn.block_pattern(tiny)
        tiny_rows = xferfn.frequency_sweep(tiny, grid)
        assert [x.shape for x in schurs] == [(n, n), (n, n), (2 * n, 2 * n)]
        assert tiny_pattern.zero_blocks() == pattern.zero_blocks()
        _assert_rows_agree(r, grid, tiny_rows, rows)


def test_only_a_real_even_a_with_a_zero_block_is_split(monkeypatch):
    """A real A of even size with a zero lower-left half block is factored
    as its two diagonal blocks in order; with a zero upper-right one, the
    halves are swapped first, so the p-p block comes first. A complex A, a
    real A of odd size and a real A with neither block zero each take one
    factorization of the whole."""
    rng = np.random.default_rng(4)
    schurs = _recording_schur(monkeypatch)
    full = rng.standard_normal((4, 4))
    lower, upper = full.copy(), full.copy()
    lower[2:, :2] = 0
    upper[:2, 2:] = 0
    for a, blocks in ((lower, [full[:2, :2], full[2:, 2:]]),
                      (upper, [full[2:, 2:], full[:2, :2]])):
        schurs.clear()
        _assert_complex_schur_form(a)
        assert [x.tobytes() for x in schurs] == [x.tobytes() for x in blocks]
    for a in (lower + 1j * lower, np.triu(rng.standard_normal((3, 3))), full):
        schurs.clear()
        _assert_complex_schur_form(a)
        assert [x.shape for x in schurs] == [a.shape]


# ----------------------------------------------------- Schur-form memo


def test_certify_then_sweep_takes_one_schur_form(monkeypatch):
    """certify_bae and a sweep of the same system share one Schur record:
    the quadrature A is rebuilt bit for bit, and the memo keeps the last
    record, so the two take one dgees, one Schur residual and one |T|
    operator between them."""
    sys_obj = qsys.random_system(np.random.default_rng(8), 8, 2,
                                 **FAMILY_KWARGS["p_coupling_imag_C"])
    schurs = _recording_schur(monkeypatch)
    residuals, operators = (_counting(monkeypatch, name, xferfn)
                            for name in ("_residual", "_comparison"))
    bae.certify_bae(sys_obj)
    xferfn.frequency_sweep(qsys.quad_realization(sys_obj), np.logspace(-3.0, 3.0, 200))
    assert [a.shape for a in schurs] == [(16, 16)]
    assert (len(residuals), len(operators)) == (1, 1)
    info = xferfn._schur_of.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_memo_factors_an_a_that_differs_in_one_bit(monkeypatch):
    """The memo is keyed by the exact bytes of A and holds one entry: a copy
    of A hits; one ulp in one entry, -0.0 for 0.0, a change made in place
    after a call, and A again after another matrix are each factored."""
    a = np.array(qsys.quad_realization(qsys.michelson_system()).a)
    nonzero, zero = (tuple(np.argwhere(x)[0]) for x in (a != 0, a == 0))
    ulp, signed = a.copy(), a.copy()
    ulp[nonzero] = np.nextafter(a[nonzero], np.inf)
    signed[zero] = -0.0
    schurs = _recording_schur(monkeypatch)
    for x in (a, a.copy(), ulp, a, signed, a):
        xferfn._schur_form(x)
    assert [x.tobytes() for x in schurs] == [
        x.tobytes() for x in (a, ulp, a, signed, a)]
    a[nonzero] *= 2
    schur = xferfn._schur_form(a)
    assert len(schurs) == 6 and schurs[-1].tobytes() == a.tobytes()
    assert np.allclose(schur.z @ schur.t @ schur.z.conj().T, a)


def test_schur_form_is_read_only():
    """The record is shared by every caller of the memo, so none of its
    fields can be set and none of its arrays written: for a complex A, a
    real A with complex pairs, and a real A with real eigenvalues only."""
    r = qsys.quad_realization(qsys.michelson_system())
    for a in (qsys.ac_realization(qsys.michelson_system()).a, r.a,
              np.diag([-1.0, -2.0])):
        schur = xferfn._schur_form(a)
        t, z = schur.t, schur.z
        assert t.dtype == z.dtype == np.complex128
        arrays = [getattr(schur, f.name) for f in dataclasses.fields(schur)
                  if isinstance(getattr(schur, f.name), np.ndarray)]
        assert len(arrays) == 5
        assert not any(x.flags.writeable for x in arrays)
        for x in arrays:
            with pytest.raises(ValueError):
                x.flat[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            schur.residual = 0.0


def _pattern_bits(r):
    """block_pattern's verdict and every BlockCert float, as hex strings."""
    pattern = xferfn.block_pattern(r)
    return [(cert.zero, *(x.hex() for x in (cert.node_max, cert.threshold,
                                            cert.scale, cert.probe_ratio)))
            for cert in (pattern.qq, pattern.qp, pattern.pq, pattern.pp)]


@pytest.mark.parametrize("n", [2, 8, 32])
def test_memo_leaves_every_output_bit_for_bit(n, monkeypatch):
    """On every catalog family, block_pattern and a 200-point sweep give the
    same bits from a cold memo as from the Schur record the other one left.
    Most of these grids certify every point and return the Schur solve
    itself (no SVD, no per-point buffer); the same bits come out when one
    more point, an eigenvalue of A, is not certified and sends the grid
    through the per-point buffer."""
    grid = np.logspace(-3.0, 3.0, 200)
    rng = np.random.default_rng(n)
    svds = _counting(monkeypatch, "cond")
    early = 0
    for kwargs in FAMILY_KWARGS.values():
        r = qsys.quad_realization(qsys.random_system(rng, n, 2, **kwargs))
        xferfn._schur_of.cache_clear()
        cold_pattern = _pattern_bits(r)
        xferfn._schur_of.cache_clear()
        svds.clear()
        cold_sweep = xferfn.frequency_sweep(r, grid).tobytes()
        early += not svds
        assert _pattern_bits(r) == cold_pattern
        assert xferfn.frequency_sweep(r, grid).tobytes() == cold_sweep
        info = xferfn._schur_of.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        if not svds:
            pole = xferfn._schur_form(r.a).diag[0]
            values, _ = xferfn._tf_points(r, np.append(1j * grid, pole))
            assert len(svds) == 1
            assert np.abs(values[:-1]).tobytes() == cold_sweep
    assert early >= len(FAMILY_KWARGS) // 2


def _assert_values_match(r, omegas):
    """The stacked values against the per-point cond + solve reference: the
    same singular points and SingularityError.cond, NaN there, and every
    other value within the Schur bound; one-point eval_tf is bit for bit
    the reference at every point."""
    values, singular = xferfn._tf_points(r, [1j * w for w in omegas])
    ref = _reference_tf(r, omegas)
    assert sorted(singular) == [i for i, g in enumerate(ref) if g is None]
    a = np.asarray(r.a, dtype=complex)
    for i, (w, g) in enumerate(zip(omegas, ref)):
        if g is None:
            assert np.isnan(values[i]).all()
            with pytest.raises(SingularityError) as err:
                xferfn.eval_tf(r, 1j * w)
            assert err.value.cond == singular[i].cond == _cond(a, w)
        else:
            assert np.linalg.norm(values[i] - g, 2) <= schur_deviation_bound(r, 1j * w)
            assert np.array_equal(xferfn.eval_tf(r, 1j * w), g)


FAMILIES = [{}, dict(coupling="real"), dict(coupling="imag"),
            dict(coupling="zero"), dict(omega="imag", scattering="real"),
            dict(omega="equal_re", coupling="real", scattering="imag"),
            dict(omega="opposite_re", coupling="imag", c_relation="equal"),
            dict(omega="zero", scattering="generic")]


@pytest.mark.parametrize("n", [8, 16, 32])
def test_schur_values_match_per_point_solve(n):
    """At n = 8, 16 and 32 modes, over the random families on shuffled or
    sorted grids through every axis pole, the Schur-form values stay within
    the forward-error bound of the per-point reference."""
    for i, family in enumerate(FAMILIES):
        rng = np.random.default_rng(100 * n + i)
        r = qsys.quad_realization(qsys.random_system(rng, n, 2, **family))
        _assert_values_match(r, _pole_grid(r, rng))


# ------------------------------------------------- non-normal certificate

def _rotation(w):
    """The 2 x 2 quadrature block of an undamped mode: eigenvalues +/- i w."""
    return np.array([[0.0, w], [-w, 0.0]])


def _jordan_like(t, gap, rotate, w0=1.0):
    """A quadrature realization whose A = [[R(w0), t I], [0, R(w0 + gap)]]
    is upper block triangular: its axis eigenvalues i w0 and i (w0 + gap)
    have condition numbers about t / gap, and gap = 0 makes A exactly
    defective. `rotate` applies a random orthogonal similarity, so eig no
    longer meets a triangular matrix and its residual R is not zero."""
    a = np.block([[_rotation(w0), t * np.eye(2)],
                  [np.zeros((2, 2)), _rotation(w0 + gap)]])
    rng = np.random.default_rng(7)
    if rotate:
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ a @ q.T
    return qsys.Realization("quadrature", a, rng.standard_normal((4, 2)),
                            rng.standard_normal((2, 4)), np.eye(2))


NON_NORMAL = [(t, gap, rotate) for t in (1e2, 1e4, 1e6)
              for gap in (1e-3, 1e-6, 0.0) for rotate in (False, True)]


def _crossing_grid(w0=1.0):
    """A log grid plus points that close in on the axis pole i w0 from
    cond2 ~ 1 to past COND_LIMIT, with a fine stretch across 1e11..1e13
    for the undamped mode alone (cond2 = (2 w0 + d) / d at w0 + d)."""
    return np.concatenate([np.logspace(-3.0, 3.0, 40),
                           w0 + w0 * np.logspace(-16.0, 0.0, 49),
                           w0 + 2 * w0 / np.geomspace(1e11, 1e13, 41), [w0]])


def _cond(a, w):
    return np.linalg.cond(complex(1j * w) * np.eye(a.shape[0]) - a)


@pytest.mark.parametrize("t, gap, rotate", NON_NORMAL + [(0.0, 1.0, True)])
def test_schur_values_match_on_non_normal_a(t, gap, rotate):
    """Highly non-normal and defective A on a grid that crosses COND_LIMIT:
    the Schur-form values stay within the forward-error bound."""
    _assert_values_match(_jordan_like(t, gap, rotate), _crossing_grid())


@pytest.mark.parametrize("t, gap, rotate", NON_NORMAL)
def test_certificate_is_exact_on_non_normal_a(t, gap, rotate):
    """Highly non-normal and defective A: the sweep agrees with an SVD at
    every point, on a grid that crosses COND_LIMIT (NaN rows exactly,
    values within the Schur bound), and block_pattern with a per-node
    solve."""
    r = _jordan_like(t, gap, rotate)
    grid = _crossing_grid()
    rows = xferfn.frequency_sweep(r, grid)
    _assert_sweep_matches(r, grid, rows)
    _assert_pattern_matches(r)
    nan = np.isnan(rows).all(axis=(1, 2))
    assert nan.any() and not nan.all()


def _assert_bound_covers_cond(r, grid):
    """The bound dominates the SVD condition number up to the SVD's own
    roundoff (relative n * eps * cond) wherever it is at most COND_LIMIT."""
    a = np.asarray(r.a, dtype=complex)
    bound = xferfn._cond_bound(xferfn._schur_form(r.a), 1j * grid)
    covered = bound <= xferfn.COND_LIMIT
    conds = np.linalg.cond(1j * grid[covered, None, None] * np.eye(len(a)) - a)
    slack = 1 + len(a) * np.finfo(float).eps * bound[covered]
    assert np.all(conds <= bound[covered] * slack)
    assert np.all(bound > 0)


@pytest.mark.parametrize("t, gap, rotate", NON_NORMAL + [(0.0, 1.0, True)])
def test_certificate_bounds_cond(t, gap, rotate):
    """On non-normal and defective A, on a grid that crosses COND_LIMIT; t = 0
    is a normal A, where the bound is tight."""
    _assert_bound_covers_cond(_jordan_like(t, gap, rotate), _crossing_grid())


@functools.cache
def _catalog_at_32():
    """The quadrature realizations of the n = 32 systems among every catalog
    family at n = 2, 4, 8, 16 and 32, 4 draws each, drawn in that order from
    one generator of seed 1 (the bae_scaling benchmark's cases)."""
    rng = np.random.default_rng(1)
    systems = [(n, qsys.random_system(rng, n, 2, **FAMILY_KWARGS[cond.condition_id]))
               for cond in bae.CONDITION_CATALOG
               for n in (2, 4, 8, 16, 32) for _ in range(4)]
    return [qsys.quad_realization(x) for n, x in systems if n == 32]


def test_certificate_bounds_cond_on_the_catalog_families():
    """The 56 catalog systems at n = 32, on every fifth point of the sweep
    grid."""
    for r in _catalog_at_32():
        _assert_bound_covers_cond(r, np.logspace(-3.0, 3.0, 200)[::5])


def test_guard_yield_on_the_catalog_families(monkeypatch):
    """On the 56 catalog systems at n = 32 and a 200-point log grid, at most
    1 % of the points reach a per-point SVD. nu needs its forward pass for
    that: sqrt(N) ||M^{-1}||_inf alone leaves 3.4-5.6 % of them."""
    grid = np.logspace(-3.0, 3.0, 200)
    rs = _catalog_at_32()
    svds = _counting(monkeypatch, "cond")
    for r in rs:
        xferfn.frequency_sweep(r, grid)
    assert len(svds) <= 0.01 * len(rs) * len(grid)


def test_certificate_skips_only_well_conditioned_points(monkeypatch):
    """Every point that gets no SVD has np.linalg.cond <= COND_LIMIT / 2,
    also next to COND_LIMIT on a normal A, where the bound is tight."""
    skipped = 0
    for t, gap, rotate in NON_NORMAL + [(0.0, 1.0, True), (0.0, 1.0, False)]:
        r = _jordan_like(t, gap, rotate)
        a = np.asarray(r.a, dtype=complex)
        grid = _crossing_grid()
        svds = _counting(monkeypatch, "cond")
        xferfn.frequency_sweep(r, grid)
        monkeypatch.undo()  # _cond below is not counted
        for w in grid:
            m = complex(1j * w) * np.eye(4) - a
            if not any(np.array_equal(m, x) for x in svds):
                skipped += 1
                assert _cond(a, w) <= xferfn.COND_LIMIT / 2
    assert skipped > 0


def test_bound_carries_the_schur_residual(monkeypatch):
    """A Schur form whose T is off by 1e-9 i in every eigenvalue still yields
    a valid bound: ||A Z - Z T||_F carries the error. At points just beyond
    each pole, where |s - T_kk| exceeds the true distance, the bound without
    it falls below cond2."""
    r = _jordan_like(0.0, 1.0, True)
    a = np.asarray(r.a, dtype=complex)
    shift = 1e-9j
    schur_form = xferfn._schur_form

    def shifted(x):
        schur = schur_form(x)
        return xferfn._schur_record(x, schur.t + shift * np.eye(len(schur.t)), schur.z)

    monkeypatch.setattr(xferfn, "_schur_form", shifted)
    lam = np.linalg.eigvals(a)
    points = np.concatenate([lam - shift * k for k in (0.5, 1.0, 2.0, 4.0)])
    schur = xferfn._schur_form(r.a)
    bound = xferfn._cond_bound(schur, points)
    conds = np.linalg.cond(points[:, None, None] * np.eye(4) - a)
    finite = np.isfinite(bound)
    assert finite.any() and np.all(conds[finite] <= bound[finite])
    without = (np.abs(points) + np.linalg.norm(a)) * xferfn._inverse_bound(schur, points)
    assert np.any(without < conds)


# ------------------------------------------- real-to-complex Schur form

def _assert_complex_schur_form(a):
    """_schur_form(A) is a complex Schur form of A, with c = 10: Z unitary
    to c N eps, T exactly upper triangular, ||Z T Z^H - A||_F <= c N eps
    ||A||_F, and diag(T) the eigenvalues of A as a multiset, each within
    the Bauer-Fike radius c N eps ||A||_F cond2(V) of its partner (V the
    eigenvectors of A). Returns T."""
    schur = xferfn._schur_form(a)
    t, z = schur.t, schur.z
    n = a.shape[0]
    tol = 10 * n * np.finfo(float).eps
    assert t.dtype == z.dtype == np.complex128
    assert np.array_equal(t, np.triu(t))
    assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= tol
    assert np.linalg.norm(z @ t @ z.conj().T - a) <= tol * np.linalg.norm(a)
    lam, v = np.linalg.eig(a)
    dist = np.abs(np.diag(t)[:, None] - lam)
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= tol * np.linalg.norm(a) * np.linalg.cond(v)
    return t


@pytest.mark.parametrize("n", [2, 8, 32])
def test_schur_form_on_the_catalog_families(n):
    """The quadrature A of every catalog family, at n = 2, 8 and 32 modes."""
    for i, family in enumerate(sorted(FAMILY_KWARGS)):
        rng = np.random.default_rng(100 * n + i)
        sys_obj = qsys.random_system(rng, n, 2, **FAMILY_KWARGS[family])
        _assert_complex_schur_form(qsys.quad_realization(sys_obj).a)


@pytest.mark.parametrize("t, gap, rotate", NON_NORMAL)
def test_schur_form_on_non_normal_a(t, gap, rotate):
    _assert_complex_schur_form(_jordan_like(t, gap, rotate).a)


def _rotated(a, seed=5):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(a.shape))
    return q @ a @ q.T


@pytest.mark.parametrize("coupled", [False, True])
def test_schur_form_on_repeated_complex_pairs(coupled):
    """The pair +/- 2i three times and +/- i once, in 2 x 2 diagonal blocks,
    coupled above them or not, under a random orthogonal similarity."""
    a = scipy.linalg.block_diag(*[_rotation(w) for w in (2.0, 2.0, 2.0, 1.0)])
    if coupled:
        a += np.triu(np.random.default_rng(6).standard_normal(a.shape), 2)
    _assert_complex_schur_form(_rotated(a))


def test_schur_form_with_real_eigenvalues_only_is_real():
    """With no complex pair there is no 2 x 2 block: T is the real factor."""
    a = np.diag([-3.0, -1.0, 0.5, 2.0, 4.0, 7.0]) + np.triu(
        np.random.default_rng(6).standard_normal((6, 6)), 1)
    for x in (_rotated(a), a + a.T):
        assert not _assert_complex_schur_form(x).imag.any()


def test_schur_form_of_the_zero_matrix():
    t = _assert_complex_schur_form(np.zeros((4, 4)))
    assert not t.any()
