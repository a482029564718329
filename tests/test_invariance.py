"""Metamorphic relations for the QND report, observability and the BAE
zero blocks: physics fixes transformations that must not change a verdict.

  - a uniform mode phase rotation, C- -> e^{i theta} C-,
    C+ -> e^{-i theta} C+, Omega+ -> e^{-2i theta} Omega+, which leaves
    G(s) unchanged and rotates every (q, p) pair of the state;
  - a real orthogonal mode change, C+- -> C+- Q^T, Omega+- -> Q Omega+- Q^T,
    which leaves G(s) unchanged;
  - a change of time unit, C+- -> sqrt(c) C+-, Omega+- -> c Omega+-, under
    which G_c(c s) = G(s);
  - a real orthogonal channel rotation, S -> O S O^T, C+- -> O C+-, which
    leaves A alone and maps each quadrature block G_xy to O G_xy O^T.

Each keeps the dimension of the QND subspace, the rank of each output
quadrature's witness and the observability of (A, C). Which of q and p is
a QND variable is a statement about the frame, so the phase rotation may
change q_is_qnd and p_is_qnd; it must not change what the report counts.
Each also keeps the quadrature blocks of G that vanish identically, so
certify_bae's zero blocks and certified pairs. The catalog's predicates
are statements about the frame as well, so its matched conditions and
consistency may change under a phase rotation; they are not compared. A
change of time unit keeps every hypothesis on (S, C, Omega), so it keeps
the matched conditions and the QND report's case_matched too.
"""

import itertools

import numpy as np
import pytest

from qlinbae import bae, feedback, qnd, qsys, xferfn

from conftest import (FAMILY_KWARGS, autonomous_quadrature_system,
                      imag_omega_coupled_system)


def _phase(theta):
    def apply(sys_obj, rng):
        w = np.exp(1j * theta)
        return qsys.new_system(sys_obj.s, w * sys_obj.c_minus,
                               sys_obj.c_plus / w, sys_obj.omega_minus,
                               sys_obj.omega_plus / w ** 2), 1.0, None
    return apply


def _mode_change(sys_obj, rng):
    q = np.linalg.qr(rng.standard_normal((sys_obj.n_modes,) * 2))[0]
    return qsys.new_system(sys_obj.s, sys_obj.c_minus @ q.T,
                           sys_obj.c_plus @ q.T,
                           q @ sys_obj.omega_minus @ q.T,
                           q @ sys_obj.omega_plus @ q.T), 1.0, None


def _time_unit(c, then=None):
    """A change of time unit by c, after the transform `then` if given."""
    def apply(sys_obj, rng):
        o = None
        if then is not None:
            sys_obj, _, o = then(sys_obj, rng)
        return qsys.new_system(sys_obj.s, np.sqrt(c) * sys_obj.c_minus,
                               np.sqrt(c) * sys_obj.c_plus,
                               c * sys_obj.omega_minus,
                               c * sys_obj.omega_plus), c, o
    return apply


def _channel_rotation(sys_obj, rng):
    o = np.linalg.qr(rng.standard_normal((sys_obj.m_channels,) * 2))[0]
    return qsys.new_system(o @ sys_obj.s @ o.T, o @ sys_obj.c_minus,
                           o @ sys_obj.c_plus, sys_obj.omega_minus,
                           sys_obj.omega_plus), 1.0, o


# name -> transform(system, rng) = (moved system, time unit c, channel
# rotation O or None); G_moved(c s) = Q G(s) Q^T with Q = diag(O, O)
TRANSFORMS = {
    "phase_0.3": _phase(0.3),
    "phase_pi/4": _phase(np.pi / 4),
    "mode_change": _mode_change,
    "time_unit_1e-6": _time_unit(1e-6),
    "time_unit_1e-3": _time_unit(1e-3),
    "time_unit_1e3": _time_unit(1e3),
    "phase_0.3_time_unit_1e3": _time_unit(1e3, then=_phase(0.3)),
    "channel_rotation": _channel_rotation,
}

SYSTEMS = {
    "autonomous_p": lambda rng, n: autonomous_quadrature_system(
        rng, n=n, m=2, which="p"),
    "autonomous_q": lambda rng, n: autonomous_quadrature_system(
        rng, n=n, m=2, which="q"),
    "imag_omega_p": lambda rng, n: imag_omega_coupled_system(
        rng, n=n, m=2, which="p", c_style="real"),
    "imag_omega_q": lambda rng, n: imag_omega_coupled_system(
        rng, n=n, m=2, which="q", c_style="imag"),
}


def _counts(sys_obj):
    rep = qnd.qnd_variable_report(sys_obj)
    r = qsys.quad_realization(sys_obj)
    return (rep.dimension, [(w.output, w.rank, w.full) for w in rep.witnesses],
            qnd.observability_rank(r.a, r.c) == r.a.shape[0])


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("family", sorted(SYSTEMS))
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_qnd_report_counts_are_invariant(n, family, transform):
    rng = np.random.default_rng([n, sorted(SYSTEMS).index(family),
                                 sorted(TRANSFORMS).index(transform)])
    s = 0.7 + 0.4j
    for _ in range(3):
        sys_obj = SYSTEMS[family](rng, n)
        moved, c, o = TRANSFORMS[transform](sys_obj, rng)
        q = np.kron(np.eye(2), np.eye(sys_obj.m_channels) if o is None else o)
        g = xferfn.eval_tf(qsys.quad_realization(sys_obj), s)
        g_moved = xferfn.eval_tf(qsys.quad_realization(moved), c * s)
        assert np.allclose(g_moved, q @ g @ q.T, rtol=1e-9, atol=1e-9)
        ref = _counts(sys_obj)
        if n <= 2:
            assert ref[0] == n
        assert _counts(moved) == ref


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_bae_zero_blocks_are_invariant(n, transform):
    """On every catalog family, whose structural zeros the reference
    certifies, the moved system has the same zero blocks and certified
    pairs, also at n = 32 with a phase and c = 1e3."""
    rng = np.random.default_rng([n, 100 + sorted(TRANSFORMS).index(transform)])
    for condition_id, kwargs in sorted(FAMILY_KWARGS.items()):
        sys_obj = qsys.random_system(rng, n, 2, **kwargs)
        moved, _, _ = TRANSFORMS[transform](sys_obj, rng)
        ref, got = bae.certify_bae(sys_obj), bae.certify_bae(moved)
        assert ref.consistency, condition_id
        assert got.pattern.zero_blocks() == ref.pattern.zero_blocks(), condition_id
        assert got.certified_pairs == ref.certified_pairs, condition_id


RANDOM_FAMILIES = list(itertools.product(
    ("generic", "imag", "zero", "equal_re", "opposite_re"),
    ("generic", "real", "imag", "zero"),
    ("identity", "real", "imag", "generic"),
    ("free", "equal", "opposite")))


def _diagnosis(sys_obj, tol):
    siso = (qnd.siso_analysis(sys_obj, tol).which_quadrature
            if sys_obj.m_channels == 1 else None)
    return ([m.condition_id for m in bae.diagnose_conditions(sys_obj, tol)],
            qnd.qnd_variable_report(sys_obj, tol).case_matched,
            qnd.is_qnd_interaction(sys_obj, tol), siso)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("transform",
                         [t for t in sorted(TRANSFORMS) if t.startswith("time_unit")])
def test_diagnoses_are_time_unit_invariant(transform, tol):
    """Over every random_system family and SYSTEMS, the moved system matches
    the same catalog conditions, falls in the same QND case, and keeps
    is_qnd_interaction and, with one channel, siso_analysis's
    which_quadrature; no verdict may hang on a floor that a small time
    unit crosses, such as a commutator scale ||C|| ||Omega|| floored at 1."""
    rng = np.random.default_rng([sorted(TRANSFORMS).index(transform), int(tol < 1e-7)])
    systems = [qsys.random_system(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                                  omega=omega, coupling=coupling,
                                  scattering=scattering, c_relation=relation)
               for omega, coupling, scattering, relation in RANDOM_FAMILIES]
    systems += [make(rng, n) for make in SYSTEMS.values() for n in (1, 2, 4)]
    for sys_obj in systems:
        moved, _, _ = TRANSFORMS[transform](sys_obj, rng)
        assert _diagnosis(moved, tol) == _diagnosis(sys_obj, tol)


# the two-mode anchor target of tests/test_feedback.py
ANCHOR_OMEGA_MINUS = np.array([[2.0, 3.0 + 2.0j], [3.0 - 2.0j, 4.0]])
ANCHOR_OMEGA_PLUS = np.array([[2.0, 3.0 - 1.0j], [3.0 - 1.0j, 5.0]])


def _design(c):
    """The 32-start designer on the anchor in a time unit c = 4^j, each
    candidate mapped back to j = 0 (gains and reduced C+- / 2^j, reduced
    Omega+- / 4^j) as bytes, with its objective's hex and certified pairs."""
    g = np.sqrt(c)
    cands = feedback.design_couplings(c * ANCHOR_OMEGA_MINUS, c * ANCHOR_OMEGA_PLUS,
                                      (1, 1), search_cfg=feedback.SearchConfig())
    return [([(k / g).tobytes() for k in (d.k11, d.k12, d.k21, d.k22,
                                          d.reduced.c_minus, d.reduced.c_plus)]
             + [(o / c).tobytes() for o in (d.reduced.omega_minus, d.reduced.omega_plus)],
             d.objective.hex(), sorted(d.report.certified_pairs), d.report.consistency)
            for d in cands]


@pytest.mark.parametrize("j", [-10, 10])
def test_designer_is_exactly_time_unit_equivariant(j):
    """design_couplings searches on Omega / omega_scale, an even power of
    two, so in a time unit c = 4^j its candidates are the 1x search's
    scaled bit for bit: gains and reduced C+- times 2^j, reduced Omega+-
    times 4^j, the same objective (the unit problem's J) to the last bit
    and the same certified pairs. This holds for |j| <= 20 on the anchor,
    where no entry is subnormal or overflows; the test runs j = +-10."""
    ref = _design(1.0)
    assert len(ref) >= 180
    assert _design(4.0 ** j) == ref
