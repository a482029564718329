"""Back-action-evasion diagnosis and certification.

A data-driven catalog maps structural hypotheses on (S, Omega, C) to the
quadrature transfer-function blocks they force to zero; certification
recomputes the blocks from the state-space realization and checks that
every matched condition's prediction is actually certified.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matcore import DEFAULT_TOL, _negligible, inf_norm
from .qsys import quad_realization
from .xferfn import block_pattern

# transfer pairs, named (output_quadrature, input_quadrature)
QP = ("q_out", "p_in")
PQ = ("p_out", "q_in")
QQ = ("q_out", "q_in")
PP = ("p_out", "p_in")

_PAIR_FOR_BLOCK = {"qp": QP, "pq": PQ, "qq": QQ, "pp": PP}


# the blocks a hypothesis is measured against, by name
_BLOCKS = {"S": lambda sys: (sys.s,),
           "C": operator.attrgetter("c_minus", "c_plus"),
           "Omega": operator.attrgetter("omega_minus", "omega_plus")}


# Every structural hypothesis on (S, C-+, Omega-+) that bae and qnd test, as
# (blocks, power, residual): it holds when ||residual(*blocks)|| <= tol *
# scale ** power, scale = max ||block||, with no floor (matcore._negligible).
# A test of the stacked (U, V) at their joint scale reads the same floats as
# one of Delta(U, V); a block set to zero is measured against its pair. The
# three rows feedback.design_couplings targets take blocks with leading batch
# axes, and flatten to its residual: Omega stacked as [Omega-, Omega+], C
# row-wise as [C- C+].
_PREDICATES = {
    "S real": ("S", 1, np.imag),
    "S purely imaginary": ("S", 1, np.real),
    "S = I": ("S", 1, lambda s: s - np.eye(len(s))),
    "C real": ("C", 1, lambda u, v: np.imag(np.concatenate((u, v), axis=-1))),
    "C purely imaginary": ("C", 1,
                           lambda u, v: np.real(np.concatenate((u, v), axis=-1))),
    "Omega purely imaginary": ("Omega", 1,
                               lambda u, v: np.real(np.stack((u, v), axis=-3))),
    "Re(Omega-) = Re(Omega+)": ("Omega", 1, lambda u, v: (u - v).real),
    "Re(Omega-) = -Re(Omega+)": ("Omega", 1, lambda u, v: (u + v).real),
    "Omega- = Omega+": ("Omega", 1, operator.sub),
    "Omega- = -Omega+": ("Omega", 1, operator.add),
    "Omega- = 0": ("Omega", 1, lambda u, v: u),
    "Omega+ = 0": ("Omega", 1, lambda u, v: v),
    "C- = C+": ("C", 1, operator.sub),
    "C- = -C+": ("C", 1, operator.add),
    "C- = 0": ("C", 1, lambda u, v: u),
    "C+ = 0": ("C", 1, lambda u, v: v),
    "C- = C+^#": ("C", 1, lambda u, v: u - v.conj()),
    "C- C+^T symmetric": ("C", 2, lambda u, v: (cross := u @ v.T) - cross.T),
}


class _Verdicts(dict):
    """{hypothesis: verdict} of one system at one tol: each hypothesis is
    tested on the first lookup of its name only, and each set of blocks'
    scale is taken once."""

    def __init__(self, sys, tol):
        super().__init__()
        self.sys, self.tol, self.scales = sys, tol, {}

    def __missing__(self, hypothesis):
        name, power, residual = _PREDICATES[hypothesis]
        blocks = _BLOCKS[name](self.sys)
        if name not in self.scales:
            self.scales[name] = max(map(inf_norm, blocks))
        self[hypothesis] = verdict = _negligible(
            residual(*blocks), self.scales[name] ** power, self.tol)
        return verdict


@dataclass(frozen=True)
class Condition:
    condition_id: str
    hypotheses: tuple
    predicted_pairs: frozenset


# Sufficient-condition catalog. Bilateral entries force a block-diagonal or
# block-off-diagonal transfer function; unilateral entries force a single
# triangular zero block; the coupling-symmetry entries need no Hamiltonian
# hypothesis at all.
CONDITION_CATALOG = (
    Condition("bilateral_diag_real_coupling",
              ("S real", "Omega purely imaginary", "C real"),
              frozenset({QP, PQ})),
    Condition("bilateral_diag_imag_coupling",
              ("S real", "Omega purely imaginary", "C purely imaginary"),
              frozenset({QP, PQ})),
    Condition("bilateral_offdiag_real_coupling",
              ("S purely imaginary", "Omega purely imaginary", "C real"),
              frozenset({QQ, PP})),
    Condition("bilateral_offdiag_imag_coupling",
              ("S purely imaginary", "Omega purely imaginary",
               "C purely imaginary"),
              frozenset({QQ, PP})),
    Condition("equal_re_omega_S_real_C_real",
              ("Re(Omega-) = Re(Omega+)", "S real", "C real"),
              frozenset({QP})),
    Condition("equal_re_omega_S_real_C_imag",
              ("Re(Omega-) = Re(Omega+)", "S real", "C purely imaginary"),
              frozenset({PQ})),
    Condition("equal_re_omega_S_imag_C_real",
              ("Re(Omega-) = Re(Omega+)", "S purely imaginary", "C real"),
              frozenset({QQ})),
    Condition("equal_re_omega_S_imag_C_imag",
              ("Re(Omega-) = Re(Omega+)", "S purely imaginary",
               "C purely imaginary"),
              frozenset({PP})),
    Condition("opposite_re_omega_S_real_C_real",
              ("Re(Omega-) = -Re(Omega+)", "S real", "C real"),
              frozenset({PQ})),
    Condition("opposite_re_omega_S_real_C_imag",
              ("Re(Omega-) = -Re(Omega+)", "S real", "C purely imaginary"),
              frozenset({QP})),
    Condition("opposite_re_omega_S_imag_C_real",
              ("Re(Omega-) = -Re(Omega+)", "S purely imaginary", "C real"),
              frozenset({PP})),
    Condition("opposite_re_omega_S_imag_C_imag",
              ("Re(Omega-) = -Re(Omega+)", "S purely imaginary",
               "C purely imaginary"),
              frozenset({QQ})),
    Condition("q_coupling_imag_C",
              ("S real", "C purely imaginary", "C- = C+"),
              frozenset({QP})),
    Condition("p_coupling_imag_C",
              ("S real", "C purely imaginary", "C- = -C+"),
              frozenset({PQ})),
)


@dataclass(frozen=True)
class MatchedCondition:
    condition_id: str
    hypotheses_checked: dict
    predicted_pairs: frozenset


@dataclass(frozen=True)
class BAEReport:
    certified_pairs: frozenset
    matched_conditions: tuple
    consistency: bool
    pattern: object  # xferfn.BlockPattern


def diagnose_conditions(sys, tol=DEFAULT_TOL):
    """Evaluate every cataloged hypothesis set against the parameter set,
    each predicate the catalog names once."""
    holds = _Verdicts(sys, tol)
    matched = []
    for cond in CONDITION_CATALOG:
        checked = {h: holds[h] for h in cond.hypotheses}
        if all(checked.values()):
            matched.append(
                MatchedCondition(cond.condition_id, checked, cond.predicted_pairs)
            )
    return matched


def certify_bae(sys, tol=DEFAULT_TOL):
    """Certify zero transfer pairs from the realization and reconcile them
    with the catalog's predictions."""
    matched = diagnose_conditions(sys, tol)
    pattern = block_pattern(quad_realization(sys), tol=tol)
    certified = frozenset(
        _PAIR_FOR_BLOCK[name] for name in pattern.zero_blocks()
    )
    consistency = all(
        m.predicted_pairs <= certified for m in matched
    )
    return BAEReport(certified, tuple(matched), consistency, pattern)


def closed_form_diag_tf(sys, s, tol=DEFAULT_TOL):
    """Diagonal-block transfer functions under the block-diagonal hypotheses
    (Omega purely imaginary, C and S real).

    G_q[s] = S - Cq [sI + i(Omega- + Omega+) + (1/2) Cp^T Cq]^{-1} Cp^T S,
    G_p[s] = S - Cp [sI + i(Omega- - Omega+) + (1/2) Cq^T Cp]^{-1} Cq^T S,
    with Cq = C- + C+ and Cp = C- - C+. The trailing S factor makes the
    expressions exact for any real unitary S, not just S = I.
    """
    holds = _Verdicts(sys, tol)
    for h, what in (("Omega purely imaginary", "purely imaginary Omega"),
                    ("C real", "a real coupling matrix"),
                    ("S real", "a real scattering matrix")):
        if not holds[h]:
            raise PreconditionError(f"closed_form_diag_tf requires {what}")
    n = sys.n_modes
    s = complex(s)
    cq = np.real(sys.c_minus + sys.c_plus)
    cp = np.real(sys.c_minus - sys.c_plus)
    s_mat = np.real(sys.s)
    om, op = sys.omega_minus, sys.omega_plus
    mq = s * np.eye(n) + 1j * (om + op) + 0.5 * cp.T @ cq
    mp = s * np.eye(n) + 1j * (om - op) + 0.5 * cq.T @ cp
    gq = s_mat - cq @ np.linalg.solve(mq, cp.T @ s_mat)
    gp = s_mat - cp @ np.linalg.solve(mp, cq.T @ s_mat)
    return gq, gp
