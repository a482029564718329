"""Back-action-evasion diagnosis and certification.

A data-driven catalog maps structural hypotheses on (S, Omega, C) to the
quadrature transfer-function blocks they force to zero; certification
recomputes the blocks from the state-space realization and checks that
every matched condition's prediction is actually certified.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matcore import DEFAULT_TOL, close_to, inf_norm, is_imag, is_real
from .qsys import quad_realization
from .xferfn import block_pattern

# transfer pairs, named (output_quadrature, input_quadrature)
QP = ("q_out", "p_in")
PQ = ("p_out", "q_in")
QQ = ("q_out", "q_in")
PP = ("p_out", "p_in")

_PAIR_FOR_BLOCK = {"qp": QP, "pq": PQ, "qq": QQ, "pp": PP}


def _hyp_s_real(sys, tol):
    return is_real(sys.s, tol)


def _hyp_s_imag(sys, tol):
    return is_imag(sys.s, tol)


# Delta(U, V) holds U, V and their conjugates, so a test of the stacked
# blocks (U, V) at their joint scale reads the same floats as a test of
# Delta(U, V) without building it.

def _hyp_c_real(sys, tol):
    return is_real((sys.c_minus, sys.c_plus), tol)


def _hyp_c_imag(sys, tol):
    return is_imag((sys.c_minus, sys.c_plus), tol)


def _hyp_omega_imag(sys, tol):
    return is_imag((sys.omega_minus, sys.omega_plus), tol)


def _hyp_equal_re_omega(sys, tol):
    return close_to(np.real(sys.omega_minus), np.real(sys.omega_plus), tol)


def _hyp_opposite_re_omega(sys, tol):
    return close_to(np.real(sys.omega_minus), -np.real(sys.omega_plus), tol)


def _hyp_c_equal(sys, tol):
    return close_to(sys.c_minus, sys.c_plus, tol)


def _hyp_c_opposite(sys, tol):
    return close_to(sys.c_minus, -sys.c_plus, tol)


_PREDICATES = {
    "S real": _hyp_s_real,
    "S purely imaginary": _hyp_s_imag,
    "C real": _hyp_c_real,
    "C purely imaginary": _hyp_c_imag,
    "Omega purely imaginary": _hyp_omega_imag,
    "Re(Omega-) = Re(Omega+)": _hyp_equal_re_omega,
    "Re(Omega-) = -Re(Omega+)": _hyp_opposite_re_omega,
    "C- = C+": _hyp_c_equal,
    "C- = -C+": _hyp_c_opposite,
}


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
    each of the distinct predicates once."""
    holds = {h: predicate(sys, tol) for h, predicate in _PREDICATES.items()}
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
    if not _hyp_omega_imag(sys, tol):
        raise PreconditionError("closed_form_diag_tf requires purely imaginary Omega")
    if not _hyp_c_real(sys, tol):
        raise PreconditionError("closed_form_diag_tf requires a real coupling matrix")
    if not _hyp_s_real(sys, tol):
        raise PreconditionError("closed_form_diag_tf requires a real scattering matrix")
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
