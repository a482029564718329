"""Quantum-nondemolition interaction checks and related closed forms.

Everything here works at the parameter level: commutator coefficients of the
coupling operators with the quadratic Hamiltonian, single-channel criteria,
closed-form transfer functions in tractable families, and observability-based
reports for systems that possess a QND variable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from .matcore import DEFAULT_TOL, close_to, delta, inf_norm
from .qsys import quad_realization


@dataclass(frozen=True)
class CommutatorCoefficients:
    """Coefficient matrices of [L, H] and [L^#, H] in the (a, a^dag) basis.

    [L_j, H] = sum_k coeff_a[j,k] a_k + coeff_adag[j,k] a_k^dag, and
    analogously for the conjugate channel operators.
    """

    coeff_a: np.ndarray
    coeff_adag: np.ndarray
    conj_coeff_a: np.ndarray
    conj_coeff_adag: np.ndarray

    def max_norm(self):
        return max(inf_norm(self.coeff_a), inf_norm(self.coeff_adag),
                   inf_norm(self.conj_coeff_a), inf_norm(self.conj_coeff_adag))


def commutator_coeffs(sys):
    """coeff_a = C- Omega- - C+ Omega+^dag, coeff_adag = C- Omega+ - C+ Omega-^T;
    the conjugate-channel coefficients follow by conjugation and swapping."""
    cm, cp = sys.c_minus, sys.c_plus
    om, op = sys.omega_minus, sys.omega_plus
    return CommutatorCoefficients(
        coeff_a=cm @ om - cp @ op.conj().T,
        coeff_adag=cm @ op - cp @ om.T,
        conj_coeff_a=cp.conj() @ om - cm.conj() @ op.conj().T,
        conj_coeff_adag=cp.conj() @ op - cm.conj() @ om.T,
    )


def _interaction_scale(sys):
    return max(inf_norm(sys.coupling) * inf_norm(sys.omega), 1.0)


def is_qnd_interaction(sys, tol=DEFAULT_TOL):
    """True when every coupling operator commutes with the Hamiltonian.

    Computed two ways — from the commutator coefficients and from the
    doubled-up identity that the coupling-times-Hamiltonian matrix collapses
    to twice its annihilation-only part — and the two verdicts must agree.
    """
    coeffs = commutator_coeffs(sys)
    scale = _interaction_scale(sys)
    direct = coeffs.max_norm() <= tol * scale

    collapsed = (sys.coupling - 2.0 * delta(sys.c_minus,
                                            np.zeros_like(sys.c_plus))) @ sys.omega
    alt = inf_norm(collapsed) <= tol * scale
    if direct != alt:
        raise InternalConsistencyError(
            "commutator-coefficient and doubled-up interaction tests disagree: "
            f"coeff norm {coeffs.max_norm():.3e}, collapsed norm "
            f"{inf_norm(collapsed):.3e}, tol*scale {tol * scale:.3e}"
        )
    return direct


def coupling_properties(sys, tol=DEFAULT_TOL):
    """self_adjoint: L = L^dag channelwise, i.e. C- = C+^#.
    mutually_commuting: [L_j, L_k] = 0 for all j,k, i.e. C- C+^T symmetric."""
    cm, cp = sys.c_minus, sys.c_plus
    cross = cm @ cp.T
    scale = max(inf_norm(cm), inf_norm(cp), 1.0)
    return {
        "self_adjoint": close_to(cm, cp.conj(), tol),
        "mutually_commuting": inf_norm(cross - cross.T) <= tol * scale ** 2,
    }


@dataclass(frozen=True)
class SISOAnalysis:
    gain: float
    which_quadrature: str  # "q", "p", or "none"
    q_residual: float
    p_residual: float

    def tf_at(self, s):
        """All-pass transfer (s - g/2)/(s + g/2) carried by the conserved
        quadrature; only meaningful when which_quadrature != 'none'."""
        s = complex(s)
        return (s - self.gain / 2.0) / (s + self.gain / 2.0)


def siso_analysis(sys, tol=DEFAULT_TOL):
    """Single-channel criteria for the self-adjoint quadratures of L.

    With u = C- + C+^# and w = C- - C+^#, the quadrature L + L^dag (resp.
    L - L^dag) commutes with H iff u Omega- = (u Omega+)^# (resp. the same
    with w). g = sum_j (|C-_j|^2 - |C+_j|^2) is the net channel gain.
    """
    if sys.m_channels != 1:
        raise PreconditionError("siso_analysis requires a single channel")
    cm, cp = sys.c_minus, sys.c_plus
    om, op = sys.omega_minus, sys.omega_plus
    g = float(np.sum(np.abs(cm) ** 2) - np.sum(np.abs(cp) ** 2))
    u = cm + cp.conj()
    w = cm - cp.conj()
    scale = _interaction_scale(sys)
    q_res = float(inf_norm(u @ om - (u @ op).conj()))
    p_res = float(inf_norm(w @ om - (w @ op).conj()))
    if q_res <= tol * scale:
        which = "q"
    elif p_res <= tol * scale:
        which = "p"
    else:
        which = "none"
    return SISOAnalysis(gain=g, which_quadrature=which,
                        q_residual=q_res, p_residual=p_res)


SPECIAL_CASES = ("Cplus_zero", "Cminus_zero", "Omegaplus_zero", "Omegaminus_zero")


def special_case_tf(sys, case, s, tol=DEFAULT_TOL):
    """Closed-form annihilation/creation-basis transfer function for the four
    tractable families, each requiring identity scattering and a coupling
    that commutes with the Hamiltonian. The result is block diagonal and
    independent of Omega:

    Cplus_zero:      blockdiag of (sI - A)(sI + A)^{-1} and its entrywise
                     conjugate, A = C- C-^dag / 2.
    Cminus_zero:     same with A = -C+ C+^dag / 2.
    Omegaplus_zero / Omegaminus_zero (additionally require C- C+^T
                     symmetric): A = (C- C-^dag - C+ C+^dag) / 2.
    """
    if case not in SPECIAL_CASES:
        raise PreconditionError(f"unknown case {case!r}; expected one of {SPECIAL_CASES}")
    if not close_to(sys.s, np.eye(sys.m_channels), tol):
        raise PreconditionError("special_case_tf requires identity scattering")
    if not is_qnd_interaction(sys, tol):
        raise PreconditionError(
            "special_case_tf requires a coupling that commutes with the Hamiltonian"
        )
    cm, cp = sys.c_minus, sys.c_plus
    if case == "Cplus_zero":
        if inf_norm(cp) > tol:
            raise PreconditionError("case Cplus_zero requires C+ = 0")
        dyn = 0.5 * cm @ cm.conj().T
    elif case == "Cminus_zero":
        if inf_norm(cm) > tol:
            raise PreconditionError("case Cminus_zero requires C- = 0")
        dyn = -0.5 * cp @ cp.conj().T
    else:
        zeroed = sys.omega_plus if case == "Omegaplus_zero" else sys.omega_minus
        if inf_norm(zeroed) > tol:
            raise PreconditionError(f"case {case} requires the named Omega block to vanish")
        if not coupling_properties(sys, tol)["mutually_commuting"]:
            raise PreconditionError(f"case {case} requires C- C+^T symmetric")
        dyn = 0.5 * (cm @ cm.conj().T - cp @ cp.conj().T)
    m = sys.m_channels
    s = complex(s)
    eye = np.eye(m)
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, :m] = (s * eye - dyn) @ np.linalg.inv(s * eye + dyn)
    out[m:, m:] = (s * eye - dyn.conj()) @ np.linalg.inv(s * eye + dyn.conj())
    return out


def observability_rank(a, c, tol=DEFAULT_TOL):
    """Numerical rank of the stacked observability matrix [C; CA; ...;
    CA^{n-1}], via singular values with threshold tol * sigma_max."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    n = a.shape[0]
    rows = [c]
    for _ in range(n - 1):
        rows.append(rows[-1] @ a)
    stacked = np.vstack(rows)
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def is_observable(a, c, tol=DEFAULT_TOL):
    return observability_rank(a, c, tol) == np.atleast_2d(a).shape[0]


@dataclass(frozen=True)
class ObservabilityWitness:
    pair_label: str
    rank: int
    full: bool


@dataclass(frozen=True)
class QNDVariableReport:
    q_is_qnd: bool
    p_is_qnd: bool
    case_matched: str
    structural_rows_vanish: bool
    witnesses: tuple


def _rows_vanish(r, rows, other, tol, scale):
    """True when the drift of one quadrature's state rows involves neither the
    other quadrature's states nor the inputs."""
    res = max(inf_norm(r.a[rows, other]), inf_norm(r.b[rows, :]))
    return res <= tol * scale


def _witness(label, a_sub, c_sub, tol):
    rank = observability_rank(a_sub, c_sub, tol)
    return ObservabilityWitness(label, rank, rank == a_sub.shape[0])


def qnd_variable_report(sys, tol=DEFAULT_TOL):
    """Identify a QND quadrature from the structural coupling/Hamiltonian
    cases, confirming both that the quadrature's state rows are driven by
    nothing but itself and that the cited observability test passes.

    Cases handled, in this order, each first for p (sign -1) and then for q
    (sign +1):
      p_coupling / q_coupling (C- = sign C+, Omega- = sign Omega+): the
        quadrature evolves autonomously; it is QND if (Im Omega-, sign Im C-)
        or (Im Omega-, Re C-) is observable.
      imag_omega_p / imag_omega_q (Omega purely imaginary, each coupling block
        real or purely imaginary, C- = sign C+ without the Omega sign pairing):
        the quadrature is QND if (i(Omega- + sign Omega+), C-) is observable.
      passive_real (C+ = 0, C- real, Omega- = Omega+): the transfer function
        is block diagonal but no quadrature decouples — no QND variable.
    """
    cm, cp = sys.c_minus, sys.c_plus
    om, op = sys.omega_minus, sys.omega_plus
    n = sys.n_modes
    cscale = max(inf_norm(cm), inf_norm(cp), 1.0)
    oscale = max(inf_norm(om), inf_norm(op), 1.0)
    if inf_norm(cm) <= tol and inf_norm(cp) <= tol:
        return QNDVariableReport(False, False, "no_case_matched (zero coupling)",
                                 False, ())
    r = quad_realization(sys)
    scale = max(inf_norm(r.a), inf_norm(r.b), 1.0)
    omega_imag = (inf_norm(np.real(om)) <= tol * oscale
                  and inf_norm(np.real(op)) <= tol * oscale)
    blocks_pure = all(
        inf_norm(np.real(x)) <= tol * cscale or inf_norm(np.imag(x)) <= tol * cscale
        for x in (cm, cp)
    )
    q_rows, p_rows = slice(0, n), slice(n, 2 * n)

    for case in ("coupling", "imag_omega"):
        for quad, sign, rows, other in (("p", -1.0, p_rows, q_rows),
                                        ("q", 1.0, q_rows, p_rows)):
            if not close_to(cm, sign * cp, tol):
                continue
            if case == "coupling":
                if not (close_to(om, sign * op, tol) and inf_norm(cm) > tol):
                    continue
                name = f"{quad}_coupling"
                im_label = "(-Im C-)" if quad == "p" else "(Im C-)"
                witnesses = tuple(
                    _witness(f"(Im Omega-, {lbl})", np.imag(om), c_sub, tol)
                    for lbl, c_sub in ((im_label, sign * np.imag(cm)),
                                       ("(Re C-)", np.real(cm))))
            else:
                if not (omega_imag and blocks_pure):
                    continue
                name = f"imag_omega_{quad}"
                op_sign = "-" if quad == "p" else "+"
                witnesses = (_witness(f"(i(Omega- {op_sign} Omega+), C-)",
                                      np.real(1j * (om + sign * op)), cm, tol),)
            structural = _rows_vanish(r, rows, other, tol, scale)
            verdict = structural and any(w.full for w in witnesses)
            return QNDVariableReport(quad == "q" and verdict,
                                     quad == "p" and verdict,
                                     name, structural, witnesses)

    if (inf_norm(cp) <= tol * cscale and inf_norm(np.imag(cm)) <= tol * cscale
            and close_to(om, op, tol)):
        return QNDVariableReport(False, False, "passive_real (no QND variable)",
                                 False, ())

    return QNDVariableReport(False, False, "no_case_matched", False, ())
