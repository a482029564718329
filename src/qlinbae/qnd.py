"""Quantum-nondemolition interaction checks and related closed forms.

Everything here works at the parameter level: commutator coefficients of the
coupling operators with the quadratic Hamiltonian, single-channel criteria,
closed-form transfer functions in tractable families, and observability-based
reports for systems that possess a QND variable.
"""

from dataclasses import dataclass

import numpy as np

from .bae import _Verdicts
from .errors import InternalConsistencyError, PreconditionError
from .matcore import (DEFAULT_TOL, _negligible, delta, inf_norm, krylov_basis,
                      staircase)
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
    """||C||_inf ||Omega||_inf, the scale of every commutator coefficient,
    with no floor: a change of time unit scales both alike."""
    return inf_norm(sys.coupling) * inf_norm(sys.omega)


def is_qnd_interaction(sys, tol=DEFAULT_TOL):
    """True when every coupling operator commutes with the Hamiltonian.

    Computed two ways — from the commutator coefficients and from the
    doubled-up identity that the coupling-times-Hamiltonian matrix collapses
    to twice its annihilation-only part — and the two verdicts must agree.
    """
    return _qnd_interaction(sys, tol)[0]


def _qnd_interaction(sys, tol):
    """is_qnd_interaction's verdict and the commutator coefficients it was
    read from, for callers that report the coefficients as well."""
    coeffs = commutator_coeffs(sys)
    scale = _interaction_scale(sys)
    direct = _negligible(coeffs.max_norm(), scale, tol)

    collapsed = (sys.coupling - 2.0 * delta(sys.c_minus,
                                            np.zeros_like(sys.c_plus))) @ sys.omega
    alt = _negligible(collapsed, scale, tol)
    if direct != alt:
        raise InternalConsistencyError(
            "commutator-coefficient and doubled-up interaction tests disagree: "
            f"coeff norm {coeffs.max_norm():.3e}, collapsed norm "
            f"{inf_norm(collapsed):.3e}, tol*scale {tol * scale:.3e}"
        )
    return direct, coeffs


# L = L^dag channelwise, and [L_j, L_k] = 0 for all j, k, as hypotheses
COUPLING_PROPERTIES = {"self_adjoint": "C- = C+^#",
                       "mutually_commuting": "C- C+^T symmetric"}


def coupling_properties(sys, tol=DEFAULT_TOL):
    """{property: verdict} for each of COUPLING_PROPERTIES."""
    holds = _Verdicts(sys, tol)
    return {name: holds[h] for name, h in COUPLING_PROPERTIES.items()}


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
    if _negligible(q_res, scale, tol):
        which = "q"
    elif _negligible(p_res, scale, tol):
        which = "p"
    else:
        which = "none"
    return SISOAnalysis(gain=g, which_quadrature=which,
                        q_residual=q_res, p_residual=p_res)


# each tractable family and the hypothesis that its named block vanishes
SPECIAL_CASES = {"Cplus_zero": "C+ = 0", "Cminus_zero": "C- = 0",
                 "Omegaplus_zero": "Omega+ = 0", "Omegaminus_zero": "Omega- = 0"}


def special_case_tf(sys, case, s, tol=DEFAULT_TOL):
    """Closed-form annihilation/creation-basis transfer function for the four
    tractable families: identity scattering, a coupling that commutes with
    the Hamiltonian, the named block zero relative to its pair (C-, C+) or
    (Omega-, Omega+), so in any time unit, and for the Omega cases C- C+^T
    symmetric. Each hypothesis but the commutator is a bae._PREDICATES row. The result, independent of Omega, is blockdiag of
    (sI - A)(sI + A)^{-1} and its conjugate, A = (C- C-^dag - C+ C+^dag) / 2.
    """
    if case not in SPECIAL_CASES:
        raise PreconditionError(
            f"unknown case {case!r}; expected one of {tuple(SPECIAL_CASES)}")
    holds = _Verdicts(sys, tol)
    if not holds["S = I"]:
        raise PreconditionError("special_case_tf requires identity scattering")
    if not is_qnd_interaction(sys, tol):
        raise PreconditionError(
            "special_case_tf requires a coupling that commutes with the Hamiltonian"
        )
    if not holds[SPECIAL_CASES[case]]:
        raise PreconditionError(f"case {case} requires the named block to vanish")
    if case.startswith("Omega") and not holds["C- C+^T symmetric"]:
        raise PreconditionError(f"case {case} requires C- C+^T symmetric")
    cm, cp = sys.c_minus, sys.c_plus
    dyn = 0.5 * (cm @ cm.conj().T - cp @ cp.conj().T)
    m = sys.m_channels
    s = complex(s)
    eye = np.eye(m)
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, :m] = (s * eye - dyn) @ np.linalg.inv(s * eye + dyn)
    out[m:, m:] = (s * eye - dyn.conj()) @ np.linalg.inv(s * eye + dyn.conj())
    return out


def observability_rank(a, c, tol=DEFAULT_TOL):
    """Dimension of the observable subspace of (A, C), reachable for (A^H, C^H)."""
    a, c = np.atleast_2d(a, c)
    return krylov_basis(a.conj().T, c.conj().T, tol).shape[1]


@dataclass(frozen=True)
class ObservabilityWitness:
    output: str  # the output quadrature, "q" or "p"
    rank: int
    full: bool


@dataclass(frozen=True)
class QNDVariableReport:
    q_is_qnd: bool
    p_is_qnd: bool
    case_matched: str
    dimension: int
    basis: np.ndarray
    isotropy_residual: float
    witnesses: tuple


# case_matched: the first case whose hypotheses (bae._PREDICATES) all hold,
# p before q; the sign tests decide first. For tol < 1 both signs hold only
# at C = 0, and a C with C- = +-C+ is real or imaginary iff both blocks are.
QND_CASES = (
    ("no_case_matched (zero coupling)", ("C- = C+", "C- = -C+")),
    ("p_coupling", ("C- = -C+", "Omega- = -Omega+")),
    ("q_coupling", ("C- = C+", "Omega- = Omega+")),
    ("imag_omega_p", ("C- = -C+", "Omega purely imaginary", "C real")),
    ("imag_omega_p", ("C- = -C+", "Omega purely imaginary", "C purely imaginary")),
    ("imag_omega_q", ("C- = C+", "Omega purely imaginary", "C real")),
    ("imag_omega_q", ("C- = C+", "Omega purely imaginary", "C purely imaginary")),
    ("passive_real (no QND variable)", ("C+ = 0", "C real", "Omega- = Omega+")),
)


def _case_name(sys, tol):
    """The first of QND_CASES whose hypotheses hold, each evaluated once."""
    holds = _Verdicts(sys, tol)
    return next((name for name, hypotheses in QND_CASES
                 if all(holds[h] for h in hypotheses)), "no_case_matched")


def qnd_variable_report(sys, tol=DEFAULT_TOL):
    """QND variables of the quadrature realization x' = Ax + Bu, y = Cx + Du.

    The variables v^T x that no input drives and whose derivatives are again
    such variables span the orthogonal complement V of the reachable
    subspace of (A, B) (matcore.krylov_basis), a quantum-mechanics-free
    subsystem (Tsang & Caves, PRX 2, 031016, 2012), in any frame. Reported:
    V's dimension and orthonormal basis, ||V^T J V||_2 (0 when the variables
    commute), and per output quadrature x the observability rank of
    (V^T A V, C_x V), with the cuts tol ||C||_F and tol ||A||_F of the whole
    system, as V^T A V can be pure roundoff. q_is_qnd (p_is_qnd): V holds
    span(q) (span(p)), as the q (p) rows of the reachable basis vanish to
    tol, and a witness is full. case_matched is only a diagnosis.
    """
    r = quad_realization(sys)
    n, m = sys.n_modes, sys.m_channels
    a_cut = tol * np.linalg.norm(r.a)
    reach = staircase(r.a, r.b, tol * np.linalg.norm(r.b), a_cut)
    dim = 2 * n - reach.shape[1]
    v = np.linalg.qr(reach, mode="complete")[0][:, -dim:] if dim else reach[:, :0]
    witnesses, isotropy = (), 0.0
    if dim:
        vq, vp = v[:n], v[n:]
        isotropy = float(np.linalg.norm(vq.T @ vp - vp.T @ vq, 2))  # V^T J V
        a_v, c_cut = v.T @ r.a @ v, tol * np.linalg.norm(r.c)
        for x, rows in (("q", slice(0, m)), ("p", slice(m, 2 * m))):
            k = staircase(a_v.T, (r.c[rows] @ v).T, c_cut, a_cut).shape[1]
            witnesses += (ObservabilityWitness(x, k, k == dim),)
    full = any(w.full for w in witnesses)
    return QNDVariableReport(
        q_is_qnd=bool(full and np.linalg.norm(reach[:n]) <= tol),
        p_is_qnd=bool(full and np.linalg.norm(reach[n:]) <= tol),
        case_matched=_case_name(sys, tol), dimension=dim, basis=v,
        isotropy_residual=isotropy, witnesses=witnesses)
