"""Linear quantum system model and its two state-space realizations.

A system is the parameter set (S, C-, C+, Omega-, Omega+) of an n-mode,
m-channel linear quantum system: scattering matrix S, coupling blocks
C-, C+ (L = C- a + C+ a^#), and Hamiltonian blocks Omega-, Omega+
(H = (1/2) adag_breve Delta(Omega-, Omega+) a_breve). Natural units, hbar=1.

Each ac_realization matrix is a doubled-up Delta(U, V), with quadrature image
[[Re(U+V), -Im(U-V)], [Im(U+V), Re(U-V)]]; quad_realization builds all four
from these closed forms, not by multiplying out V Delta(U, V) V^dag.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import ValidationError
from .matcore import (DEFAULT_TOL, delta, flat_adjoint, inf_norm, j_diag,
                      quadrature_image)


@dataclass(frozen=True)
class QuantumLinearSystem:
    """Validated (S, C-, C+, Omega-, Omega+) parameter set."""

    s: np.ndarray
    c_minus: np.ndarray
    c_plus: np.ndarray
    omega_minus: np.ndarray
    omega_plus: np.ndarray

    @property
    def n_modes(self):
        return self.c_minus.shape[1]

    @property
    def m_channels(self):
        return self.c_minus.shape[0]

    @property
    def omega(self):
        """The doubled-up Hamiltonian matrix Delta(Omega-, Omega+)."""
        return delta(self.omega_minus, self.omega_plus)

    @property
    def coupling(self):
        """The doubled-up coupling matrix Delta(C-, C+)."""
        return delta(self.c_minus, self.c_plus)


@dataclass(frozen=True)
class Realization:
    """State-space quadruple (A, B, C, D) in one of the two coordinate forms."""

    form: str  # "annihilation_creation" | "quadrature"
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def m_channels(self):
        return self.d.shape[0] // 2


def _as_matrix(x, name, shape):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape != shape:
        raise ValidationError([f"{name} has shape {x.shape}, expected {shape}"])
    matcore.check_finite(x, name)
    return x


def new_system(s, c_minus, c_plus, omega_minus, omega_plus, tol=DEFAULT_TOL):
    """Build a validated system; raises ValidationError naming every violation."""
    c_minus = np.atleast_2d(np.asarray(c_minus, dtype=complex))
    m, n = c_minus.shape
    violations = []
    checked = []
    for value, name, shape in ((s, "S", (m, m)), (c_plus, "C_plus", (m, n)),
                               (omega_minus, "Omega_minus", (n, n)),
                               (omega_plus, "Omega_plus", (n, n))):
        try:
            checked.append(_as_matrix(value, name, shape))
        except ValidationError as exc:
            violations += exc.violations
    if violations:
        raise ValidationError(violations)
    s, c_plus, omega_minus, omega_plus = checked

    matcore.check_finite(c_minus, "C_minus")
    if not matcore.is_unitary(s, tol):
        violations.append("S is not unitary within tolerance")
    # at the scale ||Omega+-||_inf, with no floor, as every structural test
    if not matcore._negligible(omega_minus - omega_minus.conj().T,
                               inf_norm(omega_minus), tol):
        violations.append("Omega_minus is not Hermitian within tolerance")
    if not matcore._negligible(omega_plus - omega_plus.T,
                               inf_norm(omega_plus), tol):
        violations.append("Omega_plus is not symmetric within tolerance")
    if violations:
        raise ValidationError(violations)
    return QuantumLinearSystem(s, c_minus, c_plus, omega_minus, omega_plus)


def ac_realization(sys):
    """Annihilation-creation form: C = Delta(C-,C+), D = Delta(S,0),
    B = -C^flat D, A = -i J_n Omega - (1/2) C^flat C."""
    n = sys.n_modes
    cc = sys.coupling
    dd = delta(sys.s, np.zeros_like(sys.s))
    cflat = flat_adjoint(cc)
    bb = -cflat @ dd
    aa = -1j * j_diag(n) @ sys.omega - 0.5 * cflat @ cc
    return Realization("annihilation_creation", aa, bb, cc, dd)


def quad_realization(sys):
    """Real quadrature form: each matrix of ac_realization conjugated by
    V_n, V_m, taken in closed form with matcore.quadrature_image.

    With C^flat C = Delta(C-^dag C- - C+^T C+^#, C-^dag C+ - C+^T C-^#) and
    -i J_n Delta(Omega-, Omega+) = Delta(-i Omega-, -i Omega+), the four
    doubled-up blocks are
    A: (-i Omega- - (1/2)(C-^dag C- - C+^T C+^#),
        -i Omega+ - (1/2)(C-^dag C+ - C+^T C-^#)),
    B = -C^flat Delta(S, 0): (-C-^dag S, C+^T S^#),
    C: (C-, C+) and D: (S, 0). Entries that the structure makes zero come
    out as exact zeros, where the conjugation leaves roundoff.
    """
    cm, cp, s = sys.c_minus, sys.c_plus, sys.s
    cmh, cpt = cm.conj().T, cp.T
    a = quadrature_image(
        -1j * sys.omega_minus - 0.5 * (cmh @ cm - cpt @ cp.conj()),
        -1j * sys.omega_plus - 0.5 * (cmh @ cp - cpt @ cm.conj()))
    return Realization("quadrature", a,
                       quadrature_image(-cmh @ s, cpt @ s.conj()),
                       quadrature_image(cm, cp), quadrature_image(s))


def random_system(rng, n, m, omega="generic", coupling="generic",
                  scattering="identity", c_relation="free"):
    """Draw a random valid system exercising a chosen structural family.

    omega: "generic" | "imag" | "zero" | "equal_re" | "opposite_re"
    coupling: "generic" | "real" | "imag" | "zero"
    scattering: "identity" | "real" | "imag" | "generic"
    c_relation: "free" | "equal" | "opposite"  (forces C+ = +/- C-)
    """
    def ginibre(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    re_sym = lambda: _sym(rng.standard_normal((n, n)))
    im_antisym = lambda: _antisym(rng.standard_normal((n, n)))
    im_sym = lambda: _sym(rng.standard_normal((n, n)))

    if omega == "generic":
        om = _herm(ginibre(n, n))
        op = _sym(ginibre(n, n))
    elif omega == "imag":
        om = 1j * im_antisym()
        op = 1j * im_sym()
    elif omega == "zero":
        om = np.zeros((n, n), dtype=complex)
        op = np.zeros((n, n), dtype=complex)
    elif omega in ("equal_re", "opposite_re"):
        re = re_sym()
        om = re + 1j * im_antisym()
        op = (re if omega == "equal_re" else -re) + 1j * im_sym()
    else:
        raise ValueError(f"unknown omega family {omega!r}")

    if coupling == "generic":
        cm, cp = ginibre(m, n), ginibre(m, n)
    elif coupling == "real":
        cm = rng.standard_normal((m, n)) + 0j
        cp = rng.standard_normal((m, n)) + 0j
    elif coupling == "imag":
        cm = 1j * rng.standard_normal((m, n))
        cp = 1j * rng.standard_normal((m, n))
    elif coupling == "zero":
        cm = np.zeros((m, n), dtype=complex)
        cp = np.zeros((m, n), dtype=complex)
    else:
        raise ValueError(f"unknown coupling family {coupling!r}")
    if c_relation == "equal":
        cp = cm.copy()
    elif c_relation == "opposite":
        cp = -cm.copy()

    if scattering == "identity":
        s = np.eye(m, dtype=complex)
    elif scattering == "real":
        s = _orthogonal(rng, m) + 0j
    elif scattering == "imag":
        s = 1j * _orthogonal(rng, m)
    elif scattering == "generic":
        s = _unitarize(ginibre(m, m))
    else:
        raise ValueError(f"unknown scattering family {scattering!r}")

    return new_system(s, cm, cp, om, op)


def _sym(x):
    return (x + x.T) / 2


def _antisym(x):
    return (x - x.T) / 2


def _herm(x):
    return (x + x.conj().T) / 2


def _unitarize(x):
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def _orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def michelson_system(mass=1.0, omega_m=1.0, lam=1.0):
    """Two-mode interferometer model with purely imaginary equal couplings.

    Omega blocks are diagonal, C- = C+ = (sqrt(lam)/2) [[i, i],[i, -i]], S = I.
    """
    w_minus = 0.5 * (mass * omega_m**2 + 1.0 / mass)
    w_plus = 0.5 * (mass * omega_m**2 - 1.0 / mass)
    om = w_minus * np.eye(2, dtype=complex)
    op = w_plus * np.eye(2, dtype=complex)
    c = (np.sqrt(lam) / 2.0) * np.array([[1j, 1j], [1j, -1j]])
    return new_system(np.eye(2), c, c.copy(), om, op)
