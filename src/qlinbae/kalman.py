"""Back-action-evasion criteria for the controllable-and-observable
subsystem of a canonically decomposed quadrature model.

The module does not compute the canonical decomposition itself; callers
supply the pre-partitioned real matrices (A_co, B_co, C_co) or the complex
coupling blocks (Gamma_co_q, Gamma_co_p) from which the real matrices are
assembled.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .matcore import DEFAULT_TOL, _negligible, check_finite, inf_norm, j_sym

MARKOV_ORDER = 6


@dataclass(frozen=True)
class KalmanCoSubsystem:
    """Controllable-and-observable block with quadrature partitions.

    a_co: 2r x 2r, b_co: 2r x 2m split columnwise [B_q | B_p],
    c_co: 2m x 2r split rowwise [C_q ; C_p]. gamma_q / gamma_p, when given,
    are the m x r complex coupling blocks with
    C_co = sqrt(2) [[Re gamma_q, Re gamma_p], [Im gamma_q, Im gamma_p]].
    """

    a_co: np.ndarray
    b_co: np.ndarray
    c_co: np.ndarray
    gamma_q: np.ndarray = None
    gamma_p: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.a_co, dtype=float)
        b = np.asarray(self.b_co, dtype=float)
        c = np.asarray(self.c_co, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise DimensionError(f"a_co must be square with even size, got {a.shape}")
        if b.shape[0] != a.shape[0] or b.shape[1] % 2:
            raise DimensionError(
                f"b_co must be {a.shape[0]} x 2m, got {b.shape}"
            )
        if c.shape[1] != a.shape[0] or c.shape[0] != b.shape[1]:
            raise DimensionError(
                f"c_co must be {b.shape[1]} x {a.shape[0]}, got {c.shape}"
            )
        for name, x in (("a_co", a), ("b_co", b), ("c_co", c)):
            check_finite(x, name)
            object.__setattr__(self, name, x)

    @property
    def m(self):
        return self.b_co.shape[1] // 2

    @property
    def c_q(self):
        return self.c_co[: self.m, :]

    @property
    def c_p(self):
        return self.c_co[self.m:, :]

    @property
    def b_q(self):
        return self.b_co[:, : self.m]

    @property
    def b_p(self):
        return self.b_co[:, self.m:]


def c_from_gamma(gamma_q, gamma_p):
    """C_co = sqrt(2) [[Re gq, Re gp], [Im gq, Im gp]]."""
    gq = np.atleast_2d(np.asarray(gamma_q, dtype=complex))
    gp = np.atleast_2d(np.asarray(gamma_p, dtype=complex))
    top = np.hstack([np.real(gq), np.real(gp)])
    bot = np.hstack([np.imag(gq), np.imag(gp)])
    return np.sqrt(2.0) * np.vstack([top, bot])


def b_from_gamma(gamma_q, gamma_p):
    """Input matrix consistent with identity feedthrough: the quadrature
    image of minus the sharp-adjoint of the coupling, which works out to
    B_co = J_r C_co^T J_m with J the block-antisymmetric quadrature form."""
    c = c_from_gamma(gamma_q, gamma_p)
    r2, m2 = c.shape[1], c.shape[0]
    return j_sym(r2 // 2).real @ c.T @ j_sym(m2 // 2).real


def from_gamma(a_co, gamma_q, gamma_p):
    """Assemble a KalmanCoSubsystem from complex coupling blocks."""
    c = c_from_gamma(gamma_q, gamma_p)
    b = b_from_gamma(gamma_q, gamma_p)
    return KalmanCoSubsystem(a_co=a_co, b_co=b, c_co=c,
                             gamma_q=np.atleast_2d(np.asarray(gamma_q, dtype=complex)),
                             gamma_p=np.atleast_2d(np.asarray(gamma_p, dtype=complex)))


def check_kalman_bae(k, tol=DEFAULT_TOL):
    """Zero-product criteria for evading back action in each direction.

    q_wrt_p: the q outputs carry no p-input back action iff C_q B_p = 0.
    p_wrt_q: symmetric criterion C_p B_q = 0. When both hold and the complex
    coupling blocks are available, Re(gamma_q gamma_p^T) is symmetric; the
    report carries that check too. The products are held against tol
    ||C_co||_inf ||B_co||_inf and the symmetry against tol ||gamma_q||_inf
    ||gamma_p||_inf, with no floor, so a change of time unit (A_co -> c A_co,
    B_co -> sqrt(c) B_co, C_co -> sqrt(c) C_co) keeps every verdict.
    """
    scale = inf_norm(k.c_co) * inf_norm(k.b_co)
    q_wrt_p = _negligible(k.c_q @ k.b_p, scale, tol)
    p_wrt_q = _negligible(k.c_p @ k.b_q, scale, tol)
    re_sym = None
    if k.gamma_q is not None and k.gamma_p is not None:
        prod = np.real(k.gamma_q @ k.gamma_p.T)
        re_sym = _negligible(prod - prod.T,
                             inf_norm(k.gamma_q) * inf_norm(k.gamma_p), tol)
    return {
        "q_wrt_p": bool(q_wrt_p),
        "p_wrt_q": bool(p_wrt_q),
        "re_gamma_product_symmetric": re_sym,
    }


def structural_premise_residual(k):
    """Residual of C_co A_co = (1/2) C_co B_co C_co, the co-subsystem image
    of a coupling that commutes with the Hamiltonian."""
    return float(inf_norm(k.c_co @ k.a_co - 0.5 * k.c_co @ k.b_co @ k.c_co))


def markov_identity_check(k, tol=DEFAULT_TOL):
    """Residual of C_co A_co^k B_co = (1/2^k)(C_co B_co)^{k+1} for
    k = 1..MARKOV_ORDER. The identity follows from the structural premise
    C_co A_co = (1/2) C_co B_co C_co, whose own residual is reported so a
    premise failure is flagged rather than silently producing noise. The
    premise holds when its residual is at most tol max(||C_co|| ||A_co||,
    ||C_co||^2 ||B_co||) (inf-norms), the scales of its two terms, which
    both go as c^{3/2} under a change of time unit, as the residual does."""
    premise = structural_premise_residual(k)
    c_norm = inf_norm(k.c_co)
    scale = max(c_norm * inf_norm(k.a_co), c_norm ** 2 * inf_norm(k.b_co))
    cb = k.c_co @ k.b_co
    residual = 0.0
    a_pow = np.eye(k.a_co.shape[0])
    cb_pow = cb
    for kk in range(1, MARKOV_ORDER + 1):
        a_pow = a_pow @ k.a_co
        cb_pow = cb_pow @ cb
        lhs = k.c_co @ a_pow @ k.b_co
        rhs = cb_pow / (2.0 ** kk)
        residual = max(residual, float(inf_norm(lhs - rhs)))
    return {
        "residual": residual,
        "premise_residual": premise,
        "premise_holds": premise <= tol * scale,
    }

