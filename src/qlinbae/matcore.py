"""Structural matrix algebra for doubled-up systems.

Doubled-up matrices, the two J-weighted adjoints, Bogoliubov/symplectic
predicates, and the unitary transform between annihilation-creation and
quadrature coordinates.
"""

import numpy as np

from .errors import DimensionError, PreconditionError

DEFAULT_TOL = 1e-9


def inf_norm(x):
    """Max absolute entry of a matrix (0.0 for empty input). An ndarray
    skips np.asarray, and the method max skips np.max's Python wrapper."""
    if not isinstance(x, np.ndarray):
        x = np.asarray(x)
    return float(np.abs(x).max()) if x.size else 0.0


def close_to(a, b, tol=DEFAULT_TOL):
    """Relative max-entry comparison: ||a-b||_inf <= tol * max(||a||,||b||,1)."""
    scale = max(inf_norm(a), inf_norm(b), 1.0)
    return inf_norm(np.asarray(a) - np.asarray(b)) <= tol * scale


def is_real(x, tol=DEFAULT_TOL):
    """True when the imaginary part is negligible relative to the matrix.

    The zero matrix counts as both real and purely imaginary.
    """
    x = np.asarray(x)
    scale = inf_norm(x)
    if scale == 0.0:
        return True
    return inf_norm(np.imag(x)) <= tol * scale


def is_imag(x, tol=DEFAULT_TOL):
    """True when the real part is negligible relative to the matrix."""
    x = np.asarray(x)
    scale = inf_norm(x)
    if scale == 0.0:
        return True
    return inf_norm(np.real(x)) <= tol * scale


def check_finite(x, name="matrix"):
    if not np.all(np.isfinite(np.asarray(x, dtype=complex).view(float))):
        raise PreconditionError(f"{name} contains NaN or Inf entries")


def j_diag(k):
    """J_k = diag(I_k, -I_k)."""
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)])).astype(complex)


def j_sym(k):
    """The 2k x 2k block matrix [[0, I],[-I, 0]]."""
    z = np.zeros((k, k))
    i = np.eye(k)
    return np.block([[z, i], [-i, z]]).astype(complex)


def delta(u, v):
    """Doubled-up matrix [[U, V],[V^#, U^#]] of two k x r blocks."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionError(
            f"doubled-up blocks must share a shape, got {u.shape} and {v.shape}"
        )
    if u.ndim != 2:
        raise DimensionError("doubled-up blocks must be 2-D matrices")
    return np.block([[u, v], [v.conj(), u.conj()]])


def _split_even(x, op_name):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] % 2 or x.shape[1] % 2:
        raise DimensionError(
            f"{op_name} requires an even-dimensioned matrix, got shape {x.shape}"
        )
    return x, x.shape[0] // 2, x.shape[1] // 2


def flat_adjoint(x):
    """J_r X^dagger J_k for a 2k x 2r matrix X."""
    x, k, r = _split_even(x, "flat_adjoint")
    return j_diag(r) @ x.conj().T @ j_diag(k)


def sharp_adjoint(x):
    """-JJ_r X^dagger JJ_k for a 2k x 2r matrix X (JJ = [[0,I],[-I,0]])."""
    x, k, r = _split_even(x, "sharp_adjoint")
    return -j_sym(r) @ x.conj().T @ j_sym(k)


def blocks(x):
    """Split a 2k x 2r matrix into its four k x r blocks (ul, ur, ll, lr)."""
    x, k, r = _split_even(x, "blocks")
    return x[:k, :r], x[:k, r:], x[k:, :r], x[k:, r:]


def is_doubled_up(x, tol=DEFAULT_TOL):
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] % 2 or x.shape[1] % 2:
        return False
    ul, ur, ll, lr = blocks(x)
    scale = max(inf_norm(x), 1.0)
    return (
        inf_norm(ll - ur.conj()) <= tol * scale
        and inf_norm(lr - ul.conj()) <= tol * scale
    )


def structure_test(x, kind, tol=DEFAULT_TOL):
    """Test a matrix for doubled-up / Bogoliubov / symplectic structure.

    Returns False (never raises) on shape violations; group-membership
    tests compare the defining product to the identity in max-entry norm.
    """
    x = np.asarray(x, dtype=complex)
    if kind == "doubled_up":
        return is_doubled_up(x, tol)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2:
        return False
    k = x.shape[0] // 2
    scale = max(inf_norm(x) ** 2, 1.0)
    if kind == "bogoliubov":
        if not is_doubled_up(x, tol):
            return False
        return inf_norm(x @ flat_adjoint(x) - np.eye(2 * k)) <= tol * scale
    if kind == "symplectic":
        return inf_norm(x @ sharp_adjoint(x) - np.eye(2 * k)) <= tol * scale
    raise ValueError(f"unknown structure kind {kind!r}")


def quadrature_transform(n):
    """Unitary V_n mapping (a, a^#) to (q, p) with q=(a+a^#)/sqrt(2).

    V_n = (1/sqrt(2)) [[I, I],[-iI, iI]].
    """
    if n < 1:
        raise DimensionError("quadrature_transform requires n >= 1")
    i = np.eye(n)
    return np.block([[i, i], [-1j * i, 1j * i]]) / np.sqrt(2.0)


def quadrature_image(u, v=None):
    """V_k Delta(U, V) V_r^dagger for k x r blocks U, V (V = 0 if omitted).

    With V_k = (1/sqrt(2)) [[I, I], [-iI, iI]] the product multiplies out to

        (1/2) [[(U + U^#) + (V + V^#),   i(U - U^#) - i(V - V^#)],
               [-i(U - U^#) - i(V - V^#), (U + U^#) - (V + V^#)]],

    and X + X^# = 2 Re X, X - X^# = 2i Im X make it the real matrix

        [[Re(U + V), -Im(U - V)],
         [Im(U + V),  Re(U - V)]].
    """
    u = np.asarray(u, dtype=complex)
    plus, minus = (u, u) if v is None else (u + v, u - v)
    k, r = u.shape
    out = np.empty((2 * k, 2 * r))
    out[:k, :r] = plus.real
    out[:k, r:] = -minus.imag
    out[k:, :r] = plus.imag
    out[k:, r:] = minus.real
    return out

