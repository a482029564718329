"""Structural matrix algebra for doubled-up systems.

Doubled-up matrices, the J-weighted adjoint, the realness and unitarity
predicates, gamma_k, the quadrature image and an orthonormal Krylov kernel.
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


def _negligible(residual, scale, tol):
    """The one structural rule, ||residual||_inf <= tol * scale with scale =
    max ||block||_inf over the blocks measured (or its power) and no floor:
    a change of units keeps the verdict, and all-zero blocks hold."""
    return inf_norm(residual) <= tol * scale


def is_real(x, tol=DEFAULT_TOL):
    """True when the imaginary part is negligible relative to the matrix;
    the zero matrix counts as both real and purely imaginary."""
    return _negligible(np.imag(x), inf_norm(x), tol)


def is_unitary(u, tol):
    """||U U^H - I||_inf <= tol max(||U||_inf, 1)^2; a NaN entry fails."""
    scale = max(inf_norm(u), 1.0) ** 2
    return _negligible(u @ u.conj().T - np.eye(len(u)), scale, tol)


def rounding_gamma(k):
    """gamma_k = k u / (1 - k u), u = eps / 2, bounds the relative error of
    k roundings (Higham, Accuracy and Stability of Numerical Algorithms,
    Lemma 3.1)."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def check_finite(x, name="matrix"):
    if not np.isfinite(x).all():
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


def flat_adjoint(x):
    """J_r X^dagger J_k for a 2k x 2r matrix X."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] % 2 or x.shape[1] % 2:
        raise DimensionError(
            f"flat_adjoint requires an even-dimensioned matrix, got shape {x.shape}"
        )
    return j_diag(x.shape[1] // 2) @ x.conj().T @ j_diag(x.shape[0] // 2)


def krylov_basis(a, b, tol):
    """Orthonormal basis of span[B, AB, A^2 B, ...], the reachable subspace:
    block Arnoldi in staircase form (Van Dooren, IEEE TAC 26(1):111-129,
    1981). Each step projects its block off the basis twice and keeps the
    left singular vectors above a cut, tol ||B||_F for B and tol ||A||_F
    for each later block A U; no power of A is formed.

    A change of time unit, (A, B, C) -> (cA, sqrt(c) B, sqrt(c) C), scales
    the first block and its cut by sqrt(c) and each later block cA U (same
    U, same projections) and its cut by c, so every decision and the basis
    stay; so does observability, with (A^H, C^H) for (A, B). An orthogonal
    change of coordinates keeps every singular value and Frobenius norm.
    """
    return staircase(a, b, tol * np.linalg.norm(b), tol * np.linalg.norm(a))


def staircase(a, b, first_cut, later_cut):
    """krylov_basis with its two cuts given outright."""
    n = a.shape[0]
    basis = np.empty((n, n), dtype=np.result_type(a, b, float))
    k, block, cut = 0, b, first_cut
    while k < n:
        done = basis[:, :k]
        for _ in range(2):
            block = block - done @ (done.conj().T @ block)
        u, sv, _ = np.linalg.svd(block, full_matrices=False)
        kept = min(int(np.count_nonzero(sv > cut)), n - k)
        if kept == 0:
            break
        basis[:, k:k + kept] = u[:, :kept]
        k += kept
        block, cut = a @ u[:, :kept], later_cut
    return basis[:, :k]


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

