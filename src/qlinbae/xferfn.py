"""Transfer-function evaluation and exact zero-block certification.

G[s] = D + C (sI - A)^{-1} B. For a rational transfer function, a block is
identically zero iff its feedthrough sub-block and all Markov parameters up
to the Cayley-Hamilton horizon vanish; a log-spaced frequency sweep along
the imaginary axis serves as an independent witness.

Every resolvent solve is guarded: s is a singular point (a resonance) when
the 2-norm condition number cond2(sI - A), computed from an SVD, is not
finite or exceeds COND_LIMIT. A grid of more than one point takes one
complex Schur form A = Z T Z^H (Z unitary, T upper triangular), which
serves both the guard and the solve (the triangular variant of Laub,
IEEE TAC 26(2):407-408, 1981; Golub & Van Loan, sec. 7.6). A complex A
gets it from LAPACK zgees. A real A, such as every quadrature A, gets the
real Schur form (dgees, about 3 times cheaper at N = 64), and one
block-diagonal unitary rotation triangularizes its 2 x 2 blocks (see
`_schur_form`).

The guard. The eigendecomposition T V_T = V_T Lambda of the triangular
factor gives eigenvectors V = Z V_T of A, and with the residual
R = A V - V Lambda, measured against A itself, kappa = cond2(V) and
rho = ||R||_F / smin(V),

    sI - A = V (sI - Lambda) V^{-1} - R V^{-1},

so smax(sI - A) <= kappa * max|s - lambda| + rho (triangle inequality) and
smin(sI - A) >= min|s - lambda| / kappa - rho (Bauer-Fike for the first
term, Weyl for the residual), hence

    cond2(sI - A) <= (kappa * max|s - lambda| + rho)
                     / (min|s - lambda| / kappa - rho)

wherever the denominator is positive. Nothing here assumes that Z, T or
V_T is exact: their errors, the Schur backward error and the rounding of
the real-to-complex rotation included, land in R.
A point whose bound is at most COND_LIMIT / 2 is certified without an
SVD; every other point gets its own SVD (see `_resolvent_points`), so the
verdict at every point is that of an SVD.

The solve. At the certified points, (sI - T) Y = Z^H B is solved by one
back-substitution vectorized over the points, and G = D + (C Z) Y. The
Schur form is backward stable: A + E = Z T Z^H with ||E||_2 of order
eps ||A||_F and Z unitary to working precision. For a real A this holds
for the rotated form as well: the rotation G is unitary to working
precision, so its rounding and that of the products with it join E and
the departure of Z from unitarity. Back-substitution solves
(sI - T + F) y = f with |F| <= N eps |sI - T| entrywise (Higham, Accuracy
and Stability of Numerical Algorithms, Thm 8.5), so ||F||_2 is of order
N eps (|s| + ||A||_F); the rounding of f = Z^H B is of the same order
relative to ||B||_2 <= (|s| + ||A||_F) ||X||_2. So the computed
X = Z Y solves (sI - A + Delta) X = B with ||Delta||_2 <= c N eps
(|s| + ||A||_F), where c is a modest constant (the worst-case
componentwise analysis carries another sqrt(N)), and to first order

    ||X - X_exact||_2 <= c N eps beta(s) ||X||_2,
    beta(s) = (|s| + ||A||_F) / smin(sI - A).

Applying C costs c N eps beta(s) ||C||_2 ||X||_2 (beta >= 1), and adding
D one more rounding of G, so

    ||G - G_exact||_2 <= delta(s) = c N eps (beta(s) ||C||_2 ||X||_2
                                             + ||G||_2).

LU with partial pivoting (np.linalg.solve) obeys a bound of the same form,
so the Schur value and the per-point value differ by at most 2 delta(s).
At a certified point the guard gives smin(sI - A) >= min|s - lambda| /
kappa - rho > 0, so beta(s) is finite there and bounded by the guard's
own numbers. Points the guard does not certify, and the one point of
`eval_tf` and `sigma_tf`, keep np.linalg.solve.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularityError
from .matcore import DEFAULT_TOL, delta, flat_adjoint, inf_norm, j_diag
from .qsys import ac_realization

COND_LIMIT = 1e12
DEFAULT_FREQS = np.logspace(-3.0, 3.0, 32)


def _cond_bound(a, t, z, points):
    """Upper bounds on cond2(sI - A) at each point from the Schur form
    A = Z T Z^H (derived in the module docstring).

    The eigenvectors of A are V = Z V_T, with V_T those of the triangular T.
    rho = ||A V - V Lambda||_F / smin(V) majorizes ||R V^{-1}||_2, so the
    residual of the computed decomposition, Schur backward error included,
    is part of the bound. A point gets inf where the denominator is not
    positive, and every point does when eig fails or V is singular: there
    is no certificate then.
    """
    none = np.full(len(points), np.inf)
    try:
        lam, vt = np.linalg.eig(t)
        v = z @ vt
        sv = np.linalg.svd(v, compute_uv=False)
    except np.linalg.LinAlgError:
        return none
    if not sv[-1] > 0:
        return none
    kappa = sv[0] / sv[-1]
    rho = np.linalg.norm(a @ v - v * lam) / sv[-1]
    dist = np.abs(points[:, None] - lam)
    with np.errstate(all="ignore"):
        lo = dist.min(axis=1) / kappa - rho  # lower bound on smin(sI - A)
        return np.where(lo > 0, (kappa * dist.max(axis=1) + rho) / lo, np.inf)


def _schur_solve(t, z, points, rhs, lhs):
    """lhs (sI - A)^{-1} rhs at every point from A = Z T Z^H, as a
    (points, rows of lhs, columns of rhs) array.

    One back-substitution for (sI - T) Y = Z^H rhs over all points at
    once: row k of Y is (f_k + T[k, k+1:] Y[k+1:]) / (s - T[k, k]), one
    product of a row of T with the contiguous (N - k - 1) x P*m slab below.
    """
    n, p, m = t.shape[0], len(points), rhs.shape[1]
    f = z.conj().T @ rhs
    pivots = points[:, None] - np.diag(t)
    y = np.empty((n, p, m), dtype=complex)
    for k in range(n - 1, -1, -1):
        below = t[k, k + 1:] @ y[k + 1:].reshape(n - k - 1, p * m)
        y[k] = (f[k] + below.reshape(p, m)) / pivots[:, k, None]
    return ((lhs @ z) @ y.reshape(n, p * m)).reshape(-1, p, m).transpose(1, 0, 2)


def _schur_form(a):
    """The complex Schur form A = Z T Z^H: Z unitary, T upper triangular.

    A complex A takes LAPACK zgees. A real A takes the real Schur form
    A = Z_r T_r Z_r^T (dgees). Each 2 x 2 diagonal block of T_r holds one
    complex pair, in the standard form [[a, b], [c, a]] with b c < 0, and
    x = (p, i q), p = sqrt(|b| / (|b| + |c|)), q = sqrt(|c| / (|b| + |c|)),
    is a unit eigenvector of the block, for the eigenvalue
    a + i sign(b) sqrt(-b c) (since b q^2 = -c p^2). So the unitary
    [x, x_perp] = [[p, i q], [i q, p]] makes the block upper triangular.
    The blocks are disjoint, so these rotations form one block-diagonal
    unitary G, and T = G^H T_r G, Z = Z_r G (Golub & Van Loan,
    sec. 7.4.1); the block sub-diagonal, zero in exact arithmetic, is set
    to zero.
    """
    import scipy.linalg  # on first use, so importing xferfn does not load it

    if np.iscomplexobj(a):
        return scipy.linalg.schur(a, output="complex")
    t, z = scipy.linalg.schur(a, output="real")
    k = np.flatnonzero(t.diagonal(-1))
    if not len(k):
        return t.astype(complex), z.astype(complex)
    k1 = k + 1
    b, c = np.abs(t.diagonal(1)[k]), np.abs(t.diagonal(-1)[k])
    g = np.eye(len(t), dtype=complex)
    g[k, k] = g[k1, k1] = np.sqrt(b / (b + c))
    g[k, k1] = g[k1, k] = 1j * np.sqrt(c / (b + c))
    t = g.conj().T @ t @ g
    t[k1, k] = 0
    return t, z @ g


def _resolvent_points(a, points, rhs, lhs):
    """lhs (sI - A)^{-1} rhs at each point s, guarding the conditioning.

    Returns the values, a (points, rows of lhs, columns of rhs) array whose
    rows at singular points are NaN, and a dict from the index of each
    singular point to its SingularityError (not raised): cond2(sI - A) is
    not finite or exceeds COND_LIMIT there.

    A call of more than one point takes one complex Schur form of A (for
    a real A, the real Schur form plus one block-diagonal rotation; see
    `_schur_form`). It certifies, through `_cond_bound`, every point whose
    bound is at most COND_LIMIT / 2, and solves all certified points in
    one `_schur_solve`; their values lie within the forward-error bound
    delta(s) of the module docstring. The factor 2 absorbs the roundoff of
    computed singular values (relative error about n * eps * cond, ~1e-2
    for n <= 64 at cond = 1e12) and of the computed decomposition, so the
    SVD would have accepted the point too. Every other point, and the point
    of a one-point call (where the factorization costs more than the SVD it
    would save), gets an exact SVD, with cond2 computed exactly as
    np.linalg.cond computes it, and lhs @ np.linalg.solve(sI - A, rhs).
    """
    points = np.asarray(points, dtype=complex)
    values = np.full((len(points), lhs.shape[0], rhs.shape[1]), np.nan, dtype=complex)
    certified = np.zeros(len(points), dtype=bool)
    if len(points) > 1:
        try:
            t, z = _schur_form(a)
        except (ValueError, np.linalg.LinAlgError):  # a non-finite A, no convergence
            pass
        else:
            certified = _cond_bound(a, t, z, points) <= COND_LIMIT / 2
            if certified.any():
                values[certified] = _schur_solve(t, z, points[certified], rhs, lhs)
    eye = np.eye(a.shape[0])
    singular = {}
    for i in np.flatnonzero(~certified):
        s = complex(points[i])
        m = s * eye - a
        try:
            sv = np.linalg.svd(m, compute_uv=False)
        except np.linalg.LinAlgError:
            if np.isfinite(m).all():
                raise
            sv = np.full(1, np.nan)  # LAPACK does not converge on a non-finite m
        with np.errstate(all="ignore"):
            cond = sv[0] / sv[-1]
        if np.isnan(cond) and not np.isnan(m).any():
            cond = np.float64(np.inf)  # np.linalg.cond's NaN rule
        if not np.isfinite(cond) or cond > COND_LIMIT:
            singular[int(i)] = SingularityError(
                f"resolvent ill-conditioned at s={s}: cond={cond:.3e}", cond=cond
            )
        else:
            values[i] = lhs @ np.linalg.solve(m, rhs)
    return values, singular


def _tf_points(r, points):
    """D + C (sI - A)^{-1} B at each point, with NaN rows at the singular
    points, and the dict of their SingularityErrors (see `_resolvent_points`)."""
    values, singular = _resolvent_points(
        np.asarray(r.a), points, np.asarray(r.b), np.asarray(r.c))
    return np.asarray(r.d, dtype=complex) + values, singular


def _single(result):
    """The value of a one-point evaluation; raises its SingularityError."""
    (value,), singular = result
    if singular:
        raise singular[0]
    return value


def eval_tf(r, s):
    """Evaluate D + C (sI - A)^{-1} B at a complex point s.

    Raises SingularityError (with its .cond) unless the exact 2-norm
    condition number of sI - A is finite and at most COND_LIMIT.
    """
    return _single(_tf_points(r, [s]))


def markov_params(r, k):
    """Markov parameter sequence [D, CB, CAB, ..., C A^{k-1} B]."""
    if k < 1:
        raise PreconditionError("markov_params requires K >= 1")
    a = np.asarray(r.a, dtype=complex)
    b = np.asarray(r.b, dtype=complex)
    c = np.asarray(r.c, dtype=complex)
    out = [np.asarray(r.d, dtype=complex)]
    akb = b
    for _ in range(k):
        out.append(c @ akb)
        akb = a @ akb
    return out


@dataclass(frozen=True)
class BlockCert:
    """Certification data for one m x m sub-block of a 2m x 2m transfer function."""

    zero: bool
    max_markov: float
    max_freq: float


@dataclass(frozen=True)
class BlockPattern:
    """Zero/nonzero certification of the four quadrature blocks of G[s]."""

    qq: BlockCert
    qp: BlockCert
    pq: BlockCert
    pp: BlockCert

    def zero_blocks(self):
        return {name for name in ("qq", "qp", "pq", "pp")
                if getattr(self, name).zero}


_BLOCK_SLICES = {
    "qq": (0, 0),
    "qp": (0, 1),
    "pq": (1, 0),
    "pp": (1, 1),
}


def _block_maxima(mats, m):
    """Largest |entry| of each m x m quadrature block over a list of 2m x 2m
    matrices (0.0 for an empty list)."""
    peak = np.abs(np.array(mats, dtype=complex)).reshape(len(mats), 2, m, 2, m)
    peak = peak.max(axis=(0, 2, 4), initial=0.0)
    return {name: float(peak[i, j]) for name, (i, j) in _BLOCK_SLICES.items()}


def block_pattern(r, tol=DEFAULT_TOL, freqs=None):
    """Certify which quadrature blocks of G[s] vanish identically.

    A block is Zero iff all its Markov parameters up to order 2*(2n)-1
    (plus the feedthrough) and its response at the sampled frequencies
    s = i*omega stay below tol * scale, where scale is the largest
    max-entry norm among A, B, C, D and 1.
    """
    if r.form != "quadrature":
        raise PreconditionError("block_pattern requires a quadrature-form realization")
    m = r.m_channels
    n2 = r.a.shape[0]
    scale = max(inf_norm(r.a), inf_norm(r.b), inf_norm(r.c), inf_norm(r.d), 1.0)
    horizon = 2 * n2  # Cayley-Hamilton: A^k for k >= 2n is a combination of lower powers

    max_markov = _block_maxima(markov_params(r, horizon), m)
    if freqs is None:
        freqs = DEFAULT_FREQS
    # a singular point is a marginally stable pole on the axis; Markov data
    # still decides there
    g, singular = _tf_points(r, [1j * w for w in freqs])
    max_freq = _block_maxima(np.delete(g, list(singular), axis=0), m)

    certs = {
        name: BlockCert(
            zero=(max_markov[name] <= tol * scale and max_freq[name] <= tol * scale),
            max_markov=max_markov[name],
            max_freq=max_freq[name],
        )
        for name in _BLOCK_SLICES
    }
    return BlockPattern(**certs)


def sigma_tf(sys, s):
    """The coupling-weighted resolvent (1/2) C (sI + i J_n Omega)^{-1} C^flat."""
    cc = sys.coupling
    a = -1j * j_diag(sys.n_modes) @ sys.omega
    return _single(_resolvent_points(a, [s], flat_adjoint(cc), 0.5 * cc))


def cayley_tf(sys, s):
    """Annihilation-creation transfer function via the Cayley form
    (I - Sigma[s]) (I + Sigma[s])^{-1} D; independent of the realization path."""
    sig = sigma_tf(sys, s)
    m2 = sig.shape[0]
    dd = delta(sys.s, np.zeros_like(sys.s))
    return (np.eye(m2) - sig) @ np.linalg.solve(np.eye(m2) + sig, dd)


def frequency_sweep(r, omegas):
    """Evaluate |G(i*omega)| entrywise over a frequency grid.

    Returns an array of shape (len(omegas), 2m, 2m) of magnitudes; rows at
    frequencies where the resolvent is ill-conditioned (resonances) are NaN.
    A row is NaN exactly when cond2(i*omega I - A) is not finite or exceeds
    COND_LIMIT. One complex Schur form A = Z T Z^H serves the whole grid
    (for the real quadrature A, its real Schur form with the 2 x 2 blocks
    triangularized by one block-diagonal rotation): eig(T), with
    eigenvectors V = Z V_T, bounds cond2 at every point (Bauer-Fike plus
    the residual term rho, see the module docstring), and the rows whose
    bound is at most COND_LIMIT / 2 skip the SVD and come from one
    back-substitution in T, each within the forward-error bound
    delta(i*omega) derived there. The rest, typically rows next to a
    resonance or of a strongly non-normal A (large cond2(V)), get an exact
    SVD and np.linalg.solve each.
    """
    g, _ = _tf_points(r, [1j * w for w in omegas])
    return np.abs(g)
