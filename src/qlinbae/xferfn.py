"""Transfer-function evaluation and zero-block certification.

G(s) = D + C (sI - A)^{-1} B, with N states.

Zero blocks. G_xy(s) - D_xy = C_x adj(sI - A) B_y / det(sI - A), and the
numerator has degree at most N - 1, so det(sI - A) G_xy(s) is a polynomial
of degree at most N. A block G_xy therefore vanishes identically iff it
vanishes at N + 1 distinct points that are not poles; the extra point
covers D_xy. No power of A and no horizon enters. That is exact
arithmetic; a tolerance test needs points where a nonzero block is
visible, which is why the well-conditioned nodes below are joined by the
probes near the spectrum of the section after them. `block_pattern`
takes the nodes

    s_k = sigma (1 + e^{i phi_k}),  phi_k = pi ((k + 1/2) / (N + 1) - 1/2),
    k = 0..N,  sigma = max(||A||_F, ||B||_F ||C||_F),

on the circle of radius sigma about sigma. Since |phi_k| < pi / 2,
|s_k| = 2 sigma cos(phi_k / 2) lies in (sqrt(2) sigma, 2 sigma], and
||A||_2 <= ||A||_F <= sigma, so

    smin(s_k I - A) >= |s_k| - ||A||_2 > (sqrt(2) - 1) sigma

for every A, normal or not: no node is a pole and none needs a guard.
phi_{N-k} = -phi_k, so s_{N-k} = conj(s_k), and a real realization (every
quadrature one) has G(conj s) = conj G(s): the nodes k = 0..floor(N/2)
decide the others. sigma = 0 means A = 0 and B C = 0, so G = D. Under a
change of time unit (A -> c A, B -> sqrt(c) B, C -> sqrt(c) C), sigma ->
c sigma and s_k -> c s_k, where G_c(c s) = G(s): the nodes of the new
system see the same values, so the verdict is invariant by construction.

The solve. One complex Schur form A = Z T Z^H (Z unitary, T upper
triangular) serves a whole grid of points (the triangular variant of
Laub, IEEE TAC 26(2):407-408, 1981; Golub & Van Loan, sec. 7.6): at every
point, (sI - T) Y = Z^H B is solved by one back-substitution vectorized
over the points, and G = D + (C Z) Y. The back-substitution runs in
`_substitute`, the module's one substitution kernel, at two numpy calls
per row: u = [T | Z^H B] with m identity rows below the unknowns folds f_k
into the inner product of row k, and a product with the reciprocal pivots
follows. A complex A gets its Schur form from LAPACK zgees. A real A,
such as every quadrature A, gets the real Schur form (dgees, about 3
times cheaper at N = 64), and one block-diagonal unitary rotation
triangularizes its 2 x 2 blocks (see `_complex_schur`). Both gees are
called directly through scipy.linalg.lapack (`_gees`), with the
workspace query scipy.linalg.schur makes, since that wrapper costs about
6 us a call. A real A of even size N = 2h whose lower-left or
upper-right h x h block is exactly zero is block triangular, and its two
diagonal blocks are factored apart (see `_schur_of`; Golub & Van Loan,
sec. 7.1 and 7.6). The paper's BAE conditions write those zeros in the
quadrature A: Omega purely imaginary with C real or purely imaginary
makes it block diagonal, Re Omega- = Re Omega+ zeroes its upper-right
block and Re Omega- = -Re Omega+ its lower-left one, in 12 of the 14
catalog families. At N = 64 (a 2-core Xeon, one BLAS thread) the two
half-size dgees take 290-355 us, against 460-530 us for the whole A, or
850-930 us when the zero block is the upper-right one, which dgees's
Hessenberg reduction fills in; the whole record of A takes 500-555 us
against 650-1110 us.

Everything the module derives from A alone is derived once per A, into
one read-only record (`_SchurRecord`): T and Z, a contiguous Z^H and
diag T for the solve, ||A||_F and the Schur residual ||A Z - Z T||_F for
the guard, and the interleaved |T| operator of nu below. The last record
is kept, keyed by the exact dtype, shape and bytes of A. `certify_bae`
followed by a sweep of the same system rebuilds the same quadrature A bit
for bit, so the two factor it, and derive the rest, once; a one-bit
change to A (one ulp, or -0.0 for 0.0) is a new key. dgees and zgees are
deterministic and each derived number is the same expression on the same
arrays, so a kept record is the one a new call would build and every
output is unchanged. The memo has one entry: it serves consecutive calls
on one A, holds one record (beside T and Z, one N x N complex array and
one 2N x (2N + 1) real one, 130 KB at N = 64) however many systems a
process works through, and a caller that alternates between two matrices
(the plant and the reduced network of `feedback.verify_reduction`)
factors each on every call, as without it. A grid whose every point the
guard below certifies gets the Schur solve itself as its values: no
NaN-filled buffer, masked copy or identity matrix is made for it.

The Schur form is backward stable: A + E = Z T Z^H with ||E||_2 of order
eps ||A||_F and Z unitary to working precision. For a real A this holds
for the rotated form as well: the rotation G is unitary to working
precision, so its rounding and that of the products with it join E and
the departure of Z from unitarity. It holds for the split form of a
block triangular A too: T1 and T2 are backward stable real Schur forms
of the diagonal blocks A_ii and A_jj, Z_r = diag(Z1, Z2) is orthogonal to
working precision, and A Z_r - Z_r T_r has the blocks A_ii Z1 - Z1 T1,
A_jj Z2 - Z2 T2 and A_ij Z2 - Z1 (Z1^T A_ij Z2), the last of order
eps ||A_ij||_F, while the exact zero block adds nothing. So
A + E = Z_r T_r Z_r^T with ||E||_2 of order eps ||A||_F, as for one
factorization, and the rotation then acts as above. Back-substitution solves
(sI - T + F) y = f + e with |F| <= (N + 1) eps |sI - T| and |e| <=
(N + 1) eps |f| entrywise (Higham, Accuracy and Stability of Numerical
Algorithms, Thm 8.5, which holds for any order of each row's inner
product; the folded f_k makes each inner product one term longer, and its
products with the identity rows add exact zeros). Those counts are for
real arithmetic. In complex arithmetic a product rounds by up to
sqrt(2) gamma_2 and a quotient by up to sqrt(2) gamma_4 (Higham, Lemma
3.5), so an inner product of n complex terms is within
sqrt(2) gamma_{n+2} of its value, and each row of the solve has fixed
roundings besides its inner product: s - T_kk, its reciprocal and the
product with it, 7 in all, which fall on the pivot. The products
f = Z^H B, C Z and (C Z) Y, of inner dimension N each, add
sqrt(2) gamma_{N+2} apiece. None of these grows with N, and at small N
they are most of the error, so every count below is N + 7: the N + 3 of
a row's inner product of N + 1 complex terms or the 7 of its pivot,
whichever is larger, and (N + 7) eps >= sqrt(2) gamma_{N+7}. Then
||F||_2 is of order (N + 7) eps (|s| + ||A||_F); e and the rounding of f
are of the same order relative to ||B||_2 <= (|s| + ||A||_F) ||X||_2. So
the computed X = Z Y solves (sI - A + Delta) X = B with
||Delta||_2 <= c (N + 7) eps (|s| + ||A||_F), where c is a modest
constant (the worst-case componentwise analysis carries another
sqrt(N)), and to first order

    ||X - X_exact||_2 <= c (N + 7) eps beta(s) ||X||_2,
    beta(s) = (|s| + ||A||_F) / smin(sI - A).

Applying C costs c (N + 7) eps beta(s) ||C||_2 ||X||_2 (beta >= 1), and
adding D one more rounding of G, so

    ||G - G_exact||_2 <= delta(s) = c (N + 7) eps (beta(s) ||C||_2 ||X||_2
                                                   + ||G||_2).

At a node, |s_k| + ||A||_F <= 3 sigma and the bound on smin give

    beta(s_k) <= 3 / (sqrt(2) - 1) ~ 7.2,
    ||C||_2 ||X||_2 <= ||C||_2 ||B||_2 / ((sqrt(2) - 1) sigma)
                    <= 1 / (sqrt(2) - 1),

since ||B||_2 ||C||_2 <= ||B||_F ||C||_F <= sigma, hence

    delta(s_k) <= c (N + 7) eps (3 / (sqrt(2) - 1)^2 + ||G(s_k)||_2)
               ~  c (N + 7) eps (17.5 + ||G(s_k)||_2),

a fixed multiple of (N + 7) eps max(1, ||G(s_k)||_2) whatever A, B and C
are. With ||G||_2 <= 2m max|G_ij| for 2m outputs, a zero block measures at
most about c (N + 7) eps (17.5 + 2m) times max(1, max|G_ij|) over the
nodes: at N = 64, m = 2 and c = 2 that is 7e-13 of it, far below the
default tolerance 1e-9 that `block_pattern` applies to the same scale.

Probes. A node is no witness for a block of high relative degree. Far
from the spectrum G_xy(s) - D_xy = sum_k C_x A^k B_y / s^{k+1}, so a block
whose first nonzero Markov parameter has order k measures about
(||A||_2 / |s|)^k at the nodes, and |s_k| > sqrt(2) sigma makes that at
most 2^{-k/2}, less when ||A||_F exceeds ||A||_2. A chain of n = 8 modes
coupled to the field at one end (16 states, first nonzero Markov
parameter of G_qp of order 15) measures 2e-15 of the scale at every node,
far below any tolerance, while G_qp(i omega) is of order 1 near the
chain's resonances. So `block_pattern` also probes G at

    p = i Im(lambda)  for each eigenvalue lambda = T_kk of A

(Im >= 0 only for a real A, whose G(conj s) = conj G(s)), where a lightly
damped resonance peaks whatever its Markov order. The axis can hold poles
there, and no guard applies: each probe carries instead a bound of its
own. For the triangular pI - T, the comparison matrix M (diagonal
|p - T_kk|, off-diagonal -|T_kj|) has M^{-1} >= |(pI - T)^{-1}| >= 0
entrywise (Higham, Thm 8.12), so with the vector 1 of ones

    ||(pI - A)^{-1}||_2 = ||(pI - T)^{-1}||_2 <= ||M^{-1}||_2
        <= sqrt(||M^{-1}||_1 ||M^{-1}||_inf)
         = sqrt(max(M^{-T} 1) max(M^{-1} 1)) = nu(p),

one real `_substitute` for all points: M^{-T} 1 is the reversal of the
back-substitution on R M^T R (R the reversal, R |T|^T R upper
triangular), so M^{-1} 1 and M^{-T} 1 advance together, two rows per
step, on an operator of |T| alone that the record keeps. Every term of nu is nonnegative, so no sum cancels: in any order
each row's inner product is accurate to gamma_{2N} relative, the computed
nu is that of a comparison matrix whose entries lie within gamma_{2N+3}
relative of M's, and its own relative error is at most about 4 N^2 eps,
under 4e-12 at N = 64. A pole, where 0 * inf in the sums gives NaN, reads
inf. nu is the module's one resolvent bound: the guard below takes it too.
With ||X||_2 <= nu(p) ||B||_2,
beta(p) <= (|p| + ||A||_F) nu(p) and the worst-case constant c = sqrt(N),
delta(p) is at most

    bar_delta(p) = N^{3/2} eps ((|p| + ||A||_F) nu(p)^2 ||B||_F ||C||_F
                                + ||G(p)||_F).

A block whose largest |entry| at a probe exceeds max(tol * scale,
bar_delta(p)) is nonzero: rounding cannot produce it. The 8-mode chain's
G_qp exceeds bar_delta by a factor of 4e10 at a probe (7e7 at n = 32),
while the zero blocks stay below 5e-5 of max(tol * scale, bar_delta(p))
on the catalog families (n = 2..32, 3 draws each) and below 1.4e-4 on
the exact integer systems of the tests (the largest at n = 4, under a
phase rotation). A probe at a pole (nu
infinite) certifies nothing, so a block that is nonzero only through
resonances where nu is infinite or huge (undamped, or of a very
non-normal T) is below what the verdict resolves, and is called zero.
Under a change of time unit the probes scale with A, nu(p) by 1/c and
B C by c, so bar_delta(p), and the verdict, stay.

The guard. The imaginary axis, where `frequency_sweep` and `eval_tf`
evaluate, can hold poles. Every solve there is guarded: s is a singular
point (a resonance) when the 2-norm condition number cond2(sI - A),
computed from an SVD, is not finite or exceeds COND_LIMIT; a NaN or Inf
in A, B, C, D or the points is refused with PreconditionError, as
`block_pattern` refuses it, and never read as a resonance. A grid of more
than one point takes the Schur form above, which serves both the guard
and the solve, through the probes' nu. With the residual R = A Z - Z T,
measured against A itself, (sI - A) Z = Z (sI - T) - R, so for a unitary
Z Weyl gives smin(sI - A) >= 1 / nu(s) - ||R||_F, and with
smax(sI - A) <= |s| + ||A||_F

    cond2(sI - A) <= (|s| + ||A||_F) / (1 / nu(s) - ||R||_F)

wherever the denominator is positive. The errors of Z and T, the Schur
backward error and the rounding of the real-to-complex rotation included,
land in R; the departure of Z from unitarity, of order N eps, is left to
the factor 2 below. A point whose bound is at most COND_LIMIT / 2 is
certified without an SVD and solved in T; every other point gets its own
SVD (see `_resolvent_points`), so the verdict at every point is that of an
SVD. M drops the cancellation in (sI - T)^{-1}, so on a strongly
non-normal T, 1 / nu can lie orders of magnitude below smin and send
well-conditioned points to the SVD: up to 0.6 % of the points of the
benchmark's 200-point grid on its catalog systems at n = 32 (seeds 1, 2,
3 and 7), up to 4 % on other draws. At a certified point beta(s) is
finite and bounded by the guard's own numbers. LU with partial pivoting
(np.linalg.solve) obeys a bound of the same form as delta(s), so the
Schur value and the per-point value differ by at most 2 delta(s). Points
the guard does not certify, and the one point of `eval_tf` and
`sigma_tf`, keep np.linalg.solve.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularityError
from .matcore import DEFAULT_TOL, check_finite, flat_adjoint, j_diag

COND_LIMIT = 1e12


def _cond_bound(schur, points):
    """Upper bounds on cond2(sI - A) at each point from the Schur record of
    A (module docstring): (|s| + ||A||_F) / (1 / nu(s) - ||A Z - Z T||_F),
    and inf where the denominator is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = 1 / _inverse_bound(schur, points) - schur.residual  # <= smin(sI - A)
        return np.where(lo > 0, (np.abs(points) + schur.norm) / lo, np.inf)


def _substitute(u, scale, x):
    """Back substitution in place: x[i] = scale_i * (u[i, i+1:] @ x[i+1:])
    for each row i of u, from the last row up, where scale_i is row i % r
    of scale[i // r]; the rows of x below len(u) are given and stay.

    scale has shape (len(u) / r, r, ...), and step k sets rows
    k r .. k r + r - 1 of x together, with two numpy calls, one np.dot
    into them and one in-place product with scale[k], which broadcasts
    against them. A step reads only the rows below it, so u must be zero
    between two rows of one step. x must be C-contiguous."""
    steps, r = scale.shape[:2]
    flat = x.reshape(len(x), -1)
    for k in range(steps - 1, -1, -1):
        i, j = k * r, k * r + r
        np.dot(u[i:j, j:], flat[j:], out=flat[i:j])
        x[i:j] *= scale[k]


def _schur_solve(schur, points, rhs, lhs):
    """lhs (sI - A)^{-1} rhs at every point from the Schur record of A,
    A = Z T Z^H, as a (points, rows of lhs, columns of rhs) array.

    One back-substitution for (sI - T) Y = Z^H rhs over all points at
    once: row k of Y is (T[k, k+1:] Y[k+1:] + f_k) / (s - T[k, k]). It runs
    in `_substitute` on u = [T | Z^H rhs] with the m identity rows below
    the unknowns, so f_k joins the inner product of row k as one more term
    (module docstring, "The solve"). Y is laid out as (rows, m, points), so
    the reciprocal pivots of a row multiply m contiguous rows of points.
    """
    t, z = schur.t, schur.z
    n, p, m = t.shape[0], len(points), rhs.shape[1]
    x = np.empty((n + m, m, p), dtype=complex)
    x[n:] = np.eye(m)[:, :, None]
    inverse = 1 / (points - schur.diag[:, None])
    _substitute(np.hstack([t, schur.zh @ rhs]), inverse[:, None], x)
    return ((lhs @ z) @ x[:n].reshape(n, m * p)).reshape(-1, m, p).transpose(2, 0, 1)


@dataclass(frozen=True)
class _SchurRecord:
    """Everything the module derives from A alone, for A = Z T Z^H: T and Z,
    the contiguous Z^H and diag T of `_schur_solve`, ||A||_F and the Schur
    residual ||A Z - Z T||_F of `_cond_bound`, and the interleaved |T|
    operator of `_inverse_bound` (`_comparison`). Every array is read-only,
    since every caller of the memo shares them."""

    t: np.ndarray
    z: np.ndarray
    zh: np.ndarray
    diag: np.ndarray
    norm: float
    residual: float
    comparison: np.ndarray


def _schur_record(a, t, z):
    """The `_SchurRecord` of A = Z T Z^H, its arrays made read-only. The
    residual is measured against A itself, so it carries the errors of Z
    and T, the Schur backward error and the rounding of the real-to-complex
    rotation included (module docstring, "The guard")."""
    zh = np.ascontiguousarray(z.conj().T)
    diag = np.diag(t).copy()
    comparison = _comparison(t)
    for x in (t, z, zh, diag, comparison):
        x.setflags(write=False)
    return _SchurRecord(t, z, zh, diag, np.linalg.norm(a), _residual(a, t, z),
                        comparison)


def _residual(a, t, z):
    """||A Z - Z T||_F."""
    return np.linalg.norm(a @ z - z @ t)


def _comparison(t):
    """The 2N x (2N + 1) operator u of `_inverse_bound` for the upper
    triangular N x N T: rows 2k hold |T[k]| on the even columns, rows
    2k + 1 the reversed |T|^T, R |T|^T R, on the odd ones, and the last
    column is the ones column of the right-hand side. Only |T| enters, so
    one u serves every point."""
    n = t.shape[0]
    off = np.abs(t)
    u = np.zeros((2 * n, 2 * n + 1))
    u[::2, :-1:2] = off
    u[1::2, 1::2] = off.T[::-1, ::-1]
    u[:, -1] = 1
    return u


def _schur_form(a):
    """The `_SchurRecord` of the complex Schur form A = Z T Z^H: Z unitary,
    T upper triangular, and what the module derives from them and A. A
    real A of even size with an exactly zero lower-left or upper-right
    half block is factored as its two diagonal blocks, every other A
    whole (`_schur_of`).

    The last record is kept in `_schur_of`, keyed by the exact dtype, shape
    and bytes of A (module docstring, "The solve"): a repeat call on the
    same A, such as a sweep after `block_pattern`, factors nothing and
    derives nothing, and an A that differs in a single bit (one ulp, or
    -0.0 against 0.0) is factored again. It keeps one entry, so it holds
    one record, and a caller alternating two matrices misses on every call,
    as without it.
    """
    a = np.asarray(a)
    return _schur_of(a.dtype, a.shape, a.tobytes())


@functools.lru_cache(maxsize=1)
def _schur_of(dtype, shape, data):
    """The record of `_schur_form` for the A whose C-order bytes are
    `data`.

    A complex A takes its complex Schur form from zgees (`_gees`). A real A
    takes a real Schur form A = Z_r T_r Z_r^T, which `_complex_schur`
    rotates into a complex one. A real A of even size N = 2h whose
    lower-left or upper-right h x h block is exactly zero is block upper
    triangular, after swapping its q and p halves when the zero block is
    the upper-right one: A = [[A_ii, A_ij], [0, A_jj]] in the order (i, j)
    of the halves. Its two diagonal blocks are factored apart by dgees,
    A_ii = Z1 T1 Z1^T and A_jj = Z2 T2 Z2^T, and Z_r = diag(Z1, Z2), its
    rows in the order (i, j), with T_r = [[T1, Z1^T A_ij Z2], [0, T2]],
    satisfies A Z_r = Z_r T_r exactly for orthogonal Z1 and Z2 (Golub &
    Van Loan, sec. 7.1 and 7.6). T_r is quasi upper triangular with a zero
    at (h, h - 1), so each of its 2 x 2 blocks lies in one half. Z_r is
    orthogonal to the working precision of each half, and the rounding of
    Z1^T A_ij Z2 is of order eps ||A_ij||, so the form is backward stable
    block by block. Every other real A (of odd size, or with neither block
    zero) takes one dgees of the whole.
    """
    a = np.frombuffer(data, dtype=dtype).reshape(shape)
    if np.iscomplexobj(a):
        return _schur_record(a, *_gees(a))
    h = len(a) // 2
    q, p = slice(None, h), slice(h, None)
    even = h > 0 and 2 * h == len(a)
    if even and not a[p, q].any():
        i, j = q, p
    elif even and not a[q, p].any():
        i, j = p, q  # swap the q and p halves
    else:
        return _schur_record(a, *_complex_schur(*_gees(a)))
    t1, z1 = _gees(a[i, i])
    t2, z2 = _gees(a[j, j])
    t = np.zeros(shape)
    z = np.zeros(shape)
    t[q, q], t[p, p], t[q, p] = t1, t2, z1.T @ a[i, j] @ z2
    z[i, q], z[j, p] = z1, z2
    return _schur_record(a, *_complex_schur(t, z))


def _gees(a):
    """The Schur form A = Z T Z^H of a square A from LAPACK gees, called
    directly, with the workspace query that scipy.linalg.schur makes: for
    a complex A (zgees), T is upper triangular and Z unitary; for a real A
    (dgees), T is quasi upper triangular and Z orthogonal, both real.
    np.linalg.LinAlgError when gees does not converge."""
    from scipy.linalg import lapack  # on first use, not when xferfn is imported

    gees = lapack.zgees if np.iscomplexobj(a) else lapack.dgees
    no_sort = lambda x, y=None: None
    lwork = gees(no_sort, a, lwork=-1)[-2][0].real.astype(np.int_)
    t, *_, z, _, info = gees(no_sort, a, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"Schur form not found (gees info {info})")
    return t, z


def _complex_schur(t, z):
    """The complex Schur form (T, Z) of the real one A = Z_r T_r Z_r^T,
    given as (T_r, Z_r).

    Each 2 x 2 diagonal block of T_r holds one complex pair, in the
    standard form [[a, b], [c, a]] with b c < 0, and
    x = (p, i q), p = sqrt(|b| / (|b| + |c|)), q = sqrt(|c| / (|b| + |c|)),
    is a unit eigenvector of the block, for the eigenvalue
    a + i sign(b) sqrt(-b c) (since b q^2 = -c p^2). So the unitary
    [x, x_perp] = [[p, i q], [i q, p]] makes the block upper triangular.
    The blocks are disjoint, so these rotations form one block-diagonal
    unitary G, and T = G^H T_r G, Z = Z_r G (Golub & Van Loan,
    sec. 7.4.1); the block sub-diagonal, zero in exact arithmetic, is set
    to zero.
    """
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

    A call of more than one point takes the Schur record of A (one complex
    Schur form; for a real A, the real Schur form, of its two diagonal
    half blocks apart when an off-diagonal one is exactly zero, plus one
    block-diagonal rotation; see `_schur_form`). It certifies, through
    `_cond_bound` and its nu(s), every point whose bound is at most
    COND_LIMIT / 2, and solves all certified points in one
    `_schur_solve`; their values lie
    within the forward-error bound delta(s) of the module docstring. The
    factor 2 absorbs the roundoff of computed singular values (relative
    error about n * eps * cond, ~1e-2 for n <= 64 at cond = 1e12) and the
    departure of Z from unitarity, so the SVD would have accepted the point
    too. When every point is certified, that solve is the result, and no
    per-point buffer is made. Every
    other point, and the point of a one-point call (where the
    factorization costs more than the SVD it would save), gets an exact
    SVD, with cond2 computed exactly as np.linalg.cond computes it, and
    lhs @ np.linalg.solve(sI - A, rhs). A, points, rhs and lhs must be finite.
    """
    points = np.asarray(points, dtype=complex)
    certified = np.zeros(len(points), dtype=bool)
    if len(points) > 1:
        try:
            schur = _schur_form(a)
        except np.linalg.LinAlgError:  # the Schur form did not converge
            pass
        else:
            certified = _cond_bound(schur, points) <= COND_LIMIT / 2
            if certified.all():
                return _schur_solve(schur, points, rhs, lhs), {}
    values = np.full((len(points), lhs.shape[0], rhs.shape[1]), np.nan, dtype=complex)
    if certified.any():
        values[certified] = _schur_solve(schur, points[certified], rhs, lhs)
    eye = np.eye(a.shape[0])
    singular = {}
    for i in np.flatnonzero(~certified):
        s = complex(points[i])
        m = s * eye - a
        sv = np.linalg.svd(m, compute_uv=False)
        with np.errstate(all="ignore"):
            cond = sv[0] / sv[-1]
        if np.isnan(cond):
            cond = np.float64(np.inf)  # 0 / 0: np.linalg.cond's NaN rule
        if not np.isfinite(cond) or cond > COND_LIMIT:
            singular[int(i)] = SingularityError(
                f"resolvent ill-conditioned at s={s}: cond={cond:.3e}", cond=cond
            )
        else:
            values[i] = lhs @ np.linalg.solve(m, rhs)
    return values, singular


def _finite_arrays(r):
    """A, B, C, D of r as arrays; PreconditionError names a non-finite one."""
    arrays = [np.asarray(x) for x in (r.a, r.b, r.c, r.d)]
    for x, name in zip(arrays, "ABCD"):
        check_finite(x, name)
    return arrays


def _tf_points(r, points):
    """D + C (sI - A)^{-1} B at each point, with NaN rows at the singular
    points, and the dict of their SingularityErrors (see `_resolvent_points`)."""
    a, b, c, d = _finite_arrays(r)
    values, singular = _resolvent_points(a, points, b, c)
    # an all-certified grid's values are the solve's transposed view
    return np.add(np.asarray(d, dtype=complex), values, order="C"), singular


def _single(result):
    """The value of a one-point evaluation; raises its SingularityError."""
    (value,), singular = result
    if singular:
        raise singular[0]
    return value


def eval_tf(r, s):
    """Evaluate D + C (sI - A)^{-1} B at a complex point s.

    Raises SingularityError (with its .cond) unless the exact 2-norm
    condition number of sI - A is finite and at most COND_LIMIT, and
    PreconditionError when A, B, C, D or s has a NaN or Inf entry.
    """
    check_finite(s, "an evaluation point")
    return _single(_tf_points(r, [s]))


def markov_params(r, k):
    """Markov parameter sequence [D, CB, CAB, ..., C A^{k-1} B].

    The paper's Markov identity, kept as such: no verdict here uses it,
    since the powers of A outgrow any fixed threshold (and overflow) as
    N and the scale of A grow; `block_pattern` needs none of them."""
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
    """Certification data for one m x m sub-block of a 2m x 2m transfer
    function: the block's largest |entry| over the nodes, the threshold
    tol * scale it was held against, and the probe ratio, the largest
    |entry| at a probe over max(threshold, bar_delta(p)) (0.0 when no probe
    has a finite bound). Zero iff node_max <= threshold and
    probe_ratio <= 1."""

    zero: bool
    node_max: float
    threshold: float
    scale: float
    probe_ratio: float


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


def _nodes(n, sigma):
    """The n + 1 nodes s_k = sigma (1 + e^{i phi_k}), k = 0..n, of the
    module docstring, for an A with n states and sigma = max(||A||_F,
    ||B||_F ||C||_F); all zero when sigma is."""
    k = np.arange(n + 1)
    return sigma * (1 + np.exp(1j * np.pi * ((k + 0.5) / len(k) - 0.5)))


def _inverse_bound(schur, points):
    """nu(p) = sqrt(||M^{-1}||_1 ||M^{-1}||_inf) >= ||(pI - T)^{-1}||_2 at
    each point, M the comparison matrix of pI - T for the T of the Schur
    record (module docstring). As M^{-1} >= 0, its inf-norm is the largest
    entry of M^{-1} 1 and its 1-norm that of M^{-T} 1. M^{-T} 1 is R w for
    the back substitution (R M^T R) w = 1, R the reversal, so one
    `_substitute` over all points on the record's `_comparison` operator
    advances both, rows of M^{-1} 1 and of w interleaved two per step, with
    a ones column for the right-hand side. inf at a pole (where 0 * inf
    gives NaN) and where either overflows."""
    x = np.empty((len(schur.comparison) + 1, len(points)))
    x[-1] = 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse = 1 / np.abs(points - schur.diag[:, None])
        _substitute(schur.comparison, np.stack([inverse, inverse[::-1]], axis=1), x)
        nu = np.sqrt(x[:-1:2].max(axis=0) * x[1::2].max(axis=0))
    return np.where(np.isnan(nu), np.inf, nu)


def _block_peaks(g, m):
    """Largest |entry| of each of the four m x m blocks, per point."""
    return np.abs(g).reshape(len(g), 2, m, 2, m).max(axis=(2, 4))


def block_pattern(r, tol=DEFAULT_TOL):
    """Certify which quadrature blocks of G[s] vanish identically.

    G is evaluated at the N + 1 nodes of `_nodes`, where cond2(s_k I - A)
    <= 3 / (sqrt(2) - 1) whatever A is, and at the probes p = i Im(lambda)
    next to the spectrum (both in the module docstring). A block is Zero
    iff its largest |entry| over the nodes is at most tol * scale,
    scale = max(1, largest |entry| of G over the nodes), and at no probe
    exceeds max(tol * scale, bar_delta(p)). The forward error at a node is
    a fixed multiple of (N + 7) eps times the scale, and bar_delta(p) bounds it
    at a probe, so a block the verdict calls nonzero is nonzero; the
    probes see the blocks of high relative degree that are below any
    tolerance at every node.

    A real realization is solved at the nodes k = 0..floor(N/2) and the
    probes with Im p >= 0 only, since its values at conj(s) are the
    conjugates; one Schur form and one back-substitution serve all of
    them. sigma = 0 means G = D, with no probe. A non-finite entry of A,
    B, C or D raises PreconditionError.
    """
    if r.form != "quadrature":
        raise PreconditionError("block_pattern requires a quadrature-form realization")
    a, b, c, d = _finite_arrays(r)
    m = r.m_channels
    a_norm, bc_norm = np.linalg.norm(a), np.linalg.norm(b) * np.linalg.norm(c)
    nodes = _nodes(len(a), max(a_norm, bc_norm))
    real = not any(np.iscomplexobj(x) for x in (a, b, c, d))
    if real:
        nodes = nodes[:(len(nodes) + 1) // 2]
    g, solve_term = d[None], np.zeros(0)
    if nodes.any():
        schur = _schur_form(a)
        im = schur.diag.imag
        probes = 1j * np.unique(np.abs(im) if real else im)
        # bar_delta's (|p| + ||A||_F) nu^2 ||B||_F ||C||_F, inf or NaN where
        # nu(p) is: such a probe is dropped
        with np.errstate(over="ignore", invalid="ignore"):
            solve_term = ((np.abs(probes) + a_norm)
                          * _inverse_bound(schur, probes) ** 2 * bc_norm)
        kept = np.isfinite(solve_term)
        probes, solve_term = probes[kept], solve_term[kept]
        values = d + _schur_solve(schur, np.concatenate([nodes, probes]), b, c)
        g, at_probes = values[:len(nodes)], values[len(nodes):]
    peak = _block_peaks(g, m).max(axis=0)
    scale = max(1.0, float(peak.max()))
    threshold = tol * scale
    ratio = np.zeros((2, 2))
    if len(solve_term):
        bound = len(a) ** 1.5 * np.finfo(float).eps * (
            solve_term + np.linalg.norm(at_probes, axis=(1, 2)))
        ratio = (_block_peaks(at_probes, m)
                 / np.maximum(threshold, bound)[:, None, None]).max(axis=0)
    return BlockPattern(**{
        name: BlockCert(zero=bool(peak[i, j] <= threshold and ratio[i, j] <= 1),
                        node_max=float(peak[i, j]), threshold=threshold,
                        scale=scale, probe_ratio=float(ratio[i, j]))
        for name, (i, j) in _BLOCK_SLICES.items()})


def sigma_tf(sys, s):
    """The coupling-weighted resolvent (1/2) C (sI + i J_n Omega)^{-1} C^flat;
    a NaN or Inf s raises PreconditionError (new_system checked sys)."""
    check_finite(s, "an evaluation point")
    cc = sys.coupling
    a = -1j * j_diag(sys.n_modes) @ sys.omega
    return _single(_resolvent_points(a, [s], flat_adjoint(cc), 0.5 * cc))


def frequency_sweep(r, omegas):
    """Evaluate |G(i*omega)| entrywise over a frequency grid.

    Returns an array of shape (len(omegas), 2m, 2m) of magnitudes; rows at
    frequencies where the resolvent is ill-conditioned (resonances) are NaN.
    A row is NaN exactly when cond2(i*omega I - A) is not finite or exceeds
    COND_LIMIT; a NaN or Inf in A, B, C, D or omegas raises
    PreconditionError. One complex Schur form A = Z T Z^H serves the whole grid
    (for the real quadrature A, its real Schur form, of its two diagonal
    half blocks apart when the BAE structure makes an off-diagonal one
    exactly zero, with the 2 x 2 blocks triangularized by one
    block-diagonal rotation): nu(s), from the
    comparison matrix of sI - T, and the residual ||A Z - Z T||_F bound
    cond2 at every point (see the module docstring), and the rows whose
    bound is at most COND_LIMIT / 2 skip the SVD and come from one
    back-substitution in T, each within the forward-error bound
    delta(i*omega) derived there. The rest, typically rows next to a
    resonance or of a strongly non-normal T, get an exact SVD and
    np.linalg.solve each. When the last Schur record taken was of this same
    A, as after `certify_bae` of the same system, the sweep reuses it (see
    `_schur_form`) and factors and derives nothing from A.
    """
    omegas = np.asarray(omegas, dtype=float)
    check_finite(omegas, "an evaluation point")  # before 1j * inf warns
    g, _ = _tf_points(r, 1j * omegas)
    return np.abs(g)
