"""Coherent-feedback network reduction around a beamsplitter, with a
numerical designer that searches for coupling gains rendering the reduced
Hamiltonian purely imaginary (the structure that enables back-action
evasion in the reduced single-port system).
"""

from dataclasses import InitVar, dataclass

import numpy as np

from . import bae
from .errors import DimensionError, PreconditionError, WellPosednessError
from .matcore import DEFAULT_TOL, is_unitary, quadrature_image, rounding_gamma
from .qsys import QuantumLinearSystem, new_system, quad_realization
from .smesim import _is_count
from .xferfn import _cond2, _tf_points

REDUCTION_OMEGAS = np.logspace(-2, 2, 16)
CANDIDATE_THRESHOLD = 1e-12  # largest design objective kept as a candidate
REFINE_MAXITER = 400  # residual evaluations per Newton refinement


@dataclass(frozen=True)
class FeedbackNetwork:
    """An (m1+m2)-channel plant whose last m2 output channels are routed
    through a unitary beamsplitter s_b back into its last m2 inputs; s_b's
    unitarity is checked at tol, which is not stored."""

    plant: QuantumLinearSystem
    m1: int
    m2: int
    s_b: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        sb = np.atleast_2d(np.asarray(self.s_b, dtype=complex))
        if self.m1 + self.m2 != self.plant.m_channels:
            raise DimensionError(
                f"channel split {self.m1}+{self.m2} does not match plant "
                f"m={self.plant.m_channels}"
            )
        if sb.shape != (self.m2, self.m2):
            raise DimensionError(f"s_b must be {self.m2}x{self.m2}, got {sb.shape}")
        if not is_unitary(sb, tol):
            raise DimensionError("s_b must be unitary")
        object.__setattr__(self, "s_b", sb)

    # scattering partition
    @property
    def s11(self):
        return self.plant.s[: self.m1, : self.m1]

    @property
    def s12(self):
        return self.plant.s[: self.m1, self.m1:]

    @property
    def s21(self):
        return self.plant.s[self.m1:, : self.m1]

    @property
    def s22(self):
        return self.plant.s[self.m1:, self.m1:]

    # coupling partition
    @property
    def k11(self):
        return self.plant.c_minus[: self.m1, :]

    @property
    def k12(self):
        return self.plant.c_plus[: self.m1, :]

    @property
    def k21(self):
        return self.plant.c_minus[self.m1:, :]

    @property
    def k22(self):
        return self.plant.c_plus[self.m1:, :]


def make_network(omega_minus, omega_plus, k11, k12, k21, k22, s_b,
                 s_plant=None):
    """Build a FeedbackNetwork from coupling blocks; the plant scattering
    defaults to the identity."""
    k11, k12, k21, k22 = (np.atleast_2d(np.asarray(k, dtype=complex))
                          for k in (k11, k12, k21, k22))
    m1, m2 = k11.shape[0], k21.shape[0]
    if s_plant is None:
        s_plant = np.eye(m1 + m2)
    plant = new_system(
        s=s_plant,
        c_minus=np.vstack([k11, k21]),
        c_plus=np.vstack([k12, k22]),
        omega_minus=omega_minus,
        omega_plus=omega_plus,
    )
    return FeedbackNetwork(plant=plant, m1=m1, m2=m2, s_b=s_b)


def _loop_gain(s22, s_b):
    loop = np.eye(len(s_b)) - s22 @ s_b
    cond, ok = _cond2(loop)
    if not ok:
        raise WellPosednessError(
            f"feedback loop I - S22 S_b is singular (condition number {cond:.3e})"
        )
    return s_b @ np.linalg.inv(loop)


def _reduce_arrays(k11, k12, k21, k22, s12, s22, w, omega_minus, omega_plus):
    """Reduced (C-, C+, Omega-, Omega+) for the loop gain w, on raw arrays
    and without validation; reduce_network states the formulas. The gains
    and Omega blocks may carry leading batch axes."""
    def t(a):
        return a.swapaxes(-1, -2)

    c_minus = k11 + s12 @ w @ k21
    c_plus = k12 + s12 @ w @ k22
    f = (t(k11.conj()) @ s12 + t(k21.conj()) @ s22) @ w
    g = (t(k12.conj()) @ s12 + t(k22.conj()) @ s22) @ w
    m = f @ k21
    nn = f @ k22
    p = g @ k21
    q = g @ k22
    mq = m + t(q)
    omega_minus = omega_minus + (mq - t(mq.conj())) / 2j
    omega_plus = omega_plus + (nn + t(nn) - t(p.conj()) - p.conj()) / 2j
    return c_minus, c_plus, omega_minus, omega_plus


def reduce_network(net, tol=DEFAULT_TOL):
    """Eliminate the looped channels and return the equivalent m1-channel
    system.

    With W = S_b (I - S22 S_b)^{-1}:
      S_red  = S11 + S12 W S21
      C-_red = k11 + S12 W k21,  C+_red = k12 + S12 W k22
    and the Hamiltonian acquires the loop-induced shift assembled from
    F = (k11^dag S12 + k21^dag S22) W and G = (k12^dag S12 + k22^dag S22) W:
      Omega-_red = Omega- + ((M + Q^T) - (M + Q^T)^dag) / 2i
      Omega+_red = Omega+ + (N + N^T - P^dag - P^#) / 2i
    with M = F k21, N = F k22, P = G k21, Q = G k22. The shifted blocks are
    Hermitian/symmetric by construction; the returned system is re-validated
    so any violation surfaces as a validation failure rather than being
    repaired.
    """
    w = _loop_gain(net.s22, net.s_b)
    s_red = net.s11 + net.s12 @ w @ net.s21
    c_minus, c_plus, omega_minus, omega_plus = _reduce_arrays(
        net.k11, net.k12, net.k21, net.k22, net.s12, net.s22, w,
        net.plant.omega_minus, net.plant.omega_plus)
    return new_system(s=s_red, c_minus=c_minus, c_plus=c_plus,
                      omega_minus=omega_minus, omega_plus=omega_plus, tol=tol)


def _close_loop(net, g):
    """Close the loop u2 = Sigma_b y2 around the plant's quadrature G, at
    one point or, batched over the leading axis, at each of many."""
    m, m1, m2 = net.plant.m_channels, net.m1, net.m2
    idx1 = np.r_[0:m1, m:m + m1]
    idx2 = np.r_[m1:m, m + m1:2 * m]
    g11 = g[..., idx1[:, None], idx1]
    g12 = g[..., idx1[:, None], idx2]
    g21 = g[..., idx2[:, None], idx1]
    g22 = g[..., idx2[:, None], idx2]
    sigma_b = quadrature_image(net.s_b)
    inner = np.eye(2 * m2) - sigma_b @ g22
    return g11 + g12 @ np.linalg.solve(inner, sigma_b @ g21)


@dataclass(frozen=True)
class ReductionReport:
    max_deviation: float
    scale: float
    frequencies: tuple
    passed: bool
    reduced: QuantumLinearSystem  # reduce_network(net, tol), the system checked


def verify_reduction(net, tol=DEFAULT_TOL):
    """Compare the reduced system's transfer function against the directly
    interconnected closed loop at the frequencies REDUCTION_OMEGAS, all
    closed in one batched solve."""
    points = 1j * REDUCTION_OMEGAS
    red = reduce_network(net, tol=tol)
    reduced, reduced_singular = _tf_points(quad_realization(red), points)
    plant, plant_singular = _tf_points(quad_realization(net.plant), points)
    for i in range(len(points)):
        for singular in (plant_singular, reduced_singular):
            if i in singular:
                raise singular[i]
    direct = _close_loop(net, plant)
    # max over per-point Python floats: a NaN point is skipped, not propagated
    dev = max([0.0, *np.abs(direct - reduced).max(axis=(1, 2)).tolist()])
    scale = max([1.0, *np.abs(direct).max(axis=(1, 2)).tolist()])
    return ReductionReport(max_deviation=dev, scale=scale,
                           frequencies=tuple(float(w) for w in REDUCTION_OMEGAS),
                           passed=dev <= tol * scale, reduced=red)


@dataclass(frozen=True)
class SearchConfig:
    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_count(value, low):
                raise PreconditionError(
                    f"SearchConfig {name} must be an integer >= {low}, "
                    f"got {value!r}")


@dataclass(frozen=True)
class DesignCandidate:
    """A designed loop in the target's units; its objective is the J of the
    unit-scale search (design_couplings), which is dimensionless."""

    k11: np.ndarray
    k12: np.ndarray
    k21: np.ndarray
    k22: np.ndarray
    s_b: np.ndarray
    s_plant: np.ndarray
    objective: float
    report: object  # bae.BAEReport for the reduced system
    reduced: QuantumLinearSystem


def _sb_matrix(tag, m2):
    return {"identity": np.eye(m2),
            "i": 1j * np.eye(m2),
            "-i": -1j * np.eye(m2)}[tag]


def _sg_matrix(tag, m1, m2):
    """Plant scattering topologies: 'identity' leaves channels separate;
    'swap' (m1 == m2 only) routes the external inputs to the looped outputs
    and vice versa, letting the loop shift the Hamiltonian by an arbitrary
    Hermitian form instead of a sign-definite one."""
    if tag == "identity":
        return np.eye(m1 + m2)
    if tag == "swap":
        if m1 != m2:
            return None
        z = np.zeros((m1, m1))
        eye = np.eye(m1)
        return np.block([[z, eye], [eye, z]])
    raise ValueError(f"unknown plant-scattering tag {tag!r}")


def _design_residuals(x, omega_minus, omega_plus, m1, m2, n, s12, s22, w):
    """The rows of both branches' objectives (_branch_rows): the
    bae._PREDICATES residuals of "Omega purely imaginary", "C real" and "C
    purely imaginary" on the reduced system, flattened and joined in that
    order, returned with the reduced (C-, C+, Omega-, Omega+) they were
    read from; s12, s22 and the loop gain w belong to one validated,
    well-posed topology. A batch of points x[..., dim] gives residuals
    [..., len] and reduced blocks with the same leading axes."""
    lead = x.shape[:-1]
    k11, k12, k21, k22 = _unpack(x, m1, m2, n)
    c_minus, c_plus, om, op = _reduce_arrays(k11, k12, k21, k22, s12, s22, w,
                                             omega_minus, omega_plus)
    blocks = {"C": (c_minus, c_plus), "Omega": (om, op)}
    parts = []
    for hypothesis in ("Omega purely imaginary", "C real", "C purely imaginary"):
        name, _, residual = bae._PREDICATES[hypothesis]
        parts.append(residual(*blocks[name]).reshape(*lead, -1))
    return np.concatenate(parts, axis=-1), (c_minus, c_plus, om, op)


def _branch_rows(m1, n):
    """The rows of _design_residuals that the branches "C real" and "C
    purely imaginary" sum: the 2 n^2 of Omega, then the 2 m1 n of its C."""
    omega, c = 2 * n * n, 2 * m1 * n
    return np.arange(omega + c), np.r_[:omega, omega + c:omega + 2 * c]


def _unpack(x, m1, m2, n):
    """The gains [k11, k12, k21, k22] that _pack packs into x[..., dim]."""
    rows = (m1, m1, m2, m2)
    parts = np.split(x, np.cumsum(np.repeat(rows, 2) * n)[:-1], axis=-1)
    return [(re + 1j * im).reshape(*x.shape[:-1], r, n)
            for re, im, r in zip(parts[::2], parts[1::2], rows)]


def _quadratic_model(fixed):
    """Tabulate (r0, L, H) with _design_residuals(x) = r0 + L x + x^T H x / 2
    exactly, for the rows of both branches, from one batched kernel call.

    W is fixed, so the reduced C+- = k1. + S12 W k2. are linear in the
    gains, F and G are real-linear in them (through k1.^dag and k2.^dag),
    and the Hamiltonian shift, built from the products F k2. and G k2. (and
    their transposes and conjugates), is real-bilinear; the real and
    imaginary parts the residual takes are real-linear. The residual is
    therefore a quadratic polynomial in the packed gains x, and Omega+-
    enter only its constant term, additively. Tabulated at Omega = 0,
    where r(0) = 0:
      L_i  = (r(e_i) - r(-e_i)) / 2,      H_ii = r(e_i) + r(-e_i),
      H_ij = r(e_i + e_j) - r(e_i) - r(e_j),
    each exact for a quadratic at unit step. The one Omega-dependent entry,
    r0 = r(0), is the first point of the same batch, evaluated with the
    true Omega; tabulating L and H at Omega = 0 keeps them free of
    roundoff of size eps |Omega| however large the target is.
    """
    omega_minus, omega_plus, m1, m2, n, *topology = fixed
    dim = 4 * n * (m1 + m2)
    eye = np.eye(dim)
    pairs = (eye[:, None, :] + eye[None, :, :]).reshape(dim * dim, dim)
    points = np.concatenate([np.zeros((1, dim)), eye, -eye, pairs])
    om = np.zeros((len(points), n, n), dtype=complex)
    op = np.zeros((len(points), n, n), dtype=complex)
    om[0], op[0] = omega_minus, omega_plus
    r = _design_residuals(points, om, op, m1, m2, n, *topology)[0]
    r0, plus, minus = r[0], r[1:dim + 1], r[dim + 1:2 * dim + 1]
    lin = ((plus - minus) / 2).T
    hess = (r[2 * dim + 1:].reshape(dim, dim, -1)
            - plus[:, None, :] - plus[None, :, :])
    diag = np.arange(dim)
    hess[diag, diag] = plus + minus
    return r0, lin, np.moveaxis(hess, -1, 0)


def _quadratic_residuals(x, r0, lin, hess):
    return r0 + (lin + 0.5 * (hess @ x)) @ x


def _quadratic_jacobian(x, r0, lin, hess):
    return lin + hess @ x


def _rounding_floor(x, r0, lin, hess):
    """Norm of rho = gamma_{2d+2} (|r0| + (|L| + |H| |x| / 2) |x|), d =
    len(x), the entrywise bound on the rounding error of
    _quadratic_residuals at x; _newton derives it."""
    abs_x = np.abs(x)
    rho = np.abs(r0) + (np.abs(lin) + np.abs(hess) @ abs_x / 2) @ abs_x
    return rounding_gamma(2 * len(x) + 2) * np.linalg.norm(rho)


def _min_norm_solver(m, n):
    """solve(J, r) -> (s, singular values of J) for m x n J: the
    minimum-norm least-squares solution s = J^+ r of J s = r from LAPACK
    dgelsd, called directly with np.linalg.lstsq's rcond=None cut-off
    eps max(m, n) (singular values at most that times the largest count as
    zero). The workspace is queried once here for the shape, where
    np.linalg.lstsq queries it on every call. np.linalg.LinAlgError when
    dgelsd's SVD does not converge."""
    from scipy.linalg import lapack  # on first use, not when feedback is imported

    cond = np.finfo(float).eps * max(m, n)
    work, iwork, _ = lapack.dgelsd_lwork(m, n, 1, cond)
    lwork = int(work)

    def solve(jac, r):
        rhs = np.zeros((max(m, n), 1))
        rhs[:m, 0] = r
        s, sv, _, info = lapack.dgelsd(jac, rhs, lwork, iwork, cond)
        if info:
            raise np.linalg.LinAlgError(
                f"SVD did not converge in linear least squares (gelsd info {info})")
        return s[:n, 0], sv

    return solve


def _newton(x, r0, lin, hess):
    """Minimum-norm Gauss-Newton on r(x) = r0 + L x + x^T H x / 2 from x:
    x <- x - lam s with s = J(x)^+ r(x), the minimum-norm least-squares
    solution of J(x) s = r(x) (_min_norm_solver, one per call, for J's
    fixed shape), and lam = 1, 1/2, 1/4, ...
    the first that lowers ||r||^2; after a full step in the singular regime
    below, x - 2 s is tried too and kept where it is lower still. Returns
    the last accepted point.

    Convergence. Re Omega's off-diagonal entries appear twice in r, with
    equal rows of J, so J never has full row rank; but where it has full
    rank on the distinct entries, r lies in its range and J J^+ r = r. The
    model is exactly quadratic, so the full step then leaves
      r(x - s) = r - J s + s^T H s / 2 = s^T H s / 2,
    hence ||r(x - s)|| <= h ||r||^2 / (2 sigma^2), with h the norm of the
    tensor H (sqrt of the sum of ||H_i||_2^2) and sigma the smallest
    nonzero singular value of J, since ||s|| <= ||r|| / sigma. Near such a
    zero the full step is taken and ||r|| falls quadratically (Ben-Israel
    1966, J. Math. Anal. Appl. 15:243-252; Nocedal & Wright 2006,
    Numerical Optimization, ch. 11). Each step is a descent direction for
    ||r||^2 wherever J^T r != 0: r^T J J^+ r = ||P r||^2, P the projector
    on J's range.

    Singular zeros. Where J loses rank at the zero, as on the swap routings
    of the two-mode anchor (rank 8 against 10 distinct residuals), sigma
    falls with the error and the bound above is void. In the model case
    r = Q(e), Q a homogeneous quadratic in the error e from the zero,
    Q'(e) e = 2 Q(e): e / 2 solves J s = r, so a Newton step halves the
    error and ||r|| falls by 4, while the step of twice the length reaches
    the zero. Near a zero where J loses rank this holds to leading order
    along J's null space there, the rest of the error being of second
    order, so Newton's rate is linear with ||r|| falling by about 4
    (Decker, Keller & Kelley 1983, SIAM J. Numer. Anal. 20:296-314), and an
    iteration that takes the doubled step there converges superlinearly
    (Griewank 1985, SIAM Review 27:537-563). When to try it follows from
    the model: along the step, with q = s^T H s / 2,
      r(x - lam s) = r - lam P r + lam^2 q,
    exactly. Where r lies in J's range, r(x - s) = q and r(x - 2 s) =
    4 q - r, whose norm is at least ||r|| - 4 ||q|| and at least
    4 ||q|| - ||r||. The doubled step can beat the full one only when
    ||r|| / 5 < ||q|| < ||r|| / 3, that is when the full step's ratio
    theta = ||r(x - s)|| / ||r|| lies in (1/5, 1/3). That interval holds
    the singular rate 1/4 and excludes the quadratic rate, theta -> 0, so
    the iteration tries x - 2 s only after a full step with theta in it,
    at the cost of one evaluation of the polynomial.

    Stopping. The update x - lam s is stored with a relative error of up to
    u = eps / 2 in each entry, an error of norm up to u ||x - lam s||,
    about u ||x||. A step no longer than eps ||x||, two such roundings, is
    lost in them: the point it reaches is set by rounding, not by the step.
    So the iteration stops when s, or lam s while lam halves, is that
    short, which also ends a search where no lam lowers ||r||^2, and when
    it has evaluated r REFINE_MAXITER times. It also stops, before taking
    a Jacobian, where ||r|| is within the rounding of its own evaluation.
    Each entry r0 + (L + (H x) / 2) x is two inner products of length
    d = len(x) in sequence, with an addition after each. A computed inner
    product of length d is sum a_k b_k (1 + theta_k) with |theta_k| <=
    gamma_d, whatever the order of summation, and gamma_j = j u / (1 - j u)
    (Higham 2002, Accuracy and Stability of Numerical Algorithms,
    sec. 3.1). So a term H_jk x_k x_j carries 2 d + 2 roundings, a term
    L_j x_j carries d + 2 and r0 one, and the computed entry differs from
    the polynomial at the stored x by at most
      rho = gamma_{2d+2} (|r0| + (|L| + |H| |x| / 2) |x|)
    (_rounding_floor). Where ||r|| <= ||rho||, the computed residual is no
    larger than the error it may carry: the exact one may be 0, and the
    comparisons of ||r||^2 that accept a step are decided by rounding. The
    iteration returns x there, but only once ||r||^2 <= CANDIDATE_THRESHOLD,
    so this stop never ends a start that is still above the candidate
    gate."""
    solve = _min_norm_solver(len(r0), len(x))
    r = _quadratic_residuals(x, r0, lin, hess)
    f = r @ r
    evals = 1
    while evals < REFINE_MAXITER:
        if (f <= CANDIDATE_THRESHOLD
                and f <= _rounding_floor(x, r0, lin, hess) ** 2):
            return x
        step = solve(_quadratic_jacobian(x, r0, lin, hess), r)[0]
        rounding = np.finfo(float).eps * np.linalg.norm(x)
        full = True
        while np.linalg.norm(step) > rounding and evals < REFINE_MAXITER:
            trial = x - step
            r_trial = _quadratic_residuals(trial, r0, lin, hess)
            evals += 1
            f_trial = r_trial @ r_trial
            if f_trial < f:
                break
            step = step / 2
            full = False
        else:
            return x
        if full and f / 25 < f_trial < f / 9 and evals < REFINE_MAXITER:
            far = x - 2 * step
            r_far = _quadratic_residuals(far, r0, lin, hess)
            evals += 1
            f_far = r_far @ r_far
            if f_far < f_trial:
                trial, r_trial, f_trial = far, r_far, f_far
        x, r, f = trial, r_trial, f_trial
    return x


def _refine(x0, model, fixed, rows):
    """Refine one start on the branch of rows with _newton, and return (x,
    J, reduced): the point, its objective J computed by the residual kernel
    itself and the reduced (C-, C+, Omega-, Omega+) that J was read from."""
    x = _newton(x0, *model)
    r, reduced = _design_residuals(x, *fixed)
    return x, float(np.sum(r[rows] ** 2)), reduced


def _objective_floor(fixed):
    """A lower bound, certified against rounding, on the objective j that
    the kernel computes at any gains on this topology, or 0.0 where no
    bound applies (S12 != 0, or H below is indefinite or within rounding
    of singular).

    The bound. With S12 = 0, F = k21^dag X and G = k22^dag X, X = S22 W,
    so M = k21^dag X k21, Q = k22^dag X k22, and the Omega- shift
    (M + Q^T - (M + Q^T)^dag) / 2i is
      Delta = k21^dag H k21 + (k22^dag H k22)^T,   H = (X - X^dag) / 2i.
    If H >= lam I with lam > 0, both terms are Hermitian positive
    semidefinite (the transpose of one is its conjugate), so Delta is, and
    so is P = Re Delta = (Delta + conj Delta) / 2. Every residual holds
    Re Omega-_red = R + P, R = Re Omega-, whose symmetric part A is
    Frobenius-orthogonal to R's antisymmetric part, hence
      J >= ||R + P||_F^2 >= ||A + P||_F^2.
    By Weyl's monotonicity lam_i(A + P) >= lam_i(A), so the positive
    eigenvalues of A + P dominate those of A and J >= ||A_+||_F^2 = b^2.
    If H <= -lam I the same argument on -A gives J >= ||A_-||_F^2.

    The margin. Let u be the unit roundoff, K^2 = ||k21||_F^2 + ||k22||_F^2,
    s = ||S22||_F ||W||_F, and gamma = 8 (N + m2 + 8) u with N the residual
    length 2n(n + m1). The kernel's three complex products of inner
    dimension m2 and its additions give a computed Re Omega-_red within
    gamma (||Omega-||_F + K^2 s) of the exact R + P on the same float
    S22, W and gains, and its fl(sum r^2) is at least (1 - gamma) times
    the exact sum of squares of the computed residual. Computing X, H and
    H's eigenvalues moves them by at most gamma s in all, so with
    lam = max(lam_min(H), -lam_max(H)) - 2 gamma s > 0 the exact H is
    definite of that sign and lam bounds its smallest modulus. A's
    eigenvalues move by at most gamma ||A||_F (eigvalsh is backward
    stable), and the positive part is 1-Lipschitz, so
      beta = (1 - gamma) b_computed - sqrt(n) gamma ||A||_F <= b.
    Rounding alone cannot cap the error, which grows as K^2, so large gains
    need the shift's size: tr P = tr Delta >= lam K^2, hence
    ||A + P||_F >= lam K^2 / sqrt(n) - ||A||_F. Where
    K^2 <= K* = sqrt(n) (||A||_F + beta) / lam, the computed residual's
    norm is at least beta - gamma (||Omega-||_F + K* s). Where K^2 > K*,
    it is at least K^2 (lam / sqrt(n) - gamma s) - ||A||_F
    - gamma ||Omega-||_F, which grows with K^2 once lam > sqrt(n) gamma s
    (the code asks for twice that) and equals the same value at K*. So
    every computed j is at least
      (1 - gamma) (beta - gamma (||Omega-||_F + s K*))^2
    when the bracket is positive. gamma is several times the first-order
    constants, which covers second-order terms and the rounding of this
    function's own arithmetic. On the identity plant, S_b = +-i I gives
    H = +-I/2.
    """
    omega_minus, _, m1, m2, n, s12, s22, w = fixed
    if s12.any():
        return 0.0
    x = s22 @ w
    h_eigs = np.linalg.eigvalsh((x - x.conj().T) / 2j)
    gamma = 4 * (2 * n * (n + m1) + m2 + 8) * np.finfo(float).eps
    s = np.linalg.norm(s22) * np.linalg.norm(w)
    lam = max(h_eigs[0], -h_eigs[-1]) - 2 * gamma * s
    if not lam > 2 * np.sqrt(n) * gamma * s:
        return 0.0
    sign = 1.0 if h_eigs[0] > 0 else -1.0
    a = np.real(omega_minus)
    a = (a + a.T) / 2
    a_norm = np.linalg.norm(a)
    beta = ((1 - gamma) * np.linalg.norm(np.maximum(sign * np.linalg.eigvalsh(a), 0.0))
            - np.sqrt(n) * gamma * a_norm)
    k_star = np.sqrt(n) * (a_norm + beta) / lam
    root = beta - gamma * (np.linalg.norm(omega_minus) + s * k_star)
    return float((1 - gamma) * root ** 2) if root > 0 else 0.0


def _pack(k11, k12, k21, k22):
    return np.concatenate([
        np.concatenate([np.real(k).ravel(), np.imag(k).ravel()])
        for k in (k11, k12, k21, k22)
    ])


def omega_scale(omega_minus, omega_plus):
    """2^k, k = 2 floor(e / 2) with e the binary exponent (np.frexp) of
    ||(Omega-, Omega+)||_F: the even power of two whose quotient puts the
    pair's norm in [1/2, 2), and 1.0 for a zero pair."""
    e = np.frexp(np.linalg.norm(np.stack([omega_minus, omega_plus])))[1]
    return float(np.ldexp(1.0, 2 * (e // 2)))


def design_couplings(omega_minus, omega_plus, split,
                     s_b_candidates=("identity", "i", "-i"), search_cfg=None,
                     s_g_candidates=("identity", "swap")):
    """Search over coupling gains (k11, k12, k21, k22), beamsplitter
    choices, and plant-scattering topologies for reduced systems whose
    Hamiltonian is purely imaginary and whose coupling is real or purely
    imaginary — the structure certified by the bilateral zero-block
    conditions. The swap topology is essential when Re(Omega) is indefinite:
    with identity plant scattering and a scalar beamsplitter (every
    s_b candidate here) the loop-induced Hamiltonian shift is a
    sign-definite Hermitian form and cannot cancel an indefinite target.

    Random multi-start followed by local refinement, run once per coupling
    branch, of the objective J, the sum of the squared bae._PREDICATES
    residuals of the target hypotheses on the reduced system: "Omega
    purely imaginary" and one of "C real" and "C purely imaginary", that is
      J = ||Re Omega-_red||_F^2 + ||Re Omega+_red||_F^2
          + min(||Im C_red||_F^2, ||Re C_red||_F^2).
    Validation runs once per search and once per candidate, never per
    residual: a topology's plant scattering and S_b come from fixed tags,
    unitary by construction, and its loop gain W = S_b (I - S22 S_b)^{-1}
    and reduced scattering S11 + S12 W S21, which do not depend on the
    gains, are computed once. With W fixed the residual is exactly
    quadratic in the packed gains x: the reduced C+- = k1. + S12 W k2. are
    linear in x, F and G are linear in x, the Omega shift is built from
    the products F k2. and G k2., and Omega+- enter only additively. So
    r(x) = r0 + L x + x^T H x / 2 holds exactly; (r0, L, H) is tabulated
    once per topology for the rows of both branches (_quadratic_model
    gives the derivation and the formulas), and each branch refines on its
    rows' polynomial with its exact Jacobian L + H x.

    The refinement (_refine) is minimum-norm Gauss-Newton (_newton):
    x <- x - lam J^+ r, lam halved from 1 until ||r||^2 falls, and after a
    full step that cut ||r|| by a ratio in (1/5, 1/3) the step of twice
    the length too. Every candidate is a zero of r: ||r|| falls
    quadratically near a zero where J has full rank on the distinct
    residuals (Ben-Israel 1966, J. Math. Anal. Appl. 15:243-252), and the
    doubled step makes the rate superlinear at a zero where J loses rank,
    as on the swap routings of the two-mode anchor in
    tests/test_feedback.py; _newton derives both rates and its stops. Each
    refined point's J is recomputed with the residual kernel itself, so
    the candidate threshold never rests on the tabulation. A topology is
    skipped before any tabulation when its loop is singular, or when
    _objective_floor proves that no gains on it give a computed J at most
    CANDIDATE_THRESHOLD: with S12 = 0 the Omega- shift is sign-definite
    wherever (S22 W - (S22 W)^dag) / 2i is, so J is at least the squared
    norm of the part of Re Omega- of the opposite sign. A skipped
    topology's random starts are still drawn, so later topologies see the
    same starts, and the candidates are those the unpruned search finds.
    A refinement is a candidate when its kernel J is at most
    CANDIDATE_THRESHOLD, which a NaN J is not. Its reduced system is the
    topology's S11 + S12 W S21 with the C+- and Omega+- that the kernel
    computed for that J, reduce_network's arrays bit for bit, so no
    network is built; it is validated once by new_system, certified with
    bae.certify_bae (at a tolerance no finer than the achieved residual),
    and the candidates are returned sorted by J. An empty list carries no
    error.

    The search runs on the target in a time unit that gives it unit size:
    on Omega+- / omega_scale, whose ||(Omega-, Omega+)||_F lies in [1/2, 2).
    The starts, the gate, _objective_floor, _newton's stops and the
    certificate's tolerance all act on that unit problem, and the gains
    and reduced C+- are returned times sqrt(omega_scale), the reduced
    Omega+- times omega_scale. Every factor is a power of two, so the
    candidates at 4^j times a target are the unit search's, scaled bit for
    bit, unless an entry is subnormal or overflows. A candidate's objective
    is the unit problem's J, which is dimensionless; in the target's units
    J's Omega terms would scale as omega_scale^2 and its C terms as
    omega_scale.
    """
    cfg = search_cfg or SearchConfig()
    m1, m2 = split
    omega_minus = np.atleast_2d(np.asarray(omega_minus, dtype=complex))
    omega_plus = np.atleast_2d(np.asarray(omega_plus, dtype=complex))
    n = omega_minus.shape[0]
    new_system(np.eye(m1 + m2), np.zeros((m1 + m2, n)), np.zeros((m1 + m2, n)),
               omega_minus, omega_plus)  # the target's one validation
    scale = omega_scale(omega_minus, omega_plus)
    gain = np.sqrt(scale)  # exact: scale is an even power of two
    omega_minus, omega_plus = omega_minus / scale, omega_plus / scale
    rng = np.random.default_rng(cfg.seed)

    candidates = []
    dim = 4 * n * (m1 + m2)
    branches = _branch_rows(m1, n)
    for sg_tag in s_g_candidates:
        sg = _sg_matrix(sg_tag, m1, m2)
        if sg is None:
            continue
        routing = np.asarray(sg, dtype=complex)
        s11, s12 = routing[:m1, :m1], routing[:m1, m1:]
        s21, s22 = routing[m1:, :m1], routing[m1:, m1:]
        for tag in s_b_candidates:
            sb = _sb_matrix(tag, m2)
            # trivial start first: open loop with real external coupling —
            # already optimal when the Hamiltonian needs no cancellation
            starts = [_pack(np.ones((m1, n)), np.zeros((m1, n)),
                            np.zeros((m2, n)), np.zeros((m2, n)))]
            starts += [rng.standard_normal(dim) for _ in range(cfg.n_starts - 1)]
            try:
                w = _loop_gain(s22, np.asarray(sb, dtype=complex))
            except WellPosednessError:
                continue  # W ignores the gains: singular for every start
            fixed = (omega_minus, omega_plus, m1, m2, n, s12, s22, w)
            if _objective_floor(fixed) > CANDIDATE_THRESHOLD:
                continue  # no refinement here can reach a candidate
            s_red = s11 + s12 @ w @ s21  # reduce_network's S_red
            table = _quadratic_model(fixed)
            models = [(tuple(a[rows] for a in table), rows) for rows in branches]
            for x0 in starts:
                for model, rows in models:
                    x, j, reduced = _refine(x0, model, fixed, rows)
                    if not j <= CANDIDATE_THRESHOLD:  # NaN is no candidate
                        continue
                    k11, k12, k21, k22 = (gain * k for k in _unpack(x, m1, m2, n))
                    c_minus, c_plus, om, op = reduced
                    red = new_system(s_red, gain * c_minus, gain * c_plus,
                                     scale * om, scale * op)
                    cert_tol = max(DEFAULT_TOL, 10.0 * np.sqrt(max(j, 0.0)))
                    report = bae.certify_bae(red, tol=cert_tol)
                    candidates.append(DesignCandidate(
                        k11=k11, k12=k12, k21=k21, k22=k22, s_b=sb,
                        s_plant=sg, objective=j, report=report, reduced=red))
    candidates.sort(key=lambda c: c.objective)
    return candidates
