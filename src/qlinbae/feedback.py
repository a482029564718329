"""Coherent-feedback network reduction around a beamsplitter, with a
numerical designer that searches for coupling gains rendering the reduced
Hamiltonian purely imaginary (the structure that enables back-action
evasion in the reduced single-port system).
"""

from dataclasses import InitVar, dataclass

import numpy as np

from . import bae
from .errors import DimensionError, PreconditionError, WellPosednessError
from .matcore import DEFAULT_TOL, inf_norm, quadrature_image
from .qsys import QuantumLinearSystem, new_system, quad_realization
from .xferfn import COND_LIMIT, _tf_points, eval_tf

REDUCTION_OMEGAS = np.logspace(-2, 2, 16)
CANDIDATE_THRESHOLD = 1e-12  # largest design objective kept as a candidate
REFINE_MAXITER = 400  # residual evaluations per least-squares refinement


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
        if inf_norm(sb @ sb.conj().T - np.eye(self.m2)) > tol:
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
    k11 = np.atleast_2d(np.asarray(k11, dtype=complex))
    k12 = np.atleast_2d(np.asarray(k12, dtype=complex))
    k21 = np.atleast_2d(np.asarray(k21, dtype=complex))
    k22 = np.atleast_2d(np.asarray(k22, dtype=complex))
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


def _loop_gain(net):
    loop = np.eye(net.m2) - net.s22 @ net.s_b
    cond = np.linalg.cond(loop)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise WellPosednessError(
            f"feedback loop I - S22 S_b is singular (condition number {cond:.3e})"
        )
    return net.s_b @ np.linalg.inv(loop)


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
    w = _loop_gain(net)
    s_red = net.s11 + net.s12 @ w @ net.s21
    c_minus, c_plus, omega_minus, omega_plus = _reduce_arrays(
        net.k11, net.k12, net.k21, net.k22, net.s12, net.s22, w,
        net.plant.omega_minus, net.plant.omega_plus)
    return new_system(s=s_red, c_minus=c_minus, c_plus=c_plus,
                      omega_minus=omega_minus, omega_plus=omega_plus, tol=tol)


def crossterm_hamiltonian_shift(net):
    """Simplified loop-induced Hamiltonian shift using only the direct
    cross terms between the external and looped couplings:
      Omega-_shifted = Omega- - i (k11^dag S_b k21 - k21^dag S_b^dag k11)
      Omega+_shifted = Omega+ - i (k11^dag S_b k22 - k21^dag S_b^dag k12)
    Kept as a separate diagnostic; reduce_network uses the full
    interconnection formulas instead.
    """
    sb = net.s_b
    om = net.plant.omega_minus - 1j * (
        net.k11.conj().T @ sb @ net.k21 - net.k21.conj().T @ sb.conj().T @ net.k11
    )
    op = net.plant.omega_plus - 1j * (
        net.k11.conj().T @ sb @ net.k22 - net.k21.conj().T @ sb.conj().T @ net.k12
    )
    return om, op


def closed_loop_tf(net, s):
    """Direct frequency-domain oracle: evaluate the full plant's quadrature
    transfer function and algebraically close the loop u2 = Sigma_b y2."""
    return _close_loop(net, eval_tf(quad_realization(net.plant), s))


def _close_loop(net, g):
    """Close the loop u2 = Sigma_b y2 around the plant's quadrature G at one point."""
    m, m1, m2 = net.plant.m_channels, net.m1, net.m2
    idx1 = np.r_[0:m1, m:m + m1]
    idx2 = np.r_[m1:m, m + m1:2 * m]
    g11 = g[np.ix_(idx1, idx1)]
    g12 = g[np.ix_(idx1, idx2)]
    g21 = g[np.ix_(idx2, idx1)]
    g22 = g[np.ix_(idx2, idx2)]
    sigma_b = quadrature_image(net.s_b)
    inner = np.eye(2 * m2) - sigma_b @ g22
    return g11 + g12 @ np.linalg.solve(inner, sigma_b @ g21)


@dataclass(frozen=True)
class ReductionReport:
    max_deviation: float
    scale: float
    frequencies: tuple
    passed: bool


def verify_reduction(net, tol=DEFAULT_TOL):
    """Compare the reduced system's transfer function against the directly
    interconnected closed loop at the frequencies REDUCTION_OMEGAS."""
    points = [1j * w for w in REDUCTION_OMEGAS]
    reduced, reduced_singular = _tf_points(
        quad_realization(reduce_network(net, tol=tol)), points)
    plant, plant_singular = _tf_points(quad_realization(net.plant), points)
    dev = 0.0
    scale = 1.0
    for i, (g, red) in enumerate(zip(plant, reduced)):
        if i in plant_singular:
            raise plant_singular[i]
        direct = _close_loop(net, g)
        if i in reduced_singular:
            raise reduced_singular[i]
        dev = max(dev, float(inf_norm(direct - red)))
        scale = max(scale, float(inf_norm(direct)))
    return ReductionReport(max_deviation=dev, scale=scale,
                           frequencies=tuple(float(w) for w in REDUCTION_OMEGAS),
                           passed=dev <= tol * scale)


@dataclass(frozen=True)
class SearchConfig:
    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool) or value < low):
                raise PreconditionError(
                    f"SearchConfig {name} must be an integer >= {low}, "
                    f"got {value!r}")


@dataclass(frozen=True)
class DesignCandidate:
    k11: np.ndarray
    k12: np.ndarray
    k21: np.ndarray
    k22: np.ndarray
    s_b: np.ndarray
    s_plant: np.ndarray
    objective: float
    report: object  # bae.BAEReport for the reduced system
    reduced: QuantumLinearSystem


DEFAULT_SB_CANDIDATES = ("identity", "i", "-i")
DEFAULT_SG_CANDIDATES = ("identity", "swap")


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


def _design_residuals(x, omega_minus, omega_plus, m1, m2, n, s12, s22, w,
                      branch):
    """Residual vector whose squared norm is the design objective with the
    coupling-structure branch ('real' or 'imag') fixed; s12, s22 and the
    loop gain w belong to one validated, well-posed topology. A batch of
    points x[..., dim] gives residuals [..., len]."""
    lead = x.shape[:-1]
    k11, k12, k21, k22 = _unpack(x, m1, m2, n)
    c_minus, c_plus, om, op = _reduce_arrays(k11, k12, k21, k22, s12, s22, w,
                                             omega_minus, omega_plus)
    c_bar = np.concatenate([c_minus, c_plus], axis=-1)
    c_part = np.imag(c_bar) if branch == "imag" else np.real(c_bar)
    return np.concatenate([np.real(om).reshape(*lead, -1),
                           np.real(op).reshape(*lead, -1),
                           c_part.reshape(*lead, -1)], axis=-1)


def _unpack(x, m1, m2, n):
    lead = x.shape[:-1]
    sizes = [m1 * n, m1 * n, m2 * n, m2 * n]
    mats = []
    pos = 0
    for rows, sz in zip((m1, m1, m2, m2), sizes):
        re = x[..., pos:pos + sz].reshape(*lead, rows, n)
        im = x[..., pos + sz:pos + 2 * sz].reshape(*lead, rows, n)
        mats.append(re + 1j * im)
        pos += 2 * sz
    return mats


def _quadratic_model(fixed, branch):
    """Tabulate (r0, L, H) with _design_residuals(x) = r0 + L x + x^T H x / 2
    exactly, from one batched call of the residual kernel.

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
    r = _design_residuals(points, om, op, m1, m2, n, *topology, branch)
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


def design_couplings(omega_minus, omega_plus, split, s_b_candidates=None,
                     search_cfg=None, s_g_candidates=None):
    """Search over coupling gains (k11, k12, k21, k22), beamsplitter
    choices, and plant-scattering topologies for reduced systems whose
    Hamiltonian is purely imaginary and whose coupling is real or purely
    imaginary — the structure certified by the bilateral zero-block
    conditions. The swap topology is essential when Re(Omega) is indefinite:
    with identity plant scattering and a scalar beamsplitter (every
    s_b candidate here) the loop-induced Hamiltonian shift is a
    sign-definite Hermitian form and cannot cancel an indefinite target.

    Random multi-start followed by local refinement (trust-region least
    squares on the residual vector, run once per coupling-structure branch)
    of the objective
      J = ||Re Omega-_red||_F^2 + ||Re Omega+_red||_F^2
          + min(||Im C_red||_F^2, ||Re C_red||_F^2).
    Validation runs once per topology and once per candidate, never per
    residual: each (plant scattering, beamsplitter) topology is validated
    through make_network, and its loop gain W = S_b (I - S22 S_b)^{-1},
    which does not depend on the gains, is computed once. With W fixed the
    residual is exactly quadratic in the packed gains x: the reduced
    C+- = k1. + S12 W k2. are linear in x, F and G are linear in x, the
    Omega shift is built from the products F k2. and G k2., and Omega+-
    enter only additively. So r(x) = r0 + L x + x^T H x / 2 holds exactly;
    (r0, L, H) is tabulated once per topology and branch (_quadratic_model
    gives the derivation and the formulas), and the refinement runs on the
    polynomial with its exact Jacobian L + H x. Each refined point's J is
    recomputed with the residual kernel itself, so the candidate threshold
    and last_best never rest on the tabulation. A topology is skipped
    before any tabulation when its loop is singular, or when
    _objective_floor proves that no gains on it give a computed J at most
    CANDIDATE_THRESHOLD: with S12 = 0 the Omega- shift is sign-definite
    wherever (S22 W - (S22 W)^dag) / 2i is, so J is at least the squared
    norm of the part of Re Omega- of the opposite sign. A skipped
    topology's random starts are still drawn, so later topologies see the
    same starts, and the candidates are those the unpruned search finds.
    Candidates with J at most CANDIDATE_THRESHOLD are re-validated through
    reduce_network and certified with bae.certify_bae (at a tolerance no
    finer than the achieved residual), and returned sorted by J. An empty
    list carries no error; design_couplings.last_best holds the best
    (J, x, s_b, s_plant) found on the refined topologies (a skipped one
    is in no refinement).
    """
    from scipy import optimize  # on first use, so importing feedback does not load it

    cfg = search_cfg or SearchConfig()
    m1, m2 = split
    omega_minus = np.atleast_2d(np.asarray(omega_minus, dtype=complex))
    omega_plus = np.atleast_2d(np.asarray(omega_plus, dtype=complex))
    n = omega_minus.shape[0]
    rng = np.random.default_rng(cfg.seed)
    if s_b_candidates is None:
        s_b_candidates = DEFAULT_SB_CANDIDATES
    if s_g_candidates is None:
        s_g_candidates = DEFAULT_SG_CANDIDATES

    candidates = []
    best = (np.inf, None, None, None)
    dim = 4 * n * (m1 + m2)
    for sg_tag in s_g_candidates:
        sg = _sg_matrix(sg_tag, m1, m2)
        if sg is None:
            continue
        for tag in s_b_candidates:
            sb = _sb_matrix(tag, m2)
            # trivial start first: open loop with real external coupling —
            # already optimal when the Hamiltonian needs no cancellation
            starts = [_pack(np.ones((m1, n)), np.zeros((m1, n)),
                            np.zeros((m2, n)), np.zeros((m2, n)))]
            starts += [rng.standard_normal(dim) for _ in range(cfg.n_starts - 1)]
            topology = make_network(omega_minus, omega_plus,
                                    *_unpack(starts[0], m1, m2, n), sb,
                                    s_plant=sg)
            try:
                w = _loop_gain(topology)
            except WellPosednessError:
                continue  # W ignores the gains: singular for every start
            fixed = (omega_minus, omega_plus, m1, m2, n,
                     topology.s12, topology.s22, w)
            if _objective_floor(fixed) > CANDIDATE_THRESHOLD:
                continue  # no refinement here can reach a candidate
            models = {branch: _quadratic_model(fixed, branch)
                      for branch in ("imag", "real")}
            for x0 in starts:
                for branch in ("imag", "real"):
                    res = optimize.least_squares(
                        _quadratic_residuals, x0, jac=_quadratic_jacobian,
                        args=models[branch],
                        method="trf", max_nfev=REFINE_MAXITER,
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
                    # gate on the kernel itself, not on the tabulation
                    r = _design_residuals(res.x, *fixed, branch)
                    j = float(np.sum(r ** 2))
                    if j < best[0]:
                        best = (j, res.x.copy(), sb, sg)
                    if j > CANDIDATE_THRESHOLD:
                        continue
                    k11, k12, k21, k22 = _unpack(res.x, m1, m2, n)
                    net = make_network(omega_minus, omega_plus,
                                       k11, k12, k21, k22, sb, s_plant=sg)
                    red = reduce_network(net)
                    cert_tol = max(DEFAULT_TOL, 10.0 * np.sqrt(max(j, 0.0)))
                    report = bae.certify_bae(red, tol=cert_tol)
                    candidates.append(DesignCandidate(
                        k11=k11, k12=k12, k21=k21, k22=k22, s_b=sb,
                        s_plant=sg, objective=j, report=report, reduced=red))
    candidates.sort(key=lambda c: c.objective)
    design_couplings.last_best = best  # diagnostic for empty results
    return candidates
