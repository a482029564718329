"""Transfer-function evaluation and exact zero-block certification.

G[s] = D + C (sI - A)^{-1} B. For a rational transfer function, a block is
identically zero iff its feedthrough sub-block and all Markov parameters up
to the Cayley-Hamilton horizon vanish; a log-spaced frequency sweep along
the imaginary axis serves as an independent witness.

Every resolvent solve is guarded: s is a singular point (a resonance) when
the 2-norm condition number cond2(sI - A), computed from an SVD, is not
finite or exceeds COND_LIMIT. On a grid, one eigendecomposition
A V = V Lambda + R bounds cond2(sI - A) at every point at once: with
kappa = cond2(V) and rho = ||R||_F / smin(V),

    sI - A = V (sI - Lambda) V^{-1} - R V^{-1},

so smax(sI - A) <= kappa * max|s - lambda| + rho (triangle inequality) and
smin(sI - A) >= min|s - lambda| / kappa - rho (Bauer-Fike for the first
term, Weyl for the residual), hence

    cond2(sI - A) <= (kappa * max|s - lambda| + rho)
                     / (min|s - lambda| / kappa - rho)

wherever the denominator is positive. A point whose bound is at most
COND_LIMIT / 2 is accepted without an SVD; every other point gets its own
SVD (see `_resolvent_points`). The verdict and the solved values are those
of an SVD at every point.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularityError
from .matcore import DEFAULT_TOL, flat_adjoint, inf_norm, j_diag
from .qsys import ac_realization

COND_LIMIT = 1e12
DEFAULT_FREQS = np.logspace(-3.0, 3.0, 32)


def _cond_bound(a, points):
    """Upper bounds on cond2(sI - A) at each point from one eigendecomposition
    (derived in the module docstring).

    rho = ||R||_F / smin(V) majorizes ||R V^{-1}||_2, so the residual of the
    computed decomposition is part of the bound. A point gets inf where the
    denominator is not positive, and every point does when eig fails (it
    rejects a non-finite A) or V is singular: there is no certificate then.
    """
    none = np.full(len(points), np.inf)
    try:
        lam, v = np.linalg.eig(a)
        sv = np.linalg.svd(v, compute_uv=False)
    except np.linalg.LinAlgError:
        return none
    if not sv[-1] > 0:
        return none
    kappa = sv[0] / sv[-1]
    rho = np.linalg.norm(a @ v - v * lam) / sv[-1]
    dist = np.abs(np.asarray(points, dtype=complex)[:, None] - lam)
    with np.errstate(all="ignore"):
        lo = dist.min(axis=1) / kappa - rho  # lower bound on smin(sI - A)
        return np.where(lo > 0, (kappa * dist.max(axis=1) + rho) / lo, np.inf)


def _resolvent_points(a, points, rhs):
    """Solve (sI - A) X = rhs at each point s, guarding the conditioning.

    Yields, per point, X from np.linalg.solve, or the SingularityError (not
    raised) of a point whose cond2(sI - A) is not finite or exceeds
    COND_LIMIT. A call of more than one point computes `_cond_bound` once;
    a point whose bound is at most COND_LIMIT / 2 is accepted without an
    SVD. The factor 2 absorbs the roundoff of computed singular values
    (relative error about n * eps * cond, ~1e-2 for n <= 64 at cond = 1e12)
    and of the computed decomposition, so the SVD would have accepted the
    point too. Every other point, and the point of a one-point call (where
    eig costs more than the SVD it would save), gets an exact SVD, with
    cond2 computed exactly as np.linalg.cond computes it.
    """
    eye = np.eye(a.shape[0])
    certified = (_cond_bound(a, points) <= COND_LIMIT / 2 if len(points) > 1
                 else np.zeros(len(points), dtype=bool))
    for s, skip_svd in zip(points, certified):
        s = complex(s)
        m = s * eye - a
        if not skip_svd:
            sv = np.linalg.svd(m, compute_uv=False)
            with np.errstate(all="ignore"):
                cond = sv[0] / sv[-1]
            if np.isnan(cond) and not np.isnan(m).any():
                cond = np.float64(np.inf)  # np.linalg.cond's NaN rule
            if not np.isfinite(cond) or cond > COND_LIMIT:
                yield SingularityError(
                    f"resolvent ill-conditioned at s={s}: cond={cond:.3e}", cond=cond
                )
                continue
        yield np.linalg.solve(m, rhs)


def _tf_points(r, points):
    """Yield D + C (sI - A)^{-1} B, or the point's SingularityError, per point."""
    c = np.asarray(r.c, dtype=complex)
    d = np.asarray(r.d, dtype=complex)
    for x in _resolvent_points(np.asarray(r.a, dtype=complex), points,
                               np.asarray(r.b, dtype=complex)):
        yield x if isinstance(x, SingularityError) else d + c @ x


def _single(values):
    """The value of a one-point evaluation; raises its SingularityError."""
    (value,) = values
    if isinstance(value, SingularityError):
        raise value
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
    max_freq = _block_maxima(
        [g for g in _tf_points(r, [1j * w for w in freqs])
         if not isinstance(g, SingularityError)], m)

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
    return 0.5 * cc @ _single(_resolvent_points(a, [s], flat_adjoint(cc)))


def cayley_tf(sys, s):
    """Annihilation-creation transfer function via the Cayley form
    (I - Sigma[s]) (I + Sigma[s])^{-1} D; independent of the realization path."""
    sig = sigma_tf(sys, s)
    m2 = sig.shape[0]
    dd = np.block(
        [
            [sys.s, np.zeros_like(sys.s)],
            [np.zeros_like(sys.s), sys.s.conj()],
        ]
    )
    return (np.eye(m2) - sig) @ np.linalg.solve(np.eye(m2) + sig, dd)


def frequency_sweep(r, omegas):
    """Evaluate |G(i*omega)| entrywise over a frequency grid.

    Returns an array of shape (len(omegas), 2m, 2m) of magnitudes; rows at
    frequencies where the resolvent is ill-conditioned (resonances) are NaN.
    A row is NaN exactly when cond2(i*omega I - A) is not finite or exceeds
    COND_LIMIT. One eigendecomposition of A bounds cond2 on the whole grid
    (Bauer-Fike plus the residual term rho, see the module docstring);
    rows whose bound is at most COND_LIMIT / 2 skip the SVD, and the rest,
    typically those next to a resonance or of a strongly non-normal A
    (large cond2(V)), get an exact SVD each.
    """
    out = np.empty((len(omegas), r.d.shape[0], r.d.shape[1]))
    for idx, g in enumerate(_tf_points(r, [1j * w for w in omegas])):
        out[idx] = np.nan if isinstance(g, SingularityError) else np.abs(g)
    return out
