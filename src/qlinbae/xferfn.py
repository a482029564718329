"""Transfer-function evaluation and exact zero-block certification.

G[s] = D + C (sI - A)^{-1} B. For a rational transfer function, a block is
identically zero iff its feedthrough sub-block and all Markov parameters up
to the Cayley-Hamilton horizon vanish; a log-spaced frequency sweep along
the imaginary axis serves as an independent witness.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularityError
from .matcore import DEFAULT_TOL, flat_adjoint, inf_norm, j_diag
from .qsys import ac_realization

COND_LIMIT = 1e12
DEFAULT_FREQS = np.logspace(-3.0, 3.0, 32)


def _resolvent_solve(a, s, rhs, cond_limit=COND_LIMIT):
    """Solve (sI - A) X = rhs via factorization, guarding the conditioning."""
    m = s * np.eye(a.shape[0]) - a
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SingularityError(
            f"resolvent ill-conditioned at s={s}: cond={cond:.3e}", cond=cond
        )
    return np.linalg.solve(m, rhs)


def eval_tf(r, s, cond_limit=COND_LIMIT):
    """Evaluate D + C (sI - A)^{-1} B at a complex point s."""
    x = _resolvent_solve(np.asarray(r.a, dtype=complex), complex(s),
                         np.asarray(r.b, dtype=complex), cond_limit)
    return np.asarray(r.d, dtype=complex) + np.asarray(r.c, dtype=complex) @ x


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


def _sub(x, m, which):
    i, j = _BLOCK_SLICES[which]
    return x[i * m:(i + 1) * m, j * m:(j + 1) * m]


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
    params = markov_params(r, horizon)

    max_markov = {name: 0.0 for name in _BLOCK_SLICES}
    for p in params:
        for name in _BLOCK_SLICES:
            max_markov[name] = max(max_markov[name], inf_norm(_sub(p, m, name)))

    if freqs is None:
        freqs = DEFAULT_FREQS
    max_freq = {name: 0.0 for name in _BLOCK_SLICES}
    for w in freqs:
        try:
            g = eval_tf(r, 1j * w)
        except SingularityError:
            continue  # marginally stable pole on the axis; Markov data still decides
        for name in _BLOCK_SLICES:
            max_freq[name] = max(max_freq[name], inf_norm(_sub(g, m, name)))

    certs = {
        name: BlockCert(
            zero=(max_markov[name] <= tol * scale and max_freq[name] <= tol * scale),
            max_markov=max_markov[name],
            max_freq=max_freq[name],
        )
        for name in _BLOCK_SLICES
    }
    return BlockPattern(**certs)


def sigma_tf(sys, s, cond_limit=COND_LIMIT):
    """The coupling-weighted resolvent (1/2) C (sI + i J_n Omega)^{-1} C^flat."""
    cc = sys.coupling
    a = -1j * j_diag(sys.n_modes) @ sys.omega
    return 0.5 * cc @ _resolvent_solve(a, complex(s), flat_adjoint(cc), cond_limit)


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


def frequency_sweep(r, omegas, cond_limit=COND_LIMIT):
    """Evaluate |G(i*omega)| entrywise over a frequency grid.

    Returns an array of shape (len(omegas), 2m, 2m) of magnitudes; rows at
    frequencies where the resolvent is ill-conditioned (resonances) are NaN.
    """
    out = np.empty((len(omegas), r.d.shape[0], r.d.shape[1]))
    for idx, w in enumerate(omegas):
        try:
            out[idx] = np.abs(eval_tf(r, 1j * w, cond_limit))
        except SingularityError:
            out[idx] = np.nan
    return out
