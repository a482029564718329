"""Exact-arithmetic ground truth for the rank verdicts.

Take Gaussian-integer S, C-, C+, Omega-, Omega+ with S a signed
permutation or i times one. Then 2A, B and C of the quadrature realization
are integer matrices: the quadrature image [[Re(U + V), -Im(U - V)],
[Im(U + V), Re(U - V)]] of integer blocks has no sqrt(2), and A's only
fraction is the 1/2 of -(1/2) C^flat C. So the Krylov matrix
[B, (2A) B, ..., (2A)^{N-1} B] and the observability matrix
[C; C (2A); ...; C (2A)^{N-1}] (N = 2n) are integer matrices, and their
ranks are decided with no tolerance by Bareiss's fraction-free elimination
(Math. Comp. 22(103):565-578, 1968) on Python ints.

A real orthogonal mode change (C+- -> C+- Q^T, Omega+- -> Q Omega+- Q^T)
is the orthogonal similarity blockdiag(Q, Q) of the quadrature
realization, so the exact ranks of the integer system are also the truth
for the rotated float system, whose structural zeros are no longer exact
floating-point zeros.

Everything here is test-side and independent of qlinbae's realization:
the blocks are multiplied out in int64 from the closed forms.
"""

import numpy as np

from qlinbae import qsys


def bareiss_rank(rows):
    """Rank of an integer matrix, given as a list of rows of Python ints.

    Fraction-free elimination with row pivoting; a column without a pivot
    is skipped. After k pivots every remaining entry is a (k+1) x (k+1)
    minor, so each division by the previous pivot is exact (Sylvester's
    identity) and the entries stay as large as those minors.
    """
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for row in m[rank + 1:]:
            f = row[col]
            for j in range(col + 1, len(top)):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def _object(x):
    return np.array(np.asarray(x).tolist(), dtype=object)


def krylov_rank(a2, b):
    """Exact rank of [B, (2A) B, ..., (2A)^{N-1} B] for integer 2A and B."""
    a2, block = _object(a2), _object(b)
    cols = [block]
    for _ in range(a2.shape[0] - 1):
        block = a2 @ block
        cols.append(block)
    return bareiss_rank(np.hstack(cols).tolist())


def observability_rank(a2, c):
    """Exact rank of [C; C (2A); ...; C (2A)^{N-1}] for integer 2A and C."""
    return krylov_rank(np.asarray(a2).T, np.asarray(c).T)


# ---------------------------------------------- Gaussian-integer systems
# A Gaussian-integer matrix is a pair (re, im) of int64 arrays.

def _mul(x, y):
    return (x[0] @ y[0] - x[1] @ y[1], x[0] @ y[1] + x[1] @ y[0])


def _add(x, y, sign=1):
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def _h(x):
    return (x[0].T, -x[1].T)


def _t(x):
    return (x[0].T, x[1].T)


def _conj(x):
    return (x[0], -x[1])


def _image(u, v):
    plus, minus = _add(u, v), _add(u, v, -1)
    return np.block([[plus[0], -minus[1]], [plus[1], minus[0]]])


def integer_realization(s, cm, cp, om, op):
    """(2A, B, C) of the quadrature realization, as int64 arrays.

    The doubled-up blocks of 2A are -2i Omega-+ - (C-^dag C-+ - C+^T
    C-+^#) with the sign pairing of qsys.quad_realization, those of B are
    (-C-^dag S, C+^T S^#) and those of C are (C-, C+).
    """
    def minus_2i(x):
        return (2 * x[1], -2 * x[0])

    u = _add(minus_2i(om), _add(_mul(_h(cm), cm), _mul(_t(cp), _conj(cp)), -1), -1)
    v = _add(minus_2i(op), _add(_mul(_h(cm), cp), _mul(_t(cp), _conj(cm)), -1), -1)
    b_u = _mul(_h(cm), s)
    b = _image((-b_u[0], -b_u[1]), _mul(_t(cp), _conj(s)))
    return _image(u, v), b, _image(cm, cp)


def _gauss(rng, shape, kind="complex", span=3):
    re = rng.integers(-span, span + 1, shape)
    im = rng.integers(-span, span + 1, shape)
    if kind == "real":
        im = np.zeros_like(im)
    elif kind == "imag":
        re = np.zeros_like(re)
    return (re, im)


def _scattering(rng, m):
    perm = np.eye(m, dtype=np.int64)[rng.permutation(m)]
    signed = perm * rng.choice([-1, 1], m)
    zero = np.zeros_like(signed)
    return (zero, signed) if rng.integers(2) else (signed, zero)


FAMILIES = ("generic", "autonomous", "imag_omega")


def integer_system(rng, family, n, m):
    """Gaussian-integer (S, C-, C+, Omega-, Omega+), each a (re, im) pair.

    generic: free couplings and Hamiltonian;
    autonomous: C- = sign C+ and a real Omega- = sign Omega+ (the
      p_coupling / q_coupling case);
    imag_omega: purely imaginary Omega with C- = sign C+ real or purely
      imaginary (the imag_omega case).
    """
    s = _scattering(rng, m)
    sign = int(rng.choice([-1, 1]))
    if family == "generic":
        cm, cp = _gauss(rng, (m, n)), _gauss(rng, (m, n))
        h, y = _gauss(rng, (n, n)), _gauss(rng, (n, n))
        om = _add(h, _h(h))
        op = _add(y, _t(y))
        return s, cm, cp, om, op
    if family == "autonomous":
        cm = _gauss(rng, (m, n))
        r = rng.integers(-3, 4, (n, n))
        om = (r + r.T, np.zeros((n, n), dtype=np.int64))
        return s, cm, (sign * cm[0], sign * cm[1]), om, (sign * om[0], sign * om[1])
    if family == "imag_omega":
        cm = _gauss(rng, (m, n), kind=("real", "imag")[int(rng.integers(2))])
        r, t = rng.integers(-3, 4, (n, n)), rng.integers(-3, 4, (n, n))
        zero = np.zeros((n, n), dtype=np.int64)
        return s, cm, (sign * cm[0], sign * cm[1]), (zero, r - r.T), (zero, t + t.T)
    raise ValueError(f"unknown family {family!r}")


def float_system(blocks, q=None):
    """The float system of integer blocks, after the real orthogonal mode
    change q (none if q is None)."""
    s, cm, cp, om, op = (x[0] + 1j * x[1] for x in blocks)
    if q is not None:
        cm, cp = cm @ q.T, cp @ q.T
        om, op = q @ om @ q.T, q @ op @ q.T
    return qsys.new_system(s, cm, cp, om, op)


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))
