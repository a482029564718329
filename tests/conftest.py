"""Shared construction helpers for structured random systems.

Each helper builds a valid parameter set that satisfies one of the
structural hypotheses under test (commuting coupling, single-channel
conserved quadrature, autonomous-quadrature coupling, ...) so the test
files can focus on the claims themselves.
"""

import numpy as np
import pytest
from scipy.linalg import null_space

from qlinbae import qsys, xferfn


@pytest.fixture(autouse=True)
def cold_schur_memo():
    """Empty xferfn's memo of its last Schur form before each test, so that
    a test counting factorizations, or replacing xferfn._gees, sees the
    same calls whichever test ran before it."""
    xferfn._schur_of.cache_clear()


# random_system keyword arguments that realize each cataloged hypothesis set
FAMILY_KWARGS = {
    "bilateral_diag_real_coupling": dict(omega="imag", coupling="real",
                                         scattering="real"),
    "bilateral_diag_imag_coupling": dict(omega="imag", coupling="imag",
                                         scattering="real"),
    "bilateral_offdiag_real_coupling": dict(omega="imag", coupling="real",
                                            scattering="imag"),
    "bilateral_offdiag_imag_coupling": dict(omega="imag", coupling="imag",
                                            scattering="imag"),
    "equal_re_omega_S_real_C_real": dict(omega="equal_re", coupling="real",
                                         scattering="real"),
    "equal_re_omega_S_real_C_imag": dict(omega="equal_re", coupling="imag",
                                         scattering="real"),
    "equal_re_omega_S_imag_C_real": dict(omega="equal_re", coupling="real",
                                         scattering="imag"),
    "equal_re_omega_S_imag_C_imag": dict(omega="equal_re", coupling="imag",
                                         scattering="imag"),
    "opposite_re_omega_S_real_C_real": dict(omega="opposite_re",
                                            coupling="real",
                                            scattering="real"),
    "opposite_re_omega_S_real_C_imag": dict(omega="opposite_re",
                                            coupling="imag",
                                            scattering="real"),
    "opposite_re_omega_S_imag_C_real": dict(omega="opposite_re",
                                            coupling="real",
                                            scattering="imag"),
    "opposite_re_omega_S_imag_C_imag": dict(omega="opposite_re",
                                            coupling="imag",
                                            scattering="imag"),
    "q_coupling_imag_C": dict(coupling="imag", scattering="real",
                              c_relation="equal"),
    "p_coupling_imag_C": dict(coupling="imag", scattering="real",
                              c_relation="opposite"),
}


def rand_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rand_hermitian(rng, n, scale=1.0):
    x = rand_complex(rng, (n, n), scale)
    return 0.5 * (x + x.conj().T)


def rand_symmetric(rng, n, scale=1.0):
    x = rand_complex(rng, (n, n), scale)
    return 0.5 * (x + x.T)


def rand_unitary(rng, m):
    q, r = np.linalg.qr(rand_complex(rng, (m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def imag_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return 1j * scale * (a - a.T)


def imag_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return 1j * scale * (a + a.T)


def commuting_interaction_system(rng, n=3, m=1, scattering="identity"):
    """Random system whose coupling operators all commute with the
    Hamiltonian: the Hamiltonian blocks are supported on a joint kernel of
    C- and C+^#, which forces every commutator coefficient to vanish."""
    cm = rand_complex(rng, (m, n))
    cp = rand_complex(rng, (m, n))
    k = null_space(np.vstack([cm, cp.conj()]))
    r = k.shape[1]
    if r == 0:
        raise ValueError("no kernel left; choose n > 2m")
    om = k @ rand_hermitian(rng, r) @ k.conj().T
    op = k @ rand_symmetric(rng, r) @ k.T
    if scattering == "identity":
        s = np.eye(m)
    else:
        s = rand_unitary(rng, m)
    return qsys.new_system(s, cm, cp, om, op)


def special_case_system(rng, case, n=3, m=1):
    """Random instance of one of the four tractable commuting families."""
    if case == "Cplus_zero":
        cm = rand_complex(rng, (m, n))
        cp = np.zeros((m, n), dtype=complex)
    elif case == "Cminus_zero":
        cm = np.zeros((m, n), dtype=complex)
        cp = rand_complex(rng, (m, n))
    else:
        # cross-symmetry C- C+^T = (C- C+^T)^T via a scalar multiple
        cm = rand_complex(rng, (m, n))
        cp = (rng.standard_normal() + 1j * rng.standard_normal()) * cm
    k = null_space(np.vstack([cm, cp.conj()]))
    r = k.shape[1]
    om = k @ rand_hermitian(rng, r) @ k.conj().T
    op = k @ rand_symmetric(rng, r) @ k.T
    if case == "Omegaplus_zero":
        op = np.zeros((n, n), dtype=complex)
    elif case == "Omegaminus_zero":
        om = np.zeros((n, n), dtype=complex)
    return qsys.new_system(np.eye(m), cm, cp, om, op)


def siso_conserved_quadrature_system(rng, n=3, branch="q"):
    """Single-channel system in which L + L^dag (branch 'q') or L - L^dag
    (branch 'p') commutes with the Hamiltonian: the Hamiltonian blocks are
    supported on the kernel of u = C- + C+^# (resp. w = C- - C+^#)."""
    cm = rand_complex(rng, (1, n))
    cp = rand_complex(rng, (1, n))
    vec = cm + cp.conj() if branch == "q" else cm - cp.conj()
    k = null_space(vec)
    r = k.shape[1]
    om = k @ rand_hermitian(rng, r) @ k.conj().T
    op = k @ rand_symmetric(rng, r) @ k.T
    return qsys.new_system(np.eye(1), cm, cp, om, op)


def autonomous_quadrature_system(rng, n=2, m=2, which="p"):
    """Coupling through a single quadrature with the matching Hamiltonian
    sign pairing: which='p' uses C- = -C+ and Omega- = -Omega+ (so p evolves
    autonomously), which='q' uses C- = C+ and Omega- = Omega+. The symmetry
    constraints force the Hamiltonian blocks to be real."""
    c = rand_complex(rng, (m, n))
    a = rng.standard_normal((n, n))
    om = 0.5 * (a + a.T)  # real: must be Hermitian and (-1)^k-symmetric
    if which == "p":
        return qsys.new_system(np.eye(m), c, -c, om, -om)
    return qsys.new_system(np.eye(m), c, c, om, om)


def imag_omega_coupled_system(rng, n=2, m=2, which="p", c_style="real"):
    """Purely imaginary Hamiltonian blocks with C- = -C+ (which='p') or
    C- = C+ (which='q') and a real or purely imaginary coupling block."""
    c = rng.standard_normal((m, n))
    if c_style == "imag":
        c = 1j * c
    om = imag_hermitian(rng, n)
    op = imag_symmetric(rng, n)
    if which == "p":
        return qsys.new_system(np.eye(m), c, -c, om, op)
    return qsys.new_system(np.eye(m), c, c, om, op)


def random_kalman_subsystem(rng, r=2, m=2, symmetric_product=False,
                            consistent_dynamics=True):
    """Random controllable-and-observable block assembled from complex
    coupling matrices. symmetric_product makes Re(Gamma_q Gamma_p^T)
    symmetric by taking real parts proportional; consistent_dynamics sets
    A_co = (1/2) B_co C_co so the structural premise holds exactly."""
    from qlinbae import kalman

    gq = rand_complex(rng, (m, r))
    if symmetric_product:
        alpha = rng.standard_normal()
        gp = alpha * np.real(gq) + 1j * rng.standard_normal((m, r))
    else:
        gp = rand_complex(rng, (m, r))
    b = kalman.b_from_gamma(gq, gp)
    c = kalman.c_from_gamma(gq, gp)
    if consistent_dynamics:
        a = 0.5 * b @ c
    else:
        a = rng.standard_normal((2 * r, 2 * r))
    return kalman.KalmanCoSubsystem(a_co=a, b_co=b, c_co=c,
                                    gamma_q=gq, gamma_p=gp)


def random_feedback_network(rng, n=2, m1=1, m2=2):
    """Random well-posed network: generic Hamiltonian/couplings with a
    random unitary beamsplitter (generically I - S22 S_b is invertible)."""
    from qlinbae import feedback

    while True:
        net = feedback.make_network(
            omega_minus=rand_hermitian(rng, n),
            omega_plus=rand_symmetric(rng, n),
            k11=rand_complex(rng, (m1, n)),
            k12=rand_complex(rng, (m1, n)),
            k21=rand_complex(rng, (m2, n)),
            k22=rand_complex(rng, (m2, n)),
            s_b=rand_unitary(rng, m2),
        )
        loop = np.eye(m2) - net.s22 @ net.s_b
        if np.linalg.cond(loop) < 1e6:
            return net


def node_error_bound(r):
    """The bound of the xferfn module docstring on a node value's forward
    error, over the scale max(1, max |G_ij|) of block_pattern, with the
    constant c set to 2: 2 (N + 7) eps (3 / (sqrt(2) - 1)^2 + 2m) for N
    states and 2m outputs."""
    return 2 * (r.a.shape[0] + 7) * np.finfo(float).eps * (
        3 / (np.sqrt(2) - 1) ** 2 + r.d.shape[0])


def schur_deviation_bound(r, s):
    """2 delta(s), the bound of the xferfn module docstring on how far its
    Schur-form value of G(s) lies from the per-point np.linalg.solve one,
    with the constant c set to 2:

        4 (N + 7) eps (beta(s) ||C||_2 ||X||_2 + ||G||_2),
        beta(s) = (|s| + ||A||_F) / smin(sI - A),

    with X = (sI - A)^{-1} B and G = D + C X from the per-point solve; the
    7 counts the fixed roundings of complex arithmetic that the module
    docstring adds to N. Over the families, pole grids and non-normal A of
    test_xferfn the largest deviation is about 0.4 N eps
    (beta ||C|| ||X|| + ||G||), on the small random systems of the
    pole-grid test; it stays below 0.1 on the families at n >= 8 and below
    0.2 on the non-normal A. On 3000 random triangular cases of the kind
    test_schur_solve_matches_per_point_solve draws, at N = 1 to 4, it
    reaches 0.87, 0.23, 0.11 and 0.04 of 4 N eps (...), and 0.11, 0.05,
    0.03 and 0.02 of this bound.
    """
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (r.a, r.b, r.c, r.d))
    n = a.shape[0]
    m = s * np.eye(n) - a
    x = np.linalg.solve(m, b)
    beta = (abs(s) + np.linalg.norm(a)) / np.linalg.svd(m, compute_uv=False)[-1]
    return 4 * (n + 7) * np.finfo(float).eps * (
        beta * np.linalg.norm(c, 2) * np.linalg.norm(x, 2) + np.linalg.norm(d + c @ x, 2))
