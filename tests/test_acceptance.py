"""Acceptance gate: ten end-to-end criteria, each printing one PASS/FAIL
line at its stated tolerance. Lines are printed outside pytest's capture so
they always appear in the run log.
"""

import time

import numpy as np
import pytest

from qlinbae import bae, feedback, kalman, matcore, qnd, qsys, smesim, xferfn

import exact
from conftest import (
    FAMILY_KWARGS,
    autonomous_quadrature_system,
    commuting_interaction_system,
    random_feedback_network,
    random_kalman_subsystem,
    siso_conserved_quadrature_system,
    special_case_system,
)
from test_feedback import K11, K12, K21, K22, OM_MINUS, OM_PLUS
from test_qnd import _three_forms


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_interferometer_q_measurement(capsys):
    t0 = time.perf_counter()
    sys_obj = qsys.michelson_system(mass=1.0, omega_m=1.0, lam=1.0)
    r = qsys.quad_realization(sys_obj)
    pattern = xferfn.block_pattern(r, tol=1e-10)
    params = xferfn.markov_params(r, 8)
    scale = max(matcore.inf_norm(x) for x in (r.a, r.b, r.c, r.d))
    markov_ok = all(matcore.inf_norm(p[:2, 2:]) <= 1e-10 * scale
                    for p in params)
    report = bae.certify_bae(sys_obj, tol=1e-10)
    matched = {m.condition_id for m in report.matched_conditions}
    elapsed = time.perf_counter() - t0
    ok = ("qp" in pattern.zero_blocks() and markov_ok
          and bae.QP in report.certified_pairs
          and "q_coupling_imag_C" in matched and elapsed < 1.0)
    _report(capsys, 1, ok,
            f"interferometer qp block zero at 1e-10, matched "
            f"q_coupling_imag_C, {elapsed:.2f}s")


def test_criterion_02_diagonal_closed_forms(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys_obj = qsys.random_system(rng, n, m, omega="imag",
                                     coupling="real", scattering="real")
        s = complex(rng.uniform(0.5, 2.0), rng.standard_normal())
        gq, gp = bae.closed_form_diag_tf(sys_obj, s)
        g = xferfn.eval_tf(qsys.quad_realization(sys_obj), s)
        scale = max(matcore.inf_norm(g), 1.0)
        dev = max(matcore.inf_norm(g[:m, :m] - gq),
                  matcore.inf_norm(g[m:, m:] - gp)) / scale
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(capsys, 2, ok,
            f"100 diagonal closed forms vs state space, max relative "
            f"deviation {worst:.2e} <= 1e-10, {elapsed:.2f}s")


def test_criterion_03_structural_catalog(capsys):
    rng = np.random.default_rng(30)
    failures = []
    catalog = {c.condition_id: c for c in bae.CONDITION_CATALOG}
    structural = [cid for cid in catalog
                  if cid.startswith(("bilateral", "equal_re", "opposite_re"))]
    for cid in structural:
        for _ in range(50):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            sys_obj = qsys.random_system(rng, n, m, **FAMILY_KWARGS[cid])
            report = bae.certify_bae(sys_obj, tol=1e-10)
            if not catalog[cid].predicted_pairs <= report.certified_pairs:
                failures.append(cid)
    ok = not failures
    _report(capsys, 3, ok,
            f"{len(structural)} structural families x 50 systems: predicted "
            f"zero blocks certified at 1e-10"
            + (f"; failures {sorted(set(failures))}" if failures else ""))


def test_criterion_04_commutation_equivalence(capsys):
    rng = np.random.default_rng(40)
    disagreements = 0
    for i in range(500):
        if i % 2 == 0:
            sys_obj = commuting_interaction_system(rng, n=3, m=1)
        else:
            sys_obj = qsys.random_system(rng, int(rng.integers(1, 4)),
                                         int(rng.integers(1, 4)))
        pairwise, coeff_form, collapsed_form = _three_forms(sys_obj, tol=1e-10)
        if not (pairwise == coeff_form == collapsed_form
                == qnd.is_qnd_interaction(sys_obj, tol=1e-10)):
            disagreements += 1
    ok = disagreements == 0
    _report(capsys, 4, ok,
            f"500 systems: commutation criteria agree in all three forms, "
            f"{disagreements} disagreements")


def test_criterion_05_siso_allpass(capsys):
    rng = np.random.default_rng(50)
    s_values = 0.4 + 1j * np.logspace(-2, 2, 32)
    worst = 0.0
    for branch, idx in (("q", 0), ("p", 1)):
        for _ in range(100):
            sys_obj = siso_conserved_quadrature_system(rng, n=3,
                                                       branch=branch)
            res = qnd.siso_analysis(sys_obj, tol=1e-8)
            r = qsys.quad_realization(sys_obj)
            for s in s_values:
                g = xferfn.eval_tf(r, s)
                dev = abs(g[idx, idx] - res.tf_at(s)) / max(abs(g[idx, idx]),
                                                            1.0)
                worst = max(worst, dev)
    ok = worst <= 1e-10
    _report(capsys, 5, ok,
            f"200 single-channel conserved-quadrature systems: diagonal "
            f"entry matches (s-g/2)/(s+g/2) at 32 points, max deviation "
            f"{worst:.2e} <= 1e-10")


def test_criterion_06_special_case_closed_forms(capsys):
    rng = np.random.default_rng(60)
    worst = 0.0
    identity_worst = 0.0
    for case in qnd.SPECIAL_CASES:
        for _ in range(50):
            n = int(rng.integers(3, 5))
            m = int(rng.integers(1, (n - 1) // 2 + 1))
            sys_obj = special_case_system(rng, case, n=n, m=m)
            s = complex(rng.uniform(0.5, 2.0), rng.standard_normal())
            g_closed = qnd.special_case_tf(sys_obj, case, s)
            g_full = xferfn.eval_tf(qsys.ac_realization(sys_obj), s)
            scale = max(matcore.inf_norm(g_full), 1.0)
            worst = max(worst, matcore.inf_norm(g_closed - g_full) / scale)
            if case in ("Cplus_zero", "Cminus_zero"):
                c = sys_obj.coupling
                cjo = c @ matcore.j_diag(n) @ sys_obj.omega
                sigma = xferfn.sigma_tf(sys_obj, s)
                ccflat = c @ matcore.flat_adjoint(c)
                cscale = max(matcore.inf_norm(c) ** 2, 1.0)
                identity_worst = max(
                    identity_worst,
                    matcore.inf_norm(cjo) / cscale,
                    matcore.inf_norm(sigma * 2.0 * s - ccflat) / cscale)
    ok = worst <= 1e-10 and identity_worst <= 1e-10
    _report(capsys, 6, ok,
            f"4 commuting families x 50: closed form vs full evaluation "
            f"{worst:.2e}, one-sided identities {identity_worst:.2e}, "
            f"both <= 1e-10")


def test_criterion_07_feedback_reduction_oracle(capsys):
    rng = np.random.default_rng(70)
    worst = 0.0
    for i in range(100):
        m1 = 1 + i % 2
        net = random_feedback_network(rng, n=2, m1=m1, m2=2)
        report = feedback.verify_reduction(net, tol=1e-9)
        worst = max(worst, report.max_deviation / report.scale)
    anchor = feedback.make_network(OM_MINUS, OM_PLUS, K11, K12, K21, K22,
                                   s_b=-1j * np.eye(1))
    om, op = exact.crossterm_hamiltonian_shift(anchor)
    anchor_imag = (exact.is_imag(om, tol=1e-10)
                   and exact.is_imag(op, tol=1e-10))
    ok = worst <= 1e-9 and anchor_imag
    _report(capsys, 7, ok,
            f"100 random networks: reduced transfer matches closed loop, "
            f"max relative deviation {worst:.2e} <= 1e-9; worked example "
            f"cross-term Hamiltonian purely imaginary at 1e-10")


def test_criterion_08_canonical_zero_products(capsys):
    root2 = np.sqrt(2.0)
    k_ex = kalman.KalmanCoSubsystem(a_co=-1.0 * np.eye(2),
                                    b_co=-root2 * np.eye(2),
                                    c_co=root2 * np.eye(2))
    exact = (np.all(k_ex.c_q @ k_ex.b_p == 0.0)
             and np.all(k_ex.c_p @ k_ex.b_q == 0.0))
    rng = np.random.default_rng(80)
    mismatches = 0
    for i in range(200):
        k = random_kalman_subsystem(rng, r=2, m=2,
                                    symmetric_product=(i % 2 == 0),
                                    consistent_dynamics=True)
        condition = kalman.check_kalman_bae(k, tol=1e-10)["q_wrt_p"]
        scale = max(np.abs(k.c_co).max() * np.abs(k.b_co).max(), 1.0)
        blocks_zero = True
        a_pow = np.eye(4)
        for j in range(9):
            if np.abs(k.c_q @ a_pow @ k.b_p).max() > 1e-10 * scale ** (j + 1):
                blocks_zero = False
                break
            a_pow = a_pow @ k.a_co
        if condition != blocks_zero:
            mismatches += 1
    ok = exact and mismatches == 0
    _report(capsys, 8, ok,
            f"measurement-rate example products exactly 0; 200 instances: "
            f"zero-product condition <=> blocked Markov parameters zero at "
            f"1e-10, {mismatches} mismatches")


def test_criterion_09_measurement_martingale(capsys):
    t0 = time.perf_counter()
    c = np.array([[1.0]], dtype=complex)
    z = np.zeros((1, 1))
    sys_obj = qsys.new_system(np.eye(1), c, c, z, z)  # L = sqrt(2) q, H = 0
    ops = smesim.build_truncated_operators(sys_obj, fock_dim=8)
    l = ops.l_ops[0]
    proj = smesim.spectral_projections(l)
    gs = np.zeros(8)
    gs[0] = 1.0
    rho0 = 0.5 * np.outer(gs, gs) + 0.5 * np.eye(8) / 8.0
    tracked = [("L", l), ("L2", l @ l)] + [
        (f"P{j}", p) for j, (_, p) in enumerate(proj)]
    batch = smesim.simulate_qsme(ops, rho0, dt=1e-3, T=1.0, n_traj=2000,
                                 seed=900, tracked=tracked, store_every=10)
    stats = smesim.martingale_stats(batch)
    positive_ok = all(e.passed for e in stats)

    # negative control: H = p^2 analog does not commute with L = q
    sys_neg = qsys.new_system(np.eye(1), c / np.sqrt(2.0), c / np.sqrt(2.0),
                              np.array([[1.0]]), np.array([[-1.0]]))
    ops_neg = smesim.build_truncated_operators(sys_neg, fock_dim=8)
    ln = ops_neg.l_ops[0]
    batch_neg = smesim.simulate_qsme(ops_neg, rho0, dt=1e-3, T=1.0,
                                     n_traj=400, seed=901,
                                     tracked=[("L", ln), ("L2", ln @ ln)],
                                     store_every=10)
    neg_stats = smesim.martingale_stats(batch_neg)
    negative_ok = any(not e.passed for e in neg_stats)
    elapsed = time.perf_counter() - t0
    ok = positive_ok and negative_ok and elapsed < 60.0
    # the exact drifts of the L and L^2 means, from the master equation
    ends = [0.0, 1.0]
    exact = np.diff(smesim.lindblad_means(
        ops, rho0, ends, tracked[:2]), axis=0)[0]
    exact_neg = np.diff(smesim.lindblad_means(
        ops_neg, rho0, ends, [("L", ln), ("L2", ln @ ln)]), axis=0)[0]
    drifts = "; ".join(
        f"{label} {e.name} {e.drift:+.3f} (exact {x:+.3f})"
        for label, entries, xs in (("QND", stats, exact),
                                   ("control", neg_stats, exact_neg))
        for e, x in zip(entries, xs))
    _report(capsys, 9, ok,
            f"2000-trajectory conditioned means of L, L^2, and all "
            f"eigenprojections drift within 3x allowance; non-commuting "
            f"control exceeds it; drift {drifts}; {elapsed:.1f}s")


def test_criterion_10_structural_qnd_variables(capsys):
    rng = np.random.default_rng(100)
    checks = []
    for which in ("p", "q"):
        observable = autonomous_quadrature_system(rng, n=1, m=1, which=which)
        rep = qnd.qnd_variable_report(observable)
        flagged = rep.p_is_qnd if which == "p" else rep.q_is_qnd
        other = rep.q_is_qnd if which == "p" else rep.p_is_qnd
        checks.append(flagged and not other
                      and any(w.full for w in rep.witnesses))
        hidden = autonomous_quadrature_system(rng, n=2, m=1, which=which)
        rep2 = qnd.qnd_variable_report(hidden)
        flagged2 = rep2.p_is_qnd if which == "p" else rep2.q_is_qnd
        checks.append(not flagged2 and all(not w.full for w in rep2.witnesses))
    cm = rng.standard_normal((1, 2))
    a = rng.standard_normal((2, 2))
    om = 0.5 * (a + a.T)
    passive = qsys.new_system(np.eye(1), cm, np.zeros((1, 2)), om, om)
    rep3 = qnd.qnd_variable_report(passive)
    bae_pairs = bae.certify_bae(passive).certified_pairs
    checks.append(rep3.case_matched.startswith("passive_real")
                  and not rep3.q_is_qnd and not rep3.p_is_qnd
                  and bae.QP in bae_pairs)
    ok = all(checks)
    _report(capsys, 10, ok,
            "single-quadrature couplings flag the matching variable exactly "
            "when the observability rank test passes; passive real case is "
            "evading without a conserved variable")
