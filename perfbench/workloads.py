"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor (the set-up
phase), runs one pass of work in `run_pass`, timing each op with the
`clock.Clock` it is given, and checks a pass's outputs in `checks`. A pass
is deterministic for a given seed, so every pass of a run must produce the
same check results.
"""

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from qlinbae import bae, cli, feedback, qsys, smesim, xferfn

# Defects that the package is known to have today, by id. A failed check
# that names one of these is counted in `failed` and `error_rate` but does
# not make the run incorrect; any other failed check does.
KNOWN_DEFECTS = {
    "scale-dependent-zero-test": (
        "the zero-block certificate compares raw Markov parameters against "
        "an absolute threshold, which powers of A outgrow from n = 8 modes"),
    "validate-tol-ignored": (
        "validate --tol: load_spec validates at the default 1e-9 before the "
        "requested tolerance is applied"),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    known_defect: str = None


# ------------------------------------------------------------ bae_scaling

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
                                            coupling="real", scattering="real"),
    "opposite_re_omega_S_real_C_imag": dict(omega="opposite_re",
                                            coupling="imag", scattering="real"),
    "opposite_re_omega_S_imag_C_real": dict(omega="opposite_re",
                                            coupling="real", scattering="imag"),
    "opposite_re_omega_S_imag_C_imag": dict(omega="opposite_re",
                                            coupling="imag", scattering="imag"),
    "q_coupling_imag_C": dict(coupling="imag", scattering="real",
                              c_relation="equal"),
    "p_coupling_imag_C": dict(coupling="imag", scattering="real",
                              c_relation="opposite"),
}

# (row, column) block index of each transfer pair in the quadrature G
PAIR_BLOCK = {bae.QQ: (0, 0), bae.QP: (0, 1), bae.PQ: (1, 0), bae.PP: (1, 1)}


def _block(g, pair, m):
    """The m x m block of a 2m x 2m quadrature transfer matrix for a pair."""
    i, j = PAIR_BLOCK[pair]
    return g[i * m:(i + 1) * m, j * m:(j + 1) * m]


class BaeScaling:
    """Every catalog family at n = 2..32 modes: certify_bae plus a 200-point
    frequency sweep per system. A few heavy calls whose cost grows as n^3."""

    sizes = (2, 4, 8, 16, 32)
    # 4 draws: how many systems fail the certification check depends on the
    # draw, and with 2 draws error_rate's spread over seeds was 0.11
    draws = 4
    channels = 2
    sweep = np.logspace(-3.0, 3.0, 200)

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        sizes = self.sizes[:2] if small else self.sizes
        draws = 1 if small else self.draws
        self.cases = [
            (cond, n, draw, qsys.random_system(
                rng, n, self.channels, **FAMILY_KWARGS[cond.condition_id]))
            for cond in bae.CONDITION_CATALOG
            for n in sizes for draw in range(draws)]

    def run_pass(self, clock):
        outputs = []
        for _, _, _, system in self.cases:
            with clock.op():
                report = bae.certify_bae(system)
                sweep = xferfn.frequency_sweep(qsys.quad_realization(system),
                                               self.sweep)
            outputs.append((report, sweep))
        return outputs

    def checks(self, outputs):
        m = self.channels
        out = []
        for (cond, n, draw, _), (report, sweep) in zip(self.cases, outputs):
            label = f"bae_scaling {cond.condition_id} n={n} draw={draw}"
            certified = (cond.predicted_pairs <= report.certified_pairs
                         and report.consistency)
            out.append(Check(f"{label}: predicted pairs certified, consistent",
                             certified,
                             "scale-dependent-zero-test" if n >= 8 else None))
            # the sweep is an independent witness: predicted-zero blocks stay
            # at roundoff level relative to the largest response
            scale = max(1.0, float(np.nanmax(sweep)))
            zero_ok = all(
                np.nanmax(_block(sweep.transpose(1, 2, 0), pair, m)) <= 1e-9 * scale
                for pair in cond.predicted_pairs)
            out.append(Check(f"{label}: sweep has predicted zero blocks",
                             zero_ok and sweep.shape == (len(self.sweep), 2 * m,
                                                         2 * m)))
        return out


# --------------------------------------------------------- sme_martingale

class SmeMartingale:
    """Acceptance criterion 9 shortened: a commuting positive control whose
    tracked quantities are martingales and a non-commuting negative control
    whose L^2 drifts. Batched 8x8 matmuls and per-step eigh dominate."""

    fock_dim = 8
    dt = 1e-3
    positive = dict(T=0.5, n_traj=500)
    # at T = 0.5 the L^2 drift of 200 trajectories stays inside the allowance,
    # so the negative control keeps criterion 9's T = 1
    negative = dict(T=1.0, n_traj=200)

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
        if small:
            self.positive = dict(T=0.05, n_traj=40)
            self.negative = dict(T=1.0, n_traj=100)
        c = np.array([[1.0]], dtype=complex)
        zero = np.zeros((1, 1))
        pos = qsys.new_system(np.eye(1), c, c, zero, zero)  # L = sqrt(2) q, H = 0
        self.ops = smesim.build_truncated_operators(pos, self.fock_dim)
        l = self.ops.l_ops[0]
        self.tracked = [("L", l), ("L2", l @ l)] + [
            (f"P{j}", p) for j, (_, p) in enumerate(smesim.spectral_projections(l))]
        neg = qsys.new_system(np.eye(1), c / np.sqrt(2.0), c / np.sqrt(2.0),
                              np.array([[1.0]]), np.array([[-1.0]]))
        self.ops_neg = smesim.build_truncated_operators(neg, self.fock_dim)
        ln = self.ops_neg.l_ops[0]
        self.tracked_neg = [("L", ln), ("L2", ln @ ln)]
        ground = np.zeros(self.fock_dim)
        ground[0] = 1.0
        self.rho0 = (0.5 * np.outer(ground, ground)
                     + 0.5 * np.eye(self.fock_dim) / self.fock_dim)

    def run_pass(self, clock):
        with clock.op():
            pos = smesim.martingale_stats(smesim.simulate_qsme(
                self.ops, self.rho0, self.dt, seed=self.seeds[0],
                tracked=self.tracked, store_every=10, **self.positive))
        with clock.op():
            neg = smesim.martingale_stats(smesim.simulate_qsme(
                self.ops_neg, self.rho0, self.dt, seed=self.seeds[1],
                tracked=self.tracked_neg, store_every=10, **self.negative))
        return pos, neg

    def checks(self, outputs):
        pos, neg = outputs
        out = [Check(f"sme_martingale positive control: {e.name} drift "
                     f"within allowance", e.passed) for e in pos]
        out.append(Check("sme_martingale negative control: some entry "
                         "exceeds its allowance",
                         any(not e.passed for e in neg)))
        return out


# -------------------------------------------------------- feedback_design

# The indefinite two-mode Hamiltonian of the feedback regression anchor; only
# the swap plant topology can cancel its real part.
OM_MINUS = np.array([[2.0, 3.0 + 2.0j], [3.0 - 2.0j, 4.0]])
OM_PLUS = np.array([[2.0, 3.0 - 1.0j], [3.0 - 1.0j, 5.0]])


class FeedbackDesign:
    """design_couplings on the anchor Hamiltonian with the default
    beamsplitter and plant-topology candidates, as `qlinbae feedback design`
    runs it. The search seed is fixed: its random starts decide how long the
    non-converging searches run, so a seed-dependent start would measure
    start luck instead of the program."""

    search_seed = 0
    n_starts = 2

    def __init__(self, seed, workdir, small=False):
        self.cfg = feedback.SearchConfig(n_starts=1 if small else self.n_starts,
                                         seed=self.search_seed)
        self.kwargs = (dict(s_b_candidates=("-i",), s_g_candidates=("swap",))
                       if small else {})

    def run_pass(self, clock):
        with clock.op():
            candidates = feedback.design_couplings(OM_MINUS, OM_PLUS, (1, 1),
                                                   search_cfg=self.cfg, **self.kwargs)
        return candidates

    def checks(self, outputs):
        return [Check("feedback_design: a candidate reaches objective <= 1e-12 "
                      "with a consistent certificate",
                      any(c.objective <= 1e-12 and c.report.consistency
                          for c in outputs))]


# ----------------------------------------------------------------- cli_mix

def _write_spec(workdir, name, system, **sections):
    doc = {**cli.emit_spec(system), **sections}
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _matrix(node):
    return cli.parse_complex_matrix(node, "output")


def _sweep_rows(out, m):
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    values = np.array([[float(x) for x in r[1:]] for r in body])
    return header, values.reshape(len(body), 2 * m, 2 * m)


def _expect_validate(valid):
    def check(code, out, err):
        doc = json.loads(out)
        return code == (0 if valid else 1) and doc["valid"] is valid
    return check


def _expect_realize(n, s):
    d_want = np.block([[np.real(s), -np.imag(s)], [np.imag(s), np.real(s)]])

    def check(code, out, err):
        doc = json.loads(out)
        a, d = _matrix(doc["A"]), _matrix(doc["D"])
        return (code == 0 and doc["form"] == "quadrature"
                and a.shape == (2 * n, 2 * n) and not np.imag(a).any()
                and np.allclose(d, d_want, atol=1e-12))
    return check


def _expect_tf(m, qp_zero):
    def check(code, out, err):
        g = _matrix(json.loads(out)["G"])
        qp = np.abs(_block(g, bae.QP, m)).max()
        small = qp <= 1e-9 * max(1.0, np.abs(g).max())
        return (code == 0 and g.shape == (2 * m, 2 * m)
                and np.isfinite(g).all() and small == qp_zero)
    return check


def _expect_sweep(m, points, qp_zero):
    def check(code, out, err):
        header, values = _sweep_rows(out, m)
        qp = np.nanmax(_block(values.transpose(1, 2, 0), bae.QP, m))
        small = qp <= 1e-9 * max(1.0, np.nanmax(values))
        return (code == 0 and len(header) == 1 + 4 * m * m
                and values.shape[0] == points and small == qp_zero)
    return check


def _expect_bae(pairs, conditions):
    def check(code, out, err):
        doc = json.loads(out)
        certified = {tuple(p) for p in doc["certified_pairs"]}
        matched = {c["id"] for c in doc["matched_conditions"]}
        return (code == 0 and doc["consistent"] is True
                and certified == pairs and matched == conditions)
    return check


def _expect_qnd(interaction):
    def check(code, out, err):
        return code == 0 and json.loads(out)["qnd_interaction"] is interaction
    return check


def _expect_reduce(code, out, err):
    doc = json.loads(out)
    return (code == 0 and doc["oracle_passed"] is True
            and doc["reduced"]["channels"] == 1)


def _expect_kalman(code, out, err):
    doc = json.loads(out)
    return (code == 0 and doc["theorem"]["q_wrt_p"] is True
            and doc["theorem"]["p_wrt_q"] is True
            and doc["markov_identity"]["premise_holds"] is True)


def _expect_simulate(points):
    def check(code, out, err):
        rows = list(csv.reader(io.StringIO(out)))
        summary = json.loads(err)["martingale"]["L0"]
        # the initial state is diagonal in the Fock basis, so <q> starts at 0
        return (code == 0 and rows[0] == ["time", "L0_mean", "L0_se"]
                and len(rows) == 1 + points and float(rows[1][0]) == 0.0
                and abs(float(rows[1][1])) <= 1e-12
                and set(summary) == {"drift", "allowance", "passed"})
    return check


def _expect_invalid(code, out, err):
    return code == 1


class CliMix:
    """A closed loop with one client issuing in-process `qlinbae` requests
    over generated spec files; each request writes its report with --out and
    its stderr is captured. Per-call overhead (argparse, JSON, validation,
    realization checks) dominates."""

    # 25 requests per cycle: with an odd count of request kinds the median
    # falls inside one kind's group of latencies, not in the gap between two
    cycles = 42
    sweep_points = 200

    def __init__(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        cycles = 1 if small else self.cycles
        self.workdir = workdir
        mich = qsys.michelson_system(mass=rng.uniform(0.5, 2.0),
                                     omega_m=rng.uniform(0.5, 2.0),
                                     lam=rng.uniform(0.5, 2.0))
        gen4 = qsys.random_system(rng, 4, 2)
        gen16 = qsys.random_system(rng, 16, 2)
        requests = []
        for name, system, qp_zero, pairs, conditions in (
                ("michelson", mich, True, {bae.QP}, {"q_coupling_imag_C"}),
                ("generic4", gen4, False, set(), set()),
                ("generic16", gen16, False, set(), set())):
            path = _write_spec(workdir, name, system)
            n, m = system.n_modes, system.m_channels
            omega = f"{rng.uniform(0.1, 10.0):.6f}"
            requests += [
                (f"validate {name}", ["validate", path], _expect_validate(True)),
                (f"realize {name}", ["realize", path], _expect_realize(n, system.s)),
                (f"tf --omega {name}", ["tf", path, "--omega", omega],
                 _expect_tf(m, qp_zero)),
                (f"tf --sweep {name}",
                 ["tf", path, "--sweep", "0.01", "100", str(self.sweep_points)],
                 _expect_sweep(m, self.sweep_points, qp_zero)),
                (f"bae {name}", ["bae", path], _expect_bae(pairs, conditions)),
                (f"qnd {name}", ["qnd", path], _expect_qnd(False)),
            ]

        network = self._network_spec(rng)
        requests.append(("feedback reduce network",
                         ["feedback", "reduce", network], _expect_reduce))
        requests.append(("validate network", ["validate", network],
                         _expect_validate(True)))
        requests.append(("kalman section", ["kalman", self._kalman_spec(rng)],
                         _expect_kalman))
        sim_path, steps = self._sim_spec(rng)
        requests.append(("simulate tiny", ["simulate", sim_path],
                         _expect_simulate(steps + 1)))
        broken = qsys.michelson_system()
        doc = {**cli.emit_spec(broken),
               "S": cli.emit_complex_matrix(2.0 * np.eye(2))}
        invalid = os.path.join(workdir, "invalid.json")
        with open(invalid, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        requests.append(("validate invalid", ["validate", invalid],
                         _expect_validate(False)))
        requests.append(("bae invalid", ["bae", invalid], _expect_invalid))
        doc["S"] = cli.emit_complex_matrix((1.0 + 1e-6) * np.eye(2))
        near = os.path.join(workdir, "near_unitary.json")
        with open(near, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        requests.append(("validate --tol 1e-3 near_unitary",
                         ["validate", near, "--tol", "1e-3"],
                         _expect_validate(True)))

        self.requests = []
        for slot, (label, argv, check) in enumerate(requests):
            out = os.path.join(workdir, f"out{slot}")
            self.requests.append((label, argv + ["--out", out], out, check))
        self.requests *= cycles

    def _network_spec(self, rng):
        def gains():
            return rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        om, op = 0.5 * (a + a.conj().T), 0.5 * (b + b.T)
        k11, k12, k21, k22 = gains(), gains(), gains(), gains()
        # keeps the loop I - S22 S_b = 1 - exp(i phi) away from singular
        s_b = np.exp(1j * rng.uniform(0.5 * np.pi, 1.5 * np.pi)) * np.eye(1)
        plant = qsys.new_system(np.eye(2), np.vstack([k11, k21]),
                                np.vstack([k12, k22]), om, op)
        emit = cli.emit_complex_matrix
        return _write_spec(self.workdir, "network", plant, feedback={
            "split": [1, 1], "k11": emit(k11), "k12": emit(k12),
            "k21": emit(k21), "k22": emit(k22), "beamsplitter": emit(s_b)})

    def _kalman_spec(self, rng):
        # a decay-only co-block: C_q B_p = C_p B_q = 0 and the premise
        # C A = (1/2) C B C hold exactly
        kappa = rng.uniform(0.5, 4.0)
        eye = np.eye(4)
        emit = cli.emit_complex_matrix
        return _write_spec(self.workdir, "kalman", qsys.michelson_system(),
                           kalman={"A_co": emit(-0.5 * kappa * eye),
                                   "B_co": emit(-np.sqrt(kappa) * eye),
                                   "C_co": emit(np.sqrt(kappa) * eye)})

    def _sim_spec(self, rng):
        c = np.array([[1.0]], dtype=complex)
        zero = np.zeros((1, 1))
        system = qsys.new_system(np.eye(1), c, c, zero, zero)
        sim = {"fock_dim": 8, "dt": 1e-3, "T": 0.1, "n_traj": 20,
               "seed": int(rng.integers(0, 2**31))}
        return _write_spec(self.workdir, "sim", system, sim=sim), 100

    def run_pass(self, clock):
        outputs = []
        for _, argv, out, _ in self.requests:
            if os.path.exists(out):
                os.remove(out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()), clock.op():
                code = cli.main(argv)
            text = ""
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
            outputs.append((code, text, err.getvalue()))
        return outputs

    def checks(self, outputs):
        verdicts = {}
        out = []
        for (label, _, _, check), result in zip(self.requests, outputs):
            key = (label, result)
            if key not in verdicts:
                try:
                    verdicts[key] = bool(check(*result))
                except (ValueError, KeyError, IndexError, TypeError):
                    verdicts[key] = False  # missing or malformed report
            out.append(Check(f"cli_mix {label}", verdicts[key],
                             "validate-tol-ignored" if "--tol" in label else None))
        return out


WORKLOADS = {
    "bae_scaling": BaeScaling,
    "sme_martingale": SmeMartingale,
    "feedback_design": FeedbackDesign,
    "cli_mix": CliMix,
}
