"""Per-layer tracing of qlinbae from outside the package.

The package's modules import each other's functions by name
(`from .xferfn import eval_tf`), so a call is routed through whatever object
the *calling* module holds under that name. `Tracer.install` therefore
replaces a public function at every binding site: its home module and every
qlinbae module that holds the same function object. Spans are kept in memory
while tracing and turned into per-layer metrics after the run;
`Tracer.uninstall` restores every original binding. Span times are read
from `clock.now()`, which leaves out the time of the speed probes that
interrupt a pass.
"""

import functools
import importlib
import sys
from collections import defaultdict

import clock

# (span name, module owning the binding, attribute). The span name is the
# layer (package module) followed by the function name that callers look up.
TARGETS = (
    ("qsys.new_system", "qlinbae.qsys", "new_system"),
    ("qsys.quad_realization", "qlinbae.qsys", "quad_realization"),
    ("xferfn.block_pattern", "qlinbae.xferfn", "block_pattern"),
    ("xferfn.markov_params", "qlinbae.xferfn", "markov_params"),
    ("xferfn.eval_tf", "qlinbae.xferfn", "eval_tf"),
    ("xferfn.frequency_sweep", "qlinbae.xferfn", "frequency_sweep"),
    ("bae.certify_bae", "qlinbae.bae", "certify_bae"),
    ("bae.diagnose_conditions", "qlinbae.bae", "diagnose_conditions"),
    ("qnd.qnd_variable_report", "qlinbae.qnd", "qnd_variable_report"),
    ("qnd.is_qnd_interaction", "qlinbae.qnd", "is_qnd_interaction"),
    ("kalman.check_kalman_bae", "qlinbae.kalman", "check_kalman_bae"),
    ("kalman.markov_identity_check", "qlinbae.kalman", "markov_identity_check"),
    ("feedback.design_couplings", "qlinbae.feedback", "design_couplings"),
    # feedback calls `optimize.least_squares` through the scipy module
    ("feedback.least_squares", "scipy.optimize", "least_squares"),
    ("feedback.make_network", "qlinbae.feedback", "make_network"),
    ("feedback.reduce_network", "qlinbae.feedback", "reduce_network"),
    ("feedback.verify_reduction", "qlinbae.feedback", "verify_reduction"),
    ("smesim.build_truncated_operators", "qlinbae.smesim",
     "build_truncated_operators"),
    ("smesim.spectral_projections", "qlinbae.smesim", "spectral_projections"),
    ("smesim.simulate_qsme", "qlinbae.smesim", "simulate_qsme"),
    ("smesim.martingale_stats", "qlinbae.smesim", "martingale_stats"),
    ("cli.main", "qlinbae.cli", "main"),
    ("cli.load_spec", "qlinbae.cli", "load_spec"),
)


def _frequency_sweep_extra(result):
    return {"points": len(result)}


def _certify_extra(result):
    return {"consistent": float(result.consistency)}


def _design_extra(result):
    return {"candidates": len(result)}


def _least_squares_extra(result):
    return {"nfev": result.nfev, "njev": result.njev or 0}


def _simulate_extra(result):
    n_traj = result.tracked_values.shape[0]
    return {"traj_steps": n_traj * result.n_steps,
            "max_repair_mass": result.max_repair_mass,
            "max_trace_deviation": result.max_trace_deviation}


def _cli_main_extra(result):
    return {"exit_nonzero": int(result != 0)}


# Extra per-span values read from a call's result. Keys starting with "max_"
# aggregate by maximum, all others by sum.
RESULT_EXTRAS = {
    "xferfn.frequency_sweep": _frequency_sweep_extra,
    "bae.certify_bae": _certify_extra,
    "feedback.design_couplings": _design_extra,
    "feedback.least_squares": _least_squares_extra,
    "smesim.simulate_qsme": _simulate_extra,
    "cli.main": _cli_main_extra,
}

# Per-span counters set when a call raises the named exception class.
ERROR_EXTRAS = {
    "xferfn.eval_tf": ("SingularityError", "singular"),
}

_EXTRA_METRICS = {
    "xferfn.eval_tf": (("singular", "count"),),
    "xferfn.frequency_sweep": (("points", "count"),),
    "bae.certify_bae": (("consistent_ratio", "ratio"),),
    "feedback.design_couplings": (("candidates", "count"),),
    "feedback.least_squares": (("nfev", "count"), ("njev", "count")),
    "smesim.simulate_qsme": (("traj_steps", "count"),
                             ("traj_steps_per_s", "1/s"),
                             ("max_repair_mass", "trace"),
                             ("max_trace_deviation", "trace")),
    "cli.main": (("exit_nonzero", "count"),),
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = tuple(
    [(f"{name}.{stat}", unit)
     for name, _, _ in TARGETS
     for stat, unit in (("calls", "count"), ("self_s", "s"))
     + _EXTRA_METRICS.get(name, ())]
    + [("feedback.candidate_yield", "ratio"),
       ("trace.spans", "count"),
       ("trace.untraced_solve_s", "s"),
       ("trace.traced_solve_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class Tracer:
    """Records spans `[name, start, end, parent index, extras]` for calls into
    the functions listed in TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        qlinbae_modules = [m for name, m in list(sys.modules.items())
                           if name == "qlinbae" or name.startswith("qlinbae.")]
        for name, module_name, attr in TARGETS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in [home] + qlinbae_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        result_extra = RESULT_EXTRAS.get(name)
        error_class, error_key = ERROR_EXTRAS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock.now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock.now()
                stack.pop()
                if type(exc).__name__ == error_class:
                    span[4] = {error_key: 1}
                raise
            span[2] = clock.now()
            stack.pop()
            if result_extra is not None:
                span[4] = result_extra(result)
            return result

        traced.__perfbench_wrapper__ = True
        return traced


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2])
                                     for c in children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans, weights):
    """Sum calls, self time, wall time and extras per span name; span i
    counts with weight weights[i]."""
    selfs = self_times(spans)
    acc = defaultdict(float)
    for (name, start, end, _, extras), own, weight in zip(spans, selfs, weights):
        acc[f"{name}.calls"] += weight
        acc[f"{name}.self_s"] += weight * own
        acc[f"{name}.wall_s"] += weight * (end - start)
        for key, value in (extras or {}).items():
            metric = f"{name}.{key}"
            if key.startswith("max_"):
                acc[metric] = max(acc[metric], value)
            else:
                acc[metric] += weight * value
    return acc


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(acc, untraced_solve_s, traced_solve_s, spans_per_pass):
    """The PER_LAYER_METRICS values from layer_totals output and the solve
    times of the untraced and traced passes."""
    values = defaultdict(float, acc)
    values["bae.certify_bae.consistent_ratio"] = _ratio(
        values["bae.certify_bae.consistent"], values["bae.certify_bae.calls"])
    values["smesim.simulate_qsme.traj_steps_per_s"] = _ratio(
        values["smesim.simulate_qsme.traj_steps"],
        values["smesim.simulate_qsme.wall_s"])
    values["feedback.candidate_yield"] = _ratio(
        values["feedback.design_couplings.candidates"],
        values["feedback.least_squares.calls"])
    values["trace.spans"] = spans_per_pass
    values["trace.untraced_solve_s"] = untraced_solve_s
    values["trace.traced_solve_s"] = traced_solve_s
    values["trace.overhead_s"] = traced_solve_s - untraced_solve_s
    values["trace.overhead_ratio"] = _ratio(traced_solve_s - untraced_solve_s,
                                            untraced_solve_s)
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_METRICS}
