"""One benchmark process: set up a workload, run timed passes, check them.

Started by run.py, which times this process from its start to the READY line
as set-up time. Prints `READY` after set-up, then `SPEED <factor>`, the
factor that scales wall time to the reference speed of clock.py, then
(unless --setup-only) one `RESULT <json>` line.

    python3 perfbench/worker.py --workload bae_scaling --seed 1 --seconds 15 \
        --trace 0 --workdir .perfbench_work/x
"""

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import clock  # noqa: E402
import workloads  # noqa: E402  (needs the src path above)
from tracing import Tracer, layer_totals, per_layer_metrics  # noqa: E402


# a traced run needs one traced and one untraced pass; an untraced run's one
# pass gives steady figures, since clock.py scales out the machine's drift
MIN_PASSES = {False: 1, True: 2}

# one timed pass: its wall seconds, each op's raw and scaled seconds (see
# clock.py), its span index range into the tracer's spans (empty untraced)
Pass = collections.namedtuple("Pass", "traced seconds raw_op_times op_times spans checks")


def run_passes(workload, seconds, tracer=None):
    """Run passes until the next one would end after `seconds`, at least
    MIN_PASSES[traced run]. With a tracer, an untimed warm-up pass comes
    first (a process's first pass runs slow), then traced and untraced
    passes alternate. Returns a list of Pass."""
    passes = []
    start = time.perf_counter()
    if tracer is not None:
        with clock.Clock() as timer:
            workload.run_pass(timer)
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            with clock.Clock() as timer:
                outputs = workload.run_pass(timer)
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        spans = range(first_span, len(tracer.spans) if tracer else 0)
        passes.append(Pass(traced, elapsed, *timer.times(), spans,
                           workload.checks(outputs)))
        # the next pass must not hold this one's outputs, or peak memory
        # would depend on the number of passes
        del outputs
        typical = statistics.median(p.seconds for p in passes)
        if (len(passes) >= MIN_PASSES[tracer is not None]
                and time.perf_counter() - start + typical > seconds):
            return passes


def median_pass(passes, field="op_times"):
    """Each op's median time over the passes, and their sum: the time of a
    pass's ops. A slow spell of the machine that hits one op of one pass
    does not move it."""
    op_times = [statistics.median(times)
                for times in zip(*(getattr(p, field) for p in passes))]
    return op_times, sum(op_times)


def check_summary(pass_checks):
    """Counts over the first pass's checks plus one check that every pass
    gave the same verdicts (a pass is deterministic for a given seed)."""
    verdicts = [[(c.name, c.ok) for c in checks] for checks in pass_checks]
    checks = pass_checks[0] + [workloads.Check(
        "passes reproduce the first pass's verdicts",
        all(v == verdicts[0] for v in verdicts))]
    failed = [c for c in checks if not c.ok]
    counts = collections.Counter((c.name, c.known_defect) for c in failed)
    return {
        "attempted": len(checks),
        "failed": len(failed),
        "correct": all(c.known_defect for c in failed),
        "failures": [{"check": name, "count": count, "known_defect": known}
                     for (name, known), count in counts.items()],
        "known_defects": {c.known_defect: workloads.KNOWN_DEFECTS[c.known_defect]
                          for c in failed if c.known_defect},
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def versions():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **{lib: f"{deps[lib].get('name')} {deps[lib].get('version')}"
               for lib in ("blas", "lapack")}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    os.makedirs(args.workdir)
    try:
        if tracer:
            tracer.install()
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        finally:
            if tracer:
                tracer.uninstall()
        setup_spans = len(tracer.spans) if tracer else 0
        print("READY", flush=True)
        # the machine's speed just after set-up, which scales set-up time
        print(f"SPEED {clock.speed_factor()!r}", flush=True)
        if args.setup_only:
            return 0
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result = check_summary([p.checks for p in passes])
    untraced = [p for p in passes if not p.traced]
    result["passes"] = len(untraced)
    result["pass_s"] = [p.seconds for p in passes]
    op_times, result["solve_s"] = median_pass(untraced)
    result["solve_wall_s"] = median_pass(untraced, "raw_op_times")[1]
    if len(op_times) < 100:
        # too few ops for percentiles: an op is a whole pass
        op_times = [sum(p.op_times) for p in untraced]
    result["op_samples"] = len(op_times)
    result["op_p50_ms"] = 1e3 * statistics.median(op_times)
    result["op_p90_ms"] = 1e3 * percentile(op_times, 90)
    result["versions"] = versions()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        # per-layer figures describe one set-up plus one traced pass
        traced = [p for p in passes if p.traced]
        weights = [1.0] * len(tracer.spans)
        for p in traced:
            for i in p.spans:
                weights[i] = 1.0 / len(traced)
        acc = layer_totals(tracer.spans, weights)
        result["per_layer"] = per_layer_metrics(
            acc, result["solve_s"], median_pass(traced)[1],
            (len(tracer.spans) - setup_spans) / len(traced))
        names = sorted(key[:-len(".calls")] for key in acc if key.endswith(".calls"))
        result["span_summary"] = {
            name: {stat: acc[f"{name}.{stat}"] for stat in ("calls", "self_s", "wall_s")}
            for name in names}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
