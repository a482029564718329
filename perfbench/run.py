"""qlinbae benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload bae_scaling --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 it starts the workload's worker process several times to
measure set-up time, then once more for the timed passes, and prints the
end-to-end metrics. With --trace 1 it starts one worker that alternates
untraced and traced passes and prints the per-layer metrics. The last line
of standard output is the result object; the lines before it record the
environment and name every failed check. Uses the standard library only, so
its own start-up does not depend on the package under test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5  # set-up is measured this many times per run; median reported
RUN_TIMEOUT = 170.0  # seconds for all of a run's worker processes together
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    """Child environment with one BLAS thread. The matrices here are at most
    64 x 64, where a second thread costs more than it gains, and one thread
    leaves the other CPUs to the rest of the machine."""
    return {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}


def run_worker(args, env, deadline, setup_only):
    """Start a worker, killed at `deadline` (time.monotonic()); return
    (seconds from its start to READY scaled to the reference speed of
    clock.py, its result or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(WORKDIR, f"{os.getpid()}-{time.time_ns()}")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, speed, result = None, None, None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("SPEED ") and speed is None:
                speed = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        code = proc.wait()
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another worker's directory is still there
    if code != 0 or ready is None or speed is None or (
            not setup_only and result is None):
        raise RuntimeError(f"worker exited with code {code}: {' '.join(cmd)}")
    return ready * speed, result


def environment(result, env):
    """Machine facts and versions recorded with every result."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        top, commit = git.stdout.split()
        if git.returncode != 0 or not os.path.samefile(top, ROOT):
            commit = None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None  # not a git checkout, or git is not installed
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            **result["versions"],
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
            "git_commit": commit}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(setups, result):
    """The end-to-end metrics from set-up samples and a worker result."""
    # error_rate is the Jeffreys estimate (failed + 1/2) / (attempted + 1) of
    # the per-check failure probability: a run without failures reads as a
    # small positive rate, so a relative bound on it stays defined
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "solve_s": metric(result["solve_s"], "s"),
        "op_p50_ms": metric(result["op_p50_ms"], "ms"),
        "op_p90_ms": metric(result["op_p90_ms"], "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "error_rate": metric((result["failed"] + 0.5) / (result["attempted"] + 1),
                             "ratio"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qlinbae", "__init__.py")):
        print(f"error: no qlinbae source under {ROOT}/src", file=sys.stderr)
        return 2

    env = worker_env()
    deadline = time.monotonic() + RUN_TIMEOUT
    if args.trace:
        _, result = run_worker(args, env, deadline, setup_only=False)
        metrics, setups = result["per_layer"], None
    else:
        setups = [run_worker(args, env, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        ready, result = run_worker(args, env, deadline, setup_only=False)
        setups.append(ready)
        metrics = end_to_end_metrics(setups, result)
    print(json.dumps({"environment": environment(result, env)}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": result["passes"], "pass_s": result["pass_s"],
                      "solve_wall_s": result["solve_wall_s"],
                      "op_samples": result["op_samples"],
                      "setup_samples": setups}))
    if "span_summary" in result:
        print(json.dumps({"spans": result["span_summary"]}))
    if result["known_defects"]:
        print(json.dumps({"known_defects": result["known_defects"]}))
    for failure in result["failures"]:
        print(json.dumps({"failed_check": failure}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
