"""Tests of the benchmark itself: span arithmetic, speed scaling, wrapper
clean-up, metric names, and a reduced-size run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import importlib.util
import json
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import clock  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ span arithmetic

def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, None],
        ["grandchild", 2.0, 3.0, 1, None],
        ["child", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],
        ["c", 8.0, 12.0, 0, None],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_totals_weights_sums_and_maxima():
    spans = [
        ["smesim.simulate_qsme", 0.0, 2.0, -1,
         {"traj_steps": 100, "max_repair_mass": 0.1}],
        ["smesim.simulate_qsme", 2.0, 3.0, -1,
         {"traj_steps": 50, "max_repair_mass": 0.3}],
    ]
    acc = tracing.layer_totals(spans, [1.0, 0.5])
    assert acc["smesim.simulate_qsme.calls"] == pytest.approx(1.5)
    assert acc["smesim.simulate_qsme.self_s"] == pytest.approx(2.5)
    assert acc["smesim.simulate_qsme.traj_steps"] == pytest.approx(125)
    assert acc["smesim.simulate_qsme.max_repair_mass"] == pytest.approx(0.3)
    metrics = tracing.per_layer_metrics(acc, 4.0, 5.0, 2)
    assert metrics["smesim.simulate_qsme.traj_steps_per_s"]["value"] == \
        pytest.approx(125 / 2.5)
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(0.25)


# ------------------------------------------------------------- speed scaling

def test_each_op_is_scaled_piece_by_piece_between_probes():
    timer = clock.Clock()
    ref = clock.REFERENCE_S
    # op 0 runs from 1 to 4 with probes at 2 and 3 inside it; op 1 runs
    # from 4 to 5 with no probe inside; probes bound the pass at 0 and 6
    timer.ops = [(1.0, 4.0), (4.0, 5.0)]
    timer.probes = [(0.0, ref), (2.0, 3 * ref), (3.0, ref), (6.0, 2 * ref)]
    raw, scaled = timer.times()
    assert raw == [3.0, 1.0]
    assert scaled == pytest.approx([1.0 / 2 + 1.0 / 2 + 1.0 / 1.5, 1.0 / 1.5])


def test_clock_leaves_probe_time_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with clock.Clock() as timer:
        with timer.op():
            spent = clock.now()
            while clock.now() - spent < 3 * clock.PROBE_INTERVAL:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    (start, end), = timer.ops
    assert sum(start < t < end for t, _ in timer.probes) >= 2
    assert end - start == pytest.approx(3 * clock.PROBE_INTERVAL, rel=0.2)


# ------------------------------------------------------------------- wrappers

def _binding_sites():
    sites = {}
    for name, module_name, attr in tracing.TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == module_name or mod_name.split(".")[0] == "qlinbae":
                for key, value in list(vars(module).items()):
                    if value is original:
                        sites[(mod_name, key)] = original
    return sites


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    before = _binding_sites()
    workload = workloads.BaeScaling(3, str(tmp_path), small=True)
    tracer = tracing.Tracer()
    passes = worker.run_passes(workload, 0.0, tracer)
    assert [p.traced for p in passes] == [True, False]
    for (mod_name, key), original in before.items():
        assert vars(sys.modules[mod_name])[key] is original, (mod_name, key)
    for module_name in {m for _, m, _ in tracing.TARGETS}:
        for value in vars(sys.modules[module_name]).values():
            assert not getattr(value, "__perfbench_wrapper__", False)

    spans = [tracer.spans[i] for i in passes[0].spans]
    acc = tracing.layer_totals(spans, [1.0] * len(spans))
    n_cases = len(workload.cases)
    assert acc["bae.certify_bae.calls"] == n_cases
    assert acc["xferfn.frequency_sweep.points"] == n_cases * len(workload.sweep)
    # block_pattern's own eval_tf calls are seen through xferfn's binding
    assert acc["xferfn.eval_tf.calls"] == n_cases * (len(workload.sweep) + 32)
    assert acc["xferfn.block_pattern.calls"] == n_cases


# --------------------------------------------------------------- metric names

def test_every_end_to_end_metric_is_emitted():
    run = _load_run()
    result = {"solve_s": 1.0, "op_p50_ms": 2.0, "op_p90_ms": 3.0,
              "peak_rss_mb": 90.0, "failed": 0, "attempted": 3}
    emitted = run.end_to_end_metrics([0.5, 0.6, 0.7], result)
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in emitted.items()} == declared
    assert all(v["value"] > 0 for v in emitted.values())


def test_every_per_layer_metric_is_emitted():
    emitted = tracing.per_layer_metrics(tracing.layer_totals([], []), 1.0, 1.1, 0)
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in emitted.items()} == declared


def test_benchmark_names_the_workloads():
    names = [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(workloads.WORKLOADS)


# ---------------------------------------------------------------- smoke runs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, str(tmp_path), small=True)
    passes = worker.run_passes(workload, 0.0)
    summary = worker.check_summary([p.checks for p in passes])
    assert summary["correct"], summary["failures"]
    assert summary["attempted"] > 1
    known = {f["known_defect"] for f in summary["failures"]}
    assert known <= set(workloads.KNOWN_DEFECTS)
    if name == "cli_mix":
        assert known == {"validate-tol-ignored"}
