"""Tests of the benchmark itself, at smoke size.

    python -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from spans import MAX_UNATTRIBUTED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every per-layer metric the trace report prints, with its unit.
TRACE_REPORT = {
    "oracle.enum_s": "s", "oracle.dfas": "count", "oracle.self_s": "s",
    "oracle.groups_held": "count", "oracle.in_scope_dfas": "count",
    "oracle.in_scope_ratio": "ratio", "oracle.brute_s": "s",
    "minimize.calls": "count", "minimize.s": "s", "minimize.us_per_call": "us",
    "minimize.self_s": "s", "minimize.canonicalize_s": "s", "minimize.pair_equivalent_s": "s",
    "minimize.states_in": "count", "minimize.states_out": "count",
    "core.reachable_per_dfa": "count", "core.transition_counts_s": "s", "core.render_s": "s",
    "core.parse_s": "s", "core.self_s": "s",
    "boolean.union_s": "s", "boolean.intersection_s": "s", "boolean.complement_s": "s",
    "boolean.states_out": "count", "boolean.self_s": "s",
    "bounds.sample_s": "s", "bounds.self_s": "s", "bounds.checks": "count",
    "witnesses.build_s": "s", "witnesses.self_s": "s", "cli.self_s": "s",
}

# Counts read from the wrappers' arguments and return values.
COUNTS = [name for name, unit in TRACE_REPORT.items() if unit in ("count", "ratio")]


def bench(workload: str, trace: int, seed: int = 1, script: Path = HERE / "run.py",
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result, lines[:-1]


def test_benchmark_json_matches_the_harness():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    for m in BENCH["per_layer"]:
        assert TRACE_REPORT[m["name"]] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    result, report = result_of(bench(workload, trace=0))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    cpu_and_wall_clock = {
        "cpu_s": "s", "check_p50_cpu_ms": "ms", "check_p99_cpu_ms": "ms",
        "wall_s": "s", "check_p50_ms": "ms", "check_p99_ms": "ms", "fail_ratio": "ratio",
    }
    for name, unit in {**run.END_TO_END, **cpu_and_wall_clock}.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in report), name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_and_repeats_its_counts(workload):
    runs = [result_of(bench(workload, trace=1, seed=7)) for _ in range(2)]
    for result, report in runs:
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {
            name: TRACE_REPORT[name] for name in run.PER_LAYER
        }
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
        printed = {line.split()[1]: line.split()[3] for line in report if line.startswith("layer ")}
        assert printed == TRACE_REPORT
        assert any(line.startswith("trace overhead ") and " s reference " in line for line in report)
    (_, report1), (_, report2) = runs
    counts1 = [line for line in report1 if line.startswith("layer ") and line.split()[1] in COUNTS]
    counts2 = [line for line in report2 if line.startswith("layer ") and line.split()[1] in COUNTS]
    assert counts1 == counts2 and len(counts1) == len(COUNTS)


def test_sweep_smoke_counts():
    _result, report = result_of(bench("sweep-binary", trace=1))
    values = {line.split()[1]: line.split()[2] for line in report if line.startswith("layer ")}
    assert values["oracle.dfas"] == "6716"
    assert values["minimize.calls"] == "6716"
    assert values["oracle.groups_held"] == "4170"
    assert values["oracle.in_scope_dfas"] == "2650"


def test_tracer_accounts_for_the_wall_time_and_removes_its_wrappers():
    mods = run.fresh_import()
    original = mods.minimize.minimize
    workload = WORKLOADS["sweep-binary"]
    inputs = workload.inputs(mods, 0, "smoke")
    tracer = Tracer({layer: getattr(mods, layer) for layer in run.LAYERS})
    tracer.install()
    try:
        assert mods.oracle.minimize is not original  # caught under the caller's name
        with tracer.phase("pass") as pass_node:
            result = workload.run(mods, inputs)
    finally:
        tracer.uninstall()
    assert mods.oracle.minimize is original and mods.minimize.minimize is original
    assert workload.check(mods, inputs, result.outputs) == (1, 0)
    acc = layer_metrics(tracer, pass_node, None, result.wall)["accounting"]
    assert acc["attributed_share"] >= 1 - MAX_UNATTRIBUTED
    assert 0 <= acc["unattributed_s"] <= MAX_UNATTRIBUTED * result.wall
    assert acc["self_s_by_layer"]["minimize"] > 0 and acc["self_s_by_layer"]["oracle.enum"] > 0


def test_tracer_rejects_a_pass_its_spans_do_not_cover():
    mods = run.fresh_import()
    tracer = Tracer({layer: getattr(mods, layer) for layer in run.LAYERS})
    with tracer.phase("pass") as pass_node:
        mods.core.render_dfa(mods.witnesses.unary_singleton(3))  # not installed: no span
    with pytest.raises(RuntimeError, match="trace spans cover"):
        layer_metrics(tracer, pass_node, None, tracer.total[pass_node])


def test_sweep_latency_is_per_dfa():
    mods = run.fresh_import()
    workload = WORKLOADS["sweep-binary"]
    inputs = workload.inputs(mods, 0, "smoke")
    enum = mods.oracle._all_dfas
    result = workload.run(mods, inputs)
    assert mods.oracle._all_dfas is enum
    assert len(result.cpu_ms) == len(result.wall_ms) == inputs["dfas"]
    assert sum(result.wall_ms) <= result.wall * 1e3


def test_each_check_catches_a_wrong_output():
    mods = run.fresh_import()
    for name, workload in WORKLOADS.items():
        inputs = workload.inputs(mods, 0, "smoke")
        outputs = workload.run(mods, inputs).outputs
        assert workload.check(mods, inputs, outputs)[1] == 0, name
        if name == "large-ops":
            for i, (op, built, text) in enumerate(outputs):  # same sizes, no accepting state
                outputs[i] = (op, built, re.sub(r"^accept.*$", "accept", text, flags=re.M))
        else:
            code, out = outputs
            outputs = (code, out.replace("verdict=pass", "verdict=fail").replace(" 0 violations", " 1 violations"))
        expected = len(outputs) if name == "large-ops" else 1
        assert workload.check(mods, inputs, outputs)[1] >= expected, name


def test_without_the_package_the_run_fails_without_a_result():
    bare = ROOT / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("large-ops", trace=0, script=bare / "perfbench" / "run.py", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_reference_seconds_scale_each_stretch_by_its_probes():
    meter = speed.Meter()
    nominal = speed.NOMINAL_PROBE_S
    meter.marks.extend([0.0, 1.0, 2.0])
    meter.probe_s.extend([nominal, 2 * nominal, 2 * nominal])
    # factors: median of neighbouring probes -> 1/1.5, 1/2, 1/2
    assert meter.scaled(0.0, 2.0) == pytest.approx(1.0)
    assert meter.scaled(-1.0, 2.0) == pytest.approx(1 / 1.5 + 0.5)
    assert meter.scaled(2.0, 4.0) == pytest.approx(2.0)


def test_meter_leaves_its_probes_out_of_the_clock_and_stops():
    meter = speed.Meter()
    with meter:
        t0 = meter.clock()
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
        t1 = meter.clock()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.probe_s) >= 5 and meter.spent[1] > 0
    assert 0 < t1[1] - t0[1] < 0.3 and meter.scaled(t0[1], t1[1] - t0[1]) > 0
