"""Benchmark of the pdfa workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it also makes one traced pass and prints the per-layer
metrics (``perfbench/README.md`` has the tables).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import LAYERS, MAX_UNATTRIBUTED, Tracer, layer_metrics  # noqa: E402
from speed import METER, NOMINAL_PROBE_S  # noqa: E402
from workloads import WORKLOADS, clock, since  # noqa: E402

SETUP_REPEATS = 7

# End-to-end metrics in the result line.  Times are CPU time of the process
# in reference seconds (``speed.py``): the workloads are single-threaded and
# do no I/O, so on an idle machine CPU time is wall time; CPU time leaves out
# hypervisor steal, and reference seconds leave out the changes in the
# speed of the shared machine's cores.  The report prints the CPU and
# wall-clock figures as well.
END_TO_END = {
    "setup_s": "s",
    "ref_cpu_s": "s",
    "check_p50_ref_ms": "ms",
    "check_p99_ref_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics in the result line.  A metric of a layer that a
# workload never enters reads 0 on every run, which the result format does
# not allow, so only metrics that every workload moves are listed here; the
# trace report prints them all.
PER_LAYER = (
    "minimize.s", "minimize.us_per_call", "minimize.self_s", "minimize.calls",
    "minimize.states_in", "minimize.states_out",
    "core.render_s", "core.self_s",
)


def fresh_import() -> SimpleNamespace:
    """Import pdfa from this checkout's ``src/`` afresh: every module body runs again."""
    if not (SRC / "pdfa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pdfa package under {SRC}; run from a checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "pdfa" or m.startswith("pdfa.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pdfa")
    if Path(pkg.__file__).resolve().parent != SRC / "pdfa":
        raise SystemExit(f"perfbench: imported pdfa from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"pdfa.{layer}") for layer in LAYERS})


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def summarize(passes, clock: str) -> tuple[float, float, float]:
    """On one clock (``wall``, ``cpu`` or ``ref``, CPU time in reference
    seconds): the median pass time, and the median and 99th-percentile
    latency.  Every pass takes the same samples in the same order, so each
    sample's latency is first its median over the passes."""
    if clock == "ref":
        times = [METER.scaled(p.start, p.cpu) for p in passes]
        per_pass = [[METER.scaled(t, ms / 1e3) * 1e3 for t, ms in zip(p.starts, p.cpu_ms)]
                    for p in passes]
    else:
        times = [getattr(p, clock) for p in passes]
        per_pass = [getattr(p, f"{clock}_ms") for p in passes]
    if len({len(ms) for ms in per_pass}) != 1:
        raise SystemExit("perfbench: passes differ in their number of latency samples")
    latency = [statistics.median(ms) for ms in zip(*per_pass)] if len(passes) > 1 else per_pass[0]
    return statistics.median(times), statistics.median(latency), percentile(latency, 99)


def measure(workload, mods, inputs, seconds: float):
    """Timed passes until ``seconds`` have gone by (at least one)."""
    passes, attempted, failed = [], 0, 0
    t_start = perf_counter()
    while True:
        gc.collect()
        result = workload.run(mods, inputs)
        a, f = workload.check(mods, inputs, result.outputs)
        result.outputs = None  # kept outputs would raise the next pass's peak RSS
        attempted += a
        failed += f
        passes.append(result)
        print(f"pass {len(passes)}: wall {result.wall:.4f} s, cpu {result.cpu:.4f} s, "
              f"{len(result.cpu_ms)} latency samples, {f} of {a} outputs wrong")
        if perf_counter() - t_start >= seconds:
            return passes, attempted, failed


def traced_pass(workload, mods, seed: int, size: str, dump: Path):
    tracer = Tracer({layer: getattr(mods, layer) for layer in LAYERS})
    tracer.install()
    try:
        with tracer.phase("setup") as setup_node:
            inputs = workload.inputs(mods, seed, size)
        gc.collect()
        probes_before = METER.spent[0]
        with tracer.phase("pass") as pass_node:
            result = workload.run(mods, inputs)
        probes_wall = METER.spent[0] - probes_before
    finally:
        tracer.uninstall()
    attempted, failed = workload.check(mods, inputs, result.outputs)
    # the spans' clock runs on through the speed probes, the pass's does not
    report = layer_metrics(tracer, pass_node, setup_node, result.wall + probes_wall)
    return tracer, report, result, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    fresh_import()  # warm-up: a fresh checkout compiles its bytecode here
    cores = len(os.sched_getaffinity(0))
    print(f"perfbench workload={args.workload} size={args.size} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} cores={cores}")
    with METER:  # the probes run until the last timed pass has ended
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            mods = fresh_import()
            inputs = workload.inputs(mods, args.seed, args.size)
            setups.append((t0[1], since(t0)[1]))
        passes, attempted, failed = measure(workload, mods, inputs, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            dump = ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
            tracer, report, traced, a, f = traced_pass(workload, mods, args.seed, args.size, dump)
            attempted += a
            failed += f

    setup = statistics.median(METER.scaled(*s) for s in setups)
    n, samples = len(passes), len(passes[0].cpu_ms)
    probes = METER.probe_s
    print(f"speed probes: {len(probes)}, {statistics.median(probes) * 1e6:.1f} us median "
          f"({min(probes) * 1e6:.1f}-{max(probes) * 1e6:.1f} us); a reference second is a CPU "
          f"second at {NOMINAL_PROBE_S * 1e6:.0f} us a probe")
    print(f"setup_s {setup:.6f} s  (reference; median of {len(setups)} set-ups; "
          f"CPU median {statistics.median(c for _t, c in setups):.6f} s)")
    over = f"median of {n} passes"
    over_each = f"each its median of {n} passes"
    clocks = {}
    for clock_name, (t_name, p50_name, p99_name, unit) in {
        "ref": ("ref_cpu_s", "check_p50_ref_ms", "check_p99_ref_ms", "reference"),
        "cpu": ("cpu_s", "check_p50_cpu_ms", "check_p99_cpu_ms", "CPU"),
        "wall": ("wall_s", "check_p50_ms", "check_p99_ms", "wall"),
    }.items():
        t, p50, p99 = clocks[clock_name] = summarize(passes, clock_name)
        print(f"{t_name} {t:.6f} s  ({unit}; {over})")
        for name, value in ((p50_name, p50), (p99_name, p99)):
            print(f"{name} {value:.6f} ms  ({unit}; over {samples} {workload.latency_unit} "
                  f"a pass, {over_each})")
    print(f"peak_rss_mb {rss:.3f} MB")

    if args.trace:
        for name, (value, unit) in report["metrics"].items():
            print(f"layer {name} {value:.6f} {unit}" if isinstance(value, float)
                  else f"layer {name} {value} {unit}")
        acc = report["accounting"]
        for layer, t in acc["self_s_by_layer"].items():
            print(f"self {layer} {t:.6f} s")
        print(f"self unattributed {acc['unattributed_s']:.6f} s")
        print(f"trace spans cover {acc['attributed_s']:.6f} s of the traced wall "
              f"{acc['traced_wall_s']:.6f} s (share {acc['attributed_share']:.6f}, "
              f"at least {1 - MAX_UNATTRIBUTED:.2f} required)")
        untraced = [METER.scaled(p.start, p.cpu) for p in passes]
        acc["traced_ref_s"] = METER.scaled(traced.start, traced.cpu)
        acc["untraced_ref_s"] = clocks["ref"][0]
        acc["overhead_ref_s"] = acc["traced_ref_s"] - acc["untraced_ref_s"]
        acc["untraced_ref_spread_s"] = max(untraced) - min(untraced)
        acc["overhead_wall_s"] = traced.wall - clocks["wall"][0]
        spread = acc["untraced_ref_spread_s"]
        noise = (f"; within the untraced passes' spread of {spread:.6f} s, so below the noise"
                 if n > 1 and abs(acc["overhead_ref_s"]) <= spread else "")
        print(f"trace overhead {acc['overhead_ref_s']:.6f} s reference (traced pass "
              f"{acc['traced_ref_s']:.6f} s minus untraced ref_cpu_s {acc['untraced_ref_s']:.6f} s)"
              f"{noise}")
        print(f"trace overhead {acc['overhead_wall_s']:.6f} s wall (traced pass "
              f"{traced.wall:.6f} s minus untraced wall_s {clocks['wall'][0]:.6f} s)")
        tracer.dump(dump, {"metrics": {k: v for k, (v, _u) in report["metrics"].items()},
                           "accounting": acc})
        print(f"trace wrappers removed; spans written to {dump.relative_to(ROOT)}")
        metrics = {name: report["metrics"][name] for name in PER_LAYER}
    else:
        ref, ref_p50, ref_p99 = clocks["ref"]
        values = [setup, ref, ref_p50, ref_p99, rss]
        metrics = {name: (v, unit) for (name, unit), v in zip(END_TO_END.items(), values)}
    print(f"fail_ratio {failed / attempted:.6f} ratio  ({failed} of {attempted} outputs wrong)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
