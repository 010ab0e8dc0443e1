"""The benchmark's workloads: inputs from a seed, one timed pass, and a
check of every output against an answer that does not come from the
minimizer under test.

Each workload has a ``full`` size (what the benchmark measures) and a
``smoke`` size (what the benchmark's own tests run).  Library calls go
through the module objects in ``mods`` at call time, so a traced pass
sees the trace wrappers and an untraced pass the plain functions.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from speed import METER

PINS = Path(__file__).with_name("pins.json")

clock = METER.clock  # wall and CPU seconds, the speed probes left out


def since(t0: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds since ``t0``.  CPU time leaves out the time the
    hypervisor runs other guests on this core (steal)."""
    now = clock()
    return now[0] - t0[0], now[1] - t0[1]


@dataclass
class PassResult:
    start: float  # CPU clock at the first library call
    wall: float  # seconds from the first library call to the verdict
    cpu: float  # CPU seconds of the process over the same span
    wall_ms: list[float]  # wall ms per latency sample (checked output, or DFA swept)
    cpu_ms: list[float]  # CPU ms per latency sample
    starts: list[float]  # CPU clock at the start of each latency sample
    outputs: object


def latency_samples() -> tuple[list[float], list[float], list[float]]:
    return array("d"), array("d"), array("d")


def run_cli(mods, argv: list[str]) -> tuple[tuple[float, float, float], int, str]:
    buf = io.StringIO()
    t0 = clock()
    with redirect_stdout(buf):
        code = mods.cli.main(argv)
    return (t0[1], *since(t0)), code, buf.getvalue()


def record(samples, t0: tuple[float, float], t1: tuple[float, float] | None = None) -> None:
    """Add the sample from clock reading ``t0`` to ``t1`` (default: now)."""
    t1 = t1 or clock()
    samples[0].append((t1[0] - t0[0]) * 1e3)
    samples[1].append((t1[1] - t0[1]) * 1e3)
    samples[2].append(t0[1])


class SweepBinary:
    """``pdfa oracle verify-lemma1`` over {a, b}: the exhaustive sweep."""

    latency_unit = "DFAs swept"

    sizes = {
        "full": {"max_states": 3, "alphabet": "ab", "dfas": 330316, "languages": 4170},
        "smoke": {"max_states": 2, "alphabet": "ab", "dfas": 6716, "languages": 104},
    }

    def inputs(self, mods, seed: int, size: str) -> dict:
        return self.sizes[size]  # exhaustive: the seed has nothing to pick

    def run(self, mods, inp: dict) -> PassResult:
        # verify_lemma1 looks the enumerator up as pdfa.oracle._all_dfas; the
        # time from one DFA's yield to the next is that DFA's latency (its
        # minimize, grouping and checks, plus generating the next DFA)
        samples = latency_samples()
        inner = mods.oracle._all_dfas

        def timed(*args, **kwargs):
            prev = None
            for dfa in inner(*args, **kwargs):
                now = clock()
                if prev is not None:
                    record(samples, prev, now)
                prev = now
                yield dfa
            if prev is not None:
                record(samples, prev)

        argv = ["oracle", "verify-lemma1", "--max-states", str(inp["max_states"]),
                "--alphabet", inp["alphabet"]]
        mods.oracle._all_dfas = timed
        try:
            elapsed, code, out = run_cli(mods, argv)
        finally:
            mods.oracle._all_dfas = inner
        return PassResult(*elapsed, *samples, (code, out))

    def check(self, mods, inp: dict, outputs) -> tuple[int, int]:
        code, out = outputs
        expected = (
            f"verify-lemma1 max_states={inp['max_states']} alphabet={inp['alphabet']} "
            f"dfas={inp['dfas']} languages={inp['languages']} counterexamples=0 verdict=pass\n"
        )
        return 1, int(code != 0 or out != expected)


class LargeOps:
    """Parse, build the product, minimize and render a few large machines."""

    latency_unit = "operations"

    sizes = {
        "full": {"union": (60, 61), "intersection": (31, 37), "chain": 1200, "complement": 800},
        "smoke": {"union": (9, 10), "intersection": (9, 11), "chain": 100, "complement": 100},
    }

    def inputs(self, mods, seed: int, size: str) -> dict:
        w, render = mods.witnesses, mods.core.render_dfa
        p = self.sizes[size]
        n1, n2 = p["union"]
        rng = random.Random(seed)
        k1, k2 = rng.randint(1, n1 - 1), rng.randint(1, n2 - 1)
        c1, c2 = p["intersection"]
        return {
            "params": {**p, "k": (k1, k2)},
            "texts": [
                ("union", (render(w.union_symbol_witness(n1, k1)),
                           render(w.union_symbol_witness(n2, k2)))),
                ("intersection", (render(w.unary_cycle(c1)), render(w.unary_cycle(c2)))),
                ("chain", (render(w.unary_singleton(p["chain"])),)),
                ("complement", (render(w.unary_singleton(p["complement"])),)),
            ],
        }

    def run(self, mods, inp: dict) -> PassResult:
        core, boolean, minimize = mods.core, mods.boolean, mods.minimize
        samples, outputs = latency_samples(), []
        t_start = clock()
        for op, texts in inp["texts"]:
            t0 = clock()
            dfas = [core.parse_dfa(text) for text in texts]
            if op == "union":
                built = boolean.union_product(*dfas)
            elif op == "intersection":
                built = boolean.intersection_product(*dfas)
            elif op == "complement":
                built = boolean.complement(dfas[0])
            else:
                built = dfas[0]
            text = core.render_dfa(minimize.minimize(built))
            record(samples, t0)
            outputs.append((op, built, text))
        return PassResult(t_start[1], *since(t_start), *samples, outputs)

    def check(self, mods, inp: dict, outputs) -> tuple[int, int]:
        b = mods.bounds
        p = inp["params"]
        failed = 0
        for op, built, text in outputs:
            m = mods.core.parse_dfa(text)
            counts = mods.core.transition_counts(m)
            sc, tc = m.state_count, counts.total
            if op == "union":
                (n1, n2), (k1, k2) = p["union"], p["k"]
                ok = (sc == b.union_state_upper(n1, n2)
                      and counts.per_symbol["b"] == b.union_symbol_upper(k1, k2, n1, n2))
            elif op == "intersection":
                n1, n2 = p["intersection"]
                ok = sc == n1 * n2 and tc == b.intersection_upper(n1, n2)
            elif op == "chain":
                ok = sc == p["chain"] + 1 and tc == p["chain"]
            else:
                ok = (sc == p["complement"] + 2
                      and tc == b.complement_upper(len(m.alphabet), p["complement"]))
            failed += not (ok and mods.minimize.pair_equivalent(m, built))
        return len(outputs), failed


class BoundsSuite:
    """``pdfa check --all``: every tightness and soundness check."""

    latency_unit = "check_bound calls"

    sizes = {
        "full": {"max_n": 11, "pairs": 1000, "checks": 1277},
        "smoke": {"max_n": 5, "pairs": 20, "checks": 91},
    }
    SUITE_SEEDS = 10  # the benchmark seed picks one of the pinned suite seeds

    def argv(self, size: str, suite_seed: int) -> list[str]:
        p = self.sizes[size]
        return ["check", "--all", "--max-n", str(p["max_n"]), "--pairs", str(p["pairs"]),
                "--seed", str(suite_seed)]

    def inputs(self, mods, seed: int, size: str) -> dict:
        suite_seed = seed % self.SUITE_SEEDS
        pins = json.loads(PINS.read_text())["bounds-suite"][size]
        return {**self.sizes[size], "argv": self.argv(size, suite_seed),
                "digest": pins[str(suite_seed)]}

    def run(self, mods, inp: dict) -> PassResult:
        # check_bound is looked up in pdfa.bounds by run_suite; time each call there
        samples = latency_samples()
        inner = mods.bounds.check_bound

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                record(samples, t0)

        mods.bounds.check_bound = timed
        try:
            elapsed, code, out = run_cli(mods, inp["argv"])
        finally:
            mods.bounds.check_bound = inner
        return PassResult(*elapsed, *samples, (code, out))

    def check(self, mods, inp: dict, outputs) -> tuple[int, int]:
        code, out = outputs
        m = re.search(r"^(\d+) checks: .* (\d+) violations$", out, re.M)
        if m is None:
            return inp["checks"], inp["checks"]
        checks, violations = int(m.group(1)), int(m.group(2))
        if code != 0 or checks != inp["checks"] or digest(out) != inp["digest"]:
            return inp["checks"], inp["checks"]  # cannot tell which lines are wrong
        return checks, violations


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    "sweep-binary": SweepBinary(),
    "large-ops": LargeOps(),
    "bounds-suite": BoundsSuite(),
}
