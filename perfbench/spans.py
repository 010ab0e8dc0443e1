"""Outside-in tracing of the pdfa layers.

A :class:`Tracer` wraps every function defined in a layer module under
each name a pdfa module binds it to, so a call is caught under the name
its caller looks it up by (``pdfa.oracle.minimize``, ``pdfa.core.reachable``
inside ``trim``, ``pdfa.bounds.union_product``, ...).  Generator functions
get one span per ``next()``.  Nothing inside ``src/`` changes; removing
the wrappers restores every binding, which :meth:`Tracer.uninstall`
verifies.

Spans are aggregated in memory by call path (parent span, function):
each node keeps its call count and inclusive time, so the sweep's
7.5 million calls cost a few dozen nodes.  A node's self time is its
inclusive time minus its children's.  The tree is written out at the end
of a traced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("oracle", "core", "minimize", "boolean", "witnesses", "bounds", "cli")

# Generator nodes of the enumerator: their self time is DFA generation,
# kept apart from the rest of the oracle layer's bookkeeping.
ENUM_FUNCS = frozenset({"oracle._all_dfas", "oracle._canonical_tables"})

_MARK = "__perfbench_trace__"

# Largest share of a traced pass that may fall outside every top-level
# span (harness code between library calls).  More means the wrappers
# missed an entry point the pass goes through.
MAX_UNATTRIBUTED = 0.05


class Tracer:
    """Wraps the layer entry points and aggregates spans by call path."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module object
        self.name = ["bench"]  # node id -> "layer.function" (node 0 = the harness)
        self.parent = [-1]
        self.calls = [0]
        self.total = [0.0]
        self.index: dict[tuple[int, str], int] = {}
        self.stack = [0]
        self.patches: list[tuple[object, str, object]] = []
        # counts read off arguments and return values
        self.items: dict[str, int] = {}
        self.keys: set[str] = set()
        self.key_states: dict[int, int] = {}
        self.lemma_caps: list[int] = []
        self.minimize_states = [0, 0]
        self.boolean_states = 0

    # --- spans --------------------------------------------------------------

    def _node(self, parent: int, name: str) -> int:
        key = (parent, name)
        node = self.index.get(key)
        if node is None:
            node = self.index[key] = len(self.name)
            self.name.append(name)
            self.parent.append(parent)
            self.calls.append(0)
            self.total.append(0.0)
        return node

    @contextmanager
    def phase(self, name: str):
        """A harness-level span, e.g. ``setup`` or ``pass``."""
        node = self._node(self.stack[-1], name)
        self.stack.append(node)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            self.total[node] += time.perf_counter() - t0
            self.calls[node] += 1
            self.stack.pop()

    def _wrap(self, name: str, fn):
        stack, calls, total, node_of = self.stack, self.calls, self.total, self._node
        clock = time.perf_counter
        probe = _PROBES.get(name)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return self._traced_iter(name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                caller = stack[-1]
                node = node_of(caller, name)
                stack.append(node)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    total[node] += clock() - t0
                    calls[node] += 1
                    stack.pop()
                if probe is not None:
                    probe(self, self.name[caller], args, result)
                return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _traced_iter(self, name: str, it):
        stack, calls, total = self.stack, self.calls, self.total
        clock = time.perf_counter
        items = 0
        try:
            while True:
                node = self._node(stack[-1], name)
                stack.append(node)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    total[node] += clock() - t0
                    calls[node] += 1
                    stack.pop()
                items += 1
                yield item
        finally:
            self.items[name] = self.items.get(name, 0) + items

    # --- install / uninstall -----------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer, module in self.modules.items():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in _pdfa_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding and verify that no wrapper is left."""
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        left = [
            f"{module.__name__}.{attr}"
            for module in _pdfa_modules()
            for attr, value in vars(module).items()
            if hasattr(value, _MARK)
        ]
        moved = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self.patches
            if getattr(module, attr) is not original
        ]
        if left or moved or self.stack != [0]:
            raise RuntimeError(f"trace wrappers not removed: {left + moved} stack={self.stack}")

    # --- aggregation --------------------------------------------------------

    def subtree(self, root: int) -> list[int]:
        children: dict[int, list[int]] = {}
        for node in range(1, len(self.name)):
            children.setdefault(self.parent[node], []).append(node)
        out, todo = [], list(children.get(root, ()))
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(children.get(node, ()))
        return out

    def self_time(self, nodes: list[int]) -> dict[int, float]:
        child = {node: 0.0 for node in nodes}
        for node in nodes:
            if self.parent[node] in child:
                child[self.parent[node]] += self.total[node]
        return {node: self.total[node] - child[node] for node in nodes}

    def inclusive(self, nodes: list[int], match) -> float:
        """Time in spans whose name satisfies ``match``, counting each
        nesting of matching spans once (outermost only)."""
        chosen = set(n for n in nodes if match(self.name[n]))
        return sum(
            self.total[n] for n in chosen if not self._has_ancestor_in(n, chosen)
        )

    def _has_ancestor_in(self, node: int, chosen: set[int]) -> bool:
        node = self.parent[node]
        while node > 0:
            if node in chosen:
                return True
            node = self.parent[node]
        return False

    def calls_of(self, nodes: list[int], name: str) -> int:
        return sum(self.calls[n] for n in nodes if self.name[n] == name)

    def dump(self, path: Path, extra: dict) -> None:
        nodes = [
            {"id": n, "parent": self.parent[n], "name": self.name[n],
             "calls": self.calls[n], "total_s": self.total[n]}
            for n in range(len(self.name))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": nodes, **extra}, indent=1) + "\n")


def _pdfa_modules():
    return [m for name, m in list(sys.modules.items()) if name == "pdfa" or name.startswith("pdfa.")]


# --- probes: counts read from arguments and return values -------------------

def _probe_render(tracer: Tracer, caller: str, args, result) -> None:
    if caller == "oracle.verify_lemma1":
        tracer.keys.add(result)  # the grouping key of one DFA


def _probe_canonicalize(tracer: Tracer, caller: str, args, result) -> None:
    if caller == "oracle.verify_lemma1":
        sc = result.state_count
        tracer.key_states[sc] = tracer.key_states.get(sc, 0) + 1


def _probe_lemma(tracer: Tracer, caller: str, args, result) -> None:
    tracer.lemma_caps.append(result.max_states)


def _probe_minimize(tracer: Tracer, caller: str, args, result) -> None:
    tracer.minimize_states[0] += args[0].state_count
    tracer.minimize_states[1] += result.state_count


def _probe_boolean(tracer: Tracer, caller: str, args, result) -> None:
    tracer.boolean_states += result.state_count


_PROBES = {
    "core.render_dfa": _probe_render,
    "minimize.canonicalize": _probe_canonicalize,
    "oracle.verify_lemma1": _probe_lemma,
    "minimize.minimize": _probe_minimize,
    "boolean.union_product": _probe_boolean,
    "boolean.intersection_product": _probe_boolean,
    "boolean.complement": _probe_boolean,
}


def layer_of(name: str) -> str:
    if name in ENUM_FUNCS:
        return "oracle.enum"
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, pass_node: int, setup_node: int | None, wall: float) -> dict:
    """Per-layer metrics of one traced pass (``wall`` seconds, timed by
    the harness), plus the self-time accounting.

    Summed over the pass, the layers' self times equal the time inside
    the pass's top-level spans; what the spans do not cover is
    unattributed.  The check is that no self time is negative and that
    the spans cover all but ``MAX_UNATTRIBUTED`` of the wall time.
    """
    nodes = tracer.subtree(pass_node)
    self_t = tracer.self_time(nodes)
    by_layer = {layer: 0.0 for layer in ("oracle.enum", *LAYERS)}
    for node, t in self_t.items():
        by_layer[layer_of(tracer.name[node])] += t
    negative = [tracer.name[n] for n, t in self_t.items() if t < -1e-6]
    top = sum(tracer.total[n] for n in nodes if tracer.parent[n] == pass_node)
    unattributed = wall - top
    if negative or not 0 <= unattributed <= MAX_UNATTRIBUTED * wall:
        raise RuntimeError(
            f"trace spans cover {top} s of the traced wall {wall} s "
            f"(at least {1 - MAX_UNATTRIBUTED} of it required); negative self times: {negative}"
        )

    def incl(*names: str) -> float:
        return tracer.inclusive(nodes, lambda n: n in names)

    dfas = tracer.items.get("oracle._all_dfas", 0)
    caps = tracer.lemma_caps
    in_scope = sum(c for sc, c in tracer.key_states.items() if caps and sc <= caps[-1])
    minimize_calls = tracer.calls_of(nodes, "minimize.minimize")
    minimize_s = incl("minimize.minimize")
    witness_nodes = nodes + (tracer.subtree(setup_node) if setup_node is not None else [])
    outer_canon = sum(
        tracer.total[n] for n in nodes
        if tracer.name[n] == "minimize.canonicalize"
        and tracer.name[tracer.parent[n]] == "oracle.verify_lemma1"
    )
    metrics = {
        "oracle.enum_s": (incl("oracle._all_dfas"), "s"),
        "oracle.dfas": (dfas, "count"),
        "oracle.self_s": (by_layer["oracle"], "s"),
        "oracle.groups_held": (len(tracer.keys), "count"),
        "oracle.in_scope_dfas": (in_scope, "count"),
        "oracle.in_scope_ratio": (in_scope / dfas if dfas else 0.0, "ratio"),
        "oracle.brute_s": (incl("oracle.brute_min_transitions"), "s"),
        "minimize.calls": (minimize_calls, "count"),
        "minimize.s": (minimize_s, "s"),
        "minimize.us_per_call": (1e6 * minimize_s / minimize_calls if minimize_calls else 0.0, "us"),
        "minimize.self_s": (by_layer["minimize"], "s"),
        "minimize.canonicalize_s": (outer_canon, "s"),
        "minimize.pair_equivalent_s": (incl("minimize.pair_equivalent"), "s"),
        "minimize.states_in": (tracer.minimize_states[0], "count"),
        "minimize.states_out": (tracer.minimize_states[1], "count"),
        "core.reachable_per_dfa": (
            tracer.calls_of(nodes, "core.reachable") / dfas if dfas else 0.0, "count"),
        "core.transition_counts_s": (incl("core.transition_counts"), "s"),
        "core.render_s": (incl("core.render_dfa"), "s"),
        "core.parse_s": (incl("core.parse_dfa"), "s"),
        "core.self_s": (by_layer["core"], "s"),
        "boolean.union_s": (incl("boolean.union_product"), "s"),
        "boolean.intersection_s": (incl("boolean.intersection_product"), "s"),
        "boolean.complement_s": (incl("boolean.complement"), "s"),
        "boolean.states_out": (tracer.boolean_states, "count"),
        "boolean.self_s": (by_layer["boolean"], "s"),
        "bounds.sample_s": (incl("bounds.sample_pairs"), "s"),
        "bounds.self_s": (by_layer["bounds"], "s"),
        "bounds.checks": (tracer.calls_of(nodes, "bounds.check_bound"), "count"),
        "witnesses.build_s": (
            tracer.inclusive(witness_nodes, lambda n: n.startswith("witnesses.")), "s"),
        "witnesses.self_s": (by_layer["witnesses"], "s"),
        "cli.self_s": (by_layer["cli"], "s"),
    }
    accounting = {
        "traced_wall_s": wall,
        "self_s_by_layer": by_layer,
        "attributed_s": top,
        "attributed_share": top / wall,
        "unattributed_s": unattributed,
    }
    return {"metrics": metrics, "accounting": accounting}
