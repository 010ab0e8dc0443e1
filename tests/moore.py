"""Moore's minimizer: the differential reference for ``pdfa.minimize``.

Trim, route every undefined move to a fresh rejecting sink, refine the
partition to Nerode classes one distinguishing depth per round (Moore,
"Gedanken-experiments on sequential machines", 1956), delete the dead
class, renumber canonically.  It shares no code with ``minimize``, which
never builds a sink: the trimming and renumbering below are its own.  It
is quadratic on long chains and cycles, which take one round per state;
each round reads a row of successors built once.
"""

from __future__ import annotations

from pdfa import PartialDfa

from conftest import moves


def reachable(dfa: PartialDfa) -> frozenset[int]:
    """States reachable from the start via defined transitions."""
    step = moves(dfa)
    seen = {dfa.start}
    stack = [dfa.start]
    while stack:
        q = stack.pop()
        for sym in dfa.alphabet:
            t = step.get((q, sym))
            if t is not None and t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def coaccessible(dfa: PartialDfa) -> frozenset[int]:
    """States from which some accepting state is reachable."""
    sources: dict[int, list[int]] = {}
    for (src, _sym), dst in moves(dfa).items():
        sources.setdefault(dst, []).append(src)
    seen = set(dfa.accepting)
    stack = list(seen)
    while stack:
        for src in sources.get(stack.pop(), ()):
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return frozenset(seen)


def restrict(dfa: PartialDfa, keep: frozenset[int]) -> PartialDfa:
    """Keep the states in ``keep`` that the start reaches through them,
    numbered by breadth-first discovery with successors in alphabet order
    (the canonical numbering of ``pdfa.canonicalize``)."""
    step = moves(dfa)
    order = {dfa.start: 0}
    queue = [dfa.start]
    table = []  # the row of order[q] is the one built at q's turn in the queue
    for q in queue:
        for sym in dfa.alphabet:
            t = step.get((q, sym))
            if t is None or t not in keep:
                table.append(-1)
                continue
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            table.append(order[t])
    accepting = frozenset(order[q] for q in dfa.accepting if q in order)
    return PartialDfa(dfa.alphabet, len(order), 0, accepting, table)


def trim(dfa: PartialDfa) -> PartialDfa:
    """Restrict to reachable-and-coaccessible states, renumbered by BFS.

    If nothing useful survives (the language is empty) the single bare
    rejecting state is returned, so the empty language has exactly one
    trim form.
    """
    keep = reachable(dfa) & coaccessible(dfa)
    if dfa.start not in keep:
        return PartialDfa(dfa.alphabet, 1, 0, frozenset(), [-1] * len(dfa.alphabet))
    return restrict(dfa, keep)


def complete_with_sink(dfa: PartialDfa) -> tuple[PartialDfa, int | None]:
    """Route every undefined move to a fresh non-accepting sink state.

    Returns the completed DFA and the sink index, or ``(dfa, None)``
    unchanged when the input is already complete.
    """
    if -1 not in dfa.table:
        return dfa, None
    sink = dfa.state_count
    table = [sink if t == -1 else t for t in dfa.table] + [sink] * len(dfa.alphabet)
    return PartialDfa(dfa.alphabet, sink + 1, dfa.start, dfa.accepting, table), sink


def moore_minimize(dfa: PartialDfa) -> PartialDfa:
    """The unique minimal partial DFA for the language, canonically numbered.

    Moore partition refinement on the sink-completed trim part; classes
    are renumbered by lowest member state each round, keeping every step
    deterministic.  The dead class (the sink's class) is deleted at the
    end.
    """
    t = trim(dfa)
    if not t.accepting:
        return t  # canonical empty-language DFA straight from trim
    complete, sink = complete_with_sink(t)
    step = moves(complete)

    n = complete.state_count
    rows = [[step[(q, sym)] for sym in complete.alphabet] for q in range(n)]
    cls = [1 if q in complete.accepting else 0 for q in range(n)]
    while True:
        remap: dict[tuple, int] = {}
        new = []
        for q in range(n):
            sig = (cls[q], *map(cls.__getitem__, rows[q]))
            if sig not in remap:
                remap[sig] = len(remap)
            new.append(remap[sig])
        if new == cls:
            break
        cls = new

    dead = cls[sink] if sink is not None else None
    reps: dict[int, int] = {}
    for q in range(n):
        reps.setdefault(cls[q], q)
    live = sorted(c for c in reps if c != dead)
    index = {c: i for i, c in enumerate(live)}
    table = []  # the row of index[c], in order: live is sorted
    for c in live:
        for sym in complete.alphabet:
            target = cls[step[(reps[c], sym)]]
            table.append(-1 if target == dead else index[target])
    quotient = PartialDfa(
        complete.alphabet,
        len(live),
        index[cls[complete.start]],
        frozenset(index[cls[q]] for q in complete.accepting),
        table,
    )
    return restrict(quotient, frozenset(range(quotient.state_count)))
