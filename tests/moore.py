"""Moore's minimizer: the differential reference for ``pdfa.minimize``.

Trim, route every undefined move to a fresh rejecting sink, refine the
partition to Nerode classes one distinguishing depth per round (Moore,
"Gedanken-experiments on sequential machines", 1956), delete the dead
class, renumber canonically.  It shares no refinement code with
``minimize``, which never builds a sink.  It is quadratic on long chains
and cycles, so tests run it on machines of at most a few hundred states.
"""

from __future__ import annotations

from pdfa import PartialDfa, canonicalize, trim


def complete_with_sink(dfa: PartialDfa) -> tuple[PartialDfa, int | None]:
    """Route every undefined move to a fresh non-accepting sink state.

    Returns the completed DFA and the sink index, or ``(dfa, None)``
    unchanged when the input is already complete.
    """
    missing = [
        (q, sym)
        for q in range(dfa.state_count)
        for sym in dfa.alphabet
        if (q, sym) not in dfa.transitions
    ]
    if not missing:
        return dfa, None
    sink = dfa.state_count
    transitions = dict(dfa.transitions)
    for q, sym in missing:
        transitions[(q, sym)] = sink
    for sym in dfa.alphabet:
        transitions[(sink, sym)] = sink
    return PartialDfa(dfa.alphabet, sink + 1, dfa.start, dfa.accepting, transitions), sink


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

    n = complete.state_count
    cls = [1 if q in complete.accepting else 0 for q in range(n)]
    while True:
        remap: dict[tuple, int] = {}
        new = []
        for q in range(n):
            sig = (cls[q], tuple(cls[complete.transitions[(q, sym)]] for sym in complete.alphabet))
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
    transitions = {}
    for c in live:
        for sym in complete.alphabet:
            target = cls[complete.transitions[(reps[c], sym)]]
            if target != dead:
                transitions[(index[c], sym)] = index[target]
    quotient = PartialDfa(
        complete.alphabet,
        len(live),
        index[cls[complete.start]],
        frozenset(index[cls[q]] for q in complete.accepting),
        transitions,
    )
    return canonicalize(quotient)
