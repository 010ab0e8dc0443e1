"""Boolean-operation constructions on partial DFAs.

These build the *construction* automata verbatim -- padded cross
products for union, the plain product for intersection, an accepting
sink for complement.  They deliberately do not minimize their output:
the constructions themselves are the objects whose sizes the bound
checks measure, and callers minimize separately when they want
language complexities.
"""

from __future__ import annotations

from .core import PartialDfa


def _check_same_alphabet(a: PartialDfa, b: PartialDfa) -> None:
    if a.alphabet != b.alphabet:
        raise ValueError("operands must share one alphabet, in the same order")


def _padded_size(dfa: PartialDfa) -> int:
    """Component size after padding: +1 dead slot iff some move is undefined."""
    return dfa.state_count + (0 if dfa.is_complete() else 1)


def union_product(a: PartialDfa, b: PartialDfa) -> PartialDfa:
    """Cross product recognizing L(a) | L(b), with dead-state padding.

    Each component contributes a dead slot only if it actually has an
    undefined move; a pair is accepting when either side is a (live)
    accepting state.  A pair's move is defined unless *both* components'
    moves are dead, so the (dead, dead) pair keeps every move undefined
    and is sterile by construction.
    """
    _check_same_alphabet(a, b)
    na, nb = a.state_count, b.state_count
    pa = _padded_size(a)
    pb = _padded_size(b)

    def idx(p: int, q: int) -> int:
        return p * pb + q

    def component_step(dfa: PartialDfa, live_count: int, state: int, sym: str) -> int:
        # index == live_count is the dead slot; undefined moves fall into it
        if state >= live_count:
            return live_count
        nxt = dfa.transitions.get((state, sym))
        return live_count if nxt is None else nxt

    transitions: dict[tuple[int, str], int] = {}
    for p in range(pa):
        for q in range(pb):
            for sym in a.alphabet:
                np = component_step(a, na, p, sym)
                nq = component_step(b, nb, q, sym)
                if np == na and nq == nb:
                    continue  # both sides dead: leave the move undefined
                transitions[(idx(p, q), sym)] = idx(np, nq)

    accepting = frozenset(
        idx(p, q)
        for p in range(pa)
        for q in range(pb)
        if (p < na and p in a.accepting) or (q < nb and q in b.accepting)
    )
    return PartialDfa(a.alphabet, pa * pb, idx(a.start, b.start), accepting, transitions)


def intersection_product(a: PartialDfa, b: PartialDfa) -> PartialDfa:
    """Plain cross product recognizing L(a) & L(b); no padding needed.

    A pair's move is defined iff both components' moves are, so the
    product's per-symbol transition count is exactly the product of the
    components' counts -- always, unlike the union's (see
    ``bounds.union_symbol_upper``).
    """
    _check_same_alphabet(a, b)
    nb = b.state_count

    def idx(p: int, q: int) -> int:
        return p * nb + q

    transitions: dict[tuple[int, str], int] = {}
    for (p, sym), np in a.transitions.items():
        for q in range(nb):
            nq = b.transitions.get((q, sym))
            if nq is not None:
                transitions[(idx(p, q), sym)] = idx(np, nq)

    accepting = frozenset(idx(p, q) for p in a.accepting for q in b.accepting)
    return PartialDfa(a.alphabet, a.state_count * nb, idx(a.start, b.start), accepting, transitions)


def complement(a: PartialDfa) -> PartialDfa:
    """Recognizer of the complement: complete with an *accepting* sink, flip.

    The sink absorbs every previously-undefined move and self-loops on
    all symbols, so the output is always complete with exactly
    (|Q|+1) * |alphabet| transitions, whether or not the input was
    complete.  (When the input is complete the sink is unreachable
    padding; minimizing afterwards discards it.)
    """
    sink = a.state_count
    transitions = dict(a.transitions)
    for q in range(a.state_count):
        for sym in a.alphabet:
            transitions.setdefault((q, sym), sink)
    for sym in a.alphabet:
        transitions[(sink, sym)] = sink
    accepting = frozenset(q for q in range(a.state_count) if q not in a.accepting) | {sink}
    return PartialDfa(a.alphabet, sink + 1, a.start, accepting, transitions)
