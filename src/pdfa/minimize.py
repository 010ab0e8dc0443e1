"""Minimization and language complexity for partial DFAs.

The minimal partial DFA for a language is the minimal complete DFA minus
its dead state.  ``minimize`` never adds that state: it refines the live
states over the defined moves only (Valmari & Lehtinen, "Efficient
minimization of DFAs with partial transition functions", STACS 2008).
The result is unique and canonically numbered, which makes language
equality a dataclass comparison -- one of the two equivalence routes below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .core import (
    PartialDfa,
    _renumbered,
    empty_language_dfa,
    transition_counts,
    transition_table,
)


@dataclass(frozen=True)
class ComplexityReport:
    """Language measures read off the minimal partial DFA.

    ``nerode_classes`` counts right-congruence classes including the
    dead class when the minimal partial DFA has one, i.e. it is
    ``sc`` for a complete minimal DFA and ``sc + 1`` otherwise.
    """

    sc: int
    tc: int
    tc_per_symbol: Mapping[str, int]
    nerode_classes: int


def canonicalize(dfa: PartialDfa) -> PartialDfa:
    """Renumber a connected DFA by BFS discovery order.

    Two connected deterministic automata are isomorphic exactly when
    their canonical forms are equal, so this turns isomorphism checks
    into equality checks.
    """
    c = _renumbered(dfa)
    if c.state_count != dfa.state_count:
        raise ValueError("canonicalize requires a connected DFA")
    return c


def minimize(dfa: PartialDfa) -> PartialDfa:
    """The unique minimal partial DFA for the language, canonically numbered.

    Raises ValueError on a malformed machine.  Refines the live (reachable,
    co-accessible) states by Hopcroft's algorithm; a move into a dead state
    counts as undefined, and every initial block is queued (Valmari and
    Lehtinen's rule, which stands in for the dead state).  Later splits
    queue only their smaller half: O(m log n) work for m defined moves.
    The result has the fewest states and, per symbol, the fewest moves.
    """
    k, delta = len(dfa.alphabet), transition_table(dfa)
    pre = [[] for _ in delta]  # pre[t*k + j]: the reachable sources of j-moves into t
    reach, stack = {dfa.start}, [dfa.start]
    while stack:
        q = stack.pop()
        for j, t in enumerate(delta[q * k:q * k + k]):
            if t >= 0:
                pre[t * k + j].append(q)
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
    final = reach.intersection(dfa.accepting)
    live, stack = set(final), list(final)  # co-accessible, by one reverse search
    while stack:
        t = stack.pop()
        for sources in pre[t * k:t * k + k]:
            for s in sources:
                if s not in live:
                    live.add(s)
                    stack.append(s)
    if dfa.start not in live:
        return empty_language_dfa(dfa.alphabet)

    blocks = [b for b in (final, live - final) if b]
    block = {q: i for i, b in enumerate(blocks) for q in b}  # dead states have none
    waiting = set(range(len(blocks)))
    while waiting:
        splitter = list(blocks[waiting.pop()])
        for j in range(k):
            hit: dict[int, list[int]] = {}
            for t in splitter:
                for s in pre[t * k + j]:
                    if s in block:
                        hit.setdefault(block[s], []).append(s)
            for c, moved in hit.items():
                rest = blocks[c]
                if len(moved) < len(rest):
                    rest.difference_update(moved)
                    block.update(dict.fromkeys(moved, len(blocks)))
                    blocks.append(set(moved))
                    waiting.add(len(blocks) - 1 if c in waiting or len(moved) <= len(rest) else c)

    number = {block[dfa.start]: 0}  # block -> quotient state, in BFS order
    reps = [dfa.start]
    transitions = {}
    for i, q in enumerate(reps):
        for sym, t in zip(dfa.alphabet.symbols, delta[q * k:q * k + k]):
            c = block.get(t)
            if c is not None:
                if c not in number:
                    number[c] = len(reps)
                    reps.append(t)
                transitions[(i, sym)] = number[c]
    accepting = frozenset(i for i, q in enumerate(reps) if q in dfa.accepting)
    return PartialDfa(dfa.alphabet, len(reps), 0, accepting, transitions)


def complexity(dfa: PartialDfa) -> ComplexityReport:
    """State/transition complexity of the language ``dfa`` recognizes."""
    m = minimize(dfa)
    counts = transition_counts(m)
    # One extra class -- the dead class -- exists whenever the minimal
    # partial DFA leaves some move undefined.
    classes = m.state_count if m.is_complete() else m.state_count + 1
    return ComplexityReport(
        sc=m.state_count,
        tc=counts.total,
        tc_per_symbol=dict(counts.per_symbol),
        nerode_classes=classes,
    )


def pair_equivalent(a: PartialDfa, b: PartialDfa) -> bool:
    """Language equality by synchronized product exploration.

    Walks pairs of states with ``None`` standing for the implicit dead
    state; a pair with mismatched acceptance witnesses a separating
    word.  Independent of minimization -- used as the cross-check half
    of :func:`equivalent` and by the brute-force oracle.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("cannot compare DFAs over different alphabets")
    start = (a.start, b.start)
    seen = {start}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        in_a = p is not None and p in a.accepting
        in_b = q is not None and q in b.accepting
        if in_a != in_b:
            return False
        for sym in a.alphabet:
            np = a.transitions.get((p, sym)) if p is not None else None
            nq = b.transitions.get((q, sym)) if q is not None else None
            if np is None and nq is None:
                continue  # both dead; rejects everything on both sides
            if (np, nq) not in seen:
                seen.add((np, nq))
                queue.append((np, nq))
    return True


def equivalent(a: PartialDfa, b: PartialDfa) -> bool:
    """Do ``a`` and ``b`` recognize the same language?

    Decided twice, by canonical-minimal-form equality and by pair
    exploration.  The two routes share no algorithmic machinery; any
    disagreement is an internal error and raises instead of guessing.
    """
    by_minimal = minimize(a) == minimize(b)
    by_pairs = pair_equivalent(a, b)
    if by_minimal != by_pairs:
        raise RuntimeError(
            "equivalence routes disagree "
            f"(minimal-form says {by_minimal}, pair exploration says {by_pairs})"
        )
    return by_minimal
