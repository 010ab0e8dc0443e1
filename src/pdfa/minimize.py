"""Minimization and language complexity for partial DFAs.

The minimal partial DFA for a language is the minimal complete DFA minus
its dead state.  ``minimize`` never adds that state: it refines the live
states over the defined moves only (Valmari & Lehtinen, "Efficient
minimization of DFAs with partial transition functions", STACS 2008).
The result is unique and canonically numbered, which makes language
equality a dataclass comparison -- one of the two routes ``equivalent``
takes; the other is ``core.pair_equivalent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import PartialDfa, _bfs_order, empty_language_dfa, pair_equivalent, transition_counts


@dataclass(frozen=True)
class ComplexityReport:
    """Language measures read off ``minimal``, the minimal partial DFA.

    ``nerode_classes`` counts right-congruence classes including the
    dead class when the minimal partial DFA has one, i.e. it is
    ``sc`` for a complete minimal DFA and ``sc + 1`` otherwise.
    """

    sc: int
    tc: int
    tc_per_symbol: Mapping[str, int]
    nerode_classes: int
    minimal: PartialDfa


def canonicalize(dfa: PartialDfa) -> PartialDfa:
    """Renumber a connected DFA by BFS discovery order; ``dfa`` itself
    when it is numbered that way already.

    Two connected deterministic automata are isomorphic exactly when
    their canonical forms are equal, so this turns isomorphism checks
    into equality checks.
    """
    n, k, table = dfa.state_count, len(dfa.alphabet), dfa.table
    order = _bfs_order(table, dfa.start, k)
    if len(order) != n:
        raise ValueError("canonicalize requires a connected DFA")
    if order == list(range(n)):
        return dfa
    number = [0] * n
    for i, q in enumerate(order):
        number[q] = i
    out = [number[t] if t >= 0 else -1 for q in order for t in table[q * k:q * k + k]]
    accepting = frozenset(number[q] for q in dfa.accepting)
    return PartialDfa(dfa.alphabet, n, 0, accepting, out)


def _search(table: tuple[int, ...], start: int, k: int) -> tuple[list[int], list[list[list[int]]], bool]:
    """The part of minimization that reads only the table.

    Returns the states reachable from ``start`` in BFS order; ``pre``,
    where ``pre[j][t]`` lists the reachable sources of j-moves into t;
    and whether that order is the identity, i.e. the reached states are
    numbered as the BFS numbers them.
    """
    order = _bfs_order(table, start, k)
    pre = []
    for j in range(k):
        column = table[j::k]  # column[q]: the target of q's j-move
        into = [[] for _ in column]
        for q in order:
            t = column[q]
            if t >= 0:
                into[t].append(q)
        pre.append(into)
    return order, pre, order == list(range(len(order)))


_ONE = (None,)  # the block of each one-state block split off: never split, so never written


def minimize(dfa: PartialDfa, search: tuple | None = None) -> PartialDfa:
    """The unique minimal partial DFA for the language, canonically numbered.

    Refines the live (reachable, co-accessible) states by Hopcroft's
    algorithm; a move into a dead state counts as undefined, and every
    initial block is queued (Valmari and Lehtinen's rule, which stands in
    for the dead state).  A split keeps the larger half in the old block
    and queues the smaller: O(m log n) work for m defined moves.  Every
    push puts the smaller block on top, the initial pair included, so a
    partition that becomes discrete stops before the larger initial
    block is split on.  A pop costs O(k) when its splitter is one state
    with at most one source per symbol, as most pops on a large machine
    are; refinement still stops early once every block is a single
    state.  A one-state block is queued as its state, and every one
    split off shares one placeholder block (it never splits), so
    splitting it off allocates no set.  ``search``, when given, is
    ``_search``'s result for ``dfa``'s table, start and symbol count,
    which machines on one table can share.  The result has the fewest
    states and, per symbol, the fewest moves; it is ``dfa`` itself when
    ``dfa`` is that machine (start 0, numbering canonical).
    """
    k, delta, start, accepting = len(dfa.alphabet), dfa.table, dfa.start, dfa.accepting
    order, pre, canonical = search or _search(delta, start, k)  # read only: callers share it
    # -1 dead or unreached (only reachable states are ever looked up), else the block
    block = [-1] * dfa.state_count
    live = [*filter(accepting.__contains__, order)]  # block 0, then block 1
    final = len(live)
    for q in live:
        block[q] = 0
    for t in live:  # co-accessible states, by one reverse search
        for into in pre:
            for s in into[t]:
                if block[s] == -1:
                    block[s] = 1
                    live.append(s)
    if block[start] < 0:
        empty = empty_language_dfa(dfa.alphabet)
        return dfa if dfa == empty else empty

    size = len(live)
    blocks = [set(live[:final]), set(live[final:])] if final < size else [set(live)]
    # LIFO of block ids, or ~q for a one-state block {q}; a block keeps its place when it splits
    waiting = [0 if final > 1 else ~live[0], 1 if final < size - 1 else ~live[-1]] if final < size else [0]
    if 2 * final < size:  # the smaller initial block on top, as every split queues its smaller half
        waiting.reverse()
    while waiting and len(blocks) < size:
        c = waiting.pop()
        one = c < 0
        if one:
            t = ~c  # a one-state block never splits, so its state stands for it
        else:
            splitter = list(blocks[c])  # the block may split below
        for into in pre:
            # s is reachable and moves into a live state, so it is live: block[s] >= 0
            if one:
                sources = into[t]
                if len(sources) < 2:
                    for s in sources:  # alone, s is the smaller half: split it off
                        rest = blocks[block[s]]
                        if len(rest) > 1:  # a one-state block cannot split
                            rest.remove(s)
                            block[s] = len(blocks)
                            waiting.append(~s)
                            blocks.append(_ONE)
                    continue
                splitter = (t,)  # two or more sources: grouped as any splitter's are
            hit: dict[int, list[int]] = {}
            for u in splitter:
                for s in into[u]:
                    c = block[s]
                    if c in hit:
                        hit[c].append(s)
                    elif len(blocks[c]) > 1:
                        hit[c] = [s]
            for c, moved in hit.items():
                rest = blocks[c]
                if len(moved) < len(rest):
                    rest.difference_update(moved)
                    moved = set(moved)
                    if len(moved) > len(rest):  # the new block, queued, is the smaller half
                        blocks[c], moved = moved, rest
                    new = len(blocks)
                    for s in moved:
                        block[s] = new
                    if len(moved) == 1:  # queued as its state s, with the shared placeholder
                        moved, new = _ONE, ~s
                    waiting.append(new)
                    blocks.append(moved)

    if len(blocks) == dfa.state_count and canonical:
        return dfa  # every state is its own block, numbered as the BFS numbers it
    number = [-1] * len(blocks)  # block -> quotient state, in BFS order
    number[block[start]] = 0
    reps = [start]
    table = []
    for q in reps:
        for t in delta[q * k:q * k + k]:
            c = block[t] if t >= 0 else -1
            if c < 0:  # undefined, or into a dead state
                table.append(-1)
                continue
            i = number[c]
            if i < 0:
                i = number[c] = len(reps)
                reps.append(t)
            table.append(i)
    return PartialDfa(dfa.alphabet, len(reps), 0, (i for i, q in enumerate(reps) if q in accepting), table)


def complexity(dfa: PartialDfa) -> ComplexityReport:
    """State/transition complexity of the language ``dfa`` recognizes,
    with the minimal partial DFA it is read off."""
    m = minimize(dfa)
    counts = transition_counts(m)
    # One extra class -- the dead class -- exists whenever the minimal
    # partial DFA leaves some move undefined.
    classes = m.state_count if m.is_complete() else m.state_count + 1
    return ComplexityReport(
        sc=m.state_count,
        tc=counts.total,
        tc_per_symbol=counts.per_symbol,
        nerode_classes=classes,
        minimal=m,
    )


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
