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
    k = len(a.alphabet)
    dead = (-1,) * k  # the dead slot's row: no move defined
    ta, tb = a.table + dead, b.table + dead
    na, nb = a.state_count, b.state_count
    pa = _padded_size(a)
    pb = _padded_size(b)

    def idx(p: int, q: int) -> int:
        return p * pb + q

    table = []
    for p in range(pa):
        for q in range(pb):
            for j in range(k):
                np, nq = ta[p * k + j], tb[q * k + j]
                # both sides dead: the move stays undefined; one side dead
                # sends that side to its dead slot (index == state_count)
                table.append(-1 if np < 0 and nq < 0 else idx(na if np < 0 else np, nb if nq < 0 else nq))

    accepting = frozenset(
        idx(p, q)
        for p in range(pa)
        for q in range(pb)
        if (p < na and p in a.accepting) or (q < nb and q in b.accepting)
    )
    return PartialDfa(a.alphabet, pa * pb, idx(a.start, b.start), accepting, table)


def intersection_product(a: PartialDfa, b: PartialDfa) -> PartialDfa:
    """Plain cross product recognizing L(a) & L(b); no padding needed.

    A pair's move is defined iff both components' moves are, so the
    product's per-symbol transition count is exactly the product of the
    components' counts -- always, unlike the union's (see
    ``bounds.union_symbol_upper``).
    """
    _check_same_alphabet(a, b)
    ta, tb = a.table, b.table
    k = len(a.alphabet)
    nb = b.state_count

    def idx(p: int, q: int) -> int:
        return p * nb + q

    table = [
        -1 if ta[p * k + j] < 0 or tb[q * k + j] < 0 else idx(ta[p * k + j], tb[q * k + j])
        for p in range(a.state_count)
        for q in range(nb)
        for j in range(k)
    ]
    accepting = frozenset(idx(p, q) for p in a.accepting for q in b.accepting)
    return PartialDfa(a.alphabet, a.state_count * nb, idx(a.start, b.start), accepting, table)


def complement(a: PartialDfa) -> PartialDfa:
    """Recognizer of the complement: complete with an *accepting* sink, flip.

    The sink absorbs every previously-undefined move and self-loops on
    all symbols, so the output is always complete with exactly
    (|Q|+1) * |alphabet| transitions, whether or not the input was
    complete.  (When the input is complete the sink is unreachable
    padding; minimizing afterwards discards it.)
    """
    sink = a.state_count
    table = [sink if t < 0 else t for t in a.table] + [sink] * len(a.alphabet)
    accepting = frozenset(q for q in range(a.state_count) if q not in a.accepting) | {sink}
    return PartialDfa(a.alphabet, sink + 1, a.start, accepting, table)
