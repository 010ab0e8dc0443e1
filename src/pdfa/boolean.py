"""Boolean-operation constructions on partial DFAs.

These build the *construction* automata verbatim -- padded cross
products for union, the plain product for intersection, an accepting
sink for complement.  They deliberately do not minimize their output:
the constructions themselves are the objects whose sizes the bound
checks measure, and callers minimize separately when they want
language complexities.
"""

from __future__ import annotations

from operator import add

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
    na, nb = a.state_count, b.state_count
    pa, pb = _padded_size(a), _padded_size(b)
    # pair (p, q) sits at p * pb + q, so a pair's move is a's target times pb
    # plus b's target; an undefined move goes to that side's dead slot
    # (index == state_count), whose row is all undefined
    ta = [na * pb if t < 0 else t * pb for t in a.table] + [na * pb] * (pa - na) * k
    tb = [nb if t < 0 else t for t in b.table] + [nb] * (pb - nb) * k
    table = []
    for i in range(0, len(ta), k):  # a row of a against each of b's padded rows
        table += map(add, ta[i:i + k] * pb, tb)
    dead = na * pb + nb  # both sides dead: the move stays undefined
    accepting = frozenset(
        [p * pb + q for p in a.accepting for q in range(pb)]
        + [p * pb + q for p in range(pa) for q in b.accepting]
    )
    return PartialDfa(a.alphabet, pa * pb, a.start * pb + b.start, accepting,
                      [-1 if t == dead else t for t in table])


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
    accepting = frozenset(range(sink + 1)).difference(a.accepting)
    return PartialDfa(a.alphabet, sink + 1, a.start, accepting, table)
