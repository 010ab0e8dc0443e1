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
    return PartialDfa._derived(a.alphabet, pa * pb, a.start * pb + b.start, accepting,
                               [-1 if t == dead else t for t in table])


def intersection_product(a: PartialDfa, b: PartialDfa) -> PartialDfa:
    """Plain cross product recognizing L(a) & L(b); no padding needed.

    A pair's move is defined iff both components' moves are, so the
    product's per-symbol transition count is exactly the product of the
    components' counts -- always, unlike the union's (see
    ``bounds.union_symbol_upper``).  Pair (p, q) sits at p * nb + q, so
    each row of the product is a row of a, scaled by nb, added to every
    row of b.  An undefined move on either side is ``void = -na*nb - 1``,
    so every sum with it is negative and maps back to -1.  A sentinel of
    -1 would alias: a's move into 1 plus b's -1 is nb - 1, a valid index.
    """
    _check_same_alphabet(a, b)
    k, na, nb = len(a.alphabet), a.state_count, b.state_count
    void = -na * nb - 1
    ta = [void if t < 0 else t * nb for t in a.table]
    tb = [void if t < 0 else t for t in b.table]
    table = []
    for i in range(0, len(ta), k):  # a row of a against each of b's rows
        table += map(add, ta[i:i + k] * nb, tb)
    accepting = frozenset(p * nb + q for p in a.accepting for q in b.accepting)
    return PartialDfa._derived(a.alphabet, na * nb, a.start * nb + b.start, accepting,
                               [-1 if t < 0 else t for t in table])


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
    return PartialDfa._derived(a.alphabet, sink + 1, a.start, accepting, table)
