"""Witness language families used by the tightness checks.

Every constructor returns an already-minimal partial DFA (the tests
confirm this via the minimizer rather than trusting it).  Generators
take the alphabet explicitly -- or derive the smallest one -- because
some complexity measurements only make sense over a larger alphabet
than the witness actually uses; an unused symbol simply has no
transitions.  Each checks its parameters and skips ``PartialDfa``'s check.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .core import Alphabet, PartialDfa, _int, _undefined_table


def union_symbol_witness(
    n: int, k: int, b: str = "b", c: str = "c", alphabet: Iterable[str] | None = None
) -> PartialDfa:
    """Cycle of n states on ``c`` with ``b``-self-loops on states 0..k-1.

    Recognizes ((b*c)^k c^(n-k))* b*; state 0 is start and the only
    accepting state.  Requires 1 <= k < n (with k = n the b-loops cover
    the whole cycle and the per-symbol tightness argument collapses).
    """
    _int("k", k)
    return union_multi_witness(n, {b: k}, c, alphabet)


def union_multi_witness(
    n: int, k_map: Mapping[str, int] = {}, c: str = "c", alphabet: Iterable[str] | None = None
) -> PartialDfa:
    """One c-cycle with self-loop prefixes per symbol: the construction
    behind ``union_symbol_witness``, ``union_total_witness`` and
    ``unary_cycle``.

    For each symbol d in ``k_map``, states 0..k_map[d]-1 get d-self-loops,
    so the d-transition count is exactly k_map[d].  An empty map gives
    the bare (c^n)* cycle.
    """
    _int("n", n)
    if n < 1:
        raise ValueError(f"cycle length must be at least 1, got {n}")
    for d, loops in k_map.items():
        _int(f"k_map[{d!r}]", loops)
        if d == c:
            raise ValueError(f"self-loop symbol {d!r} clashes with the cycle symbol")
        if not 1 <= loops < n:
            raise ValueError(f"symbol {d!r}: need 1 <= k < n, got k={loops}, n={n}")
    # by str, so that Alphabet, not sorted, rejects a symbol that is not a str
    alphabet = Alphabet(sorted({c, *k_map}, key=str) if alphabet is None else alphabet)
    for d in (c, *k_map):
        if d not in alphabet:
            raise ValueError(f"symbol {d!r} must be in the alphabet")
    k, j = len(alphabet), alphabet.index(c)
    table = _undefined_table(n, k)
    for i in range(n):
        table[i * k + j] = (i + 1) % n
    for d, loops in k_map.items():
        j = alphabet.index(d)
        for i in range(loops):
            table[i * k + j] = i
    return PartialDfa._derived(alphabet, n, 0, frozenset({0}), table)


def union_total_witness(
    n: int, loop_sym: str = "a", cycle_sym: str = "c", alphabet: Iterable[str] | None = None
) -> PartialDfa:
    """Recognizer of (loop_sym | cycle_sym^n)*: one cycle plus one loop.

    Words are arbitrary mixes of loop letters and complete n-blocks of
    the cycle letter.  The self-loop sits on state 0 only, so the DFA
    has exactly n+1 transitions -- the family with minimal total
    transition count used for the union lower bound.
    """
    _int("n", n)
    if n < 2:
        raise ValueError(f"cycle length must be at least 2, got {n}")
    return union_multi_witness(n, {loop_sym: 1}, cycle_sym, alphabet)


def unary_cycle(n: int) -> PartialDfa:
    """The minimal DFA of (b^n)*: an n-cycle over the one-letter alphabet."""
    return union_multi_witness(n, {}, "b")


def unary_singleton(n: int, alphabet: Iterable[str] | None = None) -> PartialDfa:
    """The singleton language {b^n}: a chain of n+1 states, last accepting."""
    _int("n", n)
    if n < 1:
        raise ValueError(f"word length must be at least 1, got {n}")
    alphabet = Alphabet(("b",) if alphabet is None else alphabet)
    if "b" not in alphabet:
        raise ValueError("alphabet must contain 'b'")
    k, j = len(alphabet), alphabet.index("b")
    table = _undefined_table(n + 1, k)
    for i in range(n):
        table[i * k + j] = i + 1
    return PartialDfa._derived(alphabet, n + 1, 0, frozenset({n}), table)


def chain_star_witness(m: int, alphabet: Iterable[str] | None = None) -> PartialDfa:
    """Recognizer of a* b^(m-1): an a-loop on the start, then a b-chain.

    Has m transitions in total (1 loop + m-1 chain edges); m = 1
    degenerates to plain a*.
    """
    _int("m", m)
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    alphabet = Alphabet(("a", "b") if alphabet is None else alphabet)
    if "a" not in alphabet or "b" not in alphabet:
        raise ValueError("alphabet must contain 'a' and 'b'")
    k, a, b = len(alphabet), alphabet.index("a"), alphabet.index("b")
    table = _undefined_table(m, k)
    table[a] = 0  # the a-loop on the start
    for i in range(m - 1):
        table[i * k + b] = i + 1
    return PartialDfa._derived(alphabet, m, 0, frozenset({m - 1}), table)


def epsilon_lang(alphabet: Iterable[str] | None = None) -> PartialDfa:
    """Recognizer of {empty word}: one accepting state, no transitions."""
    alphabet = Alphabet(("a", "b") if alphabet is None else alphabet)
    return PartialDfa._derived(alphabet, 1, 0, frozenset({0}), [-1] * len(alphabet))


# each `pdfa witness` family by name; its constructor's signature is its
# parameters.  An unknown or missing parameter raises TypeError and a bad
# value ValueError; the CLI checks its flags against the signature first,
# so only the ValueErrors reach it, as input errors.
WITNESS_FAMILIES: dict[str, Callable[..., PartialDfa]] = {
    "union-symbol": union_symbol_witness,
    "union-multi": union_multi_witness,
    "union-total": union_total_witness,
    "unary-cycle": unary_cycle,
    "unary-singleton": unary_singleton,
    "chain-star": chain_star_witness,
    "epsilon": epsilon_lang,
}
