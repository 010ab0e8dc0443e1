"""Brute-force enumeration oracle for small partial DFAs.

Exhaustively lists every connected canonical partial DFA up to a size
cap and uses the list to check that minimization achieves the minimum
total and per-symbol transition counts for every language at desk
scale.  Neither oracle trusts a minimizer.  ``brute_min_transitions``
compares machines by pair exploration.  ``verify_lemma1`` groups
machines by language, keyed by the acceptance bits of every word up to
a length past which no two of its machines can agree (Moore's bound),
and requires ``minimize`` to return each group's first machine, so a
minimizer that never merges, merges wrongly or changes a language
fails it.

Canonical enumeration trick: a connected DFA is a fixed point of
breadth-first renumbering exactly when, scanning its transition table
row-major (state by state, symbols in alphabet order), states make
their first appearance in increasing order.  Generating only such
tables yields each isomorphism class exactly once -- no hashing, no
post-hoc dedup -- in a total, size-ordered order.

Each table carries 2^n machines, one per accepting set, yielded in a
row.  The table is checked once, by building its machine with every
state accepting, and its machines then share that one tuple.
``verify_lemma1`` also runs the minimizer's table-only search once per
table and hands it to ``minimize`` for each of the table's machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .core import Alphabet, PartialDfa, _int, pair_equivalent, render_dfa, transition_counts
from .minimize import _search, canonicalize, minimize

# Desk-scale caps by alphabet size, keeping any single call in the
# minutes range: unary tables grow like (n+1)*2^n, binary 4-state is
# already 323,600 DFAs (330,316 up to 4 states), ternary explodes fastest.
_ENUM_LIMITS = {1: 14, 2: 4, 3: 3}


def _state_limit(alphabet: Alphabet) -> int:
    if len(alphabet) > 3:
        raise ValueError(f"enumeration is capped at 3 symbols, got {len(alphabet)}")
    return _ENUM_LIMITS[len(alphabet)]


def _canonical_tables(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All length-n*k transition tables (-1 = undefined) that are
    canonical and use all n states, in lexicographic order."""
    table = [-1] * (n * k)

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n * k:
            if used == n:
                yield tuple(table)
            return
        if i // k >= used:
            return  # this row's state was never discovered: unreachable
        options = [-1, *range(used)]
        if used < n:
            options.append(used)  # discover the next state here
        for v in options:
            table[i] = v
            yield from rec(i + 1, used + (1 if v == used else 0))
        table[i] = -1

    yield from rec(0, 1)


def _all_dfas(max_states: int, alphabet: Alphabet) -> Iterator[PartialDfa]:
    """Every connected canonical partial DFA with up to max_states states.

    Total, deterministic order: by state count, then transition table
    (undefined slots sorting first), then accepting bitmask.
    """
    k = len(alphabet)
    for n in range(1, max_states + 1):
        # accepting sets ordered by their bitmask value
        accepting_sets = [
            frozenset(q for q in range(n) if mask >> q & 1) for mask in range(1 << n)
        ]
        every = accepting_sets[-1]  # a superset of each accepting set
        for table in _canonical_tables(n, k):
            # one check per table, by the constructor, covers its 2^n machines
            checked = PartialDfa(alphabet, n, 0, every, table)
            yield from checked._relabelled(accepting_sets)


@dataclass(frozen=True)
class OracleResult:
    """Exhaustively certified minima for one language."""

    min_total: int
    min_per_symbol: Mapping[str, int]
    witness_dfa: PartialDfa


def brute_min_transitions(target: PartialDfa, max_states: int = 0) -> OracleResult:
    """Minimum total and per-symbol transition counts over all DFAs
    with at most ``max_states`` states recognizing L(target).

    ``max_states = 0`` searches up to sc(L)+1 states -- one more state
    than the minimal DFA, enough to certify that extra states buy
    nothing.  sc(L) is read off the size-ordered enumeration as the size
    of the first equivalent DFA, so no minimizer is trusted.  A cap with
    no equivalent DFA below it is rejected: it is under sc(L).
    """
    alphabet = target.alphabet
    _int("max_states", max_states)
    if max_states < 0:
        raise ValueError(f"max_states must be 0 (search up to sc+1) or at least 1, got {max_states}")
    limit = _state_limit(alphabet)
    if max_states > limit:
        raise ValueError(
            f"enumeration over {len(alphabet)} symbol(s) is capped at "
            f"{limit} states to stay at desk scale, got {max_states}"
        )
    auto = max_states == 0
    cap = limit if auto else max_states
    least: list[int] = []  # [total, then each symbol in alphabet order]
    witness: PartialDfa | None = None
    for cand in _all_dfas(cap, alphabet):
        if cand.state_count > cap:
            break
        if not pair_equivalent(cand, target):
            continue
        if auto and witness is None:  # the first equivalent DFA is a minimal one
            cap = cand.state_count + 1
            if cap > limit:
                raise ValueError(
                    f"the automatic search goes one state past the language's state complexity "
                    f"{cap - 1}, but enumeration over {len(alphabet)} symbol(s) is capped at "
                    f"{limit} states; give max_states={limit} to search up to {limit} states only"
                )
        counts = transition_counts(cand)
        sizes = [counts.total, *counts.per_symbol.values()]
        if witness is None or sizes[0] < least[0]:
            witness = cand
        least = [*map(min, least, sizes)] if least else sizes
    if witness is None:
        raise ValueError(
            f"no DFA with at most {cap} states recognizes the language: "
            f"its state complexity is above {cap}"
        )
    return OracleResult(least[0], dict(zip(alphabet, least[1:])), witness)


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of one verify_lemma1 sweep."""

    max_states: int
    alphabet: Alphabet
    dfas_checked: int
    languages: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _reached(table: tuple[int, ...], k: int, depth: int) -> bytes:
    """The state each word of length at most ``depth`` reaches from state
    0, one byte a word, 255 where the word falls off an undefined move.

    Words come by length, then by number with the first symbol as the
    lowest base-k digit, so appending symbol j to every word of one level
    maps that level through column j: the next level is the level
    translated by each column in turn.
    """
    columns = [bytes(t & 255 for t in table[j::k]).ljust(256, b"\xff") for j in range(k)]
    level = reached = b"\x00"
    for _ in range(depth):
        level = b"".join(level.translate(column) for column in columns)
        reached += level
    return reached


def _indicator(accepting: frozenset[int]) -> bytes:
    """The byte map that sends accepting states to 1 and all else to 0."""
    return bytes(q in accepting for q in range(256))


def verify_lemma1(max_states: int, alphabet: Iterable[str]) -> Lemma1Report:
    """Certify the minimizer against brute force, language by language.

    Enumerates every connected canonical partial DFA with up to
    cap = max_states+1 states and groups them by language.  A machine's
    key is the acceptance bit of every word of length at most 2*cap - 1,
    read off the states ``_reached`` lists for its table.  The key is
    exact: two inequivalent machines with n1, n2 <= cap states, plus one
    dead state they share, make a complete DFA of at most n1 + n2 + 1
    states, so Moore's refinement ("Gedanken-experiments on sequential
    machines", 1956) separates them by a word of length at most
    n1 + n2 - 1.

    The enumerator yields machines in order of state count and each
    isomorphism class once, so the first machine with a key is its
    language's minimal partial DFA.  The certificate rests on that order:
    a stream whose state count falls raises ValueError.  For every
    machine, ``canonicalize(minimize(a))`` must equal the first machine of
    its group; a minimizer that changes a language, never merges or
    merges wrongly fails here.  Each language whose minimal DFA fits in
    max_states must then have that DFA achieve the group's minimum total
    and per-symbol transition counts.  As sc is the minimal DFA's own
    state count, the per-symbol check is also the identity "undefined
    moves on a symbol = sc - its certified minimum".  Only those groups
    are held; a cap-state machine with a new key has no other member.
    """
    _int("max_states", max_states)
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    alphabet = Alphabet(alphabet)  # any sequence of symbols, checked here
    limit = _state_limit(alphabet)
    if max_states >= limit:
        raise ValueError(
            f"verify-lemma1 sweeps one state past max_states and enumeration over "
            f"{len(alphabet)} symbol(s) is capped at {limit} states, so max_states "
            f"must be at most {limit - 1}, got {max_states}"
        )
    cap = max_states + 1
    depth = 2 * cap - 1
    # language key -> [its minimal DFA's rendering, that DFA, its counts, the least counts]
    groups: dict[bytes, list] = {}
    indicators: dict[frozenset[int], bytes] = {}
    checked = 0
    bad: list[str] = []
    table = None
    size = 0
    for a in _all_dfas(cap, alphabet):
        checked += 1
        if a.table is not table:  # the enumerator hands one table to 2^n DFAs in a row
            if a.state_count < size:
                raise ValueError(
                    f"verify_lemma1 needs its DFAs in order of state count, "
                    f"got {a.state_count} states after {size}"
                )
            table, size = a.table, a.state_count
            counts = transition_counts(a)
            sizes = [counts.total, *(counts.per_symbol[sym] for sym in alphabet)]
            reached = _reached(table, len(alphabet), depth)
            search = _search(table, 0, len(alphabet))
        m = canonicalize(minimize(a, search))
        indicator = indicators.get(a.accepting)
        if indicator is None:
            indicator = indicators[a.accepting] = _indicator(a.accepting)
        key = reached.translate(indicator)
        g = groups.get(key)
        if g is None:  # a new language: a is its minimal DFA
            first = a
            text = render_dfa(a)  # also out of scope: perfbench's trace counts languages by it
            if size <= max_states:
                groups[key] = [text, a, sizes, sizes]
        else:
            first = g[1]
            g[3] = [*map(min, g[3], sizes)]
        if m is not first and m != first:  # most machines are their own minimal DFA
            what = "is not the minimal DFA" if pair_equivalent(a, m) else "changed the language"
            bad.append(f"minimize() {what} of:\n" + render_dfa(a))

    names = ["total ", *(f"{sym!r}-" for sym in alphabet)]
    for text, _, counts, least in sorted(groups.values(), key=lambda g: g[0]):
        for name, has, achievable in zip(names, counts, least):
            if has != achievable:
                bad.append(
                    f"{name}transitions: the minimal DFA has {has}, "
                    f"but {achievable} are achievable for:\n{text}"
                )
    return Lemma1Report(
        max_states=max_states,
        alphabet=alphabet,
        dfas_checked=checked,
        languages=len(groups),
        counterexamples=tuple(bad),
    )
