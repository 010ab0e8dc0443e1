"""Brute-force enumeration oracle for small partial DFAs.

Exhaustively lists every connected canonical partial DFA up to a size
cap and uses the list to check that minimization achieves the minimum
total and per-symbol transition counts for every language at desk
scale.  ``brute_min_transitions`` trusts no minimizer.  ``verify_lemma1``
groups machines by their ``minimize`` output, so it catches a minimizer
that changes a language or misses a minimum, but passes one that never
merges.

Canonical enumeration trick: a connected DFA is a fixed point of
breadth-first renumbering exactly when, scanning its transition table
row-major (state by state, symbols in alphabet order), states make
their first appearance in increasing order.  Generating only such
tables yields each isomorphism class exactly once -- no hashing, no
post-hoc dedup -- in a total, size-ordered order.

Each table carries 2^n machines, one per accepting set, yielded in a
row.  The table is checked once, by building its machine with every
state accepting, and its machines then share that one tuple.
``minimize`` caches its table-only search for one entry, keyed by the
table's content, so the machines of one table share one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import Alphabet, PartialDfa, render_dfa, transition_counts
from .minimize import canonicalize, minimize, pair_equivalent

# Desk-scale caps by alphabet size, keeping any single call in the
# minutes range: unary tables grow like (n+1)*2^n, binary 4-state is
# already 323,600 DFAs (330,316 up to 4 states), ternary explodes fastest.
_ENUM_LIMITS = {1: 14, 2: 4, 3: 3}


def _state_limit(alphabet: Alphabet) -> int:
    if len(alphabet) > 3:
        raise ValueError(f"enumeration is capped at 3 symbols, got {len(alphabet)}")
    return _ENUM_LIMITS[len(alphabet)]


def _check_limits(max_states: int, alphabet: Alphabet) -> None:
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    limit = _state_limit(alphabet)
    if max_states > limit:
        raise ValueError(
            f"enumeration over {len(alphabet)} symbol(s) is capped at "
            f"{limit} states to stay at desk scale, got {max_states}"
        )


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
    k = len(alphabet)
    for n in range(1, max_states + 1):
        # accepting sets ordered by their bitmask value
        accepting_sets = [
            frozenset(q for q in range(n) if mask >> q & 1) for mask in range(1 << n)
        ]
        every = accepting_sets[-1]  # a superset of each accepting set
        for table in _canonical_tables(n, k):
            # one check per table, by the constructor, covers its 2^n machines
            checked = PartialDfa.from_table(alphabet, n, 0, every, table)
            yield from checked._relabelled(accepting_sets)


def enumerate_dfas(max_states: int, alphabet: Alphabet) -> Iterator[PartialDfa]:
    """Every connected canonical partial DFA with up to max_states states.

    Total, deterministic order: by state count, then transition table
    (undefined slots sorting first), then accepting bitmask.
    """
    _check_limits(max_states, alphabet)
    return _all_dfas(max_states, alphabet)


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
    if max_states < 0:
        raise ValueError(f"max_states must be 0 (search up to sc+1) or at least 1, got {max_states}")
    _check_limits(max_states or 1, alphabet)
    auto = max_states == 0
    cap = _ENUM_LIMITS[len(alphabet)] if auto else max_states
    min_total: int | None = None
    min_per: dict[str, int] = {}
    witness: PartialDfa | None = None
    for cand in _all_dfas(cap, alphabet):
        if cand.state_count > cap:
            break
        if not pair_equivalent(cand, target):
            continue
        if auto and witness is None:  # the first equivalent DFA is a minimal one
            cap = cand.state_count + 1
            _check_limits(cap, alphabet)
        counts = transition_counts(cand)
        if min_total is None or counts.total < min_total:
            min_total = counts.total
            witness = cand
        for sym, c in counts.per_symbol.items():
            if sym not in min_per or c < min_per[sym]:
                min_per[sym] = c
    if witness is None:
        raise ValueError(
            f"no DFA with at most {cap} states recognizes the language: "
            f"its state complexity is above {cap}"
        )
    return OracleResult(min_total=min_total, min_per_symbol=min_per, witness_dfa=witness)


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


def verify_lemma1(max_states: int, alphabet: Alphabet) -> Lemma1Report:
    """Certify the minimizer against brute force, language by language.

    Enumerates every connected canonical partial DFA with up to
    max_states+1 states, groups them by minimize() output, and checks for
    each group whose minimal DFA fits in max_states that minimize()
    simultaneously achieves the group's minimum state count, total
    transition count, and per-symbol transition counts, and that the
    minimal DFA's undefined-move count per symbol equals sc minus the
    certified per-symbol minimum.

    Groups are keyed by minimize()'s canonical output.  Every enumerated
    DFA is checked, by minimization-free pair exploration, to recognize
    the language of its key, so a minimizer that changes a language
    surfaces as a counterexample.  The key is not independent of the
    minimizer, though: one that never merges splits a language into
    several groups, each of which it then meets, and it passes.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    limit = _state_limit(alphabet)
    if max_states >= limit:
        raise ValueError(
            f"verify-lemma1 sweeps one state past max_states and enumeration over "
            f"{len(alphabet)} symbol(s) is capped at {limit} states, so max_states "
            f"must be at most {limit - 1}, got {max_states}"
        )
    cap = max_states + 1
    # minimal DFA -> [its rendering, [min states, min total, per-symbol minima...]]
    groups: dict[PartialDfa, list] = {}
    checked = 0
    bad: list[str] = []
    table = None
    for a in _all_dfas(cap, alphabet):
        checked += 1
        m = canonicalize(minimize(a))
        if not pair_equivalent(a, m):
            bad.append("minimize() changed the language of:\n" + render_dfa(a))
            continue
        if a.table is not table:  # the enumerator hands one table to 2^n DFAs in a row
            table = a.table
            counts = transition_counts(a)
            sizes = [a.state_count, counts.total, *(counts.per_symbol[sym] for sym in alphabet)]
        g = groups.get(m)
        if g is None:
            groups[m] = [render_dfa(m), sizes]
        else:
            g[1] = [*map(min, g[1], sizes)]

    # languages past max_states exist only at the padding layer: out of scope
    in_scope = [(key, minima, m) for m, (key, minima) in groups.items() if m.state_count <= max_states]
    in_scope.sort(key=lambda g: g[0])
    for key, (min_states, min_total, *min_per), m in in_scope:
        mc = transition_counts(m)
        if m.state_count != min_states:
            bad.append(
                f"state count: minimize() gives {m.state_count}, "
                f"but {min_states} states suffice for:\n{key}"
            )
        if mc.total != min_total:
            bad.append(
                f"total transitions: minimize() gives {mc.total}, "
                f"but {min_total} are achievable for:\n{key}"
            )
        for sym, least in zip(alphabet, min_per):
            if mc.per_symbol[sym] != least:
                bad.append(
                    f"{sym!r}-transitions: minimize() gives {mc.per_symbol[sym]}, "
                    f"but {least} are achievable for:\n{key}"
                )
            undefined = m.state_count - mc.per_symbol[sym]
            if undefined != min_states - least:
                bad.append(
                    f"undefined-count identity fails on {sym!r}: "
                    f"{undefined} undefined moves vs sc - tc_{sym} = "
                    f"{min_states - least} for:\n{key}"
                )
    return Lemma1Report(
        max_states=max_states,
        alphabet=alphabet,
        dfas_checked=checked,
        languages=len(in_scope),
        counterexamples=tuple(bad),
    )
