import ast
import functools
import inspect
import itertools
import math
import re
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pdfa.oracle

from pdfa import (
    Alphabet,
    PartialDfa,
    canonicalize,
    empty_language_dfa,
    equivalent,
    minimize,
    pair_equivalent,
    render_dfa,
    transition_counts,
)
from pdfa.oracle import (
    OracleResult,
    _all_dfas,
    _canonical_tables,
    _indicator,
    _reached,
    brute_min_transitions,
    verify_lemma1,
)
from pdfa.witnesses import epsilon_lang, unary_singleton, union_symbol_witness

from conftest import assert_well_formed
from moore import reachable
from test_minimize import _never_merges, _one_wrong_merge


def naive_class_renderings(max_states: int, alphabet: Alphabet) -> set[str]:
    """Canonical forms of all connected DFAs, the slow obvious way.

    Enumerates every labeled transition table with start state 0, keeps
    the connected ones, and canonicalizes away the labeling.  Start 0
    loses no classes: canonical numbering always begins at the start.
    """
    out = set()
    for n in range(1, max_states + 1):
        for table in itertools.product(range(-1, n), repeat=n * len(alphabet)):
            for bits in range(1 << n):
                accepting = frozenset(q for q in range(n) if bits >> q & 1)
                d = PartialDfa(alphabet, n, 0, accepting, table)
                if reachable(d) == frozenset(range(n)):
                    out.add(render_dfa(canonicalize(d)))
    return out


def test_the_oracle_takes_from_the_minimizer_only_what_it_certifies():
    # its language walk comes from core, so no change to minimize can bend it
    taken = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(pdfa.oracle)))
        if isinstance(node, ast.ImportFrom) and node.module in ("minimize", "pdfa.minimize")
        for alias in node.names
    ]
    assert sorted(taken) == ["_search", "canonicalize", "minimize"]


def test_enumeration_matches_naive_search_unary():
    got = [render_dfa(d) for d in _all_dfas(2, Alphabet("a"))]
    assert len(got) == 16
    assert len(set(got)) == 16  # no class listed twice
    assert set(got) == naive_class_renderings(2, Alphabet("a"))


def test_enumeration_matches_naive_search_binary():
    got = [render_dfa(d) for d in _all_dfas(2, Alphabet("ab"))]
    assert len(got) == 188
    assert len(set(got)) == 188
    assert set(got) == naive_class_renderings(2, Alphabet("ab"))


def test_enumerated_dfas_are_canonical_and_valid():
    for d in _all_dfas(2, Alphabet("ab")):
        assert reachable(d) == frozenset(range(d.state_count))
        assert canonicalize(d) == d
        assert d.start == 0
    # the enumerator builds its machines without the constructor's check and
    # shares each table among 2^n of them: every machine is still the one the
    # checking constructor builds
    for max_states, symbols in ((3, "ab"), (6, "b"), (2, "abc")):
        for d in _all_dfas(max_states, Alphabet(symbols)):
            assert_well_formed(d)


def test_enumeration_is_deterministic_and_size_ordered():
    first = list(_all_dfas(3, Alphabet("a")))
    second = list(_all_dfas(3, Alphabet("a")))
    assert first == second
    sizes = [d.state_count for d in first]
    assert sizes == sorted(sizes)


def test_enumeration_refuses_oversized_requests():
    with pytest.raises(ValueError, match="capped at 14 states"):
        brute_min_transitions(epsilon_lang(Alphabet("a")), max_states=15)
    with pytest.raises(ValueError, match="capped at 4 states"):
        brute_min_transitions(empty_language_dfa(Alphabet("ab")), max_states=5)
    with pytest.raises(ValueError, match="capped at 3 symbols"):
        brute_min_transitions(empty_language_dfa(Alphabet("abcd")))


def _connected_tables(n: int, k: int) -> int:
    """The number of labelled n-state tables over k symbols (-1 = undefined)
    in which every state is reachable from state 0, by brute force."""
    full = (1 << n) - 1
    # a row's moves matter to reachability only through the set of their targets
    rows = Counter(sum(1 << t for t in set(row) if t >= 0)
                   for row in itertools.product(range(-1, n), repeat=k))
    count = 0
    for choice in itertools.product(rows, repeat=n):
        seen, stack = 1, [0]
        while stack:
            new = choice[stack.pop()] & ~seen
            seen |= new
            while new:
                q = new.bit_length() - 1
                stack.append(q)
                new ^= 1 << q
        if seen == full:
            count += math.prod(rows[mask] for mask in choice)
    return count


def _numbered_by_bfs(table: tuple[int, ...], n: int, k: int) -> bool:
    """True when breadth-first discovery from state 0, successors in
    column order, reaches all n states and finds them in the order 0..n-1."""
    order = [0]
    for q in order:
        order.extend(t for t in table[q * k:q * k + k] if t >= 0 and t not in order)
    return order == list(range(n))


def _assert_each_class_once(tables_of, n: int, k: int, classes: int) -> None:
    tables = list(tables_of(n, k))
    assert len(tables) == classes
    assert len(set(tables)) == len(tables)
    assert all(_numbered_by_bfs(t, n, k) for t in tables)


@pytest.mark.parametrize("symbols, n, classes", [
    *(("ab", n, c) for n, c in zip(range(1, 5), (4, 45, 816, 20225))),
    *(("b", n, n + 1) for n in range(1, 8)),
    *(("abc", n, c) for n, c in zip(range(1, 4), (8, 513, 81856))),
])
def test_enumerator_yields_each_class_exactly_once(symbols, n, classes):
    """At every size the sweeps run, a count that shares no code with the
    enumerator: a connected DFA has no nontrivial automorphism, so each
    isomorphism class has exactly (n-1)! labelled tables with start 0.
    Equal counts, with every yielded table canonical and distinct, mean
    each class comes exactly once."""
    k = len(symbols)
    labelled = _connected_tables(n, k)
    assert labelled == classes * math.factorial(n - 1)
    _assert_each_class_once(_canonical_tables, n, k, classes)


def test_unary_enumerator_yields_n_plus_one_classes_up_to_the_cap():
    # a chain 0 -> 1 -> ... -> n-1, whose last state halts or returns to any of the n
    for n in range(1, 15):
        _assert_each_class_once(_canonical_tables, n, 1, n + 1)


def _skips_last_slot_discoveries(n: int, k: int):
    """Never discovers a state in the last slot before its row, the last
    slot where it can be discovered."""
    return (t for t in _canonical_tables(n, k) if all(t.index(s) != s * k - 1 for s in range(1, n)))


def _yields_a_table_twice(n: int, k: int):
    tables = list(_canonical_tables(n, k))
    return tables + tables[-1:]


@pytest.mark.parametrize("mutant", [_skips_last_slot_discoveries, _yields_a_table_twice])
def test_exactly_once_check_catches_a_broken_enumerator(mutant):
    with pytest.raises(AssertionError):
        _assert_each_class_once(mutant, 3, 2, 816)


def test_brute_min_on_epsilon():
    res = brute_min_transitions(epsilon_lang(Alphabet("a")))
    assert res.min_total == 0
    assert res.min_per_symbol == {"a": 0}
    assert equivalent(res.witness_dfa, epsilon_lang(Alphabet("a")))


def test_brute_min_on_singleton_word():
    res = brute_min_transitions(unary_singleton(2))
    assert res.min_total == 2
    assert res.min_per_symbol == {"b": 2}


def test_brute_min_on_loop_cycle_witness():
    """The textbook two-symbol example: one b-loop plus a three-cycle."""
    res = brute_min_transitions(union_symbol_witness(3, 1))
    assert res.min_total == 4
    assert res.min_per_symbol == {"b": 1, "c": 3}
    assert pair_equivalent(res.witness_dfa, union_symbol_witness(3, 1))


def test_brute_min_pins_its_whole_result_over_three_symbols():
    """(b | aa)* over {a, b, c}, written with a copy of its start state: the
    minima come keyed in alphabet order, and the witness is the first equivalent machine with the
    least total, the canonical minimal DFA."""
    abc = Alphabet("abc")
    res = brute_min_transitions(PartialDfa(abc, 3, 0, {0, 2}, (1, 0, -1, 2, -1, -1, 1, 2, -1)))
    assert res == OracleResult(
        min_total=3,
        min_per_symbol={"a": 2, "b": 1, "c": 0},
        witness_dfa=PartialDfa(abc, 2, 0, {0}, (1, 0, -1, 0, -1, -1)),
    )
    assert list(res.min_per_symbol) == ["a", "b", "c"]


def test_brute_min_rejects_too_small_state_budget():
    with pytest.raises(ValueError):
        brute_min_transitions(union_symbol_witness(3, 1), max_states=2)


def test_brute_min_does_not_trust_the_minimizer(monkeypatch):
    """A minimizer that undercounts states cannot shrink the search: the
    cap comes from the first equivalent DFA in the enumeration."""
    import pdfa.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "minimize", lambda d: empty_language_dfa(d.alphabet))
    res = oracle_mod.brute_min_transitions(union_symbol_witness(3, 1))
    assert res.min_total == 4
    assert res.min_per_symbol == {"b": 1, "c": 3}


def test_brute_min_rejects_a_language_past_the_enumeration_cap():
    # sc = 4 over {b, c}: auto mode would need 5 states, past the 4-state cap
    with pytest.raises(ValueError) as exc:
        brute_min_transitions(union_symbol_witness(4, 1))
    assert str(exc.value) == (
        "the automatic search goes one state past the language's state complexity 4, but "
        "enumeration over 2 symbol(s) is capped at 4 states; give max_states=4 to search up to "
        "4 states only"
    )


def test_one_machine_attains_every_per_symbol_minimum():
    """min_per_symbol folds over all equivalent machines independently, yet
    Lemma 1 says the minimal DFA attains every minimum at once: the minima
    sum to min_total, and the witness meets each of them."""
    res = brute_min_transitions(union_symbol_witness(3, 1))
    assert sum(res.min_per_symbol.values()) == res.min_total == 4
    assert transition_counts(res.witness_dfa).per_symbol == res.min_per_symbol


def test_lemma1_unary_sweep_is_clean():
    report = verify_lemma1(2, Alphabet("a"))
    assert report.ok
    assert report.counterexamples == ()
    assert report.dfas_checked == 48  # sizes 1..3 feed the size-2 check
    assert report.languages > 0


@pytest.mark.parametrize("max_states", [0, -1])
def test_lemma1_rejects_a_sweep_of_no_states(max_states):
    with pytest.raises(ValueError, match=f"max_states must be at least 1, got {max_states}$"):
        verify_lemma1(max_states, Alphabet("ab"))


@pytest.mark.parametrize("empty", ["", []])
def test_lemma1_rejects_an_empty_alphabet(empty):
    with pytest.raises(ValueError, match="^alphabet must not be empty$"):
        verify_lemma1(1, empty)


@pytest.mark.parametrize("symbols", ["ab", ["a", "b"]])
def test_lemma1_reports_an_alphabet_given_as_a_sequence_as_its_alphabet(symbols):
    report = verify_lemma1(1, symbols)
    assert type(report.alphabet) is Alphabet
    assert report == verify_lemma1(1, Alphabet("ab"))
    assert hash(report) == hash(verify_lemma1(1, Alphabet("ab")))


@pytest.mark.parametrize("symbols, max_states", [("b", 14), ("ab", 4), ("abc", 3)])
def test_lemma1_cap_names_the_largest_allowed_max_states(symbols, max_states):
    """The sweep enumerates max_states+1 states; the error names the
    caller's value and the largest one the enumeration cap leaves."""
    message = (
        f"verify-lemma1 sweeps one state past max_states and enumeration over "
        f"{len(symbols)} symbol(s) is capped at {max_states} states, so max_states "
        f"must be at most {max_states - 1}, got {max_states}"
    )
    with pytest.raises(ValueError) as exc:
        verify_lemma1(max_states, Alphabet(symbols))
    assert str(exc.value) == message


@pytest.mark.parametrize("oracle", [
    lambda max_states: verify_lemma1(max_states, "ab"),
    lambda max_states: brute_min_transitions(epsilon_lang(), max_states),
], ids=["verify_lemma1", "brute_min_transitions"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2"], ids=["float", "integral-float", "bool", "str"])
def test_a_size_that_is_not_an_int_is_a_value_error_naming_max_states(oracle, value):
    """Not a TypeError from ``range`` or ``<``, and a bool does not run as 1."""
    with pytest.raises(ValueError, match=f"^max_states must be an int, got {re.escape(repr(value))}$"):
        oracle(value)


def test_brute_min_rejects_a_negative_cap_naming_the_auto_mode():
    with pytest.raises(ValueError) as exc:
        brute_min_transitions(epsilon_lang(), max_states=-3)
    assert str(exc.value) == "max_states must be 0 (search up to sc+1) or at least 1, got -3"


def test_lemma1_binary_single_state():
    report = verify_lemma1(1, Alphabet("ab"))
    assert report.ok
    assert report.counterexamples == ()


def test_lemma1_catches_a_broken_minimizer(monkeypatch):
    import pdfa.oracle as oracle_mod

    def wrong_minimize(d, search=None):
        return empty_language_dfa(d.alphabet)

    monkeypatch.setattr(oracle_mod, "minimize", wrong_minimize)
    report = oracle_mod.verify_lemma1(1, Alphabet("a"))
    assert not report.ok
    assert report.counterexamples
    assert any("changed the language" in c for c in report.counterexamples)


def _identity(d: PartialDfa, search=None) -> PartialDfa:
    return d


@pytest.mark.parametrize("mutant, message, counts", [
    (_identity, "is not the minimal DFA", (2546, 430, 770)),
    (_never_merges, "is not the minimal DFA", (772, 248, 98)),
    (_one_wrong_merge, "changed the language", (1906, 243, 415)),
])
def test_lemma1_catches_a_minimizer_that_misses_the_minimal_dfa(monkeypatch, mutant, message, counts):
    """A minimizer that returns its input, only trims, or folds two states
    fails the sweep: it does not return each language's first machine.
    The first two keep every language; grouping by their own output
    passed them."""
    import pdfa.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "minimize", mutant)
    for (max_states, symbols), count in zip([(2, "ab"), (5, "b"), (1, "abc")], counts):
        report = oracle_mod.verify_lemma1(max_states, Alphabet(symbols))
        assert not report.ok
        assert len(report.counterexamples) == count
        assert all(c.startswith(f"minimize() {message} of:\n") for c in report.counterexamples)


def test_lemma1_searches_each_table_once(monkeypatch):
    """The sweep runs the minimizer's table-only search once per canonical
    table and hands it to each of the table's machines: 865 tables carry
    the 6,716 DFAs of {a,b}/<=3."""
    import pdfa.oracle as oracle_mod

    minimize_mod = sys.modules["pdfa.minimize"]
    search = minimize_mod._search
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(minimize_mod, "_search", counted)
    monkeypatch.setattr(oracle_mod, "_search", counted)
    report = oracle_mod.verify_lemma1(2, Alphabet("ab"))
    assert report.ok and report.dfas_checked == 6716
    assert len(calls) == len(set(calls)) == 865


def test_lemma1_bookkeeping_does_not_depend_on_table_identity(monkeypatch):
    """Every table a fresh tuple, in enumeration order: the per-table
    counts, keys and per-language minima still agree."""
    import pdfa.oracle as oracle_mod

    alphabet = Alphabet("ab")
    expected = verify_lemma1(2, alphabet)
    stream = list(oracle_mod._all_dfas(3, alphabet))

    def fresh_tables(max_states, alphabet):
        assert max_states == 3
        for d in stream:
            yield PartialDfa(d.alphabet, d.state_count, d.start, d.accepting, list(d.table))

    monkeypatch.setattr(oracle_mod, "_all_dfas", fresh_tables)
    report = oracle_mod.verify_lemma1(2, alphabet)
    assert report == expected
    assert report.ok and report.dfas_checked == 6716


def test_lemma1_rejects_a_stream_out_of_size_order(monkeypatch):
    """The first machine of a language is its minimal DFA only in a
    size-ordered stream, so a stream whose state count falls is refused."""
    import pdfa.oracle as oracle_mod

    stream = list(oracle_mod._all_dfas(3, Alphabet("ab")))
    monkeypatch.setattr(oracle_mod, "_all_dfas", lambda max_states, alphabet: reversed(stream))
    with pytest.raises(ValueError, match="in order of state count, got 2 states after 3$"):
        oracle_mod.verify_lemma1(2, Alphabet("ab"))


def test_lemma1_reports_a_first_machine_with_moves_its_language_does_not_need(monkeypatch):
    """A stream whose first machine of {ε} has an 'a'-move into a dead state,
    and whose next machine of the same size leaves it out."""
    import pdfa.oracle as oracle_mod

    alphabet = Alphabet("ab")
    first = PartialDfa(alphabet, 2, 0, {0}, (1, 1, -1, -1))
    later = PartialDfa(alphabet, 2, 0, {0}, (-1, 1, -1, -1))
    monkeypatch.setattr(oracle_mod, "_all_dfas", lambda max_states, alphabet: iter([first, later]))
    report = oracle_mod.verify_lemma1(2, alphabet)
    text = render_dfa(first)
    assert report.counterexamples == (
        "minimize() is not the minimal DFA of:\n" + text,
        "minimize() is not the minimal DFA of:\n" + render_dfa(later),
        "total transitions: the minimal DFA has 2, but 1 are achievable for:\n" + text,
        "'a'-transitions: the minimal DFA has 1, but 0 are achievable for:\n" + text,
    )


def test_lemma1_reports_every_count_a_first_machine_loses_in_rendering_order(monkeypatch):
    """Two languages, {ε} then ∅, whose first machines each carry an 'a'- and
    a 'b'-move into a dead state that a later machine of the same size leaves
    out: each loses the total and both symbols, and the Lemma-1 messages come
    after the minimizer's, by rendering (∅'s bare accept line sorts first)."""
    import pdfa.oracle as oracle_mod

    alphabet = Alphabet("ab")
    stream = [
        PartialDfa(alphabet, 2, 0, {0}, (1, 1, -1, -1)),
        PartialDfa(alphabet, 2, 0, set(), (1, 1, -1, -1)),
        PartialDfa(alphabet, 2, 0, {0}, (-1, -1, -1, -1)),
        PartialDfa(alphabet, 2, 0, set(), (-1, -1, -1, -1)),
    ]
    monkeypatch.setattr(oracle_mod, "_all_dfas", lambda max_states, alphabet: iter(stream))
    report = oracle_mod.verify_lemma1(2, alphabet)
    epsilon, empty = render_dfa(stream[0]), render_dfa(stream[1])
    assert empty < epsilon
    assert report.languages == 2
    assert report.counterexamples == (
        *("minimize() is not the minimal DFA of:\n" + render_dfa(d) for d in stream),
        "total transitions: the minimal DFA has 2, but 0 are achievable for:\n" + empty,
        "'a'-transitions: the minimal DFA has 1, but 0 are achievable for:\n" + empty,
        "'b'-transitions: the minimal DFA has 1, but 0 are achievable for:\n" + empty,
        "total transitions: the minimal DFA has 2, but 0 are achievable for:\n" + epsilon,
        "'a'-transitions: the minimal DFA has 1, but 0 are achievable for:\n" + epsilon,
        "'b'-transitions: the minimal DFA has 1, but 0 are achievable for:\n" + epsilon,
    )


def _key(d: PartialDfa, depth: int) -> bytes:
    return _reached(d.table, len(d.alphabet), depth).translate(_indicator(d.accepting))


@pytest.mark.parametrize("max_states, symbols, languages", [(3, "ab", 4170), (6, "b", 338), (2, "abc", 1298)])
def test_language_key_matches_the_minimal_forms(max_states, symbols, languages):
    """Over every DFA with at most cap states, keyed at depth 2*cap - 1 as
    the sweep keys them, a DFA shares its key with its minimal form and
    there are as many keys as minimal forms."""
    depth = 2 * max_states - 1
    keys, forms = set(), set()
    for d in _all_dfas(max_states, Alphabet(symbols)):
        m = canonicalize(minimize(d))
        key = _key(d, depth)
        assert key == _key(m, depth)
        keys.add(key)
        forms.add(m)
    assert len(keys) == len(forms) == languages


@functools.cache
def _languages(symbols: str, max_states: int) -> list[list[PartialDfa]]:
    groups: dict[PartialDfa, list[PartialDfa]] = {}
    for d in _all_dfas(max_states, Alphabet(symbols)):
        groups.setdefault(minimize(d), []).append(d)
    return list(groups.values())


@given(data=st.data(), space=st.sampled_from([("ab", 3), ("b", 6), ("abc", 2)]), same=st.booleans())
def test_equal_keys_are_equal_languages(data, space, same):
    """On enumerated pairs, drawn from one language or from any two:
    equal keys exactly when pair exploration finds the languages equal."""
    groups = _languages(*space)
    group = data.draw(st.sampled_from(groups))
    a = data.draw(st.sampled_from(group))
    b = data.draw(st.sampled_from(group if same else data.draw(st.sampled_from(groups))))
    depth = 2 * space[1] - 1
    assert (_key(a, depth) == _key(b, depth)) == pair_equivalent(a, b)
