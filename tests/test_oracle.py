import itertools

import pytest

from pdfa import (
    Alphabet,
    PartialDfa,
    canonicalize,
    empty_language_dfa,
    equivalent,
    is_connected,
    pair_equivalent,
    render_dfa,
)
from pdfa.oracle import (
    _all_dfas,
    brute_min_transitions,
    enumerate_dfas,
    verify_lemma1,
)
from pdfa.witnesses import epsilon_lang, unary_singleton, union_symbol_witness


def naive_class_renderings(max_states: int, alphabet: Alphabet) -> set[str]:
    """Canonical forms of all connected DFAs, the slow obvious way.

    Enumerates every labeled transition table with start state 0, keeps
    the connected ones, and canonicalizes away the labeling.  Start 0
    loses no classes: canonical numbering always begins at the start.
    """
    out = set()
    for n in range(1, max_states + 1):
        slots = [(q, sym) for q in range(n) for sym in alphabet]
        for targets in itertools.product(range(-1, n), repeat=len(slots)):
            transitions = {
                slot: t for slot, t in zip(slots, targets) if t >= 0
            }
            for bits in range(1 << n):
                accepting = frozenset(q for q in range(n) if bits >> q & 1)
                d = PartialDfa(alphabet, n, 0, accepting, transitions)
                if is_connected(d):
                    out.add(render_dfa(canonicalize(d)))
    return out


def test_enumeration_matches_naive_search_unary():
    got = [render_dfa(d) for d in enumerate_dfas(2, Alphabet("a"))]
    assert len(got) == 16
    assert len(set(got)) == 16  # no class listed twice
    assert set(got) == naive_class_renderings(2, Alphabet("a"))


def test_enumeration_matches_naive_search_binary():
    got = [render_dfa(d) for d in enumerate_dfas(2, Alphabet("ab"))]
    assert len(got) == 188
    assert len(set(got)) == 188
    assert set(got) == naive_class_renderings(2, Alphabet("ab"))


def test_enumerated_dfas_are_canonical_and_valid():
    for d in enumerate_dfas(2, Alphabet("ab")):
        assert PartialDfa(d.alphabet, d.state_count, d.start, d.accepting, d.transitions) == d
        assert is_connected(d)
        assert canonicalize(d) == d
        assert d.start == 0
    # the enumerator checks each table once and shares it among 2^n machines:
    # every machine is still the one the checking constructor builds
    for max_states, symbols in ((3, "ab"), (6, "b"), (2, "abc")):
        for d in _all_dfas(max_states, Alphabet(symbols)):
            fields = (d.alphabet, d.state_count, d.start, d.accepting, d.table)
            assert PartialDfa.from_table(*fields) == d


def test_enumeration_is_deterministic_and_size_ordered():
    first = list(enumerate_dfas(3, Alphabet("a")))
    second = list(enumerate_dfas(3, Alphabet("a")))
    assert first == second
    sizes = [d.state_count for d in first]
    assert sizes == sorted(sizes)


def test_enumeration_refuses_oversized_requests():
    with pytest.raises(ValueError):
        enumerate_dfas(0, Alphabet("a"))
    with pytest.raises(ValueError):
        enumerate_dfas(15, Alphabet("a"))
    with pytest.raises(ValueError):
        enumerate_dfas(5, Alphabet("ab"))
    with pytest.raises(ValueError):
        enumerate_dfas(1, Alphabet("abcd"))


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
    with pytest.raises(ValueError, match="capped at 4 states"):
        brute_min_transitions(union_symbol_witness(4, 1))


def test_per_symbol_minima_can_beat_any_single_machine():
    # min_per_symbol folds over all equivalent machines independently,
    # so it is a lower bound for every individual recognizer.
    res = brute_min_transitions(union_symbol_witness(3, 1))
    assert sum(res.min_per_symbol.values()) <= res.min_total


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

    def wrong_minimize(d):
        return empty_language_dfa(d.alphabet)

    monkeypatch.setattr(oracle_mod, "minimize", wrong_minimize)
    report = oracle_mod.verify_lemma1(1, Alphabet("a"))
    assert not report.ok
    assert report.counterexamples
    assert any("changed the language" in c for c in report.counterexamples)


def test_lemma1_bookkeeping_does_not_depend_on_order(monkeypatch):
    """The stream reversed, largest machines first, and every table a fresh
    tuple: the per-table counts and the per-language minima still agree."""
    import pdfa.oracle as oracle_mod

    alphabet = Alphabet("ab")
    expected = verify_lemma1(2, alphabet)
    stream = list(oracle_mod._all_dfas(3, alphabet))

    def reversed_stream(max_states, alphabet):
        assert max_states == 3
        for d in reversed(stream):
            yield PartialDfa.from_table(d.alphabet, d.state_count, d.start, d.accepting, list(d.table))

    monkeypatch.setattr(oracle_mod, "_all_dfas", reversed_stream)
    report = oracle_mod.verify_lemma1(2, alphabet)
    assert report == expected
    assert report.ok and report.dfas_checked == 6716
