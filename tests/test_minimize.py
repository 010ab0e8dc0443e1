import pytest
from hypothesis import given

from pdfa import (
    Alphabet,
    PartialDfa,
    canonicalize,
    complexity,
    empty_language_dfa,
    equivalent,
    intersection_product,
    minimize,
    pair_equivalent,
    render_dfa,
    transition_counts,
    trim,
    union_product,
)
from pdfa.bounds import sample_pairs
from pdfa.oracle import _all_dfas
from pdfa.witnesses import (
    chain_star_witness,
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_symbol_witness,
    union_total_witness,
)

from conftest import MALFORMED, dfa_pairs, language, partial_dfas
from moore import complete_with_sink, moore_minimize


def test_complete_machine_gains_no_sink():
    d = unary_cycle(4)
    completed, sink = complete_with_sink(d)
    assert sink is None
    assert completed == d


def test_completion_adds_looping_sink():
    d = union_symbol_witness(3, 1)
    completed, sink = complete_with_sink(d)
    assert sink == 3
    assert completed.state_count == 4
    assert completed.is_complete()
    assert transition_counts(completed).total == 8
    assert completed.step(sink, "b") == sink
    assert completed.step(sink, "c") == sink
    assert sink not in completed.accepting


def test_minimize_fixed_point_on_witness():
    d = union_symbol_witness(3, 1)
    assert minimize(d) == d


def test_minimize_collapses_to_empty_language():
    d = PartialDfa(Alphabet("ab"), 4, 0, frozenset(), {(0, "a"): 1, (1, "b"): 2})
    m = minimize(d)
    assert m == empty_language_dfa(d.alphabet)


def test_minimize_merges_equivalent_states():
    # Two interchangeable accepting tails for the same singleton language.
    d = PartialDfa(
        Alphabet("b"),
        4,
        0,
        frozenset({2, 3}),
        {(0, "b"): 1, (1, "b"): 2, (3, "b"): 3},
    )
    m = minimize(d)
    assert m == unary_singleton(2)


def test_minimize_union_of_short_cycles():
    """(bb)* joined with (bbb)* needs the full six-state cycle."""
    u = union_product(unary_cycle(2), unary_cycle(3))
    m = minimize(u)
    assert m.state_count == 6
    assert m.accepting == frozenset({0, 2, 3, 4})
    assert transition_counts(m).total == 6


@given(partial_dfas())
def test_minimize_is_idempotent(d):
    m = minimize(d)
    assert minimize(m) == m


@given(partial_dfas(max_states=3, alphabet_sizes=(1, 2)))
def test_minimize_preserves_language(d):
    assert language(minimize(d), 7) == language(d, 7)


@given(partial_dfas())
def test_minimize_never_grows(d):
    t = trim(d)
    m = minimize(d)
    assert m.state_count <= t.state_count
    before = transition_counts(t).per_symbol
    after = transition_counts(m).per_symbol
    assert all(after[s] <= before[s] for s in d.alphabet)


def test_complexity_of_epsilon():
    rep = complexity(epsilon_lang())
    assert (rep.sc, rep.tc) == (1, 0)
    assert rep.tc_per_symbol == {"a": 0, "b": 0}
    assert rep.nerode_classes == 2


def test_complexity_of_chain_star():
    rep = complexity(chain_star_witness(3))
    assert rep.sc == 3
    assert rep.tc == 3
    assert rep.tc_per_symbol == {"a": 1, "b": 2}


def test_complexity_counts_classes_mechanically():
    # Complete machine: class count equals state complexity.
    rep = complexity(unary_cycle(3))
    assert (rep.sc, rep.nerode_classes) == (3, 3)
    # Incomplete machine: one extra class for the implicit dead state.
    rep = complexity(unary_singleton(2))
    assert (rep.sc, rep.nerode_classes) == (3, 4)


@given(partial_dfas())
def test_complexity_invariants(d):
    rep = complexity(d)
    assert rep.tc == sum(rep.tc_per_symbol.values())
    assert all(0 <= v <= rep.sc for v in rep.tc_per_symbol.values())
    assert rep.nerode_classes in (rep.sc, rep.sc + 1)


def test_equivalent_ignores_presentation():
    d = PartialDfa(
        Alphabet("a"),
        3,
        0,
        frozenset({0}),
        {(0, "a"): 1, (2, "a"): 0},
    )
    assert equivalent(d, trim(d))
    assert pair_equivalent(d, trim(d))


def test_equivalent_distinguishes_cycle_lengths():
    assert not equivalent(unary_cycle(2), unary_cycle(3))
    assert not pair_equivalent(unary_cycle(2), unary_cycle(3))


def test_equivalent_requires_shared_alphabet():
    with pytest.raises(ValueError):
        equivalent(unary_cycle(2), epsilon_lang())


def test_equivalent_raises_when_routes_disagree(monkeypatch):
    # pdfa.minimize the attribute is the function; fetch the module itself.
    import sys

    mod = sys.modules["pdfa.minimize"]
    monkeypatch.setattr(mod, "pair_equivalent", lambda a, b: True)
    with pytest.raises(RuntimeError):
        mod.equivalent(unary_cycle(2), unary_cycle(3))


@given(dfa_pairs())
def test_pair_equivalence_matches_word_by_word_comparison(pair):
    a, b = pair
    # Inequivalent machines of these sizes always disagree on some word
    # no longer than the product state count.
    bound = a.state_count * b.state_count + 1
    same = language(a, bound) == language(b, bound)
    assert pair_equivalent(a, b) == same
    assert equivalent(a, b) == same


def test_canonicalize_fixed_point():
    d = union_symbol_witness(4, 2)
    assert canonicalize(d) == d


def test_canonicalize_erases_state_labels():
    d = unary_singleton(2)
    perm = {0: 2, 1: 0, 2: 1}
    relabeled = PartialDfa(
        d.alphabet,
        3,
        perm[0],
        frozenset(perm[q] for q in d.accepting),
        {(perm[q], s): perm[t] for (q, s), t in d.transitions.items()},
    )
    assert relabeled != d
    assert canonicalize(relabeled) == d
    assert render_dfa(canonicalize(relabeled)) == render_dfa(d)


def test_canonicalize_requires_connected_input():
    d = PartialDfa(Alphabet("a"), 2, 0, frozenset({0}), {})
    with pytest.raises(ValueError):
        canonicalize(d)


@given(partial_dfas())
def test_minimize_output_is_canonical(d):
    m = minimize(d)
    assert canonicalize(m) == m


def disagreements(minimizer, dfas) -> list[PartialDfa]:
    """The machines on which ``minimizer`` and Moore's reference differ."""
    return [d for d in dfas if minimizer(d) != moore_minimize(d)]


@pytest.mark.parametrize("max_states, symbols", [(3, "ab"), (6, "b")])
def test_minimize_matches_moore_on_every_small_dfa(max_states, symbols):
    assert disagreements(minimize, _all_dfas(max_states, Alphabet(symbols))) == []


@given(partial_dfas())
def test_minimize_matches_moore(d):
    assert minimize(d) == moore_minimize(d)


def _large_products():
    """Union products and cycle intersections of up to ~300 states."""
    yield union_product(union_symbol_witness(12, 5), union_symbol_witness(13, 7))
    yield union_product(union_total_witness(9), union_total_witness(14))
    yield union_product(unary_cycle(12), unary_singleton(20))
    yield intersection_product(unary_cycle(13), unary_cycle(23))
    yield intersection_product(unary_cycle(12), unary_cycle(18))  # not coprime: merges
    for a, b in sample_pairs(seed=5, count=40, max_states=6):
        yield union_product(a, b)
        yield intersection_product(a, b)


def test_minimize_matches_moore_on_large_products():
    assert disagreements(minimize, _large_products()) == []


def _never_merges(d: PartialDfa) -> PartialDfa:
    return canonicalize(trim(d))


def _one_wrong_merge(d: PartialDfa) -> PartialDfa:
    """Minimize, then fold the last state into the one before it when the
    two agree on acceptance -- a merge only a move's definedness or target
    can refute."""
    m = minimize(d)
    last = m.state_count - 1
    if last < 1 or (last in m.accepting) != (last - 1 in m.accepting):
        return m

    def fold(q: int) -> int:
        return last - 1 if q == last else q

    transitions: dict[tuple[int, str], int] = {}
    for (q, sym), t in sorted(m.transitions.items()):
        transitions.setdefault((fold(q), sym), fold(t))
    return canonicalize(PartialDfa(m.alphabet, last, 0, frozenset(map(fold, m.accepting)), transitions))


@pytest.mark.parametrize("mutant", [_never_merges, _one_wrong_merge])
def test_differential_check_catches_a_broken_minimizer(mutant):
    """The never-merging mutant keeps every language, so the language check
    in ``verify_lemma1`` passes it; comparing minimal forms rejects both."""
    dfas = list(_all_dfas(3, Alphabet("ab")))
    assert disagreements(mutant, dfas)
    if mutant is _never_merges:
        assert all(pair_equivalent(d, mutant(d)) for d in dfas)


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_minimize_rejects_a_malformed_machine(defect):
    d, message = MALFORMED[defect]
    with pytest.raises(ValueError, match=message):
        minimize(d)
