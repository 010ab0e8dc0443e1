import sys

import pytest
from hypothesis import assume, given

from pdfa import (
    Alphabet,
    PartialDfa,
    canonicalize,
    complement,
    complexity,
    empty_language_dfa,
    equivalent,
    intersection_product,
    minimize,
    pair_equivalent,
    parse_dfa,
    render_dfa,
    transition_counts,
    union_product,
)
from pdfa.bounds import sample_pairs
from pdfa.minimize import _search
from pdfa.oracle import _all_dfas
from pdfa.witnesses import (
    chain_star_witness,
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_symbol_witness,
    union_total_witness,
)

from conftest import MALFORMED, assert_well_formed, dfa_pairs, language, moves, partial_dfas
from moore import complete_with_sink, moore_minimize, reachable, restrict, trim


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
    assert moves(completed)[(sink, "b")] == sink
    assert moves(completed)[(sink, "c")] == sink
    assert sink not in completed.accepting


def test_minimize_fixed_point_on_witness():
    d = union_symbol_witness(3, 1)
    assert minimize(d) == d


def test_minimize_collapses_to_empty_language():
    d = PartialDfa(Alphabet("ab"), 4, 0, frozenset(), (1, -1, -1, 2, -1, -1, -1, -1))
    m = minimize(d)
    assert m == empty_language_dfa(d.alphabet)


def test_minimize_merges_equivalent_states():
    # Two interchangeable accepting tails for the same singleton language.
    d = PartialDfa(Alphabet("b"), 4, 0, frozenset({2, 3}), (1, 2, -1, 3))
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


@given(partial_dfas())
def test_complexity_returns_the_minimal_dfa_it_measured(d):
    rep = complexity(d)
    assert rep.minimal == minimize(d)
    assert (rep.sc, rep.tc_per_symbol) == (rep.minimal.state_count, transition_counts(rep.minimal).per_symbol)


def test_equivalent_ignores_presentation():
    d = PartialDfa(Alphabet("a"), 3, 0, frozenset({0}), (1, -1, 0))
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
    relabeled = PartialDfa(d.alphabet, 3, 2, {1}, (1, -1, 0))  # d's states 0, 1, 2 named 2, 0, 1
    assert relabeled != d
    assert canonicalize(relabeled) == d
    assert render_dfa(canonicalize(relabeled)) == render_dfa(d)


def test_canonicalize_requires_connected_input():
    d = PartialDfa(Alphabet("a"), 2, 0, frozenset({0}), (-1, -1))
    with pytest.raises(ValueError):
        canonicalize(d)


@given(partial_dfas())
def test_canonicalize_matches_the_reference_numbering(d):
    """On every connected draw, whatever its start, ``canonicalize`` numbers
    states as the Moore reference's own BFS does, and is then a fixed point."""
    assume(reachable(d) == frozenset(range(d.state_count)))
    c = canonicalize(d)
    assert_well_formed(c)
    assert c == restrict(d, frozenset(range(d.state_count)))
    assert canonicalize(c) is c


@given(partial_dfas())
def test_minimize_output_is_canonical(d):
    m = minimize(d)
    assert_well_formed(m)
    assert canonicalize(m) == m


def disagreements(minimizer, dfas) -> list[PartialDfa]:
    """The machines on which ``minimizer`` and Moore's reference differ."""
    return [d for d in dfas if minimizer(d) != moore_minimize(d)]


def _relabeled(d: PartialDfa) -> PartialDfa:
    """``d`` with the states after its start numbered in reverse, which
    leaves a canonically numbered machine of 3 or more states not canonical."""
    n, k = d.state_count, len(d.alphabet)
    perm = [0, *range(n - 1, 0, -1)]
    relabeled = [-1] * (n * k)
    for i, t in enumerate(d.table):
        if t >= 0:
            relabeled[perm[i // k] * k + i % k] = perm[t]
    return PartialDfa(d.alphabet, n, 0, {perm[q] for q in d.accepting}, relabeled)


def _small_dfas(max_states: int, symbols: str) -> list[PartialDfa]:
    """Every connected DFA up to ``max_states``, numbered canonically and relabeled."""
    dfas = list(_all_dfas(max_states, Alphabet(symbols)))
    return dfas + [_relabeled(d) for d in dfas]


@pytest.mark.parametrize("max_states, symbols", [(3, "ab"), (6, "b")])
def test_minimize_matches_moore_on_every_small_dfa(max_states, symbols):
    assert disagreements(minimize, _small_dfas(max_states, symbols)) == []


def test_minimal_and_canonical_machines_are_well_formed():
    """``minimize`` and ``canonicalize`` build without the constructor's
    check; relabeled machines make ``canonicalize`` renumber."""
    for d in _small_dfas(3, "ab"):
        assert_well_formed(minimize(d))
        assert_well_formed(canonicalize(d))


def test_minimize_returns_a_minimal_machine_itself():
    for d in _all_dfas(3, Alphabet("ab")):
        m = minimize(d)
        assert minimize(m) is m
        assert (m is d) == (m == d)


def test_minimize_keeps_machines_on_one_table_apart():
    """Machines that share one table tuple, or hold equal tables in
    distinct tuples, and differ in start state or read the table in another
    shape minimize one after another as each would on a fresh copy, with
    its own table-only search handed in or not: ``minimize`` keeps nothing
    between calls."""
    a, ab = Alphabet("a"), Alphabet("ab")
    chain = (1, 2, -1)  # over {a}: 0 -> 1 -> 2, reached differently from each start
    grid = (1, -1, 0, 1)  # 4 states x 1 symbol, or 2 states x 2 symbols

    def on_chain(start):
        return [(a, 3, start, accepting, chain) for accepting in ({2}, {0, 2}, {1})]

    def fresh():  # a machine on a table no other machine shares
        return (ab, 2, 0, {1}, tuple([1, -1, -1, 0]))

    def copied(start, accepting):  # the chain's content in a tuple of its own
        return (a, 3, start, accepting, tuple(list(chain)))

    stream = [
        *on_chain(0), copied(0, {1}), copied(1, {2}), *on_chain(1), copied(1, {0, 2}),
        *on_chain(2), fresh(), *on_chain(1), *on_chain(0),
        (a, 4, 0, {1}, grid), (ab, 2, 0, {1}, grid), (a, 4, 2, {1}, grid), fresh(),
        (ab, 2, 0, {1}, grid), (a, 4, 0, {1}, grid), fresh(), *on_chain(2), fresh(),
    ]
    machines = [PartialDfa(*spec) for spec in stream]
    expected = [minimize(PartialDfa(*spec[:4], tuple(list(spec[4])))) for spec in stream]
    assert [moore_minimize(d) for d in machines] == expected
    assert [minimize(d) for d in machines] == expected  # one after another, tables shared
    assert [minimize(d, _search(d.table, d.start, len(d.alphabet))) for d in machines] == expected


@pytest.mark.parametrize(
    "d", [epsilon_lang(), unary_cycle(3), union_symbol_witness(3, 1), empty_language_dfa(Alphabet("ab"))]
)
def test_a_machine_is_pair_equivalent_to_itself(d):
    assert pair_equivalent(d, d)


@given(partial_dfas())
def test_minimize_matches_moore(d):
    assert minimize(d) == moore_minimize(d)


def _large_products():
    """Union products and cycle intersections of up to ~300 states, then the
    benchmark's four machines at full size, where nearly every state ends in
    a block of its own, and a cycle product whose 864 states merge to 72."""
    yield union_product(union_symbol_witness(12, 5), union_symbol_witness(13, 7))
    yield union_product(union_total_witness(9), union_total_witness(14))
    yield union_product(unary_cycle(12), unary_singleton(20))
    yield intersection_product(unary_cycle(13), unary_cycle(23))
    yield intersection_product(unary_cycle(12), unary_cycle(18))  # not coprime: merges
    for a, b in sample_pairs(seed=5, count=40, max_states=6):
        yield union_product(a, b)
        yield intersection_product(a, b)
    yield union_product(union_symbol_witness(60, 9), union_symbol_witness(61, 37))  # 3,782 states
    yield intersection_product(unary_cycle(31), unary_cycle(37))
    yield unary_singleton(1200)
    yield complement(unary_singleton(800))
    yield intersection_product(unary_cycle(24), unary_cycle(36))


def test_minimize_matches_moore_on_large_products():
    assert disagreements(minimize, _large_products()) == []


@pytest.mark.parametrize("d", [
    union_product(union_symbol_witness(60, 9), union_symbol_witness(61, 37)),
    intersection_product(unary_cycle(31), unary_cycle(37)),
    unary_singleton(1200),
    complement(unary_singleton(800)),
], ids=["union-3782", "intersection-31-37", "chain-1200", "complement-800"])
def test_benchmark_size_machines_are_well_formed(d):
    """The four large machines, parsed back from their text and minimized:
    all built without the constructor's check."""
    for m in (d, parse_dfa(render_dfa(d)), minimize(d)):
        assert_well_formed(m)


def _grouped_splits(d: PartialDfa) -> int:
    """How many splits ``minimize(d)`` makes by grouping a splitter's
    sources: each calls ``set.difference_update`` once."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", None) == "difference_update":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        minimize(d)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("d", [unary_cycle(50), complement(unary_singleton(50))], ids=["cycle", "complement"])
def test_minimize_splits_on_the_smaller_initial_block_first(d):
    """One accepting state of 50, or one rejecting state of 52: split on
    the lone state first and every split after it is a lone source, so
    the partition is discrete before the large initial block is popped."""
    assert _grouped_splits(d) == 0


def _never_merges(d: PartialDfa, search=None) -> PartialDfa:
    return canonicalize(trim(d))


def _one_wrong_merge(d: PartialDfa, search=None) -> PartialDfa:
    """Minimize, then fold the last state into the one before it when the
    two agree on acceptance -- a merge only a move's definedness or target
    can refute."""
    m = minimize(d)
    last = m.state_count - 1
    if last < 1 or (last in m.accepting) != (last - 1 in m.accepting):
        return m

    def fold(q: int) -> int:
        return last - 1 if q == last else q

    k = len(m.alphabet)
    table = [-1] * (last * k)
    for i, t in enumerate(m.table):  # row last - 1 comes first and keeps its moves
        slot = fold(i // k) * k + i % k
        if t >= 0 and table[slot] == -1:
            table[slot] = fold(t)
    return canonicalize(PartialDfa(m.alphabet, last, 0, frozenset(map(fold, m.accepting)), table))


def _returns_input_when_nothing_merges(d: PartialDfa) -> PartialDfa:
    """Returns ``d`` itself whenever it starts at 0 and minimization keeps
    every state, without checking that ``d`` is numbered canonically."""
    m = minimize(d)
    return d if d.start == 0 and m.state_count == d.state_count else m


@pytest.mark.parametrize("mutant", [_never_merges, _one_wrong_merge, _returns_input_when_nothing_merges])
def test_differential_check_catches_a_broken_minimizer(mutant):
    """The never-merging mutant keeps every language, so the language check
    in ``verify_lemma1`` passes it; comparing minimal forms rejects all three."""
    dfas = _small_dfas(3, "ab")
    assert disagreements(mutant, dfas)
    if mutant is _never_merges:
        assert all(pair_equivalent(d, mutant(d)) for d in dfas)


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_minimize_rejects_a_malformed_machine(defect):
    """A malformed machine is rejected where it is built, so ``minimize``
    never receives one."""
    args, message = MALFORMED[defect]
    with pytest.raises(ValueError, match=message):
        PartialDfa(*args)
