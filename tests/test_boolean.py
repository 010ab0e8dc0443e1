import pytest
from hypothesis import given

from pdfa import (
    Alphabet,
    accepts,
    complement,
    empty_language_dfa,
    equivalent,
    intersection_product,
    minimize,
    reachable,
    transition_counts,
    union_product,
)
from pdfa.bounds import union_symbol_upper
from pdfa.witnesses import (
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_symbol_witness,
    union_total_witness,
)

from conftest import MALFORMED, dfa_pairs, language, partial_dfas, words


def test_union_of_epsilon_with_itself():
    u = union_product(epsilon_lang(), epsilon_lang())
    assert u.state_count == 4  # both sides padded with a dead state
    assert accepts(u, "")
    assert not accepts(u, "a")
    assert equivalent(minimize(u), epsilon_lang())


def test_union_product_counts_match_prediction_on_witnesses():
    a = union_symbol_witness(2, 1)
    b = union_symbol_witness(3, 2)
    counts = transition_counts(union_product(a, b))
    assert counts.per_symbol["b"] == union_symbol_upper(1, 2, 2, 3)
    assert counts.per_symbol["b"] == 8
    assert counts.per_symbol["c"] == union_symbol_upper(2, 3, 2, 3)
    assert counts.per_symbol["c"] == 11


def test_union_product_total_witness_pair():
    # Distinct loop symbols over a shared alphabet: the minimal-total pair.
    abc = Alphabet("abc")
    a = union_total_witness(2, "a", "c", alphabet=abc)
    b = union_total_witness(3, "b", "c", alphabet=abc)
    m = minimize(union_product(a, b))
    assert transition_counts(m).total == 18
    assert transition_counts(m).per_symbol == {"a": 4, "b": 3, "c": 11}


def test_union_accepts_either_language():
    a = unary_cycle(2)
    b = unary_cycle(3)
    u = union_product(a, b)
    for w in words(a.alphabet, 12):
        assert accepts(u, w) == (accepts(a, w) or accepts(b, w))


def test_union_requires_shared_alphabet():
    with pytest.raises(ValueError):
        union_product(unary_cycle(2), epsilon_lang())


def test_prediction_validates_inputs():
    with pytest.raises(ValueError):
        union_symbol_upper(3, 0, 2, 2)  # t1 > q1
    with pytest.raises(ValueError):
        union_symbol_upper(-1, 0, 2, 2)


def test_prediction_arithmetic():
    assert union_symbol_upper(0, 0, 1, 1) == 0
    assert union_symbol_upper(1, 2, 2, 3) == 8
    # t_i = q_i - 1 specializes to q1*q2 + q1 + q2 - 3.
    for q1 in range(1, 6):
        for q2 in range(1, 6):
            assert union_symbol_upper(q1 - 1, q2 - 1, q1, q2) == (
                q1 * q2 + q1 + q2 - 3
            )


@given(dfa_pairs())
def test_union_never_exceeds_prediction(pair):
    a, b = pair
    got = transition_counts(union_product(a, b)).per_symbol
    ca = transition_counts(a).per_symbol
    cb = transition_counts(b).per_symbol
    for sym in a.alphabet:
        bound = union_symbol_upper(
            ca[sym], cb[sym], a.state_count, b.state_count
        )
        assert got[sym] <= bound


@given(dfa_pairs())
def test_union_prediction_exact_when_both_sides_incomplete(pair):
    a, b = pair
    if a.is_complete() or b.is_complete():
        return
    got = transition_counts(union_product(a, b)).per_symbol
    ca = transition_counts(a).per_symbol
    cb = transition_counts(b).per_symbol
    for sym in a.alphabet:
        assert got[sym] == union_symbol_upper(
            ca[sym], cb[sym], a.state_count, b.state_count
        )


@given(dfa_pairs(max_states=3, alphabet_sizes=(1, 2)))
def test_union_agrees_with_word_level_or(pair):
    a, b = pair
    u = union_product(a, b)
    max_len = a.state_count * b.state_count + 1
    lang = language(u, max_len)
    assert lang == language(a, max_len) | language(b, max_len)


def test_dead_dead_pair_is_never_reachable():
    a = union_symbol_witness(2, 1)
    b = union_symbol_witness(3, 1)
    u = union_product(a, b)
    # both sides incomplete: each padded with a dead slot, at index state_count
    assert u.state_count == (2 + 1) * (3 + 1)
    dead_dead = 2 * (3 + 1) + 3
    assert dead_dead not in reachable(u)
    assert not any((dead_dead, sym) in u.transitions for sym in u.alphabet)


def test_tags_align_with_product_indexing():
    a = unary_cycle(2)  # complete: no padding on this side
    b = unary_singleton(1)  # incomplete: padded
    u = union_product(a, b)
    # pair (p, q) sits at p * (padded size of b) + q
    assert u.state_count == 2 * (2 + 1)
    assert u.start == 0  # (0, 0)
    assert u.transitions[(0, "b")] == 1 * 3 + 1  # (1, 1)
    assert u.transitions[(4, "b")] == 0 * 3 + 2  # (0, dead): b has no move from 1
    assert 2 in reachable(u)


def test_intersection_of_cycles():
    p = intersection_product(unary_cycle(2), unary_cycle(3))
    m = minimize(p)
    assert m.state_count == 6
    assert transition_counts(m).total == 6
    assert equivalent(m, unary_cycle(6))


def test_intersection_with_empty_is_empty():
    e = empty_language_dfa(Alphabet("b"))
    p = intersection_product(unary_cycle(3), e)
    assert equivalent(p, e)


@given(dfa_pairs())
def test_intersection_symbol_counts_multiply(pair):
    a, b = pair
    p = intersection_product(a, b)
    got = transition_counts(p).per_symbol
    ca = transition_counts(a).per_symbol
    cb = transition_counts(b).per_symbol
    for sym in a.alphabet:
        assert got[sym] == ca[sym] * cb[sym]


@given(dfa_pairs(max_states=3, alphabet_sizes=(1, 2)))
def test_intersection_agrees_with_word_level_and(pair):
    a, b = pair
    p = intersection_product(a, b)
    max_len = a.state_count * b.state_count + 1
    assert language(p, max_len) == language(a, max_len) & language(b, max_len)


def test_complement_of_singleton_chain():
    d = unary_singleton(3)
    c = complement(d)
    assert c.state_count == d.state_count + 1
    assert c.is_complete()
    assert transition_counts(c).total == (d.state_count + 1) * len(d.alphabet)
    for w in words(d.alphabet, 9):
        assert accepts(c, w) == (not accepts(d, w))


def test_complement_of_empty_language():
    c = complement(empty_language_dfa(Alphabet("a")))
    assert all(accepts(c, w) for w in words(Alphabet("a"), 6))


@given(partial_dfas(max_states=3, alphabet_sizes=(1, 2)))
def test_complement_is_involutive_up_to_equivalence(d):
    assert equivalent(complement(complement(d)), d)


@given(dfa_pairs(max_states=2, alphabet_sizes=(1, 2)))
def test_de_morgan(pair):
    a, b = pair
    lhs = complement(union_product(a, b))
    rhs = intersection_product(complement(a), complement(b))
    assert equivalent(lhs, rhs)


def test_complement_transition_count_is_forced():
    # Whatever the input's own count, the output uses the full padded table.
    for d in (epsilon_lang(), union_symbol_witness(4, 2), unary_cycle(3)):
        c = complement(d)
        assert c.state_count == d.state_count + 1
        assert transition_counts(c).total == (d.state_count + 1) * len(d.alphabet)


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_operations_reject_a_malformed_operand(defect):
    bad, message = MALFORMED[defect]
    good = union_symbol_witness(2, 1, b="a", c="b")
    for op in (
        lambda: union_product(bad, good),
        lambda: union_product(good, bad),
        lambda: intersection_product(bad, good),
        lambda: intersection_product(good, bad),
        lambda: complement(bad),
    ):
        with pytest.raises(ValueError, match=message):
            op()
