import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdfa import (
    Alphabet,
    PartialDfa,
    complement,
    empty_language_dfa,
    equivalent,
    intersection_product,
    minimize,
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

from conftest import MALFORMED, accepts, dfa_pairs, language, moves, partial_dfas, words
from moore import reachable


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
    step = moves(u)
    assert not any((dead_dead, sym) in step for sym in u.alphabet)


def test_tags_align_with_product_indexing():
    a = unary_cycle(2)  # complete: no padding on this side
    b = unary_singleton(1)  # incomplete: padded
    u = union_product(a, b)
    # pair (p, q) sits at p * (padded size of b) + q
    assert u.state_count == 2 * (2 + 1)
    assert u.start == 0  # (0, 0)
    step = moves(u)
    assert step[(0, "b")] == 1 * 3 + 1  # (1, 1)
    assert step[(4, "b")] == 0 * 3 + 2  # (0, dead): b has no move from 1
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
    """A malformed operand is rejected where it is built, so no operation
    ever receives one."""
    args, message = MALFORMED[defect]
    with pytest.raises(ValueError, match=message):
        PartialDfa(*args)


# --- the constructions, rebuilt pair by pair from their docstrings ------------


def _padded(dfa: PartialDfa) -> int:
    return dfa.state_count + (0 if dfa.is_complete() else 1)


def reference_union(a: PartialDfa, b: PartialDfa) -> PartialDfa:
    """Pair (p, q) sits at p * pb + q; a side's undefined move goes to that
    side's dead slot (index == its state count), and the (dead, dead) pair
    keeps every move undefined."""
    step_a, step_b = moves(a), moves(b)
    na, nb, pb = a.state_count, b.state_count, _padded(b)
    table, accepting = [], set()
    for p in range(_padded(a)):
        for q in range(pb):
            if p in a.accepting or q in b.accepting:
                accepting.add(p * pb + q)
            for sym in a.alphabet:
                np, nq = step_a.get((p, sym), na), step_b.get((q, sym), nb)
                table.append(-1 if (np, nq) == (na, nb) else np * pb + nq)
    return PartialDfa(a.alphabet, _padded(a) * pb, a.start * pb + b.start, accepting, table)


def reference_intersection(a: PartialDfa, b: PartialDfa) -> PartialDfa:
    """Pair (p, q) sits at p * nb + q; a move is defined iff both sides' are."""
    step_a, step_b = moves(a), moves(b)
    nb = b.state_count
    table, accepting = [], set()
    for p in range(a.state_count):
        for q in range(nb):
            if p in a.accepting and q in b.accepting:
                accepting.add(p * nb + q)
            for sym in a.alphabet:
                np, nq = step_a.get((p, sym)), step_b.get((q, sym))
                table.append(-1 if np is None or nq is None else np * nb + nq)
    return PartialDfa(a.alphabet, a.state_count * nb, a.start * nb + b.start, accepting, table)


def reference_complement(a: PartialDfa) -> PartialDfa:
    """An accepting sink (index == state count) takes every undefined move
    and loops on every symbol; every other state flips."""
    step, sink = moves(a), a.state_count
    table = [step.get((q, sym), sink) for q in range(sink + 1) for sym in a.alphabet]
    accepting = {q for q in range(sink + 1) if q not in a.accepting}
    return PartialDfa(a.alphabet, sink + 1, a.start, accepting, table)


def _parts(dfa: PartialDfa) -> tuple:
    return dfa.state_count, dfa.start, sorted(dfa.accepting), dfa.table


def _completed(dfa: PartialDfa) -> PartialDfa:
    """``dfa`` with every undefined move made a self-loop."""
    k = len(dfa.alphabet)
    table = [i // k if t < 0 else t for i, t in enumerate(dfa.table)]
    return PartialDfa(dfa.alphabet, dfa.state_count, dfa.start, dfa.accepting, table)


@given(dfa_pairs(max_states=4, alphabet_sizes=(1, 2, 3)), st.booleans(), st.booleans())
def test_the_constructions_match_their_pair_by_pair_reference(pair, complete_a, complete_b):
    a, b = pair
    a, b = (_completed(a) if complete_a else a), (_completed(b) if complete_b else b)
    assert _parts(union_product(a, b)) == _parts(reference_union(a, b))
    assert _parts(intersection_product(a, b)) == _parts(reference_intersection(a, b))
    assert _parts(complement(a)) == _parts(reference_complement(a))
    assert _parts(complement(b)) == _parts(reference_complement(b))


# the benchmark's large-machine operands: two union-symbol witnesses (one
# pair of loop counts it draws), two coprime unary cycles and a long chain
@pytest.mark.parametrize("op, operands, reference", [
    (union_product, (union_symbol_witness(60, 9), union_symbol_witness(61, 37)), reference_union),
    (intersection_product, (unary_cycle(31), unary_cycle(37)), reference_intersection),
    (complement, (unary_singleton(800),), reference_complement),
    (complement, (unary_cycle(31),), reference_complement),
], ids=["union-60-61", "intersection-31-37", "complement-800", "complement-complete"])
def test_the_constructions_match_their_reference_at_benchmark_size(op, operands, reference):
    assert _parts(op(*operands)) == _parts(reference(*operands))


# pair (0, 0)'s move when one side's move is undefined: a sentinel of -1 for
# that side would alias, since a's move into 1 plus b's -1 is nb - 1, a valid index
@pytest.mark.parametrize("table_a, table_b", [
    ((1, 1), (-1, 2, 2)),
    ((-1, 0), (2, 2, 2)),
    ((-1, 0), (-1, 2, 2)),
], ids=["a-into-1-b-undefined", "a-undefined-b-into-last", "both-undefined"])
def test_intersection_leaves_a_move_undefined_when_either_side_is(table_a, table_b):
    unary = Alphabet("b")
    a = PartialDfa(unary, len(table_a), 0, {1}, table_a)
    b = PartialDfa(unary, len(table_b), 0, {2}, table_b)
    p = intersection_product(a, b)
    assert p.table[0] == -1
    assert _parts(p) == _parts(reference_intersection(a, b))
