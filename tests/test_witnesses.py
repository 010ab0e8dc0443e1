import inspect
import re

import pytest

from pdfa import Alphabet, complexity, empty_language_dfa, minimize, parse_dfa, render_dfa
from pdfa.witnesses import (
    WITNESS_FAMILIES,
    chain_star_witness,
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_multi_witness,
    union_symbol_witness,
    union_total_witness,
)

from conftest import accepts, assert_well_formed, words


def _matches(dfa, pattern, max_len=9):
    """Compare the DFA against a regex over every short word."""
    rx = re.compile(pattern)
    for w in words(dfa.alphabet, max_len):
        assert accepts(dfa, w) == bool(rx.fullmatch(w)), w


def test_union_symbol_language():
    for n, k in [(2, 1), (3, 1), (3, 2), (5, 2)]:
        d = union_symbol_witness(n, k)
        _matches(d, rf"((b*c){{{k}}}c{{{n - k}}})*b*")


def test_union_symbol_complexity():
    for n, k in [(2, 1), (3, 2), (6, 3)]:
        d = union_symbol_witness(n, k)
        assert minimize(d) == d
        rep = complexity(d)
        assert rep.sc == n
        assert rep.tc_per_symbol == {"b": k, "c": n}
        assert rep.tc == n + k


def test_union_symbol_rejects_degenerate_loop_count():
    with pytest.raises(ValueError):
        union_symbol_witness(3, 0)
    with pytest.raises(ValueError):
        union_symbol_witness(3, 3)
    with pytest.raises(ValueError):
        union_symbol_witness(3, 1, b="c")
    with pytest.raises(ValueError):
        union_symbol_witness(3, 1, alphabet=Alphabet("ab"))


def test_union_symbol_over_wider_alphabet():
    d = union_symbol_witness(3, 1, alphabet=Alphabet("abc"))
    rep = complexity(d)
    assert rep.tc_per_symbol == {"a": 0, "b": 1, "c": 3}


def test_union_multi_counts_each_loop_prefix():
    d = union_multi_witness(4, {"a": 1, "b": 3})
    assert minimize(d) == d
    rep = complexity(d)
    assert rep.sc == 4
    assert rep.tc_per_symbol == {"a": 1, "b": 3, "c": 4}


def test_union_multi_empty_map_is_bare_cycle():
    d = union_multi_witness(3, {}, c="b")
    assert minimize(d) == unary_cycle(3)
    assert complexity(d).tc_per_symbol == {"b": 3}


def test_union_multi_validation():
    with pytest.raises(ValueError):
        union_multi_witness(3, {"c": 1})  # clashes with cycle symbol
    with pytest.raises(ValueError):
        union_multi_witness(3, {"a": 3})
    with pytest.raises(ValueError):
        union_multi_witness(0, {})


@pytest.mark.parametrize("build", [
    lambda: union_multi_witness(3, {1: 1}),
    lambda: union_symbol_witness(3, 1, b=1),
], ids=["union-multi", "union-symbol"])
def test_a_symbol_that_is_not_a_str_is_a_value_error_with_the_default_alphabet(build):
    with pytest.raises(ValueError, match="^alphabet symbols must be single characters, got 1$"):
        build()


def test_union_total_language():
    for n in (2, 3, 4):
        d = union_total_witness(n)
        _matches(d, rf"(a|c{{{n}}})*")


def test_union_total_complexity():
    for n in (2, 3, 5):
        d = union_total_witness(n)
        assert minimize(d) == d
        rep = complexity(d)
        assert rep.sc == n
        assert rep.tc == n + 1
        assert rep.tc_per_symbol["a"] == 1


def test_union_total_needs_two_states():
    with pytest.raises(ValueError):
        union_total_witness(1)


def test_unary_cycle_language():
    for n in (1, 2, 3, 5):
        d = unary_cycle(n)
        for w in words(d.alphabet, 12):
            assert accepts(d, w) == (len(w) % n == 0)


def test_unary_cycle_is_complete_and_minimal():
    d = unary_cycle(4)
    assert d.is_complete()
    assert minimize(d) == d
    assert complexity(d).tc == 4


def test_unary_singleton_language():
    d = unary_singleton(3)
    for w in words(d.alphabet, 10):
        assert accepts(d, w) == (len(w) == 3)
    rep = complexity(d)
    assert (rep.sc, rep.tc) == (4, 3)


def test_chain_star_language():
    for m in (1, 2, 4):
        d = chain_star_witness(m)
        _matches(d, rf"a*b{{{m - 1}}}")
        rep = complexity(d)
        assert rep.sc == m
        assert rep.tc == m
        assert minimize(d) == d


def test_epsilon_language():
    d = epsilon_lang()
    for w in words(d.alphabet, 5):
        assert accepts(d, w) == (w == "")
    assert complexity(d).tc == 0


def test_all_witnesses_pass_validation():
    """The families build without the constructor's check, from parameters
    they checked: each machine passes as if checked, at the smallest legal
    sizes, at k = n - 1 and over every form of a given alphabet."""
    samples = [
        union_symbol_witness(4, 2),
        union_symbol_witness(2, 1),
        union_symbol_witness(5, 4),
        union_multi_witness(3, {"a": 2}),
        union_multi_witness(1),
        union_multi_witness(2, {"a": 1, "b": 1}),
        union_multi_witness(4, {"a": 3, "b": 3}),
        union_total_witness(3),
        union_total_witness(2),
        unary_cycle(2),
        unary_cycle(1),
        unary_singleton(5),
        unary_singleton(1),
        chain_star_witness(3),
        chain_star_witness(1),
        epsilon_lang(),
        *(build(symbols) for build in _GIVEN_ALPHABET.values()
          for symbols in ("abc", ["a", "b", "c"], ("a", "b", "c"), Alphabet("abc"))),
        empty_language_dfa("a"),
        empty_language_dfa(("a", "b")),
        empty_language_dfa(Alphabet("abc")),
    ]
    for d in samples:
        assert_well_formed(d)
        assert parse_dfa(render_dfa(d)) == d  # the text entry point's checks accept it too
        assert minimize(d) == d  # every family builds its own minimal DFA


_GIVEN_ALPHABET = {
    "union-symbol": lambda alphabet: union_symbol_witness(3, 1, alphabet=alphabet),
    "union-multi": lambda alphabet: union_multi_witness(3, {"b": 1}, alphabet=alphabet),
    "union-total": lambda alphabet: union_total_witness(3, "b", "c", alphabet=alphabet),
    "unary-singleton": lambda alphabet: unary_singleton(2, alphabet=alphabet),
    "chain-star": lambda alphabet: chain_star_witness(2, alphabet=alphabet),
    "epsilon": lambda alphabet: epsilon_lang(alphabet=alphabet),
}


@pytest.mark.parametrize("family", sorted(_GIVEN_ALPHABET))
@pytest.mark.parametrize("empty", ["", [], ()])
def test_an_empty_alphabet_is_rejected_not_replaced_by_the_default(family, empty):
    with pytest.raises(ValueError, match="^alphabet must not be empty$"):
        _GIVEN_ALPHABET[family](empty)


@pytest.mark.parametrize("family", sorted(_GIVEN_ALPHABET))
def test_an_alphabet_given_as_a_sequence_is_the_alphabet_of_its_symbols(family):
    build = _GIVEN_ALPHABET[family]
    for symbols in ("abc", ["a", "b", "c"]):
        d = build(symbols)
        assert type(d.alphabet) is Alphabet
        assert d == build(Alphabet("abc"))
    with pytest.raises(ValueError, match="^alphabet symbols must be distinct$"):
        build("abca")


# valid arguments for each family that takes a size or a loop count
_VALID = {
    "union-symbol": {"n": 4, "k": 1},
    "union-multi": {"n": 4, "k_map": {"a": 1}},
    "union-total": {"n": 3},
    "unary-cycle": {"n": 3},
    "unary-singleton": {"n": 3},
    "chain-star": {"m": 3},
}


@pytest.mark.parametrize("family, name", [
    (family, name)
    for family, build in WITNESS_FAMILIES.items()
    for name, parameter in inspect.signature(build).parameters.items()
    if "int" in parameter.annotation  # n, k, m, and k_map's loop counts
])
@pytest.mark.parametrize("value", [3.0, True, "3"], ids=["float", "bool", "str"])
def test_a_size_that_is_not_an_int_is_a_value_error_naming_its_parameter(family, name, value):
    args = dict(_VALID[family])
    args[name], shown = ({"a": value}, "k_map['a']") if name == "k_map" else (value, name)
    with pytest.raises(ValueError, match=f"^{re.escape(shown)} must be an int, got {re.escape(repr(value))}$"):
        WITNESS_FAMILIES[family](**args)
