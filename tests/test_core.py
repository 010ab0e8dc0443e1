import hashlib
import random
import re
import sys

import pytest
from hypothesis import given

import pdfa
from pdfa import (
    Alphabet,
    DfaParseError,
    PartialDfa,
    empty_language_dfa,
    parse_dfa,
    render_dfa,
    render_dot,
    transition_counts,
    union_product,
)
from pdfa.witnesses import union_symbol_witness, unary_singleton

from conftest import accepts, language, moves, partial_dfas, words
from moore import coaccessible, reachable, trim


def test_every_exported_name_resolves():
    assert [name for name in pdfa.__all__ if not hasattr(pdfa, name)] == []


def test_alphabet_rejects_empty():
    with pytest.raises(ValueError):
        Alphabet(())


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet("aba")


def test_alphabet_rejects_multichar_symbols():
    with pytest.raises(ValueError):
        Alphabet(("ab",))


@pytest.mark.parametrize("symbol", [" ", "\t", "\n"])
def test_alphabet_rejects_whitespace_symbols(symbol):
    # a whitespace symbol would not survive the .pdfa text format
    with pytest.raises(ValueError, match="whitespace"):
        Alphabet(("a", symbol))


def test_alphabet_iteration_order():
    a = Alphabet("cab")
    assert list(a) == ["c", "a", "b"]
    assert len(a) == 3
    assert "b" in a and "z" not in a
    assert a.index("a") == 1


def test_validate_clean_dfa():
    d = union_symbol_witness(3, 1)
    assert PartialDfa(d.alphabet, d.state_count, d.start, d.accepting, d.table) == d


@pytest.mark.parametrize("symbols", ["ab", ("a", "b"), ["a", "b"]])
def test_an_alphabet_given_as_a_sequence_is_the_alphabet_of_its_symbols(symbols):
    d = PartialDfa(symbols, 2, 0, {1}, (1, 0, -1, -1))
    same = PartialDfa(Alphabet("ab"), 2, 0, {1}, (1, 0, -1, -1))
    assert type(d.alphabet) is Alphabet
    assert d == same and hash(d) == hash(same)
    assert union_product(d, same) == union_product(same, same)


def test_validate_collects_every_violation():
    args = (Alphabet("ab"), 2, 5, frozenset({0, 9}), (7, -1, -1, -2))
    with pytest.raises(ValueError) as exc:
        PartialDfa(*args)
    text = str(exc.value)
    assert text == (
        "malformed DFA: start state 5 out of range 0..1; accepting state 9 out of range 0..1; "
        "transition (0, 'a') -> 7: target out of range; transition (1, 'b') -> -2: target out of range"
    )
    # Deterministic ordering: a second run produces the same message.
    with pytest.raises(ValueError) as again:
        PartialDfa(*args)
    assert str(again.value) == text


def test_the_constructor_lists_every_part_that_is_not_an_int():
    # each would render as text that parse_dfa rejects: `states 2.0`, `start True`, `accept 1.0`
    with pytest.raises(ValueError) as exc:
        PartialDfa(Alphabet("ab"), 2.0, True, {1.0, 5}, (1.0, 7, -1.0, False))
    assert str(exc.value) == (
        "malformed DFA: state count must be an int, got 2.0; start state must be an int, got True; "
        "accepting state 1.0 is not an int; accepting state 5 out of range 0..1.0; "
        "transition (0, 'a') -> 1.0: target is not an int; transition (0, 'b') -> 7: target out of range; "
        "transition (1, 'a') -> -1.0: target is not an int; transition (1, 'b') -> False: target is not an int"
    )


def test_an_unhashable_part_of_an_iterator_is_malformed_though_it_is_gone():
    with pytest.raises(ValueError) as exc:
        PartialDfa(Alphabet("a"), 2, 0, iter([[0]]), (1, -1))
    assert str(exc.value) == "malformed DFA: an accepting state is not hashable"


def test_the_constructor_rejects_a_machine_of_no_states():
    with pytest.raises(ValueError) as exc:
        PartialDfa(Alphabet("ab"), 0, 0, (), ())
    assert str(exc.value) == (
        "malformed DFA: state count must be at least 1, got 0; start state 0 out of range 0..-1"
    )


@pytest.mark.parametrize(
    "table, start, accepting, message",
    [
        ((1, -1, 0), 0, {1}, "table length 3 is not 2 states times 2 symbols"),
        ((1, 2, 0, -1), 0, {1}, r"\(0, 'b'\) -> 2: target out of range"),
        ((1, -2, 0, -1), 0, {1}, r"\(0, 'b'\) -> -2: target out of range"),
        ((1, -1, 0, -1), 2, {1}, "start state 2 out of range"),
        ((1, -1, 0, -1), 0, {1, 5}, "accepting state 5 out of range"),
    ],
    ids=["length", "target-too-large", "entry-below-minus-one", "start", "accepting"],
)
def test_the_constructor_rejects_a_malformed_table(table, start, accepting, message):
    with pytest.raises(ValueError, match=message):
        PartialDfa(Alphabet("ab"), 2, start, accepting, table)


@given(partial_dfas())
def test_table_agrees_with_its_dict_view(d):
    step = moves(d)
    again = parse_dfa(render_dfa(d))
    assert again == d and hash(again) == hash(d)
    cells = [(q, sym) for q in range(d.state_count) for sym in d.alphabet]
    assert [t if t >= 0 else None for t in d.table] == [step.get(cell) for cell in cells]
    assert d.is_complete() == all(cell in step for cell in cells)
    k = len(d.alphabet)
    for word in words(d.alphabet, 4):
        state = d.start
        for sym in word:
            state = d.table[state * k + d.alphabet.index(sym)]
            if state < 0:
                break
        assert accepts(d, word) == (state in d.accepting)


def test_accepts_walks_partial_table():
    d = union_symbol_witness(3, 1)  # ((b*c)c c)* b* essentially: cycle c, loop b at 0
    assert accepts(d, "")
    assert accepts(d, "ccc")
    assert accepts(d, "bbccc")
    assert not accepts(d, "c")
    assert not accepts(d, "cb")  # b undefined outside the loop states


def test_reachable_and_coaccessible():
    # 0 -a-> 1, state 2 unreachable, state 1 is a trap (no way to accept from it).
    d = PartialDfa(Alphabet("a"), 3, 0, frozenset({0}), (1, -1, 0))
    assert reachable(d) == frozenset({0, 1})
    assert coaccessible(d) == frozenset({0, 2})


def test_trim_drops_useless_states():
    d = PartialDfa(Alphabet("a"), 3, 0, frozenset({0}), (1, -1, 0))
    t = trim(d)
    assert t.state_count == 1
    assert moves(t) == {}
    assert reachable(t) == frozenset(range(t.state_count))


def test_trim_of_empty_language_is_single_bare_state():
    d = PartialDfa(Alphabet("ab"), 3, 0, frozenset(), (1, -1, -1, 2, -1, -1))
    t = trim(d)
    assert t == empty_language_dfa(d.alphabet)
    assert t.state_count == 1
    assert t.accepting == frozenset()


@given(partial_dfas())
def test_trim_is_idempotent(d):
    once = trim(d)
    assert trim(once) == once


@given(partial_dfas(max_states=3, alphabet_sizes=(1, 2)))
def test_trim_preserves_language(d):
    assert language(trim(d), 7) == language(d, 7)


@given(partial_dfas())
def test_trim_output_is_connected(d):
    t = trim(d)
    assert reachable(t) == frozenset(range(t.state_count))


def test_transition_counts_by_symbol():
    d = union_symbol_witness(3, 2)
    counts = transition_counts(d)
    assert counts.total == 5
    assert counts.per_symbol == {"b": 2, "c": 3}
    assert counts.total == sum(counts.per_symbol.values())


@given(partial_dfas())
def test_transition_total_is_sum_of_symbol_counts(d):
    counts = transition_counts(d)
    assert counts.total == sum(counts.per_symbol.values())
    assert all(0 <= v <= d.state_count for v in counts.per_symbol.values())


def _within_size_bounds(d):
    t = transition_counts(d).total
    return d.state_count - 1 <= t <= len(d.alphabet) * d.state_count


def test_size_bounds_hold_for_connected_machines():
    assert _within_size_bounds(empty_language_dfa(Alphabet("a")))
    assert _within_size_bounds(union_symbol_witness(5, 2))


@given(partial_dfas())
def test_size_bounds_hold_after_trimming(d):
    # |Q|-1 <= t <= |alphabet|*|Q| on every connected machine
    assert _within_size_bounds(trim(d))


def test_parse_render_round_trip():
    d = union_symbol_witness(3, 1)
    assert parse_dfa(render_dfa(d)) == d


@given(partial_dfas())
def test_render_then_parse_is_identity(d):
    assert parse_dfa(render_dfa(d)) == d


def test_render_is_stable_text():
    d = unary_singleton(2)
    assert render_dfa(d) == (
        "alphabet b\nstates 3\nstart 0\naccept 2\n0 b 1\n1 b 2\n"
    )


def test_parse_reports_line_numbers():
    text = "alphabet a b\nstates 2\nstart 0\naccept 0\n0 a 1\n0 a 1\n"
    with pytest.raises(DfaParseError) as exc:
        parse_dfa(text)
    assert exc.value.line == 6
    assert "duplicate" in str(exc.value)


def test_parse_rejects_unknown_symbol():
    text = "alphabet a b\nstates 2\nstart 0\naccept 0\n0 q 1\n"
    with pytest.raises(DfaParseError) as exc:
        parse_dfa(text)
    assert exc.value.line == 5


@pytest.mark.parametrize(
    "lines, line, message",
    [
        (["start 2", "accept 1"], 3, "start state 2 out of range 0..1"),
        (["start 0", "accept 1 2"], 4, "accepting state 2 out of range 0..1"),
        (["start 0", "accept 1", "0 a 1", "2 b 0"], 6, "source state 2 out of range 0..1"),
        (["start 0", "accept 1", "0 a 1", "-1 a 0"], 6, "source state -1 out of range 0..1"),
        (["start 0", "accept 1", "0 a 1", "1 b 2"], 6, "target state 2 out of range 0..1"),
        (["start 0", "accept 1", "0 a 1", "1 z 0"], 6, "symbol 'z' not in alphabet"),
        (["start 0 1", "accept 1"], 3, "start line takes exactly one state"),
        (["start 0", "accept 1", "0 a"], 5, "transition line needs 'src symbol dst', got 2 tokens"),
        (["start x", "accept 1"], 3, "start state must be an integer, got 'x'"),
        (["start 0", "accept 1 y"], 4, "accepting state must be an integer, got 'y'"),
        (["start 0", "accept 1", "x a 1"], 5, "source state must be an integer, got 'x'"),
        (["start 0", "accept 1", "0 a y"], 5, "target state must be an integer, got 'y'"),
        (["start 0", "accept 1", "0 a 1", "0 a 0"], 6, "duplicate transition for state 0 on symbol 'a'"),
    ],
    ids=["start", "accepting", "source", "negative-source", "target", "foreign-symbol",
         "start-tokens", "transition-tokens", "start-int", "accepting-int", "source-int",
         "target-int", "duplicate"],
)
def test_parse_rejects_a_state_or_symbol_out_of_range_at_its_line(lines, line, message):
    # the text entry point's own checks: a table has no slot for a bad source or symbol
    with pytest.raises(DfaParseError) as exc:
        parse_dfa("\n".join(["alphabet a b", "states 2", *lines]) + "\n")
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "lines, line, message",
    [
        (["alphabet a a"], 1, "alphabet symbols must be distinct"),
        (["alphabet a", "states 2 3"], 2, "states line takes exactly one count"),
        (["alphabet a", "states 0"], 2, "state count must be at least 1, got 0"),
        (["alphabet a", "states x"], 2, "state count must be an integer, got 'x'"),
        (["alphabet"], 1, "alphabet must not be empty"),
        (["alphabet a"], 2, "expected 'states' line, got 'start'"),
    ],
    ids=["alphabet", "states-tokens", "no-states", "states-int", "empty-alphabet", "order"],
)
def test_parse_rejects_a_malformed_header_at_its_line(lines, line, message):
    with pytest.raises(DfaParseError) as exc:
        parse_dfa("\n".join([*lines, "start 0", "accept 0"]) + "\n")
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_parse_rejects_missing_header():
    with pytest.raises(DfaParseError):
        parse_dfa("alphabet a b\nstart 0\naccept 0\n")


def test_parse_reports_truncated_input_after_its_last_line():
    with pytest.raises(DfaParseError) as exc:
        parse_dfa("alphabet a\nstates 2\n")
    assert exc.value.line == 3
    assert "missing 'start'" in str(exc.value)
    with pytest.raises(DfaParseError) as exc:
        parse_dfa("")
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", 1, "incomplete input: missing 'alphabet' line"),
        ("alphabet a\nstates 2\n# start\n\n# accept\n", 6, "incomplete input: missing 'start' line"),
    ],
    ids=["empty", "trailing-comments"],
)
def test_parse_reports_incomplete_input_where_the_header_was_due(text, line, message):
    with pytest.raises(DfaParseError) as exc:
        parse_dfa(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_parse_rejects_a_table_too_long_to_index():
    # only tables no allocator is asked for: past sys.maxsize slots the length
    # cannot be indexed, and at 2**62 slots the byte size overflows Py_ssize_t,
    # so CPython raises MemoryError before allocating
    for symbols, count in (("a", 10**20), ("a", sys.maxsize + 1), ("a b", sys.maxsize // 2 + 1),
                           ("a", 2**62)):
        with pytest.raises(DfaParseError) as exc:
            parse_dfa(f"alphabet {symbols}\nstates {count}\nstart 0\naccept 0\n")
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: state count {count} is too large"


def test_parse_skips_comments_and_blank_lines():
    text = (
        "# tiny machine\nalphabet a\n\nstates 1\nstart 0\n"
        "accept 0\n# loop\n0 a 0\n"
    )
    d = parse_dfa(text)
    assert d.state_count == 1
    assert moves(d) == {(0, "a"): 0}


def test_parse_accepts_empty_accept_line():
    d = parse_dfa("alphabet a\nstates 1\nstart 0\naccept\n")
    assert d.accepting == frozenset()


# junk for the mutated corpus: numbers int() reads oddly or not at all, header
# words, comment marks, symbols in and out of the alphabet, a count too large
# to index, and characters str.splitlines() breaks lines at
_JUNK = ["-1", "1.5", "0x1", "+1", "1_0", "٣", "\x0b", "\x1c", "\r", "alphabet", "states", "start",
         "accept", "#", "#x", "a", "b", "c", "d", "ab", "0", "1", "2", "3", "4", "99999999999999999999"]


def _mutated_corpus(count: int, seed: int):
    """``count`` texts: seeded machines of 1-4 states over 1-3 symbols, each
    rendered and, nine times in ten, mutated 1-3 times by replacing a token,
    inserting a token or duplicating a line."""
    rng = random.Random(seed)
    for _ in range(count):
        alphabet, n = "abc"[:rng.randint(1, 3)], rng.randint(1, 4)
        table = [rng.randrange(-1, n) for _ in range(n * len(alphabet))]
        accepting = [q for q in range(n) if rng.random() < 0.4]
        lines = render_dfa(PartialDfa(alphabet, n, rng.randrange(n), accepting, table)).splitlines()
        for _ in range(rng.randint(1, 3) if rng.random() < 0.9 else 0):
            # three mutations in four hit a transition line, when there is one
            i = rng.randrange(4 if len(lines) > 4 and rng.random() < 0.75 else 0, len(lines))
            tokens = lines[i].split(" ")
            kind = rng.randrange(3)
            if kind == 0:
                tokens[rng.randrange(len(tokens))] = rng.choice(_JUNK)
            elif kind == 1:
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(_JUNK))
            else:
                lines.insert(i, lines[i])
            lines[i] = " ".join(tokens)
        yield "\n".join(lines) + "\n"


def test_parse_outcomes_of_a_mutated_corpus_are_pinned():
    """Every outcome -- the rendering, or the error's line and message -- of
    4,000 mutated texts, by one SHA-256: a parser that checks a line's parts
    in another order, or reads a text another way, changes the digest."""
    digest, parsed, messages = hashlib.sha256(), 0, set()
    for text in _mutated_corpus(4000, seed=28):
        try:
            outcome = render_dfa(parse_dfa(text))
            parsed += 1
        except DfaParseError as exc:
            outcome = f"{exc.line}\n{exc}"
            messages.add(re.sub(r"[0-9]+|'.*'", "_", str(exc).split(": ", 1)[1]))
        digest.update(outcome.encode() + b"\0")
    assert parsed >= 400 and len(messages) >= 12  # the corpus reaches far past its headers
    assert digest.hexdigest() == "f5d8f284219177dbc80277e7172047528db2da3036346228f25d4e7d82e38da6"


def test_render_dot_marks_accepting_and_start():
    dot = render_dot(union_symbol_witness(3, 1))
    assert "digraph" in dot
    assert "doublecircle" in dot
    assert "__start" in dot


def test_render_dot_escapes_quote_and_backslash_labels():
    d = PartialDfa(Alphabet('a"\\'), 1, 0, {0}, (0, 0, 0))
    edges = [line for line in render_dot(d).splitlines() if "[label=" in line]
    # an ordinary symbol is written as it is; a quote and a backslash are escaped
    assert edges == [r'  0 -> 0 [label="a"];', r'  0 -> 0 [label="\""];', r'  0 -> 0 [label="\\"];']
