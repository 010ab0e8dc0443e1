import itertools

from hypothesis import strategies as st

from pdfa import Alphabet, PartialDfa

ALPHA = {1: Alphabet("a"), 2: Alphabet("ab"), 3: Alphabet("abc")}

# Constructor arguments with one structural defect each, otherwise a
# well-formed 2-state DFA over {a, b} with the table 0 -a-> 1, and the
# ValueError message that ``PartialDfa(*args)`` must raise.
MALFORMED = {
    "target-out-of-range": (
        (ALPHA[2], 2, 0, {1}, (1, 7, -1, -1)),
        r"\(0, 'b'\) -> 7: target out of range",
    ),
    "start-out-of-range": (
        (ALPHA[2], 2, 2, {1}, (1, -1, -1, -1)),
        "start state 2 out of range",
    ),
    "accepting-out-of-range": (
        (ALPHA[2], 2, 0, {5}, (1, -1, -1, -1)),
        "accepting state 5 out of range",
    ),
    "duplicate-alphabet": (
        (["a", "a"], 2, 0, {1}, (1, -1, -1, -1)),
        "alphabet symbols must be distinct",
    ),
    "float-state-count": (
        (ALPHA[2], 2.0, 0, {1}, (1, -1, -1, -1)),
        "state count must be an int, got 2.0",
    ),
    "bool-start": (
        (ALPHA[2], 2, True, {1}, (1, -1, -1, -1)),
        "start state must be an int, got True",
    ),
    "float-accepting-and-target": (
        (ALPHA[2], 2, 0, {1.0}, (1.0, -1, -1, -1)),
        r"accepting state 1.0 is not an int; transition \(0, 'a'\) -> 1.0: target is not an int$",
    ),
    # parts of types that do not compare: numbers first, in order, then the rest by repr
    "mixed-type-accepting": (
        (ALPHA[2], 2, 0, {0, None, "x"}, (1, -1, -1, -1)),
        "^malformed DFA: accepting state 'x' is not an int; accepting state None is not an int$",
    ),
    # parts that are not numbers come by repr even where they compare: "(10,)" < "(9,)"
    "tuple-accepting": (
        (ALPHA[2], 2, 0, {(9,), (10,)}, (1, -1, -1, -1)),
        r"^malformed DFA: accepting state \(10,\) is not an int; accepting state \(9,\) is not an int$",
    ),
    # parts that are not hashable, so frozenset cannot take them
    "list-accepting": (
        (ALPHA[2], 2, 0, [[1]], (1, -1, -1, -1)),
        r"^malformed DFA: accepting state \[1\] is not an int$",
    ),
    "set-accepting": (
        (ALPHA[2], 2, 0, [{1}, 5], (1, -1, -1, -1)),
        r"^malformed DFA: accepting state 5 out of range 0..1; accepting state \{1\} is not an int$",
    ),
}


def moves(dfa: PartialDfa) -> dict[tuple[int, str], int]:
    """The defined moves as a ``(state, symbol) -> state`` dict, read off the table."""
    k = len(dfa.alphabet)
    return {(i // k, dfa.alphabet[i % k]): t for i, t in enumerate(dfa.table) if t >= 0}


def accepts(dfa: PartialDfa, word: str) -> bool:
    """Word semantics: follow ``word`` from the start; an undefined move rejects."""
    step, state = moves(dfa), dfa.start
    for sym in word:
        state = step.get((state, sym))
        if state is None:
            return False
    return state in dfa.accepting


def words(alphabet: Alphabet, max_len: int):
    """All words over the alphabet up to the given length, shortlex order."""
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def language(dfa: PartialDfa, max_len: int) -> frozenset:
    return frozenset(w for w in words(dfa.alphabet, max_len) if accepts(dfa, w))


@st.composite
def partial_dfas(draw, max_states: int = 4, alphabet_sizes=(1, 2, 3)):
    """Arbitrary well-formed partial DFAs (not necessarily connected)."""
    alphabet = ALPHA[draw(st.sampled_from(alphabet_sizes))]
    n = draw(st.integers(1, max_states))
    table = [draw(st.integers(-1, n - 1)) for _ in range(n * len(alphabet))]
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    start = draw(st.integers(0, n - 1))
    return PartialDfa(alphabet, n, start, accepting, table)


@st.composite
def dfa_pairs(draw, max_states: int = 3, alphabet_sizes=(1, 2)):
    """Pairs sharing one alphabet, for the product constructions."""
    alphabet = ALPHA[draw(st.sampled_from(alphabet_sizes))]

    def one():
        n = draw(st.integers(1, max_states))
        table = [draw(st.integers(-1, n - 1)) for _ in range(n * len(alphabet))]
        accepting = draw(st.frozensets(st.integers(0, n - 1)))
        return PartialDfa(alphabet, n, draw(st.integers(0, n - 1)), accepting, table)

    return one(), one()
