import itertools

from hypothesis import strategies as st

from pdfa import Alphabet, PartialDfa, accepts

ALPHA = {1: Alphabet("a"), 2: Alphabet("ab"), 3: Alphabet("abc")}

# One machine per structural defect, each otherwise a well-formed 2-state
# DFA over {a, b}, with the ValueError message it must raise.
MALFORMED = {
    "target-out-of-range": (
        PartialDfa(ALPHA[2], 2, 0, {1}, {(0, "a"): 1, (0, "b"): 7}),
        r"\(0, 'b'\) -> 7: target out of range",
    ),
    "source-out-of-range": (
        PartialDfa(ALPHA[2], 2, 0, {1}, {(0, "a"): 1, (2, "b"): 0}),
        r"\(2, 'b'\) -> 0: source out of range",
    ),
    "foreign-symbol": (
        PartialDfa(ALPHA[2], 2, 0, {1}, {(0, "a"): 1, (1, "z"): 0}),
        r"\(1, 'z'\) -> 0: symbol not in alphabet",
    ),
    "start-out-of-range": (
        PartialDfa(ALPHA[2], 2, 2, {1}, {(0, "a"): 1}),
        "start state 2 out of range",
    ),
    "accepting-out-of-range": (
        PartialDfa(ALPHA[2], 2, 0, {5}, {(0, "a"): 1}),
        "accepting state 5 out of range",
    ),
}


def words(alphabet: Alphabet, max_len: int):
    """All words over the alphabet up to the given length, shortlex order."""
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet.symbols, repeat=n):
            yield "".join(tup)


def language(dfa: PartialDfa, max_len: int) -> frozenset:
    return frozenset(w for w in words(dfa.alphabet, max_len) if accepts(dfa, w))


@st.composite
def partial_dfas(draw, max_states: int = 4, alphabet_sizes=(1, 2, 3)):
    """Arbitrary well-formed partial DFAs (not necessarily connected)."""
    alphabet = ALPHA[draw(st.sampled_from(alphabet_sizes))]
    n = draw(st.integers(1, max_states))
    transitions = {}
    for q in range(n):
        for sym in alphabet:
            target = draw(st.integers(-1, n - 1))
            if target >= 0:
                transitions[(q, sym)] = target
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    start = draw(st.integers(0, n - 1))
    return PartialDfa(alphabet, n, start, accepting, transitions)


@st.composite
def dfa_pairs(draw, max_states: int = 3, alphabet_sizes=(1, 2)):
    """Pairs sharing one alphabet, for the product constructions."""
    alphabet = ALPHA[draw(st.sampled_from(alphabet_sizes))]

    def one():
        n = draw(st.integers(1, max_states))
        transitions = {}
        for q in range(n):
            for sym in alphabet:
                target = draw(st.integers(-1, n - 1))
                if target >= 0:
                    transitions[(q, sym)] = target
        accepting = draw(st.frozensets(st.integers(0, n - 1)))
        return PartialDfa(alphabet, n, draw(st.integers(0, n - 1)), accepting, transitions)

    return one(), one()
