"""Core value types and operations for incomplete (partial) DFAs.

A partial DFA stores its transition function as one flat row-major table:
``table[q*k + j]`` is the target of state ``q`` on the ``j``-th symbol,
or -1 where the move is undefined and the machine halts and rejects
(the string representation of Almeida, Moreira and Reis, "Enumeration
and generation with a string automata representation", TCS 2007).
There is no explicit dead state; completions and products add one only
when an operation demands it.

States are always ``0 .. state_count-1`` and the alphabet ordering is
significant -- it fixes the table's columns and with them traversal
order for canonical numbering, rendering and enumeration, so
equal languages produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


class DfaParseError(ValueError):
    """Malformed ``.pdfa`` text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Alphabet(tuple):
    """Ordered, duplicate-free tuple of single non-whitespace characters."""

    __slots__ = ()

    def __new__(cls, symbols: Iterable[str]) -> Alphabet:
        self = super().__new__(cls, symbols)
        if not self:
            raise ValueError("alphabet must not be empty")
        for s in self:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
            if s.isspace():  # the .pdfa format splits lines on whitespace
                raise ValueError(f"alphabet symbols must not be whitespace, got {s!r}")
        if len(set(self)) != len(self):
            raise ValueError("alphabet symbols must be distinct")
        return self


@dataclass(frozen=True, slots=True, init=False)
class PartialDfa:
    """An incomplete DFA over ``alphabet``, stored as its flat table.

    ``PartialDfa(alphabet, n, start, accepting, table)`` takes the table
    itself (-1 = undefined) and any sequence of symbols as the alphabet,
    which :class:`Alphabet` checks.  It rejects a malformed machine -- a
    table of the wrong length, a state count, start, accepting or target
    state that is not an ``int`` (a bool is not), or a state outside
    ``0..n-1`` -- with a ValueError listing every violation.  It serves
    callers outside the library, whose parts are checked here, where they
    enter.  The library builds through ``_derived``, the one private
    builder that skips the check: the witness families and
    ``empty_language_dfa`` check their parameters first, and every other
    machine is derived from checked ones.  So every instance is well
    formed.  Instances are immutable and hashable: equal machines have
    equal tables.
    """

    alphabet: Alphabet
    state_count: int
    start: int
    accepting: frozenset[int]
    table: tuple[int, ...]

    def __init__(self, alphabet: Iterable[str], state_count: int, start: int,
                 accepting: Iterable[int], table: Iterable[int]):
        if type(alphabet) is not Alphabet:
            alphabet = Alphabet(alphabet)
        n, table = state_count, tuple(table)
        try:
            accepting = frozenset(accepting)
        except TypeError:  # an unhashable part is not an int; from an iterator it is already consumed
            raise (_malformed(alphabet, n, start, accepting, table)
                   or ValueError("malformed DFA: an accepting state is not hashable")) from None
        if len(table) != n * len(alphabet):
            raise ValueError(f"malformed DFA: table length {len(table)} is not "
                             f"{n} states times {len(alphabet)} symbols")
        if error := _malformed(alphabet, n, start, accepting, table):
            raise error
        put = object.__setattr__
        put(self, "alphabet", alphabet)
        put(self, "state_count", n)
        put(self, "start", start)
        put(self, "accepting", accepting)
        put(self, "table", table)

    @classmethod
    def _derived(cls, alphabet: Alphabet, state_count: int, start: int,
                 accepting: Iterable[int], table: Iterable[int]) -> PartialDfa:
        """The machine with these parts, unchecked: only for parts the library
        checked or derived from checked ones (witnesses, quotients, products,
        parses, samples, enumerated tables), with ``alphabet`` an :class:`Alphabet`."""
        dfa = object.__new__(cls)
        put = object.__setattr__  # the frozen __setattr__ refuses
        put(dfa, "alphabet", alphabet)
        put(dfa, "state_count", state_count)
        put(dfa, "start", start)
        put(dfa, "accepting", frozenset(accepting))
        put(dfa, "table", tuple(table))
        return dfa

    def is_complete(self) -> bool:
        return -1 not in self.table


def _malformed(alphabet, n, start, accepting, table) -> ValueError | None:
    """The error for a malformed machine, listing every violation among its
    states (numbers in order, then other parts by repr) and table entries;
    None for a sound machine."""
    bad: list[str] = []
    if type(n) is not int:
        bad.append(f"state count must be an int, got {n!r}")
    elif n < 1:
        bad.append(f"state count must be at least 1, got {n}")
    if type(start) is not int:
        bad.append(f"start state must be an int, got {start!r}")
    elif not 0 <= start < n:
        bad.append(f"start state {start} out of range 0..{n - 1}")
    for q in sorted(accepting, key=lambda q: (0, q) if isinstance(q, (int, float)) else (1, repr(q))):
        if type(q) is not int:
            bad.append(f"accepting state {q!r} is not an int")
        elif not 0 <= q < n:
            bad.append(f"accepting state {q} out of range 0..{n - 1}")
    k = len(alphabet)
    for src, sym, dst in sorted((i // k, alphabet[i % k], t) for i, t in enumerate(table)
                                if type(t) is not int or not -1 <= t < n):  # the bad slots only
        if type(dst) is not int:
            bad.append(f"transition ({src}, {sym!r}) -> {dst!r}: target is not an int")
        elif not -1 <= dst < n:
            bad.append(f"transition ({src}, {sym!r}) -> {dst}: target out of range")
    return ValueError("malformed DFA: " + "; ".join(bad)) if bad else None


@dataclass(frozen=True)
class TransitionCounts:
    """Raw transition tallies of one DFA (not language complexities)."""

    total: int
    per_symbol: Mapping[str, int]


def _bfs_order(table: tuple[int, ...], start: int, k: int) -> list[int]:
    """The states reachable from ``start`` in breadth-first discovery
    order, successors in alphabet order: ``order[i]`` is the state that
    the canonical numbering calls ``i``."""
    seen = [False] * (len(table) // k)
    seen[start] = True
    order = [start]
    for q in order:
        for t in table[q * k:q * k + k]:
            if t >= 0 and not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def pair_equivalent(a: PartialDfa, b: PartialDfa) -> bool:
    """Language equality by synchronized product exploration.

    Walks pairs of states with -1 standing for the implicit dead state;
    a pair with mismatched acceptance witnesses a separating word.
    Independent of minimization -- used as the cross-check half of
    :func:`equivalent` and by the brute-force oracle.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("cannot compare DFAs over different alphabets")
    if a is b:
        return True
    k = len(a.alphabet)
    dead = (-1,) * k  # the last row, which state -1 indexes
    ta, tb = a.table + dead, b.table + dead
    seen = {(a.start, b.start)}
    queue = [(a.start, b.start)]
    for p, q in queue:
        if (p in a.accepting) != (q in b.accepting):
            return False
        for j in range(k):
            pair = (ta[p * k + j], tb[q * k + j])
            if pair not in seen and pair != (-1, -1):  # both dead: rejects everything
                seen.add(pair)
                queue.append(pair)
    return True


def empty_language_dfa(alphabet: Iterable[str]) -> PartialDfa:
    """The canonical recognizer of the empty language: one bare state."""
    if type(alphabet) is not Alphabet:
        alphabet = Alphabet(alphabet)
    return PartialDfa._derived(alphabet, 1, 0, (), (-1,) * len(alphabet))


def _int(name: str, value) -> None:
    """Reject a size, count or loop count that is not an ``int`` (a bool is not one)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _undefined_table(n: int, k: int) -> list[int]:
    """The table of ``n`` states over ``k`` symbols with every move
    undefined; a ValueError when it is too long to index or to hold."""
    try:
        return [-1] * (n * k)
    except (OverflowError, MemoryError):
        raise ValueError(f"state count {n} is too large") from None


def transition_counts(dfa: PartialDfa) -> TransitionCounts:
    """Count the defined transitions, in total and per symbol."""
    k, n, table = len(dfa.alphabet), dfa.state_count, dfa.table
    per = {sym: n - table[j::k].count(-1) for j, sym in enumerate(dfa.alphabet)}
    return TransitionCounts(total=sum(per.values()), per_symbol=per)


# --- serialization ---------------------------------------------------------

def parse_dfa(text: str) -> PartialDfa:
    """Parse the line-oriented ``.pdfa`` format.

    Layout (blank lines and ``#`` comments are skipped)::

        alphabet b c
        states 3
        start 0
        accept 0
        0 b 0
        0 c 1

    Headers must appear in that order; every remaining line is one
    ``src symbol dst`` transition.  Errors carry the offending line
    number and enforce well-formedness, so the machine is built without
    the constructor's check.
    """
    lines = enumerate(text.splitlines(), start=1)

    def want_int(token: str, lineno: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise DfaParseError(lineno, f"{what} must be an integer, got {token!r}") from None

    def header(name: str) -> tuple[int, list[str]]:
        """The next line that is not blank or a comment, which must be ``name``'s."""
        for lineno, raw in lines:
            tokens = raw.split()
            if tokens and not tokens[0].startswith("#"):
                if tokens[0] != name:
                    raise DfaParseError(lineno, f"expected {name!r} line, got {tokens[0]!r}")
                return lineno, tokens
        # reported at the line after the input's last one, where the header was due
        raise DfaParseError(len(text.splitlines()) + 1, f"incomplete input: missing {name!r} line")

    lineno, tokens = header("alphabet")
    try:
        alphabet = Alphabet(tokens[1:])
    except ValueError as exc:
        raise DfaParseError(lineno, str(exc)) from None
    lineno, tokens = header("states")
    if len(tokens) != 2:
        raise DfaParseError(lineno, "states line takes exactly one count")
    state_count = want_int(tokens[1], lineno, "state count")
    if state_count < 1:
        raise DfaParseError(lineno, f"state count must be at least 1, got {state_count}")
    try:
        table = _undefined_table(state_count, len(alphabet))
    except ValueError as exc:
        raise DfaParseError(lineno, str(exc)) from None
    lineno, tokens = header("start")
    if len(tokens) != 2:
        raise DfaParseError(lineno, "start line takes exactly one state")
    start = want_int(tokens[1], lineno, "start state")
    if not 0 <= start < state_count:
        raise DfaParseError(lineno, f"start state {start} out of range 0..{state_count - 1}")
    lineno, tokens = header("accept")
    accepting = set()
    for tok in tokens[1:]:
        q = want_int(tok, lineno, "accepting state")
        if not 0 <= q < state_count:
            raise DfaParseError(lineno, f"accepting state {q} out of range 0..{state_count - 1}")
        accepting.add(q)

    k, column = len(alphabet), {sym: j for j, sym in enumerate(alphabet)}
    for lineno, raw in lines:
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 3:
            raise DfaParseError(lineno, f"transition line needs 'src symbol dst', got {len(tokens)} tokens")
        src, sym, dst = tokens
        try:
            src, dst = int(src), int(dst)
        except ValueError:  # want_int names the first end that is not an integer
            want_int(src, lineno, "source state")
            want_int(dst, lineno, "target state")
        j = column.get(sym)
        if j is None:
            raise DfaParseError(lineno, f"symbol {sym!r} not in alphabet")
        if not 0 <= src < state_count:
            raise DfaParseError(lineno, f"source state {src} out of range 0..{state_count - 1}")
        if not 0 <= dst < state_count:
            raise DfaParseError(lineno, f"target state {dst} out of range 0..{state_count - 1}")
        slot = src * k + j
        if table[slot] != -1:
            raise DfaParseError(lineno, f"duplicate transition for state {src} on symbol {sym!r}")
        table[slot] = dst
    return PartialDfa._derived(alphabet, state_count, start, accepting, table)


def render_dfa(dfa: PartialDfa) -> str:
    """Serialize to ``.pdfa`` text; a deterministic inverse of parse_dfa.

    Transitions are emitted sorted by (state, alphabet position), so two
    equal DFAs always render to identical bytes.
    """
    alphabet = dfa.alphabet
    k = len(alphabet)
    out = [f"alphabet {' '.join(alphabet)}\nstates {dfa.state_count}\nstart {dfa.start}\naccept"]
    for q in sorted(dfa.accepting):
        out.append(f" {q}")
    out.append("\n")
    for i, t in enumerate(dfa.table):
        if t >= 0:
            out.append(f"{i // k} {alphabet[i % k]} {t}\n")
    return "".join(out)


def render_dot(dfa: PartialDfa) -> str:
    """Graphviz rendering: doublecircle accepting states, arrow into start."""
    out = ["digraph pdfa {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(dfa.state_count):
        shape = "doublecircle" if q in dfa.accepting else "circle"
        out.append(f"  {q} [shape={shape}];")
    out.append(f"  __start -> {dfa.start};")
    alphabet, k = dfa.alphabet, len(dfa.alphabet)
    for i, t in enumerate(dfa.table):
        if t >= 0:
            label = alphabet[i % k].replace("\\", "\\\\").replace('"', '\\"')  # DOT's quoted-string escapes
            out.append(f'  {i // k} -> {t} [label="{label}"];')
    out.append("}")
    return "\n".join(out) + "\n"
