"""Core value types and operations for incomplete (partial) DFAs.

A partial DFA keeps its transition function as a partial map: a missing
``(state, symbol)`` entry means the machine halts and rejects.  There is
no explicit dead state anywhere in this representation; completions and
products introduce one only when an operation demands it.

States are always ``0 .. state_count-1`` and the alphabet ordering is
significant -- it fixes traversal order for trimming, canonical
numbering, rendering and enumeration, so equal languages produce
byte-identical artifacts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class DfaParseError(ValueError):
    """Malformed ``.pdfa`` text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free tuple of single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        syms = tuple(self.symbols)
        object.__setattr__(self, "symbols", syms)
        if not syms:
            raise ValueError("alphabet must not be empty")
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


@dataclass(frozen=True)
class PartialDfa:
    """An incomplete DFA over ``alphabet``.

    ``transitions`` maps ``(state, symbol) -> state``; absent keys are
    undefined moves (immediate rejection).  Construction is permissive --
    out-of-range indices or unknown symbols are representable so that
    diagnostics can be produced by :func:`validate` instead of at
    construction time.  Everything is copied into immutable/owned
    containers, so instances are safe to share.
    """

    alphabet: Alphabet
    state_count: int
    start: int
    accepting: frozenset[int]
    transitions: Mapping[tuple[int, str], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "transitions", dict(self.transitions))

    def step(self, state: int, symbol: str) -> int | None:
        """Target of the ``symbol`` move from ``state``, or None if undefined."""
        return self.transitions.get((state, symbol))

    def is_complete(self) -> bool:
        return len(self.transitions) == self.state_count * len(self.alphabet)

    def states(self) -> range:
        return range(self.state_count)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class TransitionCounts:
    """Raw transition tallies of one DFA (not language complexities)."""

    total: int
    per_symbol: Mapping[str, int]


def validate(dfa: PartialDfa) -> ValidationReport:
    """Check structural well-formedness, reporting every violation found."""
    bad: list[str] = []
    n = dfa.state_count
    if n < 1:
        bad.append(f"state count must be at least 1, got {n}")
    if not 0 <= dfa.start < n:
        bad.append(f"start state {dfa.start} out of range 0..{n - 1}")
    for q in sorted(dfa.accepting):
        if not 0 <= q < n:
            bad.append(f"accepting state {q} out of range 0..{n - 1}")
    items = sorted(dfa.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    for (src, sym), dst in items:
        where = f"transition ({src}, {sym!r}) -> {dst}"
        if sym not in dfa.alphabet:
            bad.append(f"{where}: symbol not in alphabet")
        if not 0 <= src < n:
            bad.append(f"{where}: source out of range")
        if not 0 <= dst < n:
            bad.append(f"{where}: target out of range")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def accepts(dfa: PartialDfa, word: str) -> bool:
    """Run ``word`` from the start state; an undefined move rejects.

    Raises ValueError if the word uses a symbol outside the alphabet
    (checked up front, even past an undefined move).
    """
    for sym in word:
        if sym not in dfa.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    state = dfa.start
    for sym in word:
        nxt = dfa.transitions.get((state, sym))
        if nxt is None:
            return False
        state = nxt
    return state in dfa.accepting


def reachable(dfa: PartialDfa) -> frozenset[int]:
    """States reachable from the start via defined transitions (BFS)."""
    seen = {dfa.start}
    queue = deque([dfa.start])
    while queue:
        q = queue.popleft()
        for sym in dfa.alphabet:
            nxt = dfa.transitions.get((q, sym))
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def coaccessible(dfa: PartialDfa) -> frozenset[int]:
    """States from which some accepting state is reachable."""
    rev: dict[int, list[int]] = {}
    for (src, _sym), dst in dfa.transitions.items():
        rev.setdefault(dst, []).append(src)
    seen = set(q for q in dfa.accepting if 0 <= q < dfa.state_count)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for src in rev.get(q, ()):
            if src not in seen:
                seen.add(src)
                queue.append(src)
    return frozenset(seen)


def is_connected(dfa: PartialDfa) -> bool:
    """True when every state is reachable from the start state."""
    return len(reachable(dfa)) == dfa.state_count


def empty_language_dfa(alphabet: Alphabet) -> PartialDfa:
    """The canonical recognizer of the empty language: one bare state."""
    return PartialDfa(alphabet, 1, 0, frozenset(), {})


def _bfs_order(dfa: PartialDfa, keep: frozenset[int]) -> dict[int, int]:
    """Renumbering old->new by BFS from the start, restricted to ``keep``.

    Ties are broken by alphabet order, which makes the numbering (and
    thus every artifact derived from it) deterministic.
    """
    order = {dfa.start: 0}
    queue = deque([dfa.start])
    while queue:
        q = queue.popleft()
        for sym in dfa.alphabet:
            nxt = dfa.transitions.get((q, sym))
            if nxt is not None and nxt in keep and nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
    return order


def _renumbered(dfa: PartialDfa, keep: frozenset[int]) -> PartialDfa:
    order = _bfs_order(dfa, keep)
    transitions = {
        (order[src], sym): order[dst]
        for (src, sym), dst in dfa.transitions.items()
        if src in order and dst in order
    }
    accepting = frozenset(order[q] for q in dfa.accepting if q in order)
    return PartialDfa(dfa.alphabet, len(order), order[dfa.start], accepting, transitions)


def trim(dfa: PartialDfa) -> PartialDfa:
    """Restrict to reachable-and-coaccessible states, renumbered by BFS.

    If nothing useful survives (the language is empty) the canonical
    single-state empty recognizer is returned, so the empty language has
    exactly one trim form.
    """
    keep = reachable(dfa) & coaccessible(dfa)
    if dfa.start not in keep:
        return empty_language_dfa(dfa.alphabet)
    return _renumbered(dfa, keep)


def transition_counts(dfa: PartialDfa) -> TransitionCounts:
    """Count the defined transitions, in total and per symbol."""
    per = {sym: 0 for sym in dfa.alphabet}
    for (_src, sym) in dfa.transitions:
        per[sym] += 1
    return TransitionCounts(total=len(dfa.transitions), per_symbol=per)


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
    number and enforce well-formedness (so a parsed DFA always passes
    validation).
    """
    headers = ["alphabet", "states", "start", "accept"]
    stage = 0
    alphabet: Alphabet | None = None
    state_count = 0
    start = 0
    accepting: set[int] = set()
    transitions: dict[tuple[int, str], int] = {}

    def want_int(token: str, lineno: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise DfaParseError(lineno, f"{what} must be an integer, got {token!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if stage < 4:
            expected = headers[stage]
            if tokens[0] != expected:
                raise DfaParseError(lineno, f"expected {expected!r} line, got {tokens[0]!r}")
            if expected == "alphabet":
                try:
                    alphabet = Alphabet(tuple(tokens[1:]))
                except ValueError as exc:
                    raise DfaParseError(lineno, str(exc)) from None
            elif expected == "states":
                if len(tokens) != 2:
                    raise DfaParseError(lineno, "states line takes exactly one count")
                state_count = want_int(tokens[1], lineno, "state count")
                if state_count < 1:
                    raise DfaParseError(lineno, f"state count must be at least 1, got {state_count}")
            elif expected == "start":
                if len(tokens) != 2:
                    raise DfaParseError(lineno, "start line takes exactly one state")
                start = want_int(tokens[1], lineno, "start state")
                if not 0 <= start < state_count:
                    raise DfaParseError(lineno, f"start state {start} out of range 0..{state_count - 1}")
            else:
                for tok in tokens[1:]:
                    q = want_int(tok, lineno, "accepting state")
                    if not 0 <= q < state_count:
                        raise DfaParseError(lineno, f"accepting state {q} out of range 0..{state_count - 1}")
                    accepting.add(q)
            stage += 1
            continue
        # transition lines
        if len(tokens) != 3:
            raise DfaParseError(lineno, f"transition line needs 'src symbol dst', got {len(tokens)} tokens")
        src = want_int(tokens[0], lineno, "source state")
        sym = tokens[1]
        dst = want_int(tokens[2], lineno, "target state")
        assert alphabet is not None
        if sym not in alphabet:
            raise DfaParseError(lineno, f"symbol {sym!r} not in alphabet")
        if not 0 <= src < state_count:
            raise DfaParseError(lineno, f"source state {src} out of range 0..{state_count - 1}")
        if not 0 <= dst < state_count:
            raise DfaParseError(lineno, f"target state {dst} out of range 0..{state_count - 1}")
        if (src, sym) in transitions:
            raise DfaParseError(lineno, f"duplicate transition for state {src} on symbol {sym!r}")
        transitions[(src, sym)] = dst

    if stage < 4:
        # reported at the line after the input's last one, where the header was due
        raise DfaParseError(
            len(text.splitlines()) + 1, f"incomplete input: missing {headers[stage]!r} line"
        )
    assert alphabet is not None
    return PartialDfa(alphabet, state_count, start, frozenset(accepting), transitions)


def render_dfa(dfa: PartialDfa) -> str:
    """Serialize to ``.pdfa`` text; a deterministic inverse of parse_dfa.

    Transitions are emitted sorted by (state, alphabet position), so two
    equal DFAs always render to identical bytes.
    """
    lines = [
        "alphabet " + " ".join(dfa.alphabet),
        f"states {dfa.state_count}",
        f"start {dfa.start}",
        ("accept " + " ".join(str(q) for q in sorted(dfa.accepting))).rstrip(),
    ]
    items = sorted(dfa.transitions.items(), key=lambda kv: (kv[0][0], dfa.alphabet.index(kv[0][1])))
    for (src, sym), dst in items:
        lines.append(f"{src} {sym} {dst}")
    return "\n".join(lines) + "\n"


def render_dot(dfa: PartialDfa, name: str = "pdfa") -> str:
    """Graphviz rendering: doublecircle accepting states, arrow into start."""
    out = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(dfa.state_count):
        shape = "doublecircle" if q in dfa.accepting else "circle"
        out.append(f"  {q} [shape={shape}];")
    out.append(f"  __start -> {dfa.start};")
    items = sorted(dfa.transitions.items(), key=lambda kv: (kv[0][0], dfa.alphabet.index(kv[0][1])))
    for (src, sym), dst in items:
        out.append(f'  {src} -> {dst} [label="{sym}"];')
    out.append("}")
    return "\n".join(out) + "\n"
