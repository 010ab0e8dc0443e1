"""Closed-form bound evaluators and the measurement harness.

Each check is one row of a claim table run by ``check_bound``: it
constructs witness DFAs (or draws seeded random ones), builds the
Boolean-operation result, measures real complexities via minimization,
evaluates the closed-form bound, and classifies the outcome (a check
that is not EQUAL, or has a note, is flagged and renders its machines):

* ``EQUAL`` -- measured value matches the formula exactly;
* ``WITHIN_BOUND`` -- measured value is under an upper bound (or, for
  the unary-exception probe, differs from a disputed reference value,
  which is flagged in the note rather than failed);
* ``VIOLATION`` -- an upper bound is exceeded, or a claimed-tight
  equality does not hold.

Measured tc/sc values always come from the minimal DFA: a witness row
takes them from ``complexity()``, which also returns the machine it
renders (a row with a premise on its witnesses' tc takes them through
``_measured``), and a sampled row counts the moves of ``minimize``'s output.
Raw construction counts are only compared where the claim is about the
construction itself (the per-symbol union prediction and the
intersection product law).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

from .boolean import complement, intersection_product, union_product
from .core import Alphabet, PartialDfa, _bfs_order, _int, render_dfa, transition_counts
from .minimize import ComplexityReport, canonicalize, complexity, minimize
from .oracle import _ENUM_LIMITS, brute_min_transitions
from .witnesses import (
    chain_star_witness,
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_multi_witness,
    union_symbol_witness,
    union_total_witness,
)

DEFAULT_SEED = 12345
DEFAULT_PAIRS = 200
DEFAULT_MAX_STATES = 4
_SAMPLE_STATE_CAP = 10

_BC = Alphabet(("b", "c"))
_ABC = Alphabet(("a", "b", "c"))
_AB = Alphabet(("a", "b"))


# --- closed-form evaluators -------------------------------------------------

def union_symbol_upper(tb1: int, tb2: int, s1: int, s2: int) -> int:
    """Per-symbol union bound from the padded product construction.

    ``tbi`` = defined moves on the symbol, ``si`` = state count, in
    component i.  It is also the exact count of the constructed product
    when both components are incomplete; a complete component has no
    dead slot for the other side's undefined moves to land in, and the
    product then has fewer defined moves than this.
    """
    for tb, s, side in ((tb1, s1, 1), (tb2, s2, 2)):
        if not 0 <= tb <= s:
            raise ValueError(f"component {side}: need 0 <= per-symbol count <= states, got {tb} vs {s}")
    return tb1 * tb2 + tb1 * (1 + s2 - tb2) + tb2 * (1 + s1 - tb1)


def union_state_upper(n1: int, n2: int) -> int:
    """The union polynomial n1*n2 + n1 + n2: the state bound for the union, and the
    conjectured transition bound for it, which fails below tc 2 (conjecture-small)
    and at tc 2 too: the union of a*b and b*a (tc 2 each) measures tc 10 > 8."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"counts must be non-negative, got {n1}, {n2}")
    return n1 * n2 + n1 + n2


def union_total_upper(t1: int, t2: int) -> int:
    """General upper bound on tc of a union: 2*(t1*t2 + t1 + t2)."""
    return 2 * union_state_upper(t1, t2)


def union_total_lower(t1: int, t2: int) -> int:
    """Worst-case lower bound on tc of a union: t1*t2 + t1 + t2 - 1; also
    the upper bound when every cycle-symbol move is defined."""
    return union_state_upper(t1, t2) - 1


def unary_union_upper(t1: int, t2: int) -> int:
    """Unary union bound t1*t2; inapplicable below tc 2.

    The guard is not pedantry: the union of b (one transition) with
    (b^n)* costs strictly more than 1*n transitions, so the product
    form genuinely fails there.  Nor does it hold for every pair from tc 2
    on: the union of b(bb)* and {bb} (tc 2 each) measures tc 5 > 4.
    """
    if t1 < 2 or t2 < 2:
        raise ValueError(
            "the unary product bound needs both transition complexities >= 2 "
            f"(got {t1}, {t2}); e.g. the union of b with (b^n)* exceeds 1*n"
        )
    return t1 * t2


def intersection_upper(t1: int, t2: int) -> int:
    """Intersection bound t1*t2 (tight for coprime unary cycles); per
    symbol, the product construction meets it exactly."""
    return t1 * t2


def complement_upper(sigma_size: int, t: int) -> int:
    """Complement bound |alphabet|*(t+2)."""
    return sigma_size * (t + 2)


# --- reports ----------------------------------------------------------------

class Relation(Enum):
    EQUAL = "EQUAL"
    WITHIN_BOUND = "WITHIN_BOUND"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class BoundCheckReport:
    """One bound check: what was claimed, what was measured, verdict.

    ``details`` is free text; its first line is a short note (shown in
    tables).  Only a flagged check (not EQUAL, or with a note) has more:
    a rendering of each machine it measured.
    """

    bound_id: str
    params: Mapping[str, int]
    formula_value: int
    measured_value: int
    relation: Relation
    details: str = ""

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))

    @property
    def note(self) -> str:
        return self.details.splitlines()[0] if self.details else ""


def _label(report: BoundCheckReport) -> str:
    """``bound p=v ...``: the check's name in a report line and a table note."""
    return " ".join([report.bound_id, *(f"{k}={v}" for k, v in report.params.items())])


def render_report_line(report: BoundCheckReport) -> str:
    """Machine-readable one-liner: ``bound p=v ... formula=F measured=M verdict=V``."""
    return (
        f"{_label(report)} formula={report.formula_value} "
        f"measured={report.measured_value} verdict={report.relation.value}"
    )


def render_report_table(reports: Sequence[BoundCheckReport]) -> str:
    """Aligned table plus one trailing note line per flagged check."""
    rows = [("BOUND", "PARAMS", "FORMULA", "MEASURED", "VERDICT")]
    rows += [
        (
            *_label(r).partition(" ")[::2],  # the bound, then its parameters
            str(r.formula_value),
            str(r.measured_value),
            r.relation.value,
        )
        for r in reports
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    counts = Counter(r.relation for r in reports)
    lines.append(
        f"{len(reports)} checks: {counts[Relation.EQUAL]} equal, "
        f"{counts[Relation.WITHIN_BOUND]} within bound, {counts[Relation.VIOLATION]} violations"
    )
    for r in reports:
        if r.note:
            lines.append(f"note [{_label(r)}]: {r.note}")
    return "\n".join(lines) + "\n"


# --- seeded random sampling -------------------------------------------------

def sample_connected_dfa(
    rng: random.Random, state_count: int, alphabet: Alphabet, require_incomplete: bool = False
) -> PartialDfa:
    """One uniform canonical connected partial DFA with the given size.

    Draws a uniform labeled transition table (each slot undefined or any
    target) plus accepting set, rejects disconnected draws, and
    canonicalizes.  Connected deterministic automata have no nontrivial
    automorphisms, so every canonical form of a given state count is hit
    with equal probability.  Only an accepted draw becomes a PartialDfa.
    """
    _int("state_count", state_count)
    if state_count < 1:
        raise ValueError(f"a connected DFA needs at least one state, got {state_count}")
    n, k = state_count, len(alphabet)
    # each slot is rng.choice(range(-1, n)), inlined: the same words from the stream
    width, bit = (n + 1).bit_length(), rng.getrandbits
    while True:
        table = []
        for _ in range(n * k):
            r = bit(width)
            while r > n:
                r = bit(width)
            table.append(r - 1)
        # bit(1) is the top bit of a word, and bit(32 * n) takes n words, least significant
        # first: state q's bit(1) is this draw's bit 32*q + 31, read only for an accepted draw
        flags = bit(32 * n)
        if require_incomplete and -1 not in table:
            continue
        if len(_bfs_order(table, 0, k)) != n:
            continue
        accepting = [q for q in range(n) if flags >> (32 * q + 31) & 1]
        return canonicalize(PartialDfa(alphabet, n, 0, accepting, table))


def sample_pairs(
    seed: int,
    count: int,
    max_states: int = DEFAULT_MAX_STATES,
    require_incomplete: bool = False,
) -> list[tuple[PartialDfa, PartialDfa]]:
    """Seeded list of same-alphabet DFA pairs over 1-3 symbols."""
    _int("count", count)
    _int("max_states", max_states)
    if not 1 <= max_states <= _SAMPLE_STATE_CAP:
        # a uniform draw is connected ever more rarely: 1 in ~6,500 for unary at 10 states
        raise ValueError(f"random pairs take max_states in 1..{_SAMPLE_STATE_CAP}, got {max_states}")
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        alphabet = Alphabet("abc"[: rng.randrange(1, 4)])
        a = sample_connected_dfa(rng, rng.randrange(1, max_states + 1), alphabet, require_incomplete)
        b = sample_connected_dfa(rng, rng.randrange(1, max_states + 1), alphabet, require_incomplete)
        pairs.append((a, b))
    return pairs


# --- the claim table --------------------------------------------------------

Outcome = tuple[int, int, Relation, str, Sequence[PartialDfa]]

# row name -> (body, the body's parameters, whether n1 and n2 must be coprime), in registration order
_CLAIMS: dict[str, tuple[Callable[..., Outcome], Mapping[str, inspect.Parameter], bool]] = {}


def _claim(bound_id: str, coprime: bool = False):
    """Register the decorated body as ``bound_id``'s row of the claim table.

    The body's signature lists the row's parameters in report order: one
    without a default is required, and a callable default computes the
    value from the parameters before it.  check_bound calls the body with
    them as keyword arguments; it returns (formula, measured, relation,
    note, machines to render).
    """

    def register(body):
        _CLAIMS[bound_id] = (body, inspect.signature(body).parameters, coprime)
        return body

    return register


def _relation(measured: int, formula: int, tight: bool = True, failed: bool = False) -> Relation:
    """EQUAL on a match; otherwise VIOLATION when a premise failed, the
    claim is an equality (``tight``), or an upper bound is exceeded."""
    if failed:
        return Relation.VIOLATION
    if measured == formula:
        return Relation.EQUAL
    return Relation.VIOLATION if tight or measured > formula else Relation.WITHIN_BOUND


# What the rows of one run_suite group share: one witness product, or one
# sample with the counts of its operands and their results.  None outside a
# group, where each check computes everything afresh.  Keys are values, never
# identities, so an entry is right wherever it is found.
_shared: ContextVar[dict | None] = ContextVar("_shared", default=None)


def _kept(key, compute: Callable):
    """``compute()``, computed once per run_suite group."""
    store = _shared.get()
    if store is None:
        return compute()
    value = store.get(key)
    if value is None:
        value = store[key] = compute()
    return value


def _symbol_witness_union(n1: int, n2: int, k1: int, k2: int) -> ComplexityReport:
    """The measured union of two symbol witnesses; measured once for the rows
    of a group that take it (union-symbol-tight, -max and union-sc-tight)."""
    return _kept(("symbol", n1, n2, k1, k2), lambda: complexity(union_product(
        union_symbol_witness(n1, k1, alphabet=_BC), union_symbol_witness(n2, k2, alphabet=_BC))))


@_claim("union-symbol-tight", coprime=True)
def _union_symbol_tight(n1: int, n2: int, k1: int = 1, k2: int = 1) -> Outcome:
    r = _symbol_witness_union(n1, n2, k1, k2)
    formula = union_symbol_upper(k1, k2, n1, n2)
    return formula, r.tc_per_symbol["b"], _relation(r.tc_per_symbol["b"], formula), "", (r.minimal,)


@_claim("union-symbol-max", coprime=True)
def _union_symbol_max(n1: int, n2: int) -> Outcome:
    return _union_symbol_tight(n1, n2, n1 - 1, n2 - 1)  # n1*n2 + n1 + n2 - 3


@_claim("union-multi-tight", coprime=True)
def _union_multi_tight(n1: int, n2: int, ka1: int = 1, kb1=lambda p: max(1, p["n1"] - 1),
                       ka2: int = 1, kb2=lambda p: max(1, p["n2"] - 1)) -> Outcome:
    w1 = union_multi_witness(n1, {"a": ka1, "b": kb1}, alphabet=_ABC)
    w2 = union_multi_witness(n2, {"a": ka2, "b": kb2}, alphabet=_ABC)
    r = complexity(union_product(w1, w2))
    expected = {"a": union_symbol_upper(ka1, ka2, n1, n2), "b": union_symbol_upper(kb1, kb2, n1, n2)}
    mismatches = [sym for sym in expected if r.tc_per_symbol[sym] != expected[sym]]
    formula = sum(expected.values())
    measured = r.tc_per_symbol["a"] + r.tc_per_symbol["b"]
    note = f"per-symbol mismatch on {', '.join(mismatches)}" if mismatches else ""
    return formula, measured, _relation(measured, formula, failed=bool(mismatches)), note, (r.minimal,)


@_claim("union-sc-tight", coprime=True)
def _union_sc_tight(n1: int, n2: int, k1: int = 1, k2: int = 1) -> Outcome:
    r = _symbol_witness_union(n1, n2, k1, k2)
    formula = union_state_upper(n1, n2)
    return formula, r.sc, _relation(r.sc, formula), "", (r.minimal,)


def _measured(op: Callable[..., PartialDfa], *witnesses: PartialDfa) -> tuple[list[int], ComplexityReport]:
    """The tc of each witness, then the measured ``op`` of them: a row's premise and its result."""
    return [complexity(w).tc for w in witnesses], complexity(op(*witnesses))


def _union_total_pair(n1: int, n2: int) -> tuple[list[int], ComplexityReport]:
    """tc of both minimal-total witnesses, and the measured union; measured once
    for the rows of a group that take it (union-total-tight and union-cycle-upper)."""
    return _kept(("total", n1, n2), lambda: _measured(
        union_product, union_total_witness(n1, "a", "c", alphabet=_ABC),
        union_total_witness(n2, "b", "c", alphabet=_ABC)))


@_claim("union-total-tight", coprime=True)
def _union_total_tight(n1: int, n2: int) -> Outcome:
    (t1, t2), r = _union_total_pair(n1, n2)
    formula = union_total_lower(t1, t2)
    premise = (t1, t2) == (n1 + 1, n2 + 1)
    note = "" if premise else f"witness premise failed: tc inputs ({t1}, {t2}) != ({n1 + 1}, {n2 + 1})"
    return formula, r.tc, _relation(r.tc, formula, failed=not premise), note, (r.minimal,)


@_claim("union-cycle-upper")
def _union_cycle_upper(n1: int, n2: int) -> Outcome:
    (t1, t2), r = _union_total_pair(n1, n2)
    formula = union_total_lower(t1, t2)
    # an upper bound in general, claimed tight on coprime pairs
    coprime = math.gcd(n1, n2) == 1
    note = "coprime pair did not reach the bound claimed tight" if coprime and r.tc != formula else ""
    return formula, r.tc, _relation(r.tc, formula, tight=coprime), note, (r.minimal,)


@_claim("intersection-tight", coprime=True)
def _intersection_tight(n1: int, n2: int) -> Outcome:
    r = complexity(intersection_product(unary_cycle(n1), unary_cycle(n2)))
    formula = intersection_upper(n1, n2)
    return formula, r.tc, _relation(r.tc, formula), "", (r.minimal,)


@_claim("complement-tight")
def _complement_tight(n: int, sigma: int = 2) -> Outcome:
    if not 1 <= sigma <= 3:
        raise ValueError(f"sigma must be 1..3, got {sigma}")
    # the singleton's word is over b, so one symbol is {b}
    (t,), r = _measured(complement, unary_singleton(n, alphabet=("b", "ab", "abc")[sigma - 1]))
    formula = complement_upper(sigma, t)
    note = "" if t == n else f"witness premise failed: tc of the singleton is {t}, expected {n}"
    return formula, r.tc, _relation(r.tc, formula, failed=t != n), note, (r.minimal,)


@_claim("unary-tight", coprime=True)
def _unary_tight(n1: int, n2: int) -> Outcome:
    if n1 < 3 or n2 < 2:
        raise ValueError(
            f"the unary tightness claim is stated for n1 >= 3 and n2 >= 2, got ({n1}, {n2})"
        )
    (t1, t2), r = _measured(union_product, unary_cycle(n1), unary_cycle(n2))
    formula = unary_union_upper(t1, t2)
    return formula, r.tc, _relation(r.tc, formula), "", (r.minimal,)


@_claim("unary-exception")
def _unary_exception(n: int) -> Outcome:
    if n < 2:
        raise ValueError(f"the exception probe needs n >= 2, got {n}")
    limit = _ENUM_LIMITS[1]  # the oracle searches one state past the union's sc, n + 2
    if n > limit - 3:
        raise ValueError(
            "the exception probe certifies its tc with the brute-force oracle, whose unary "
            f"enumeration stops at {limit} states, so n must be at most {limit - 3}, got {n}"
        )
    r = complexity(union_product(unary_singleton(1), unary_cycle(n)))
    oracle = brute_min_transitions(r.minimal)
    reference = n + 1
    # not an upper bound: exceeding n is the claim, missing n+1 is only flagged
    if oracle.min_total != r.tc:
        relation = Relation.VIOLATION
        note = f"minimizer ({r.tc}) and brute-force oracle ({oracle.min_total}) disagree"
    elif r.tc <= n:
        relation = Relation.VIOLATION
        note = f"union of b and (b^{n})* did not exceed the product bound {n}"
    elif r.tc == reference:
        relation = Relation.EQUAL
        note = ""
    else:
        relation = Relation.WITHIN_BOUND
        note = (
            f"measured tc {r.tc} (oracle-certified) differs from the stated "
            f"reference value n+1 = {reference}; it does exceed the product bound {n} "
            "as claimed -- flagged, not failed"
        )
    return reference, r.tc, relation, note, (r.minimal,)


@_claim("conjecture-small")
def _conjecture_small(m: int) -> Outcome:
    (t_eps, t_chain), r = _measured(union_product, epsilon_lang(alphabet=_AB),
                                    chain_star_witness(m, alphabet=_AB))
    expected = m + 2 if m >= 2 else 1  # m = 1: a* union {eps} is just a*
    conjectured = union_state_upper(t_eps, t_chain)
    premise = t_eps == 0 and t_chain == m
    if not premise or r.tc != expected:
        note = f"expected trio (0, {m}, {expected}), measured ({t_eps}, {t_chain}, {r.tc})"
    elif r.tc > conjectured:
        note = (
            f"counterexample holds: measured {r.tc} exceeds the conjectured "
            f"bound {conjectured}, whose applicability needs tc >= 2 on both sides"
        )
    else:
        note = f"conjectured bound {conjectured} not exceeded at m={m}"
    return expected, r.tc, _relation(r.tc, expected, failed=not premise), note, (r.minimal,)


# --- seeded random suites ---------------------------------------------------

def _random_suite(per_pair: Callable, require_incomplete: bool, pairs: int = DEFAULT_PAIRS,
                  seed: int = DEFAULT_SEED, max_states: int = DEFAULT_MAX_STATES) -> Outcome:
    """Shared driver for the seeded soundness/exactness suites over ``pairs`` pairs.

    The reported formula/measured values belong to the worst pair
    (largest measured - formula margin, the first one on a tie); the
    note carries the violation count, and that pair is rendered.
    """
    if pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs}")
    key = (seed, pairs, max_states, require_incomplete)
    checked = [(*per_pair(*pair), pair) for pair in _kept(key, lambda: sample_pairs(*key))]
    measured, formula, _bad, worst_pair = max(checked, key=lambda c: c[0] - c[1])
    violations = sum(c[2] for c in checked)
    note = f"pairs={pairs} violations={violations}; values are the worst pair's"
    relation = _relation(measured, formula, tight=False, failed=violations > 0)
    return formula, measured, relation, note, worst_pair


def _suite(bound_id: str, per_pair: Callable, require_incomplete: bool = False) -> None:
    """Register a random suite's row; ``per_pair(a, b)`` gives (measured, formula, bad)."""
    _claim(bound_id)(functools.partial(_random_suite, per_pair, require_incomplete))


def _construction(dfa: PartialDfa) -> tuple[int, tuple[int, ...]]:
    """State count and per-symbol move count of ``dfa`` itself."""
    return dfa.state_count, tuple(transition_counts(dfa).per_symbol.values())


def _operand(dfa: PartialDfa) -> tuple[int, tuple[int, ...]]:
    """sc of a sampled operand's language and its tc on each symbol, in
    alphabet order, computed once per group."""
    return _kept(dfa, lambda: _construction(minimize(dfa)))


def _result(op: Callable[..., PartialDfa], *operands: PartialDfa) -> tuple[int, ...]:
    """Per-symbol tc of ``op`` applied to sampled operands, computed once per group."""
    return _kept((*operands, op), lambda: _construction(minimize(op(*operands)))[1])


def _per_symbol(bound, exact: bool, a, b, got: tuple[int, ...]):
    """Compare ``got`` with ``bound`` symbol by symbol, summed over the alphabet.

    ``a`` and ``b`` are the operands' sizes and per-symbol counts, and
    ``got`` the result's counts, all in alphabet order; ``bound`` takes
    both operands' counts on one symbol and both sizes.  A pair is bad
    when a symbol exceeds its bound or, if ``exact``, misses it.
    """
    (sa, ta), (sb, tb) = a, b
    values = [(g, bound(x, y, sa, sb)) for g, x, y in zip(got, ta, tb)]
    bad = any(g != v if exact else g > v for g, v in values)
    return sum(g for g, _v in values), sum(v for _g, v in values), bad


def _union_total_upper_pair(a: PartialDfa, b: PartialDfa) -> tuple[int, int, bool]:
    formula = union_total_upper(sum(_operand(a)[1]), sum(_operand(b)[1]))
    measured = sum(_result(union_product, a, b))
    return measured, formula, measured > formula


def _intersection_upper_pair(a: PartialDfa, b: PartialDfa) -> tuple[int, int, bool]:
    ta, tb = _operand(a)[1], _operand(b)[1]
    measured = sum(_result(intersection_product, a, b))
    symbol_sum = sum(intersection_upper(x, y) for x, y in zip(ta, tb))
    formula = intersection_upper(sum(ta), sum(tb))
    # two layers: tc <= sum of per-symbol products <= t1*t2
    return measured, formula, measured > symbol_sum or symbol_sum > formula


def _complement_upper_pair(a: PartialDfa, _b: PartialDfa) -> tuple[int, int, bool]:
    formula = complement_upper(len(a.alphabet), sum(_operand(a)[1]))
    measured = sum(_result(complement, a))
    return measured, formula, measured > formula


_suite("union-total-upper", _union_total_upper_pair)
_suite("union-symbol-sound", lambda a, b: _per_symbol(
    union_symbol_upper, False, _operand(a), _operand(b), _result(union_product, a, b)))
# the union construction's count is exact only with a dead slot on both sides
_suite("union-construction-exact", lambda a, b: _per_symbol(
    union_symbol_upper, True, _construction(a), _construction(b),
    _construction(union_product(a, b))[1]), require_incomplete=True)
_suite("intersection-upper", _intersection_upper_pair)
_suite("intersection-construction-exact", lambda a, b: _per_symbol(
    lambda t1, t2, *_sizes: intersection_upper(t1, t2), True, _construction(a), _construction(b),
    _construction(intersection_product(a, b))[1]))
_suite("complement-upper", _complement_upper_pair)


# every parameter some check takes, in first-use order (the CLI's flags)
CHECK_PARAMS = tuple(dict.fromkeys(name for _body, params, _coprime in _CLAIMS.values() for name in params))


def _int_param(name: str, value: object) -> int:
    """``value`` itself if it is an int and not a bool, else the ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"parameter {name!r} must be an int, got {value!r}")
    return value


def check_bound(bound_id: str, params: Mapping[str, int] | None = None) -> BoundCheckReport:
    """Run one bound check; see the module docstring for verdict semantics.

    Raises ValueError for an unknown bound, a parameter the check does
    not take, a missing required one, or non-coprime n1, n2 where the
    claim needs them coprime.
    """
    if bound_id not in _CLAIMS:
        raise ValueError(f"unknown bound {bound_id!r}; known bounds: {', '.join(_CLAIMS)}")
    body, signature, coprime = _CLAIMS[bound_id]
    given = dict(params or {})
    unknown = [name for name in given if name not in signature]
    if unknown:
        raise ValueError(
            f"{bound_id} does not take {', '.join(unknown)}; it takes {', '.join(signature)}"
        )
    p: dict[str, int] = {}
    for name, param in signature.items():
        if name in given:
            p[name] = _int_param(name, given[name])
        elif param.default is param.empty:
            raise ValueError(f"missing required parameter {name!r}")
        else:
            p[name] = param.default(p) if callable(param.default) else param.default
    g = math.gcd(p["n1"], p["n2"]) if coprime else 1
    if g != 1:
        raise ValueError(
            f"this tightness claim requires relatively prime cycle lengths; gcd({p['n1']}, {p['n2']}) = {g}"
        )
    formula, measured, relation, note, machines = body(**p)
    flagged = relation is not Relation.EQUAL or note  # no one reads a clean check's machines
    details = note + "\n" + "".join(render_dfa(m) for m in machines) if flagged else ""
    return BoundCheckReport(bound_id, p, formula, measured, relation, details=details)


def run_suite(
    max_n: int = 5, seed: int = DEFAULT_SEED, pairs: int = DEFAULT_PAIRS
) -> list[BoundCheckReport]:
    """The whole tightness + soundness suite, in deterministic order.

    The plan is a sequence of groups, each the rows that measure one
    witness product or one seeded sample; a group's rows share one store
    (``_kept``), dropped when the group ends.
    """
    for name, value in (("max_n", max_n), ("seed", seed), ("pairs", pairs)):
        _int_param(name, value)
    if max_n < 3:
        raise ValueError(f"need max_n >= 3 to instantiate the tight families, got {max_n}")
    if pairs < 1:  # checked before any row runs, not when the sampled rows come
        raise ValueError(f"need at least one pair, got {pairs}")
    sizes = range(2, max_n + 1)
    grid = [(n1, n2) for n1 in sizes for n2 in sizes if n1 < n2 and math.gcd(n1, n2) == 1]

    def witness_groups(n1: int, n2: int):
        pair = {"n1": n1, "n2": n2}
        for k1 in range(1, n1):
            for k2 in range(1, n2):
                group = [("union-symbol-tight", {**pair, "k1": k1, "k2": k2})]
                if k1 == k2 == 1:
                    group.append(("union-sc-tight", pair))
                if (k1, k2) == (n1 - 1, n2 - 1):
                    group.append(("union-symbol-max", pair))
                yield group
        yield [("union-multi-tight", pair)]
        yield [("union-total-tight", pair), ("union-cycle-upper", pair)]
        yield [("intersection-tight", pair)]

    sample = {"pairs": pairs, "seed": seed}
    plan = itertools.chain(
        (group for n1, n2 in grid for group in witness_groups(n1, n2)),
        ([("union-cycle-upper", {"n1": n1, "n2": n2})]
         for n1 in sizes for n2 in sizes if n1 <= n2 and (n1, n2) not in grid),
        ([("unary-tight", {"n1": n1, "n2": n2})]
         for n1 in sizes for n2 in sizes if n1 >= 3 and n2 != n1 and math.gcd(n1, n2) == 1),
        ([("unary-exception", {"n": n})] for n in (2, 3)),
        ([("complement-tight", {"n": n})] for n in range(1, max_n + 1)),
        ([("conjecture-small", {"m": m})] for m in (1, 2, 3)),
        [[(bound_id, sample) for bound_id in ("union-total-upper", "union-symbol-sound",
          "intersection-upper", "intersection-construction-exact", "complement-upper")],
         [("union-construction-exact", sample)]],  # its sample keeps only incomplete draws
    )
    reports = []
    for group in plan:
        token = _shared.set({})
        try:
            reports += [check_bound(bound_id, params) for bound_id, params in group]
        finally:
            _shared.reset(token)
    reports.sort(key=lambda r: (r.bound_id, tuple(sorted(r.params.items()))))
    return reports
