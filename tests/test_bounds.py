import hashlib
import json
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import pdfa.bounds
from pdfa import Alphabet, PartialDfa, parse_dfa, render_dfa
from pdfa.bounds import (
    CHECK_PARAMS,
    DEFAULT_SEED,
    BoundCheckReport,
    Relation,
    check_bound,
    complement_upper,
    intersection_upper,
    render_report_line,
    render_report_table,
    run_suite,
    sample_connected_dfa,
    sample_pairs,
    unary_union_upper,
    union_state_upper,
    union_symbol_upper,
    union_total_lower,
    union_total_upper,
)
from pdfa.witnesses import chain_star_witness, unary_cycle, unary_singleton


def test_union_symbol_upper_values():
    assert union_symbol_upper(1, 2, 2, 3) == 8
    assert union_symbol_upper(0, 0, 1, 1) == 0
    # Exhaustive identity check against the rearranged closed form.
    for s1 in range(1, 7):
        for s2 in range(1, 7):
            for t1 in range(s1 + 1):
                for t2 in range(s2 + 1):
                    v = union_symbol_upper(t1, t2, s1, s2)
                    assert v == t1 * s2 + t2 * s1 - t1 * t2 + t1 + t2
    # union-symbol-max's closed form is the maximal-k instance of it.
    for n1 in range(2, 12):
        for n2 in range(2, 12):
            assert union_symbol_upper(n1 - 1, n2 - 1, n1, n2) == n1 * n2 + n1 + n2 - 3


def test_union_symbol_upper_rejects_bad_counts():
    with pytest.raises(ValueError):
        union_symbol_upper(3, 1, 2, 2)
    with pytest.raises(ValueError):
        union_symbol_upper(-1, 1, 2, 2)


def test_closed_form_values():
    assert union_state_upper(2, 3) == 11
    assert union_state_upper(1, 1) == 3
    assert union_total_upper(3, 4) == 38
    assert union_total_lower(3, 4) == 18
    assert union_state_upper(0, 3) == 3  # also the conjectured tc bound, where 0 is a count
    assert unary_union_upper(3, 2) == 6
    assert intersection_upper(2, 3) == 6
    assert intersection_upper(4, 5) == 20
    assert complement_upper(2, 3) == 10


def test_union_polynomial_rejects_negative_counts():
    # the union's total bounds are the one polynomial, so they reject what it rejects
    for bound in (union_state_upper, union_total_upper, union_total_lower):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            bound(-1, 3)
        with pytest.raises(ValueError, match="counts must be non-negative"):
            bound(2, -1)


def test_unary_bound_guards_small_inputs():
    with pytest.raises(ValueError):
        unary_union_upper(1, 5)
    with pytest.raises(ValueError):
        unary_union_upper(5, 0)


def test_check_union_symbol_tight_example():
    rep = check_bound("union-symbol-tight", {"n1": 2, "n2": 3, "k1": 1, "k2": 2})
    assert rep.relation is Relation.EQUAL
    assert rep.formula_value == rep.measured_value == 8


def test_check_unknown_bound_lists_known_ones():
    with pytest.raises(ValueError) as exc:
        check_bound("no-such-bound")
    assert "union-symbol-tight" in str(exc.value)


def test_check_missing_parameter():
    with pytest.raises(ValueError) as exc:
        check_bound("union-symbol-tight", {"n1": 2})
    assert "n2" in str(exc.value)


def test_check_rejects_parameters_the_claim_does_not_take():
    with pytest.raises(ValueError) as exc:
        check_bound("intersection-tight", {"n1": 2, "n2": 3, "k1": 9, "m": 4})
    assert "k1, m" in str(exc.value)
    assert "n1, n2" in str(exc.value)  # and says what it does take
    with pytest.raises(ValueError) as exc:
        check_bound("union-total-upper", {"pairs": 5, "max_n": 4})
    assert "max_n" in str(exc.value)


@pytest.mark.parametrize("bound, params, shown", [
    ("intersection-tight", {"n1": 2.9, "n2": 3}, "'n1' must be an int, got 2.9"),
    ("union-total-upper", {"pairs": True}, "'pairs' must be an int, got True"),
    ("intersection-tight", {"n1": "5", "n2": 3}, "'n1' must be an int, got '5'"),
])
def test_check_rejects_a_parameter_that_is_not_an_int(bound, params, shown):
    """A float, a bool or a string is refused, not turned into an int."""
    with pytest.raises(ValueError, match=f"^parameter {shown}$"):
        check_bound(bound, params)


@pytest.mark.parametrize("params, message", [
    ({"max_n": 5.5}, "parameter 'max_n' must be an int, got 5.5"),
    ({"seed": "1"}, "parameter 'seed' must be an int, got '1'"),
    ({"pairs": True}, "parameter 'pairs' must be an int, got True"),
    ({"pairs": 0}, "need at least one pair, got 0"),
    ({"pairs": -3}, "need at least one pair, got -3"),
])
def test_run_suite_checks_its_parameters_before_any_row_runs(params, message, monkeypatch):
    rows = []
    monkeypatch.setattr(pdfa.bounds, "check_bound", lambda *args: rows.append(args))
    with pytest.raises(ValueError) as exc:
        run_suite(**params)
    assert str(exc.value) == message
    assert rows == []


def test_check_fills_defaults_from_the_claim_table():
    rep = check_bound("union-total-upper", {"pairs": 3})
    assert rep.params == {"pairs": 3, "seed": 12345, "max_states": 4}
    # kb1/kb2 default to n-1 of their own side
    rep = check_bound("union-multi-tight", {"n1": 3, "n2": 4})
    assert rep.params == {"n1": 3, "n2": 4, "ka1": 1, "kb1": 2, "ka2": 1, "kb2": 3}
    assert rep.relation is Relation.EQUAL


def test_check_params_are_every_rows_signature_in_first_use_order():
    assert " ".join(CHECK_PARAMS) == "n1 n2 k1 k2 ka1 kb1 ka2 kb2 n sigma m pairs seed max_states"


def test_tight_checks_reject_non_coprime_sizes():
    for bound in (
        "union-symbol-tight",
        "union-sc-tight",
        "union-total-tight",
        "intersection-tight",
    ):
        with pytest.raises(ValueError) as exc:
            check_bound(bound, {"n1": 4, "n2": 6})
        assert "gcd" in str(exc.value)


def test_unary_tight_requires_stated_range():
    with pytest.raises(ValueError):
        check_bound("unary-tight", {"n1": 2, "n2": 3})
    rep = check_bound("unary-tight", {"n1": 3, "n2": 2})
    assert rep.relation is Relation.EQUAL
    assert rep.measured_value == 6


def test_per_symbol_count_grows_without_bound_at_fixed_loop_count():
    """With one loop state on each side, larger coprime cycles push the
    shared-symbol count past any fixed target."""
    values = []
    for n1, n2 in [(2, 3), (3, 4), (4, 5), (5, 6)]:
        rep = check_bound("union-symbol-tight", {"n1": n1, "n2": n2, "k1": 1, "k2": 1})
        assert rep.relation is Relation.EQUAL
        assert rep.formula_value == n2 + n1 * 1 - 1 + 1 + 1 == n1 + n2 + 1
        values.append(rep.measured_value)
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_cycle_upper_equal_exactly_when_coprime():
    for n1 in range(2, 6):
        for n2 in range(n1, 6):
            rep = check_bound("union-cycle-upper", {"n1": n1, "n2": n2})
            assert rep.relation is not Relation.VIOLATION
            if math.gcd(n1, n2) == 1:
                assert rep.relation is Relation.EQUAL
            else:
                assert rep.relation is Relation.WITHIN_BOUND
                assert rep.measured_value < rep.formula_value


def test_exception_probe_flags_but_does_not_fail():
    for n, measured in [(2, 4), (3, 5)]:
        rep = check_bound("unary-exception", {"n": n})
        assert rep.relation is not Relation.VIOLATION
        assert rep.measured_value == measured
        assert rep.measured_value > n  # exceeds the product bound either way
        if rep.measured_value != rep.formula_value:
            assert "flagged" in rep.note


@pytest.mark.parametrize("n", [12, 40])
def test_exception_probe_rejects_n_past_the_oracles_reach_before_building(n, monkeypatch):
    def unbuilt(*_args, **_kwargs):
        raise AssertionError("built a machine")

    for name in ("unary_singleton", "unary_cycle", "union_product", "brute_min_transitions"):
        monkeypatch.setattr(pdfa.bounds, name, unbuilt)
    with pytest.raises(ValueError) as exc:
        check_bound("unary-exception", {"n": n})
    assert str(exc.value) == (
        "the exception probe certifies its tc with the brute-force oracle, whose unary "
        f"enumeration stops at 14 states, so n must be at most 11, got {n}"
    )


def test_conjecture_small_counterexample_trio():
    rep = check_bound("conjecture-small", {"m": 3})
    assert rep.relation is Relation.EQUAL
    assert rep.measured_value == 5
    assert rep.measured_value > union_state_upper(0, 3)
    assert "counterexample holds" in rep.note


def test_complement_tight_example():
    rep = check_bound("complement-tight", {"n": 3})
    assert rep.relation is Relation.EQUAL
    assert rep.formula_value == rep.measured_value == 10


def test_random_suites_are_deterministic():
    params = {"pairs": 20, "seed": 7}
    a = check_bound("union-total-upper", params)
    b = check_bound("union-total-upper", params)
    assert a == b
    c = check_bound("union-total-upper", {"pairs": 20, "seed": 8})
    assert c.params["seed"] == 8
    assert (c.measured_value, c.formula_value) != (a.measured_value, a.formula_value) or c != a


def test_sample_pairs_reproducible_and_shaped():
    one = sample_pairs(99, 30)
    two = sample_pairs(99, 30)
    assert one == two
    for a, b in one:
        assert a.alphabet == b.alphabet
        assert 1 <= a.state_count <= 4
        assert 1 <= b.state_count <= 4
    assert sample_pairs(100, 30) != one


def test_sample_pairs_can_force_incompleteness():
    for a, b in sample_pairs(5, 25, require_incomplete=True):
        assert not a.is_complete()
        assert not b.is_complete()


# SHA-256 of the rendered pairs of three samples: a sampler that draws
# other numbers from the seeded stream fails here, not only in the reports.
SAMPLE_DIGESTS = [
    ((DEFAULT_SEED, 200), {}, "0f7fceed8744617d02e621e9dd0e108b2f65bb522c374de1af6f49c445aa08db"),
    ((DEFAULT_SEED, 200), {"require_incomplete": True},
     "9e1ec7ffe3f4ca08391a13a3710541a68bf34056bedb7dd6f408766e8e88da28"),
    ((5, 40), {"max_states": 6}, "9567169911217df052a3fbb419e06afcf8d8eb318bfae9e45ee118404d56a767"),
]


@pytest.mark.parametrize("args, kwargs, digest", SAMPLE_DIGESTS)
def test_sample_pairs_draws_are_pinned(args, kwargs, digest):
    text = "".join(render_dfa(a) + render_dfa(b) for a, b in sample_pairs(*args, **kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("state_count", [0, -1])
def test_sample_connected_dfa_rejects_fewer_than_one_state(state_count):
    rng = random.Random(1)
    with pytest.raises(ValueError, match=rf"^a connected DFA needs at least one state, got {state_count}$"):
        sample_connected_dfa(rng, state_count, Alphabet("ab"))
    assert rng.getstate() == random.Random(1).getstate()  # rejected before drawing


@pytest.mark.parametrize("draw, name", [
    (lambda value: sample_pairs(1, value, 3), "count"),
    (lambda value: sample_pairs(1, 3, value), "max_states"),
    (lambda value: sample_connected_dfa(random.Random(1), value, Alphabet("ab")), "state_count"),
], ids=["count", "max_states", "state_count"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["float", "integral-float", "bool", "str"])
def test_a_sample_size_that_is_not_an_int_is_a_value_error_naming_it(draw, name, value):
    """Not a TypeError or AttributeError from the draw, and a bool does not run as 1."""
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        draw(value)


@pytest.mark.parametrize("max_states", [0, -1, 11, 40])
def test_sample_pairs_rejects_max_states_out_of_range(max_states):
    with pytest.raises(ValueError, match=rf"^random pairs take max_states in 1\.\.10, got {max_states}$"):
        sample_pairs(1, 3, max_states=max_states)


def test_run_suite_draws_each_sample_once(monkeypatch):
    calls = []
    draw = pdfa.bounds.sample_pairs

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(pdfa.bounds, "sample_pairs", counted)
    first = run_suite(max_n=3, pairs=5)
    assert len(calls) == 2  # one sample for five rows, one with require_incomplete
    assert run_suite(max_n=3, pairs=5) == first
    assert len(calls) == 4  # nothing is kept between runs
    # a direct check draws its own sample every time
    params = {"pairs": 5, "seed": 1}
    check_bound("union-total-upper", params)
    check_bound("union-total-upper", params)
    assert len(calls) == 6


def test_run_suite_measures_each_sampled_machine_once(monkeypatch):
    operands, measured = [], []  # each holds its machines, so no id is reused
    results = {}  # id of a built result -> (the result, (operation, *operands))
    draw, measure = pdfa.bounds.sample_pairs, pdfa.bounds.minimize

    def drawn(*args):
        sample = draw(*args)
        operands.extend(sample)
        return sample

    def counted(dfa, *args):
        measured.append(dfa)
        return measure(dfa, *args)

    for name in ("union_product", "intersection_product", "complement"):
        def built(*args, _name=name, _build=getattr(pdfa.bounds, name)):
            result = _build(*args)
            results[id(result)] = (result, (_name, *args))
            return result

        monkeypatch.setattr(pdfa.bounds, name, built)
    monkeypatch.setattr(pdfa.bounds, "sample_pairs", drawn)
    # complexity() minimizes through pdfa.minimize's own name
    monkeypatch.setattr(pdfa.bounds, "minimize", counted)
    monkeypatch.setattr(sys.modules["pdfa.minimize"], "minimize", counted)
    run_suite(max_n=3, pairs=40)
    assert len(operands) == 80
    assert len(set(operands)) < 80  # some pairs are drawn twice
    times = Counter(id(dfa) for dfa in measured)
    assert max(times[id(dfa)] for pair in operands for dfa in pair) == 1
    # union-total-upper and union-symbol-sound share each pair's union
    times = Counter(tuple(map(id, args)) for _result, (op, *args) in results.values()
                    if op == "union_product")
    assert max(times[id(a), id(b)] for a, b in operands) == 1
    # each (operation, operands) is minimized at most once, equal samples included;
    # intersection-construction-exact counts its raw product without minimizing it
    times = Counter(results[id(dfa)][1] for dfa in measured if id(dfa) in results)
    assert {op for op, *_operands in times} == {"union_product", "intersection_product", "complement"}
    assert max(times.values()) == 1


def test_run_suite_measures_each_witness_product_once(monkeypatch):
    products, measured = [], []  # each holds its machines, so no id is reused
    for name in ("union_product", "intersection_product", "complement"):
        def built(*args, _build=getattr(pdfa.bounds, name)):
            products.append(_build(*args))
            return products[-1]

        monkeypatch.setattr(pdfa.bounds, name, built)
    measure = pdfa.bounds.complexity

    def counted(dfa):
        measured.append(dfa)
        return measure(dfa)

    monkeypatch.setattr(pdfa.bounds, "complexity", counted)
    run_suite(max_n=5, pairs=1)
    # witness premises are measured again in each group that takes them: count products only
    built_ids = {id(dfa) for dfa in products}
    times = Counter(dfa for dfa in measured if id(dfa) in built_ids)
    assert times
    # the unary rows measure equal products for (n1, n2) and (n2, n1); no other row repeats
    assert [dfa for dfa, n in times.items() if n > 1 and len(dfa.alphabet) > 1] == []


@pytest.mark.parametrize("seed", [0, 7])
def test_run_suite_reports_equal_their_rows_run_alone(seed):
    reports = run_suite(max_n=5, pairs=20, seed=seed)
    assert len(reports) == 91
    for report in reports:
        assert check_bound(report.bound_id, report.params) == report


def test_run_suite_store_never_holds_two_products_or_two_samples(monkeypatch):
    kept = pdfa.bounds._kept
    stores = []  # the store's keys after each row's request

    def watched(key, compute):
        value = kept(key, compute)
        stores.append(set(pdfa.bounds._shared.get()))
        return value

    monkeypatch.setattr(pdfa.bounds, "_kept", watched)
    run_suite(max_n=5, pairs=5)
    # a product's key is ("symbol", ...) or ("total", ...), a sample's its draw's
    # arguments; a sample's operands are keyed by machine and their results by
    # operands, then operation
    drawn = [{key for key in keys if isinstance(key, tuple) and not isinstance(key[0], PartialDfa)}
             for keys in stores]
    assert all(len(roots) == 1 for roots in drawn)
    products = [keys for keys, roots in zip(stores, drawn) if isinstance(next(iter(roots))[0], str)]
    assert all(len(keys) == 1 for keys in products)  # no operand outlives its sample
    kinds = Counter(key[0] if isinstance(key[0], str) else "sample" for key in set().union(*drawn))
    assert kinds["symbol"] > 1 and kinds["total"] > 1 and kinds["sample"] == 2


def test_run_suite_drops_its_store_when_it_returns_or_raises(monkeypatch):
    stores = []
    draw = pdfa.bounds.sample_pairs

    def drawn(*args):
        stores.append(pdfa.bounds._shared.get())
        return draw(*args)

    monkeypatch.setattr(pdfa.bounds, "sample_pairs", drawn)
    run_suite(max_n=3, pairs=5)
    assert stores[0] is not None
    assert pdfa.bounds._shared.get() is None

    def failing(*_counts):
        raise RuntimeError("row failed")

    # union-total-upper's closed form: it raises once the store holds the sample
    monkeypatch.setattr(pdfa.bounds, "union_total_upper", failing)
    with pytest.raises(RuntimeError, match="row failed"):
        run_suite(max_n=3, pairs=5)
    assert pdfa.bounds._shared.get() is None


def test_construction_exactness_suite_is_clean():
    rep = check_bound("union-construction-exact", {"pairs": 40, "seed": 3})
    assert rep.relation is not Relation.VIOLATION
    assert "violations=0" in rep.note


def test_report_line_format():
    rep = check_bound("intersection-tight", {"n1": 2, "n2": 3})
    line = render_report_line(rep)
    assert line == "intersection-tight n1=2 n2=3 formula=6 measured=6 verdict=EQUAL"


def test_report_table_has_summary_and_notes():
    reports = [
        check_bound("intersection-tight", {"n1": 2, "n2": 3}),
        check_bound("unary-exception", {"n": 2}),
    ]
    table = render_report_table(reports)
    assert "BOUND" in table.splitlines()[0]
    assert "2 checks:" in table
    assert "note [" in table  # the flagged exception probe explains itself


def test_report_note_is_first_detail_line():
    rep = BoundCheckReport(
        "union-total-upper", {}, 1, 1, Relation.EQUAL, details="top\nrest"
    )
    assert rep.note == "top"
    assert BoundCheckReport(
        "union-total-upper", {}, 1, 1, Relation.EQUAL
    ).note == ""


def test_clean_equal_check_has_no_details():
    rep = check_bound("union-symbol-tight", {"n1": 2, "n2": 3})
    assert (rep.relation, rep.note, rep.details) == (Relation.EQUAL, "", "")


@pytest.mark.parametrize("bound_id, params, relation", [
    ("union-cycle-upper", {"n1": 2, "n2": 4}, Relation.WITHIN_BOUND),
    ("conjecture-small", {"m": 2}, Relation.EQUAL),
    ("complement-tight", {"n": 3}, Relation.VIOLATION),
])
def test_flagged_check_renders_the_machines_it_measured(bound_id, params, relation, monkeypatch):
    if relation is Relation.VIOLATION:
        # a complement that returns the singleton itself: tc 3 against the bound 10
        monkeypatch.setattr(pdfa.bounds, "complement", lambda dfa: dfa)
    measured = []
    complexity = pdfa.bounds.complexity

    def kept(dfa):
        measured.append(complexity(dfa))
        return measured[-1]

    monkeypatch.setattr(pdfa.bounds, "complexity", kept)
    rep = check_bound(bound_id, params)
    assert rep.relation is relation
    assert (rep.note != "") == (relation is Relation.EQUAL)  # flagged by its note or its verdict
    note, rest = rep.details.split("\n", 1)
    assert note == rep.note
    renderings = re.split(r"(?m)^(?=alphabet )", rest)[1:]
    assert "".join(renderings) == rest
    # the witnesses' premises are measured first; the result last, and only it is rendered
    assert measured != [] and measured[-1].tc == rep.measured_value
    assert [parse_dfa(text) for text in renderings] == [measured[-1].minimal]


@pytest.mark.parametrize("bound_id, params, patches, verdict", [
    # a singleton one move too long: the complement meets the bound it predicts, but the premise fails
    ("complement-tight", {"n": 3},
     {"unary_singleton": lambda n, alphabet: unary_singleton(n + 1, alphabet=alphabet)},
     (12, 12, Relation.VIOLATION, "witness premise failed: tc of the singleton is 4, expected 3")),
    ("conjecture-small", {"m": 2},
     {"chain_star_witness": lambda m, alphabet: chain_star_witness(m + 1, alphabet=alphabet)},
     (4, 5, Relation.VIOLATION, "expected trio (0, 2, 4), measured (0, 3, 5)")),
    ("unary-exception", {"n": 2},
     {"brute_min_transitions": lambda dfa: SimpleNamespace(min_total=0)},
     (3, 4, Relation.VIOLATION, "minimizer (4) and brute-force oracle (0) disagree")),
    # (bb)* joined with itself: tc 2, not above the product bound
    ("unary-exception", {"n": 2},
     {"unary_singleton": lambda _n: unary_cycle(2)},
     (3, 2, Relation.VIOLATION, "union of b and (b^2)* did not exceed the product bound 2")),
    # {b} joined with {bbb}: a chain of tc 3 = n + 1
    ("unary-exception", {"n": 2},
     {"unary_cycle": lambda n: unary_singleton(n + 1)},
     (3, 3, Relation.EQUAL, "")),
], ids=["complement-premise", "conjecture-premise", "exception-oracle-disagrees",
        "exception-not-above-n", "exception-equal"])
def test_each_verdict_branch_of_a_witness_row(bound_id, params, patches, verdict, monkeypatch):
    for name, value in patches.items():
        monkeypatch.setattr(pdfa.bounds, name, value)
    rep = check_bound(bound_id, params)
    assert (rep.formula_value, rep.measured_value, rep.relation, rep.note) == verdict


# (measured, formula, bad) per sampled pair, and the pair that must be reported
@pytest.mark.parametrize("per_pair, worst, note", [
    # margins 1, 3, 3, 2: the first of the two largest is the second pair
    ([(11, 10, False), (13, 10, True), (23, 20, False), (12, 10, True)], 1,
     "pairs=4 violations=2; values are the worst pair's"),
    # every margin 0: the first pair
    ([(5, 5, False), (7, 7, False), (9, 9, False), (3, 3, False)], 0,
     "pairs=4 violations=0; values are the worst pair's"),
], ids=["largest-margin", "tie"])
def test_a_random_suite_reports_its_first_worst_pair(per_pair, worst, note, monkeypatch):
    monkeypatch.setattr(pdfa.bounds, "_CLAIMS", dict(pdfa.bounds._CLAIMS))
    outcomes = iter(per_pair)
    pdfa.bounds._suite("stub-suite", lambda _a, _b: next(outcomes))
    rep = check_bound("stub-suite", {"pairs": 4})
    measured, formula, _bad = per_pair[worst]
    assert (rep.formula_value, rep.measured_value, rep.note) == (formula, measured, note)
    a, b = sample_pairs(DEFAULT_SEED, 4)[worst]
    assert rep.details == f"{note}\n{render_dfa(a)}{render_dfa(b)}"


# direct checks off the suite's grid: each report's line, note and SHA-256 of its details
EMPTY = hashlib.sha256(b"").hexdigest()
COUNTEREXAMPLE_5 = ("counterexample holds: measured 7 exceeds the conjectured bound 5, "
                    "whose applicability needs tc >= 2 on both sides")


@pytest.mark.parametrize("bound_id, params, line, note, detail_lines, digest", [
    ("union-total-tight", {"n1": 5, "n2": 12},
     "union-total-tight n1=5 n2=12 formula=96 measured=96 verdict=EQUAL", "", 0, EMPTY),
    ("union-cycle-upper", {"n1": 6, "n2": 9},
     "union-cycle-upper n1=6 n2=9 formula=86 measured=40 verdict=WITHIN_BOUND", "", 45,
     "6726b95420d92440be8bdf2f3cddbe6ce49b37a500d7630ff6a43b22a393768a"),
    ("complement-tight", {"n": 4, "sigma": 3},
     "complement-tight n=4 sigma=3 formula=18 measured=18 verdict=EQUAL", "", 0, EMPTY),
    ("conjecture-small", {"m": 5},
     "conjecture-small m=5 formula=7 measured=7 verdict=EQUAL", COUNTEREXAMPLE_5, 12,
     "d4a4ed10701789ac6de0190e295e4ab38cde675f734c5a7598769f51c79537e3"),
    ("unary-tight", {"n1": 7, "n2": 4},
     "unary-tight n1=7 n2=4 formula=28 measured=28 verdict=EQUAL", "", 0, EMPTY),
    ("unary-tight", {"n1": 13, "n2": 2},
     "unary-tight n1=13 n2=2 formula=26 measured=26 verdict=EQUAL", "", 0, EMPTY),
], ids=["union-total-tight", "union-cycle-upper", "complement-tight", "conjecture-small",
        "unary-tight-7-4", "unary-tight-13-2"])
def test_a_witness_row_off_the_suite_grid_is_pinned(bound_id, params, line, note, detail_lines, digest):
    rep = check_bound(bound_id, params)
    assert (render_report_line(rep), rep.note) == (line, note)
    assert len(rep.details.splitlines()) == detail_lines
    assert hashlib.sha256(rep.details.encode()).hexdigest() == digest


def test_a_direct_sampled_check_rejects_no_pairs():
    with pytest.raises(ValueError) as exc:
        check_bound("union-total-upper", {"pairs": 0})
    assert str(exc.value) == "need at least one pair, got 0"


def test_only_flagged_reports_carry_renderings():
    reports = run_suite(5, 0, 20)
    flagged = [r for r in reports if r.relation is not Relation.EQUAL or r.note]
    assert [r for r in reports if r.details] == flagged
    assert (len(flagged), len(reports)) == (16, 91)
    assert all(r.details.split("\n", 1)[1].startswith("alphabet ") for r in flagged)


def test_full_size_report_matches_the_benchmark_pin():
    pins = json.loads((Path(__file__).parents[1] / "perfbench" / "pins.json").read_text())
    table = render_report_table(run_suite(11, 1, 1000))
    assert hashlib.sha256(table.encode()).hexdigest() == pins["bounds-suite"]["full"]["1"]


def test_run_suite_small_grid_has_no_violations():
    reports = run_suite(max_n=3, pairs=15)
    assert reports
    assert all(r.relation is not Relation.VIOLATION for r in reports)
    ids = {r.bound_id for r in reports}
    assert ids == set(pdfa.bounds._CLAIMS)  # every bound family gets exercised
    # Deterministic ordering and content on a rerun.
    assert run_suite(max_n=3, pairs=15) == reports


def test_run_suite_rejects_tiny_grid():
    with pytest.raises(ValueError):
        run_suite(max_n=2)
