"""Acceptance gate: every headline claim, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> <name>: PASS`` (or FAIL) through the
capture-disabled channel so the verdicts are visible in a normal pytest
run.  Values come from the minimizer and, where stated, are
cross-checked against the brute-force enumeration oracle; expected
constants are frozen here on purpose -- they must never drift.
"""

import math
import time
from contextlib import contextmanager

import pytest

from pdfa import (
    Alphabet,
    complement,
    complexity,
    equivalent,
    intersection_product,
    minimize,
    transition_counts,
    union_product,
)
from pdfa.bounds import (
    DEFAULT_SEED,
    Relation,
    check_bound,
    sample_pairs,
    union_symbol_upper,
)
from pdfa.oracle import brute_min_transitions, verify_lemma1
from pdfa.witnesses import (
    chain_star_witness,
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_symbol_witness,
    union_total_witness,
)

_AB = Alphabet("ab")
_BC = Alphabet("bc")
_ABC = Alphabet("abc")

COPRIME_GRID = [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5)]


@pytest.fixture
def announce(capsys):
    @contextmanager
    def criterion(num, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {num:>2} {name}: FAIL")
            raise
        else:
            with capsys.disabled():
                print(f"ACCEPTANCE {num:>2} {name}: PASS")

    return criterion


def test_01_per_symbol_union_tightness(announce):
    with announce(1, "per-symbol union count tight on coprime cycle pairs"):
        for n1, n2 in COPRIME_GRID:
            for k1 in range(1, n1):
                for k2 in range(1, n2):
                    rep = check_bound(
                        "union-symbol-tight",
                        {"n1": n1, "n2": n2, "k1": k1, "k2": k2},
                    )
                    assert rep.relation is Relation.EQUAL, rep
                    assert rep.formula_value == (
                        k1 * n2 + k2 * n1 - k1 * k2 + k1 + k2
                    )
        spot = check_bound(
            "union-symbol-tight", {"n1": 2, "n2": 3, "k1": 1, "k2": 2}
        )
        assert spot.measured_value == 8


def test_02_maximal_loop_instances(announce):
    with announce(2, "maximal-loop per-symbol count reaches n1*n2+n1+n2-3"):
        for (n1, n2), expected in [((2, 3), 8), ((3, 4), 16), ((4, 5), 26)]:
            rep = check_bound("union-symbol-max", {"n1": n1, "n2": n2})
            assert rep.relation is Relation.EQUAL, rep
            assert rep.formula_value == rep.measured_value == expected
            assert expected == n1 * n2 + n1 + n2 - 3


def test_03_union_state_complexity_tight(announce):
    with announce(3, "union state complexity reaches n1*n2+n1+n2"):
        for n1, n2 in COPRIME_GRID:
            rep = check_bound("union-sc-tight", {"n1": n1, "n2": n2})
            assert rep.relation is Relation.EQUAL, rep
            assert rep.measured_value == n1 * n2 + n1 + n2
        spot = check_bound("union-sc-tight", {"n1": 2, "n2": 3})
        assert spot.measured_value == 11


def test_04_minimal_total_witnesses_reach_lower_bound(announce):
    with announce(4, "minimal-total witness pair reaches t1*t2+t1+t2-1"):
        for n1, n2 in [(2, 3), (3, 4)]:
            w1 = union_total_witness(n1, "a", "c", alphabet=_ABC)
            w2 = union_total_witness(n2, "b", "c", alphabet=_ABC)
            t1, t2 = complexity(w1).tc, complexity(w2).tc
            assert (t1, t2) == (n1 + 1, n2 + 1)
            measured = complexity(union_product(w1, w2)).tc
            assert measured == t1 * t2 + t1 + t2 - 1
            rep = check_bound("union-total-tight", {"n1": n1, "n2": n2})
            assert rep.relation is Relation.EQUAL, rep
        assert complexity(
            union_product(
                union_total_witness(2, "a", "c", alphabet=_ABC),
                union_total_witness(3, "b", "c", alphabet=_ABC),
            )
        ).tc == 18


def _criterion_witness_pairs():
    """The witness pairs exercised by criteria 1-4, all incomplete."""
    pairs = []
    for n1, n2 in COPRIME_GRID:
        for k1 in range(1, n1):
            for k2 in range(1, n2):
                pairs.append(
                    (
                        union_symbol_witness(n1, k1, alphabet=_BC),
                        union_symbol_witness(n2, k2, alphabet=_BC),
                    )
                )
    for n1, n2 in [(2, 3), (3, 4)]:
        pairs.append(
            (
                union_total_witness(n1, "a", "c", alphabet=_ABC),
                union_total_witness(n2, "b", "c", alphabet=_ABC),
            )
        )
    return pairs


def test_05_construction_counts_predicted_exactly(announce):
    with announce(5, "union construction hits the predicted per-symbol counts"):
        for a, b in _criterion_witness_pairs():
            assert not a.is_complete() and not b.is_complete()
            got = transition_counts(union_product(a, b)).per_symbol
            ca = transition_counts(a).per_symbol
            cb = transition_counts(b).per_symbol
            for sym in a.alphabet:
                assert got[sym] == union_symbol_upper(
                    ca[sym], cb[sym], a.state_count, b.state_count
                )
        rep = check_bound(
            "union-construction-exact", {"pairs": 200, "seed": DEFAULT_SEED}
        )
        assert rep.relation is not Relation.VIOLATION, rep
        assert "violations=0" in rep.note


def test_06_union_total_soundness_on_random_sample(announce):
    with announce(6, "union total count stays under 2*(t1*t2+t1+t2) on 200 pairs"):
        start = time.perf_counter()
        rep = check_bound(
            "union-total-upper", {"pairs": 200, "seed": DEFAULT_SEED}
        )
        assert rep.relation is not Relation.VIOLATION, rep
        assert "violations=0" in rep.note
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"soundness sample took {elapsed:.1f}s"


def test_07_complete_cycle_union_bound(announce):
    with announce(7, "cycle-complete union bound met, equality exactly when coprime"):
        for n1 in range(2, 6):
            for n2 in range(n1, 6):
                rep = check_bound("union-cycle-upper", {"n1": n1, "n2": n2})
                assert rep.relation is not Relation.VIOLATION, rep
                if math.gcd(n1, n2) == 1:
                    assert rep.relation is Relation.EQUAL, rep
                else:
                    assert rep.measured_value < rep.formula_value, rep


def test_08_unary_union_tightness_with_oracle(announce):
    with announce(8, "unary union tc equals n1*n2, certified by the oracle"):
        for (n1, n2), expected in [((3, 2), 6), ((3, 4), 12), ((5, 2), 10)]:
            rep = check_bound("unary-tight", {"n1": n1, "n2": n2})
            assert rep.relation is Relation.EQUAL, rep
            assert rep.measured_value == expected
            m = minimize(union_product(unary_cycle(n1), unary_cycle(n2)))
            oracle = brute_min_transitions(m)
            assert oracle.min_total == expected
        # The one-transition exception: measured value beats the product
        # form, the oracle agrees with the minimizer, and any gap to the
        # stated reference n+1 is flagged rather than failed.
        for n, measured in [(2, 4), (3, 5)]:
            rep = check_bound("unary-exception", {"n": n})
            assert rep.relation is not Relation.VIOLATION, rep
            assert rep.measured_value == measured
            assert rep.measured_value > n
            if rep.measured_value != rep.formula_value:
                assert "flagged" in rep.note


def test_09_intersection_tightness_and_product_law(announce):
    with announce(9, "intersection tc: tight pair, exact product law, sound bound"):
        m = minimize(intersection_product(unary_cycle(2), unary_cycle(3)))
        assert transition_counts(m).total == 6
        assert equivalent(m, unary_cycle(6))
        exact = check_bound(
            "intersection-construction-exact",
            {"pairs": 200, "seed": DEFAULT_SEED},
        )
        assert exact.relation is not Relation.VIOLATION, exact
        assert "violations=0" in exact.note
        sound = check_bound(
            "intersection-upper", {"pairs": 200, "seed": DEFAULT_SEED}
        )
        assert sound.relation is not Relation.VIOLATION, sound
        assert "violations=0" in sound.note


def test_10_complement_counts_and_blowup(announce):
    with announce(10, "complement forces the padded table; one symbol blows up"):
        lang = unary_singleton(3, alphabet=_AB)
        rep_in = complexity(lang)
        assert rep_in.tc == 3
        assert rep_in.tc_per_symbol["a"] == 0
        comp = complement(lang)
        assert transition_counts(comp).total == 10
        rep_out = complexity(comp)
        assert rep_out.tc == 10 == len(_AB) * (rep_in.tc + 2)
        assert rep_out.tc_per_symbol["a"] == 5
        rep = check_bound("complement-tight", {"n": 3})
        assert rep.relation is Relation.EQUAL, rep
        # The a-count of the complement grows without bound in n even
        # though the input never uses the symbol at all.
        growth = [
            complexity(complement(unary_singleton(n, alphabet=_AB))).tc_per_symbol["a"]
            for n in range(3, 7)
        ]
        assert growth == [5, 6, 7, 8]


def test_11_conjecture_counterexample_trio(announce):
    with announce(11, "small-case trio beats the product-form conjecture"):
        eps = epsilon_lang(alphabet=_AB)
        chain = chain_star_witness(3, alphabet=_AB)
        assert complexity(eps).tc == 0
        assert complexity(chain).tc == 3
        measured = complexity(union_product(eps, chain)).tc
        assert measured == 5
        assert measured > 0 * 3 + 0 + 3  # the conjectured product form
        rep = check_bound("conjecture-small", {"m": 3})
        assert rep.relation is Relation.EQUAL, rep
        assert rep.measured_value == 5


def test_12_minimizer_certified_by_exhaustive_oracle(announce):
    with announce(12, "minimizer certified against exhaustive enumeration"):
        start = time.perf_counter()
        unary = verify_lemma1(5, Alphabet("b"))
        assert unary.ok, unary.counterexamples[:3]
        assert unary.counterexamples == ()
        binary = verify_lemma1(3, _AB)
        assert binary.ok, binary.counterexamples[:3]
        assert binary.counterexamples == ()
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"oracle sweeps took {elapsed:.1f}s"
        assert unary.languages > 0 and binary.languages > 0


def test_random_sample_is_the_agreed_shape():
    """The 200-pair sample: seeded, connected, <=4 states, <=3 symbols."""
    pairs = sample_pairs(DEFAULT_SEED, 200)
    assert len(pairs) == 200
    for a, b in pairs:
        assert a.alphabet == b.alphabet
        assert len(a.alphabet) <= 3
        assert max(a.state_count, b.state_count) <= 4
    assert pairs == sample_pairs(DEFAULT_SEED, 200)
