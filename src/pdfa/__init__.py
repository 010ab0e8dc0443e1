"""Incomplete-DFA toolkit: state/transition complexity, Boolean-operation
constructions, witness families, bound checks, and a brute-force oracle."""

from .boolean import (
    complement,
    intersection_product,
    union_product,
)
from .core import (
    Alphabet,
    DfaParseError,
    PartialDfa,
    TransitionCounts,
    empty_language_dfa,
    pair_equivalent,
    parse_dfa,
    render_dfa,
    render_dot,
    transition_counts,
)
from .minimize import (
    ComplexityReport,
    canonicalize,
    complexity,
    equivalent,
    minimize,
)
from .oracle import (
    Lemma1Report,
    OracleResult,
    brute_min_transitions,
    verify_lemma1,
)
from .witnesses import (
    WITNESS_FAMILIES,
    chain_star_witness,
    epsilon_lang,
    unary_cycle,
    unary_singleton,
    union_multi_witness,
    union_symbol_witness,
    union_total_witness,
)

__all__ = [
    "Alphabet",
    "ComplexityReport",
    "DfaParseError",
    "Lemma1Report",
    "OracleResult",
    "PartialDfa",
    "TransitionCounts",
    "WITNESS_FAMILIES",
    "brute_min_transitions",
    "canonicalize",
    "chain_star_witness",
    "complement",
    "complexity",
    "empty_language_dfa",
    "epsilon_lang",
    "equivalent",
    "intersection_product",
    "minimize",
    "pair_equivalent",
    "parse_dfa",
    "render_dfa",
    "render_dot",
    "transition_counts",
    "unary_cycle",
    "unary_singleton",
    "union_multi_witness",
    "union_product",
    "union_symbol_witness",
    "union_total_witness",
    "verify_lemma1",
]
