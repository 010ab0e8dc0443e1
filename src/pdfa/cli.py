"""Command-line front end.

Exit codes: 0 success; 1 validation failure (inequivalence, failed
oracle verification); 2 parse/usage error, including a flag the command
does not take and an output file that cannot be written; 3 a bound check
reported a VIOLATION.  All output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .boolean import complement, intersection_product, union_product
from .bounds import (
    CHECK_PARAMS,
    Relation,
    check_bound,
    render_report_line,
    render_report_table,
    run_suite,
)
from .core import PartialDfa, parse_dfa, render_dfa, render_dot, transition_counts
from .minimize import complexity, equivalent, minimize
from .oracle import brute_min_transitions, verify_lemma1
from .witnesses import WITNESS_FAMILIES


def _load(path: str) -> PartialDfa:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_dfa(text)


def _write(path: str | None, render, dfa: PartialDfa) -> None:
    if path:
        try:
            Path(path).write_text(render(dfa), encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from None


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _counts_line(label: str, dfa: PartialDfa) -> str:
    counts = transition_counts(dfa)
    per = " ".join(f"tc[{sym}]={counts.per_symbol[sym]}" for sym in dfa.alphabet)
    return f"{label} states={dfa.state_count} tc={counts.total} {per}"


def cmd_analyze(args: argparse.Namespace) -> int:
    dfa = _load(args.file)
    report = complexity(dfa)
    print(f"sc={report.sc}")
    print(f"tc={report.tc}")
    for sym in dfa.alphabet:
        print(f"tc[{sym}]={report.tc_per_symbol[sym]}")
    print(f"classes={report.nerode_classes}")
    _write(args.dot, render_dot, report.minimal)
    return 0


def cmd_op(args: argparse.Namespace) -> int:
    a = _load(args.file)
    if args.op == "complement":
        result = complement(a)
    else:
        b = _load(args.file2)
        build = union_product if args.op == "union" else intersection_product
        result = build(a, b)
    minimized = minimize(result)
    print(_counts_line("constructed", result))
    print(_counts_line("minimized", minimized))
    _write(args.out, render_dfa, result)
    _write(args.min_out, render_dfa, minimized)
    _write(args.dot, render_dot, result)
    return 0


def _witness_flags(family: str) -> dict[str, bool]:
    """Each flag ``family`` takes, and whether it is required: its constructor's
    parameters, ``k_map`` given as --loop."""
    parameters = inspect.signature(WITNESS_FAMILIES[family]).parameters.values()
    return {"loop" if q.name == "k_map" else q.name: q.default is q.empty for q in parameters}


def _witness(args: argparse.Namespace) -> PartialDfa:
    """The family's witness from the flags given; defaults are the constructors'."""
    family = args.family
    takes = _witness_flags(family)
    every = dict.fromkeys(name for other in WITNESS_FAMILIES for name in _witness_flags(other))
    params = {name: getattr(args, name) for name in every if getattr(args, name) is not None}
    stray = [name for name in params if name not in takes]
    if stray:
        raise ValueError(f"witness family {family!r} does not take {_flags(stray)}")
    for name, required in takes.items():
        if required and name not in params:
            raise ValueError(f"witness family {family!r} requires --{name}")
    if "loop" in params:
        k_map = params["k_map"] = {}
        for item in params.pop("loop"):
            match = re.fullmatch(r"(\S)=(-?[0-9]+)", item)
            if match is None:
                raise ValueError(f"--loop expects SYMBOL=COUNT, got {item!r}")
            sym = match[1]
            if sym in k_map:
                raise ValueError(f"--loop gives symbol {sym!r} more than once")
            k_map[sym] = int(match[2])
    return WITNESS_FAMILIES[family](**params)


def cmd_witness(args: argparse.Namespace) -> int:
    dfa = _witness(args)
    if args.out:
        _write(args.out, render_dfa, dfa)
    else:
        print(render_dfa(dfa), end="")
    _write(args.dot, render_dot, dfa)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    # only the flags given: a check's own defaults come from its row in the claim table
    given = {
        name: getattr(args, name)
        for name in ("max_n", *CHECK_PARAMS)
        if getattr(args, name) is not None
    }
    if args.all:
        if args.bound:
            raise ValueError(f"--all takes no bound id, got {args.bound!r}")
        stray = [name for name in given if name not in ("max_n", "seed", "pairs")]
        if stray:
            raise ValueError(f"--all takes only --max-n, --seed and --pairs, not {_flags(stray)}")
        reports = run_suite(**given)
    else:
        if "max_n" in given:
            raise ValueError("--max-n is taken only with --all")
        if not args.bound:
            raise ValueError("pass a bound id or --all")
        reports = [check_bound(args.bound, given)]
    if args.format == "lines":
        for report in reports:
            print(render_report_line(report))
    else:
        print(render_report_table(reports), end="")
    return 3 if any(r.relation is Relation.VIOLATION for r in reports) else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.oracle_cmd == "min-transitions":
        dfa = _load(args.file)
        result = brute_min_transitions(dfa, args.max_states)
        print(f"min_total={result.min_total}")
        for sym in dfa.alphabet:
            print(f"min[{sym}]={result.min_per_symbol[sym]}")
        _write(args.out, render_dfa, result.witness_dfa)
        return 0
    if args.oracle_cmd == "verify-lemma1":
        report = verify_lemma1(args.max_states, args.alphabet)
        verdict = "pass" if report.ok else "fail"
        print(
            f"verify-lemma1 max_states={report.max_states} "
            f"alphabet={''.join(report.alphabet)} dfas={report.dfas_checked} "
            f"languages={report.languages} counterexamples={len(report.counterexamples)} "
            f"verdict={verdict}"
        )
        for item in report.counterexamples:
            print(item)
        return 0 if report.ok else 1
    # equiv
    a = _load(args.file)
    b = _load(args.file2)
    if equivalent(a, b):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdfa",
        description="Incomplete-DFA transition complexity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="print sc/tc/per-symbol complexity of a .pdfa file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--dot", help="write the minimized DFA as DOT")
    p_analyze.set_defaults(func=cmd_analyze)

    for op, help_text in (
        ("union", "padded cross product recognizing the union"),
        ("intersect", "cross product recognizing the intersection"),
        ("complement", "accepting-sink completion recognizing the complement"),
    ):
        p = sub.add_parser(op, help=help_text)
        p.add_argument("file")
        if op != "complement":
            p.add_argument("file2")
        p.add_argument("--out", help="write the constructed DFA here")
        p.add_argument("--min-out", dest="min_out", help="write the minimized result here")
        p.add_argument("--dot", help="write the constructed DFA as DOT")
        p.set_defaults(func=cmd_op, op=op)

    p_wit = sub.add_parser("witness", help="emit a witness-family DFA as .pdfa")
    p_wit.add_argument("family", choices=list(WITNESS_FAMILIES))
    p_wit.add_argument("--n", type=int)
    p_wit.add_argument("--k", type=int)
    p_wit.add_argument("--m", type=int)
    p_wit.add_argument("--b", help="self-loop symbol (union-symbol)")
    p_wit.add_argument("--c", help="cycle symbol")
    p_wit.add_argument("--loop", action="append", metavar="SYM=K", help="union-multi loop counts")
    p_wit.add_argument("--loop-sym", dest="loop_sym")
    p_wit.add_argument("--cycle-sym", dest="cycle_sym")
    p_wit.add_argument("--alphabet", help="symbols in order, e.g. 'abc'")
    p_wit.add_argument("--out", help="write the witness here instead of stdout")
    p_wit.add_argument("--dot", help="write the witness as DOT")
    p_wit.set_defaults(func=cmd_witness)

    p_check = sub.add_parser("check", help="evaluate one bound or the whole suite")
    p_check.add_argument("bound", nargs="?", help="bound id, e.g. union-symbol-tight")
    p_check.add_argument("--all", action="store_true", help="run the full tightness+soundness suite")
    p_check.add_argument("--max-n", dest="max_n", type=int, help="grid limit for --all")
    for name in CHECK_PARAMS:
        p_check.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    p_check.add_argument("--format", choices=["table", "lines"], default="table")
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)
    p_min = oracle_sub.add_parser("min-transitions", help="exhaustive minimum transition counts")
    p_min.add_argument("file")
    p_min.add_argument("--max-states", dest="max_states", type=int, default=0,
                       help="search cap; 0 = sc+1 automatically")
    p_min.add_argument("--out", help="write a minimum-transition witness here")
    p_min.set_defaults(func=cmd_oracle)
    p_ver = oracle_sub.add_parser("verify-lemma1", help="certify the minimizer exhaustively")
    p_ver.add_argument("--max-states", dest="max_states", type=int, required=True)
    p_ver.add_argument("--alphabet", required=True, help="symbols in order, e.g. 'ab'")
    p_ver.set_defaults(func=cmd_oracle)
    p_eq = oracle_sub.add_parser("equiv", help="language equivalence of two .pdfa files")
    p_eq.add_argument("file")
    p_eq.add_argument("file2")
    p_eq.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # keep the flush at exit quiet
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
