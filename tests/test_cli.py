import hashlib
import itertools
import os
import subprocess
import sys

import pytest

import pdfa.cli
from pdfa import parse_dfa, render_dfa, transition_counts
from pdfa.bounds import BoundCheckReport, Relation
from pdfa.cli import main
from pdfa.witnesses import WITNESS_FAMILIES, unary_cycle, union_symbol_witness


@pytest.fixture
def witness_file(tmp_path):
    def save(dfa, name="input.pdfa"):
        path = tmp_path / name
        path.write_text(render_dfa(dfa), encoding="utf-8")
        return str(path)

    return save


def test_analyze_prints_complexity_block(witness_file, capsys):
    path = witness_file(union_symbol_witness(3, 2))
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == "sc=3\ntc=5\ntc[b]=2\ntc[c]=3\nclasses=4\n"


def test_analyze_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.pdfa"
    bad.write_text("alphabet a\nstates x\n", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2" in err


def test_analyze_rejects_a_state_count_too_large_to_index(tmp_path, capsys):
    huge = tmp_path / "huge.pdfa"
    huge.write_text("alphabet a\nstates 99999999999999999999\nstart 0\naccept 0\n", encoding="utf-8")
    assert main(["analyze", str(huge)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: line 2: state count 99999999999999999999 is too large\n")


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/there.pdfa"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_file_that_is_not_utf8(tmp_path, capsys):
    binary = tmp_path / "binary.pdfa"
    binary.write_bytes(b"\xff\xfe\x00alphabet a\n")
    assert main(["analyze", str(binary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {binary}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_analyze_writes_dot(witness_file, tmp_path, capsys):
    path = witness_file(unary_cycle(3))
    dot = tmp_path / "out.dot"
    assert main(["analyze", path, "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert "doublecircle" in dot.read_text(encoding="utf-8")


@pytest.fixture
def cli_calls(monkeypatch):
    """Count the calls the CLI makes to minimize, render_dfa and render_dot;
    minimize's also where ``pdfa.minimize.complexity`` makes them."""
    calls = dict.fromkeys(("minimize", "render_dfa", "render_dot"), 0)
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(pdfa.cli, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(pdfa.cli, name, counted)
    monkeypatch.setattr(sys.modules["pdfa.minimize"], "minimize", pdfa.cli.minimize)
    return calls


# calls of (minimize, render_dfa, render_dot) without and with the output flags
@pytest.mark.parametrize("argv, flags, without, with_flags", [
    (["analyze", "IN"], ["--dot"], (1, 0, 0), (1, 0, 1)),
    (["union", "IN", "IN"], ["--out", "--min-out", "--dot"], (1, 0, 0), (1, 2, 1)),
    (["witness", "epsilon"], ["--dot"], (0, 1, 0), (0, 1, 1)),
])
def test_cli_builds_only_the_outputs_its_flags_ask_for(
    argv, flags, without, with_flags, cli_calls, witness_file, tmp_path, capsys
):
    path = witness_file(union_symbol_witness(3, 2))
    argv = [path if arg == "IN" else arg for arg in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert tuple(cli_calls.values()) == without
    cli_calls.update(dict.fromkeys(cli_calls, 0))
    outputs = {flag: tmp_path / flag.strip("-") for flag in flags}
    assert main([*argv, *(arg for flag, out in outputs.items() for arg in (flag, str(out)))]) == 0
    assert capsys.readouterr().out == printed  # the flags change what is written, not what is printed
    assert tuple(cli_calls.values()) == with_flags
    assert all(out.exists() for out in outputs.values())


def test_union_command_reports_both_layers(witness_file, tmp_path, capsys):
    a = witness_file(unary_cycle(2), "a.pdfa")
    b = witness_file(unary_cycle(3), "b.pdfa")
    out = tmp_path / "u.pdfa"
    min_out = tmp_path / "m.pdfa"
    rc = main(["union", a, b, "--out", str(out), "--min-out", str(min_out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("constructed states=6 tc=6")
    assert lines[1].startswith("minimized states=6 tc=6")
    minimized = parse_dfa(min_out.read_text(encoding="utf-8"))
    assert minimized.state_count == 6
    assert minimized.accepting == frozenset({0, 2, 3, 4})
    constructed = parse_dfa(out.read_text(encoding="utf-8"))
    assert constructed.state_count == 6


def test_intersect_command(witness_file, capsys):
    a = witness_file(unary_cycle(2), "a.pdfa")
    b = witness_file(unary_cycle(3), "b.pdfa")
    assert main(["intersect", a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "constructed states=6 tc=6 tc[b]=6"
    assert lines[1] == "minimized states=6 tc=6 tc[b]=6"


def test_complement_command(witness_file, capsys):
    path = witness_file(union_symbol_witness(3, 1))
    assert main(["complement", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "constructed states=4 tc=8 tc[b]=4 tc[c]=4"


def test_union_requires_matching_alphabets(witness_file, capsys):
    a = witness_file(unary_cycle(2), "a.pdfa")
    b = witness_file(union_symbol_witness(3, 1), "b.pdfa")
    assert main(["union", a, b]) == 2
    assert "alphabet" in capsys.readouterr().err


def test_witness_prints_pdfa_text(capsys):
    assert main(["witness", "union-symbol", "--n", "3", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert parse_dfa(out) == union_symbol_witness(3, 1)


def test_witness_file_output(tmp_path, capsys):
    out = tmp_path / "w.pdfa"
    rc = main(["witness", "unary-singleton", "--n", "4", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    d = parse_dfa(out.read_text(encoding="utf-8"))
    assert transition_counts(d).total == 4


def test_witness_multi_loop_flags(capsys):
    rc = main(["witness", "union-multi", "--n", "4", "--loop", "a=1", "--loop", "b=3"])
    assert rc == 0
    d = parse_dfa(capsys.readouterr().out)
    assert transition_counts(d).per_symbol == {"a": 1, "b": 3, "c": 4}


def test_witness_union_total_takes_its_symbol_flags(capsys):
    assert main(["witness", "union-total", "--n", "3", "--loop-sym", "b", "--cycle-sym", "a"]) == 0
    assert capsys.readouterr().out == (
        "alphabet a b\nstates 3\nstart 0\naccept 0\n0 a 1\n0 b 0\n1 a 2\n2 a 0\n"
    )


def test_witness_rejects_out_of_range_parameters(capsys):
    assert main(["witness", "union-symbol", "--n", "3", "--k", "3"]) == 2
    assert "k" in capsys.readouterr().err


HUGE = 10**20  # past the index range: the table fails before any allocation


@pytest.mark.parametrize("argv, message", [
    (["witness", "union-symbol", "--n", str(HUGE), "--k", "1"], f"state count {HUGE} is too large"),
    (["witness", "unary-singleton", "--n", str(HUGE)], f"state count {HUGE + 1} is too large"),
    (["witness", "chain-star", "--m", str(HUGE)], f"state count {HUGE} is too large"),
    (["check", "complement-tight", "--n", str(HUGE)], f"state count {HUGE + 1} is too large"),
    (["check", "conjecture-small", "--m", "0"], "need m >= 1, got 0"),
    (["check", "complement-tight", "--n", "3", "--sigma", "4"], "sigma must be 1..3, got 4"),
    (["check", "unary-exception", "--n", "1"], "the exception probe needs n >= 2, got 1"),
    (["check", "unary-exception", "--n", "12"], "the exception probe certifies its tc with the "
     "brute-force oracle, whose unary enumeration stops at 14 states, so n must be at most 11, got 12"),
    (["witness", "unary-singleton", "--n", "0"], "word length must be at least 1, got 0"),
    (["witness", "unary-singleton", "--n", "2", "--alphabet", "ac"], "alphabet must contain 'b'"),
    (["witness", "chain-star", "--m", "2", "--alphabet", "bc"], "alphabet must contain 'a' and 'b'"),
], ids=["union-symbol", "unary-singleton", "chain-star", "complement-tight", "conjecture-small",
        "complement-sigma", "exception-small", "exception-12", "singleton-length",
        "singleton-alphabet", "chain-star-alphabet"])
def test_a_witness_size_that_cannot_be_built_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_witness_requires_its_parameters(capsys):
    assert main(["witness", "union-symbol", "--k", "1"]) == 2
    assert "--n" in capsys.readouterr().err


# The flags each witness family takes, (required, optional), as its
# constructor's signature declares them (--loop is union_multi_witness's k_map).
WITNESS_FLAGS = {
    "union-symbol": (("n", "k"), ("b", "c", "alphabet")),
    "union-multi": (("n",), ("loop", "c", "alphabet")),
    "union-total": (("n",), ("loop_sym", "cycle_sym", "alphabet")),
    "unary-cycle": (("n",), ()),  # fixed unary alphabet
    "unary-singleton": (("n",), ("alphabet",)),
    "chain-star": (("m",), ("alphabet",)),
    "epsilon": ((), ("alphabet",)),
}
# a value for each flag that every family taking it accepts
FLAG_VALUES = {"n": "3", "k": "1", "m": "7", "b": "x", "c": "x", "loop": "a=1",
               "loop_sym": "x", "cycle_sym": "x", "alphabet": "abc"}


def _witness_argv(family, *names):
    argv = ["witness", family]
    for name in dict.fromkeys(names):
        argv += ["--" + name.replace("_", "-"), FLAG_VALUES[name]]
    return argv


def test_witness_flag_reference_covers_every_family():
    assert list(WITNESS_FLAGS) == list(WITNESS_FAMILIES)
    taken = {name for required, optional in WITNESS_FLAGS.values() for name in required + optional}
    assert sorted(FLAG_VALUES) == sorted(taken)


# every family with every witness flag; among them epsilon --n, unary-cycle
# --alphabet, union-symbol --m and union-total --b, which are rejected
@pytest.mark.parametrize("family, flag", list(itertools.product(WITNESS_FLAGS, FLAG_VALUES)))
def test_witness_takes_exactly_its_familys_flags(family, flag, capsys):
    required, optional = WITNESS_FLAGS[family]
    rc = main(_witness_argv(family, *required, flag))
    captured = capsys.readouterr()
    if flag in required + optional:
        assert (rc, captured.err) == (0, "")
        parse_dfa(captured.out)
    else:
        assert (rc, captured.out) == (2, "")
        want = f"error: witness family {family!r} does not take --{flag.replace('_', '-')}\n"
        assert captured.err == want


@pytest.mark.parametrize(
    "family, flag", [(family, name) for family, (required, _) in WITNESS_FLAGS.items() for name in required]
)
def test_witness_names_each_missing_required_flag(family, flag, capsys):
    required, _optional = WITNESS_FLAGS[family]
    assert main(_witness_argv(family, *(name for name in required if name != flag))) == 2
    assert capsys.readouterr().err == f"error: witness family {family!r} requires --{flag}\n"


def test_witness_defaults_come_from_the_family(capsys):
    # no --b/--c given: the family's own b-loop and c-cycle symbols
    assert main(["witness", "union-symbol", "--n", "2", "--k", "1", "--b", "a"]) == 0
    assert parse_dfa(capsys.readouterr().out) == union_symbol_witness(2, 1, b="a")


@pytest.mark.parametrize("command", ["witness", "analyze", "union"])
def test_write_errors_exit_2(command, witness_file, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x")
    path = witness_file(unary_cycle(3))
    argv = {
        "witness": ["witness", "epsilon", "--out", missing],
        "analyze": ["analyze", path, "--dot", missing],  # after the results are printed
        "union": ["union", path, path, "--min-out", missing],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "epsilon", "--alphabet", " a"],
        ["oracle", "verify-lemma1", "--max-states", "1", "--alphabet", "a\t"],
    ],
)
def test_whitespace_alphabet_symbols_exit_2(argv, capsys):
    # "alphabet   a" would parse back as the alphabet a alone
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "whitespace" in captured.err


def test_witness_bad_loop_syntax(capsys):
    for loop in ("ab3", "a=x", "=2", "a="):
        assert main(["witness", "union-multi", "--n", "3", "--loop", loop]) == 2
        err = capsys.readouterr().err
        assert f"--loop expects SYMBOL=COUNT, got {loop!r}" in err
        assert "Traceback" not in err
    assert main(["witness", "union-multi", "--n", "4", "--loop", "a=1", "--loop", "a=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--loop gives symbol 'a' more than once" in captured.err


def test_check_single_bound_line_format(capsys):
    rc = main([
        "check", "union-symbol-tight",
        "--n1", "2", "--n2", "3", "--k1", "1", "--k2", "2",
        "--format", "lines",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (
        "union-symbol-tight n1=2 n2=3 k1=1 k2=2 formula=8 measured=8 verdict=EQUAL\n"
    )


@pytest.mark.parametrize("argv, line", [
    (["union-multi-tight", "--n1", "3", "--n2", "4",
      "--ka1", "2", "--kb1", "1", "--ka2", "1", "--kb2", "3"],
     "union-multi-tight n1=3 n2=4 ka1=2 kb1=1 ka2=1 kb2=3 formula=26 measured=26 verdict=EQUAL"),
    # over one symbol the singleton {b^3} and its complement are over {b}
    (["complement-tight", "--n", "3", "--sigma", "1"],
     "complement-tight n=3 sigma=1 formula=5 measured=5 verdict=EQUAL"),
], ids=["union-multi-loop-counts", "complement-one-symbol"])
def test_check_prints_the_line_of_a_row_given_each_flag(argv, line, capsys):
    assert main(["check", *argv, "--format", "lines"]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_check_unknown_bound_lists_every_row_in_registration_order(capsys):
    assert main(["check", "no-such-bound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown bound 'no-such-bound'; known bounds: union-symbol-tight, union-symbol-max, "
        "union-multi-tight, union-sc-tight, union-total-tight, union-cycle-upper, intersection-tight, "
        "complement-tight, unary-tight, unary-exception, conjecture-small, union-total-upper, "
        "union-symbol-sound, union-construction-exact, intersection-upper, "
        "intersection-construction-exact, complement-upper\n"
    )


def test_check_table_format(capsys):
    rc = main(["check", "intersection-tight", "--n1", "2", "--n2", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("BOUND")
    assert "1 checks: 1 equal" in out


def test_check_rejects_non_coprime_input(capsys):
    assert main(["check", "union-symbol-tight", "--n1", "4", "--n2", "6"]) == 2
    assert "gcd" in capsys.readouterr().err


def test_check_rejects_parameters_the_bound_does_not_take(capsys):
    argv = ["check", "intersection-tight", "--n1", "2", "--n2", "3", "--k1", "9", "--m", "4"]
    assert main(argv) == 2
    assert "does not take k1, m" in capsys.readouterr().err


def test_check_single_bound_gets_the_table_defaults(capsys):
    assert main(["check", "union-total-upper", "--pairs", "3", "--format", "lines"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("union-total-upper pairs=3 seed=12345 max_states=4 ")


# 0 is below the range; at 40 rejection sampling would draw for hours
@pytest.mark.parametrize("max_states", ["0", "40"])
def test_check_random_row_rejects_max_states_out_of_range(max_states, capsys):
    argv = ["check", "union-total-upper", "--max-states", max_states, "--pairs", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: random pairs take max_states in 1..10, got {max_states}\n"


def test_check_all_rejects_per_check_flags(capsys):
    assert main(["check", "--all", "--n1", "99"]) == 2
    assert "--n1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bound", [["union-total-upper"], ["intersection-tight", "--n1", "2", "--n2", "3"], []]
)
def test_check_takes_max_n_only_with_all(bound, capsys):
    assert main(["check", *bound, "--max-n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-n is taken only with --all\n"


def test_check_all_rejects_no_pairs_before_any_row_runs(monkeypatch, capsys):
    rows = []
    monkeypatch.setattr(pdfa.bounds, "check_bound", lambda *args: rows.append(args))
    assert main(["check", "--all", "--max-n", "11", "--pairs", "0"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: need at least one pair, got 0\n")
    assert rows == []


@pytest.mark.parametrize("bound", ["intersection-tight", "no-such"])
def test_check_all_takes_no_bound_id(bound, monkeypatch, capsys):
    rows = []
    monkeypatch.setattr(pdfa.bounds, "check_bound", lambda *args: rows.append(args))
    assert main(["check", bound, "--all", "--max-n", "3", "--pairs", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --all takes no bound id, got {bound!r}\n")
    assert rows == []


def test_check_requires_bound_or_all(capsys):
    assert main(["check"]) == 2
    assert "--all" in capsys.readouterr().err


def test_check_all_small_grid(capsys):
    rc = main(["check", "--all", "--max-n", "3", "--pairs", "5", "--format", "lines"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict=VIOLATION" not in out
    # Same invocation, same bytes.
    assert main(["check", "--all", "--max-n", "3", "--pairs", "5", "--format", "lines"]) == 0
    assert capsys.readouterr().out == out


# SHA-256 of `pdfa check --all --max-n 5 --pairs 20 --seed 0` in each format.
# The table digest is also the benchmark's smoke pin for suite seed 0; a
# change to any check, its parameters or the report layout shows up here.
REPORT_DIGESTS = {
    "table": "fd8e6aeba15cdacf62c93e884a21091ee5b771eda795611c5e92f312a2f6ddb3",
    "lines": "652a6b305bd9c092e1ba1723904096313f4bf77e90d790ea9c6530ef80c53b4f",
}


@pytest.mark.parametrize("fmt", sorted(REPORT_DIGESTS))
def test_check_all_report_is_pinned(fmt, capsys):
    argv = ["check", "--all", "--max-n", "5", "--pairs", "20", "--seed", "0", "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[fmt]


def test_check_exit_code_on_violation(monkeypatch, capsys):
    import pdfa.cli as cli_mod

    fake = BoundCheckReport(
        "union-total-upper", {"pairs": 1}, 4, 9, Relation.VIOLATION, details="boom"
    )
    monkeypatch.setattr(cli_mod, "run_suite", lambda **kw: [fake])
    assert main(["check", "--all"]) == 3
    assert "VIOLATION" in capsys.readouterr().out


def test_oracle_min_transitions(witness_file, tmp_path, capsys):
    path = witness_file(union_symbol_witness(3, 1))
    out = tmp_path / "wit.pdfa"
    rc = main(["oracle", "min-transitions", path, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == "min_total=4\nmin[b]=1\nmin[c]=3\n"
    witness = parse_dfa(out.read_text(encoding="utf-8"))
    assert transition_counts(witness).total == 4


def test_oracle_min_transitions_rejects_small_cap(witness_file, capsys):
    path = witness_file(union_symbol_witness(3, 1))
    assert main(["oracle", "min-transitions", path, "--max-states", "2"]) == 2
    assert "state complexity" in capsys.readouterr().err


def test_oracle_min_transitions_auto_mode_names_the_cap_to_give(tmp_path, capsys):
    # sc = 4 over {a, b}: one state past it is beyond the 4-state enumeration cap
    chain = tmp_path / "chain.pdfa"
    chain.write_text("alphabet a b\nstates 4\nstart 0\naccept 3\n0 a 1\n1 a 2\n2 a 3\n", encoding="utf-8")
    assert main(["oracle", "min-transitions", str(chain)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the automatic search goes one state past the language's state complexity 4, but "
        "enumeration over 2 symbol(s) is capped at 4 states; give max_states=4 to search up to "
        "4 states only\n"
    )
    assert main(["oracle", "min-transitions", str(chain), "--max-states", "4"]) == 0
    assert capsys.readouterr().out == "min_total=3\nmin[a]=3\nmin[b]=0\n"


@pytest.mark.parametrize("max_states", ["-3", "-1"])
def test_oracle_min_transitions_rejects_a_negative_cap(max_states, witness_file, capsys):
    path = witness_file(union_symbol_witness(3, 1))
    assert main(["oracle", "min-transitions", path, "--max-states", max_states]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: max_states must be 0 (search up to sc+1) or at least 1, got {max_states}\n"
    )


def test_oracle_verify_lemma1_pass(capsys):
    rc = main(["oracle", "verify-lemma1", "--max-states", "2", "--alphabet", "a"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (
        "verify-lemma1 max_states=2 alphabet=a dfas=48 languages=8 "
        "counterexamples=0 verdict=pass\n"
    )


@pytest.mark.parametrize("max_states", ["0", "-1"])
def test_oracle_verify_lemma1_rejects_a_sweep_of_no_states(max_states, capsys):
    rc = main(["oracle", "verify-lemma1", "--max-states", max_states, "--alphabet", "ab"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_states must be at least 1, got {max_states}\n"


@pytest.mark.parametrize("symbols, max_states", [("b", 14), ("ab", 4), ("abc", 3)])
def test_oracle_verify_lemma1_cap_names_the_callers_value(symbols, max_states, capsys):
    rc = main(["oracle", "verify-lemma1", "--max-states", str(max_states), "--alphabet", symbols])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: verify-lemma1 sweeps one state past max_states and enumeration over "
        f"{len(symbols)} symbol(s) is capped at {max_states} states, so max_states "
        f"must be at most {max_states - 1}, got {max_states}\n"
    )


def test_oracle_verify_lemma1_failure_exit_code(monkeypatch, capsys):
    import pdfa.cli as cli_mod
    from pdfa.oracle import Lemma1Report
    from pdfa import Alphabet

    fake = Lemma1Report(1, Alphabet("a"), 4, 2, ("minimize() changed the language of:\nX",))
    monkeypatch.setattr(cli_mod, "verify_lemma1", lambda *a, **kw: fake)
    assert main(["oracle", "verify-lemma1", "--max-states", "1", "--alphabet", "a"]) == 1
    out = capsys.readouterr().out
    assert "verdict=fail" in out
    assert "changed the language" in out


def test_oracle_equiv(witness_file, capsys):
    a = witness_file(unary_cycle(2), "a.pdfa")
    b = witness_file(unary_cycle(2), "b.pdfa")
    c = witness_file(unary_cycle(3), "c.pdfa")
    assert main(["oracle", "equiv", a, b]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert main(["oracle", "equiv", a, c]) == 1
    assert capsys.readouterr().out == "not equivalent\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pdfa.cli", "witness", "epsilon"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "alphabet a b\nstates 1\nstart 0\naccept 0\n"


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["oracle", "verify-lemma1", "--max-states", "1", "--alphabet", "ab"],
    ["check", "intersection-tight", "--n1", "2", "--n2", "3"],
    ["witness", "epsilon"],
])
def test_closed_stdout_exits_2_without_a_traceback(argv, unbuffered):
    # the read end is closed before the child starts, so every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pdfa.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
