import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dfw.cli import HELP, RENDERERS, _is_negative_number, main, parse_args
from dfw.theorems import SUITE_NAMES
from test_expr import EDGE_CHARS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_tor(self, capsys):
        code, out, _ = run(capsys, "eval", "Tor(Z/4, Z/6)")
        assert code == 0 and out == "Z/2\n"

    def test_l1sp2(self, capsys):
        code, out, _ = run(capsys, "eval", "L1SP^2(Z/2 + Z/4)")
        assert code == 0 and out == "Z/2\n"

    def test_l2ls3(self, capsys):
        code, out, _ = run(capsys, "eval", "L2Ls3(Z/5)")
        assert code == 0 and out == "0\n"

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(capsys, "eval", "Z/1")
        assert code == 2 and out == "" and "byte" in err

    def test_relations_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("# Z/2 + Z/4 on two generators\n2 0\n0 4\n")
        code, out, _ = run(capsys, "eval", "L1SP^2(G)", "--relations", str(path))
        assert code == 0 and out == "Z/2\n"

    def test_unbound_relations_atom_offset(self, capsys):
        code, out, err = run(capsys, "eval", "Z + G")
        assert code == 2 and out == "" and "(byte 4)" in err

    def test_over_budget_exits_2(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("an over-budget expression reached a functor")

        monkeypatch.setattr("dfw.functors.functor_on_group", never)
        code, out, err = run(capsys, "eval", "SP^5(Z^200)")
        assert code == 2 and out == "" and "budget" in err

    def test_bad_relations_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n3\n")
        code, _, err = run(capsys, "eval", "G", "--relations", str(path))
        assert code == 2 and "differing lengths" in err


class TestCheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "check", "all", "--seed", "7", "--trials", "5")
        assert code == 0
        assert out.count("suite ") == 5
        assert "result: PASS (5 suites, 25 trials, 0 failures)" in out

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "thm31", "--trials", "0")
        assert code == 2 and "trial" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "nonsense")
        assert code == 2

    def test_determinism_byte_identical(self, capsys):
        args = ("check", "all", "--seed", "13", "--trials", "4", "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        for fmt in ("text", "tsv"):
            a = run(capsys, "check", "exact4", "--seed", "3", "--trials", "4", "--format", fmt)
            b = run(capsys, "check", "exact4", "--seed", "3", "--trials", "4", "--format", fmt)
            assert a == b

    def test_tsv_shape(self, capsys):
        code, out, _ = run(capsys, "check", "thm31", "--seed", "1", "--trials", "3", "--format", "tsv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for i, line in enumerate(lines):
            suite, trial, status, lhs, rhs = line.split("\t")
            assert suite == "thm31" and int(trial) == i and status == "ok"
            assert lhs == rhs

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "check", "crosseffect", "--seed", "2", "--trials", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"suite", "trial", "status", "lhs", "rhs", "counterexample"}
            assert row["status"] == "ok" and row["counterexample"] is None

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DFW_SEED", "99")
        _, out_env, _ = run(capsys, "check", "exact4", "--trials", "3", "--format", "tsv")
        monkeypatch.delenv("DFW_SEED")
        _, out_flag, _ = run(capsys, "check", "exact4", "--seed", "99", "--trials", "3", "--format", "tsv")
        assert out_env == out_flag

    @pytest.fixture()
    def recorded_checks(self, monkeypatch):
        """Replace every suite check by one that records its config and runs
        nothing, so that no size is ever built."""
        from dfw.theorems import CHECKS, Verdict

        calls = []

        def record(cfg):
            calls.append(cfg)
            return Verdict(cfg.trials, 0, None, ())

        for name in CHECKS:
            monkeypatch.setitem(CHECKS, name, record)
        return calls

    @pytest.mark.parametrize("suite", ["presindep", "all"])
    def test_over_budget_exits_2(self, capsys, recorded_checks, suite):
        # L1SP^4 of a rank-10 lattice with 10 relations has a term of rank
        # 45 * 55 = 2475 > expr.TERM_BUDGET
        code, out, err = run(capsys, "check", suite, "--max-rank", "10", "--trials", "1")
        assert code == 2 and out == ""
        assert "rank 2475" in err and "budget" in err
        assert recorded_checks == []

    @pytest.mark.parametrize("suite, max_rank", [
        ("all", "6"), ("all", "9"), ("thm31", "10"), ("crosseffect", "22")])
    def test_within_budget_runs(self, capsys, recorded_checks, suite, max_rank):
        code, _, _ = run(capsys, "check", suite, "--max-rank", max_rank, "--trials", "1")
        assert code == 0 and len(recorded_checks) == (5 if suite == "all" else 1)

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DFW_SEED", "pi")
        code, _, err = run(capsys, "check", "exact4", "--trials", "2")
        assert code == 2 and "DFW_SEED" in err

    @pytest.mark.parametrize("flag, env", [
        (["--seed", "-3"], None),
        (["--seed", "18446744073709551616"], None),
        ([], "-1"),
    ])
    def test_seed_out_of_range_exits_2(self, capsys, monkeypatch, recorded_checks, flag, env):
        if env is None:
            monkeypatch.delenv("DFW_SEED", raising=False)
        else:
            monkeypatch.setenv("DFW_SEED", env)
        seed = flag[1] if flag else env
        code, out, err = run(capsys, "check", "all", *flag, "--trials", "1")
        assert code == 2 and out == ""
        assert err == f"dfw: error: seed must be in 0..2**64-1, got {seed}\n"
        assert recorded_checks == []

    def test_largest_seed_runs(self, capsys, recorded_checks):
        code, _, _ = run(capsys, "check", "all", "--seed", str(2**64 - 1), "--trials", "1")
        assert code == 0 and recorded_checks[0].seed == 2**64 - 1


# sha256 of `dfw check all` stdout at the default config, per format
GOLDEN_CHECK_ALL = {
    "json": "480cf92949863dbab88c422d750baf7fbaa967ed67348964f7f5e4d443e6295f",
    "text": "04f5b0c440a42e4a87ef016109e6a552adefda6da4a9c19136944fb104d895ac",
    "tsv": "c2ca098b3ebd0973bb5ef26ca82e9b840a77199370e3006d6ec6ed4b1c31d7f7",
}


# sha256 of `dfw check SUITE --max-rank 5 --max-entry 2 --trials 100
# --seed 0`, per suite and format
GOLDEN_CHECK_RANK5 = {
    ("thm31", "json"): "f4031af8f7c2efb48159265a0a799185f7099f443db6a8fed5ccf764590e7941",
    ("thm31", "text"): "acd45887eacaa070c1f50d3d6df3dc9e16719d876f176dd42df489052a9a777e",
    ("thm32", "json"): "e6b7f837171c620b5c2aaa95201aee78e25bef0e543d6230ceb3f55b1d29c4b1",
}


class TestGoldenReports:
    @pytest.mark.parametrize("fmt", sorted(GOLDEN_CHECK_ALL))
    def test_check_all_default_config(self, capsys, monkeypatch, fmt):
        monkeypatch.delenv("DFW_SEED", raising=False)
        code, out, _ = run(capsys, "check", "all", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CHECK_ALL[fmt]

    @pytest.mark.parametrize("suite, fmt", sorted(GOLDEN_CHECK_RANK5))
    def test_nested_suites_at_rank5(self, capsys, suite, fmt):
        code, out, _ = run(capsys, "check", suite, "--max-rank", "5", "--max-entry", "2",
                           "--trials", "100", "--seed", "0", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CHECK_RANK5[suite, fmt]


class TestErrorStatus:
    @pytest.fixture()
    def raising_suite(self, monkeypatch):
        from dfw.theorems import SUITES

        def boom(instance):
            raise RuntimeError("internal bug")

        monkeypatch.setitem(SUITES, "exact4", SUITES["exact4"]._replace(evaluate=boom))

    def test_exit_code_3_without_traceback(self, capsys, raising_suite):
        code, out, err = run(capsys, "check", "exact4", "--seed", "1", "--trials", "2")
        assert code == 3
        assert "Traceback" not in err and "internal error" in err
        assert "suite exact4: trials=2 passed=0 failed=0 errors=2" in out
        assert "trial 0 ERROR" in out and "lhs: error: RuntimeError: internal bug" in out
        assert "result: ERROR (1 suites, 2 trials, 0 failures, 2 errors)" in out

    def test_json_error_row_carries_instance(self, capsys, raising_suite):
        code, out, _ = run(capsys, "check", "exact4", "--seed", "1", "--trials", "2", "--format", "json")
        assert code == 3
        rows = json.loads(out)
        assert [r["status"] for r in rows] == ["error", "error"]
        assert "presentation" in rows[0]["counterexample"]["instance"]

    def test_error_beats_failure(self, capsys, monkeypatch, raising_suite):
        from dfw.theorems import SUITES

        failing = SUITES["thm31"]._replace(evaluate=lambda x: (False, "Z/2", "0"))
        monkeypatch.setitem(SUITES, "thm31", failing)
        code, out, _ = run(capsys, "check", "all", "--seed", "1", "--trials", "1")
        assert code == 3
        assert "result: ERROR (5 suites, 5 trials, 1 failures, 1 errors)" in out


class TestFailureRendering:
    @pytest.fixture()
    def broken_suite(self, monkeypatch):
        from dfw.theorems import CHECKS, TrialRecord, Verdict

        ce = {"instance": {"presentation": {"ambient_rank": 1, "sublattice": [[2]]}},
              "lhs": "Z/2", "rhs": "Z/3"}
        verdict = Verdict(
            passed=1,
            failed=1,
            first_counterexample=ce,
            records=(
                TrialRecord("exact4", 0, "ok", "exact", "exact"),
                TrialRecord("exact4", 1, "fail", "Z/2", "Z/3", ce),
            ),
        )
        monkeypatch.setitem(CHECKS, "exact4", lambda cfg: verdict)

    def test_exit_code_1_and_text_detail(self, capsys, broken_suite):
        code, out, _ = run(capsys, "check", "exact4", "--trials", "2")
        assert code == 1
        assert "suite exact4: trials=2 passed=1 failed=1" in out
        assert "trial 1 FAIL" in out
        assert "counterexample:" in out
        assert "result: FAIL" in out

    def test_tsv_failed_row_carries_counterexample(self, capsys, broken_suite):
        code, out, _ = run(capsys, "check", "exact4", "--trials", "2", "--format", "tsv")
        assert code == 1
        ok_row, fail_row = out.strip().split("\n")
        assert len(ok_row.split("\t")) == 5
        fields = fail_row.split("\t")
        assert len(fields) == 6
        assert json.loads(fields[5])["lhs"] == "Z/2"

    def test_json_failed_row(self, capsys, broken_suite):
        code, out, _ = run(capsys, "check", "exact4", "--trials", "2", "--format", "json")
        assert code == 1
        rows = json.loads(out)
        assert rows[1]["status"] == "fail"
        assert rows[1]["counterexample"]["rhs"] == "Z/3"


class TestSection4:
    def test_klein_four(self, capsys):
        code, out, _ = run(capsys, "section4", "Z/2 + Z/2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "H2 = Z/2"
        assert lines[1] == "L1SP2(H2) = 0"
        assert len(lines) == 5

    def test_cyclic_all_zero(self, capsys):
        code, out, _ = run(capsys, "section4", "Z/9")
        assert code == 0
        for line in out.strip().split("\n"):
            assert line.endswith("= 0")

    def test_free_input_derived_values_vanish(self, capsys):
        code, out, _ = run(capsys, "section4", "Z^3")
        lines = dict(l.split(" = ") for l in out.strip().split("\n"))
        assert code == 0
        assert lines["H2"] == "Z^3"
        assert lines["L1SP2(H2)"] == "0"
        assert lines["L1SP3(Gab)"] == "0"
        assert lines["L1SP4(Gab)"] == "0"

    def test_relations_only(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 0\n0 2\n")
        code, out, _ = run(capsys, "section4", "--relations", str(path))
        assert code == 0 and out.startswith("H2 = Z/2\n")

    def test_over_budget_exits_2(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("an over-budget report was evaluated")

        monkeypatch.setattr("dfw.theorems.evaluate_section4", never)
        # L2Ls3 of H2 = (Z/2)^21 would need 21³ - 3080 = 6181 word coordinates
        code, out, err = run(capsys, "section4", " + ".join(["Z/2"] * 7))
        assert code == 2 and out == "" and "budget" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "section4")
        assert code == 2 and "expression" in err

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "section4", "Z/")
        assert code == 2


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "eval" in out

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2



def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser `dfw` used before parse_args: the oracle that
    parse_args is tested against."""
    parser = argparse.ArgumentParser(
        prog="dfw",
        description="exact workbench for derived functors of abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to a canonical form")
    p_eval.add_argument("expression")
    p_eval.add_argument("--relations", metavar="FILE",
                        help="relation matrix file binding the atom G")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--max-rank", type=int, default=4)
    p_check.add_argument("--max-entry", type=int, default=6)
    p_check.add_argument("--format", choices=sorted(RENDERERS), default="text")

    p_sec = sub.add_parser("section4", help="derived-functor report for an abelian group")
    p_sec.add_argument("expression", nargs="?")
    p_sec.add_argument("--relations", metavar="FILE")
    return parser


def reference(argv):
    """argparse's reading of argv: its fields, or the exit code (0 after
    help, 2 on a rejected argv)."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


# argparse kept a `--` that follows an option's value as an extra argument
# up to Python 3.11; later versions may read `--` otherwise
_OLD_DASHES = pytest.mark.skipif(sys.version_info >= (3, 12),
                                 reason="argparse's reading of `--` changed after 3.11")

# (argv, what argparse does with it: "ok", "help" or "error")
ARGV_TABLE = [
    (["eval", "Tor(Z/4, Z/6)"], "ok"),
    (["eval", "Z", "--relations", "g.txt"], "ok"),
    (["eval", "--relations", "g.txt", "Z"], "ok"),
    (["eval", "Z", "--rel", "g.txt"], "ok"),
    (["eval", "Z", "--relations=g.txt"], "ok"),
    (["eval", "Z", "--re=g.txt"], "ok"),
    (["eval", "Z", "--rel="], "ok"),
    (["eval", "--", "-Z"], "ok"),
    (["eval", "Z", "--"], "ok"),
    (["eval", "-5"], "ok"),
    (["check", "all"], "ok"),
    (["check", "--seed", "-3", "thm31"], "ok"),
    (["check", "thm31", "--seed=-3"], "ok"),
    (["check", "all", "--trials", "1", "--max-r", "2"], "ok"),
    (["check", "exact4", "--max-e", "3", "--f", "tsv", "--t", "7", "--s", "9"], "ok"),
    (["check", "all", "--format=json", "--format", "text"], "ok"),
    (["check", "--", "all"], "ok"),
    (["section4", "Z/2 + Z/2"], "ok"),
    (["section4", "--relations", "g.txt"], "ok"),
    (["section4"], "ok"),
    (["section4", "--rel", "g.txt", "--"], "ok"),
    (["--help"], "help"),
    (["-h", "nonsense"], "help"),
    (["eval", "Z", "--help"], "help"),
    (["eval", "--he"], "help"),
    (["check", "all", "--seed", "3", "-h"], "help"),
    (["check", "-h", "nonsense"], "help"),
    (["section4", "-hh"], "help"),
    ([], "error"),
    (["nonsense"], "error"),
    (["--", "eval", "Z"], "error"),
    (["-hx"], "error"),
    (["eval"], "error"),
    (["eval", "Z", "--bogus"], "error"),
    (["--bogus", "eval", "Z"], "error"),
    (["eval", "Z", "W"], "error"),
    (["eval", "Z", "--rel"], "error"),
    (["eval", "Z", "--relations", "--", "g.txt"], "error"),
    (["eval", "--", "Z", "--relations", "g.txt"], "error"),
    (["eval", "Z", "--help=yes"], "error"),
    (["check", "all", "--max", "3"], "error"),
    (["check", "all", "--help", "--max=3"], "error"),
    (["check", "all", "--seed"], "error"),
    (["check", "all", "--trials", "x"], "error"),
    (["check", "all", "--seed", "-1.5"], "error"),
    (["check", "all", "--format", "xml"], "error"),
    (["check", "nonsense"], "error"),
    (["check", "all", "--trials", "2", "extra"], "error"),
    pytest.param(["check", "all", "--seed", "1", "--"], "error", marks=_OLD_DASHES),
    # negative numbers of other scripts' digits, and one trailing newline
    (["eval", "-\u0663"], "ok"),
    (["check", "--seed", "-5\n", "all"], "ok"),
]


class TestParserAgainstArgparse:
    @pytest.mark.parametrize("argv, outcome", ARGV_TABLE)
    def test_table(self, capsys, argv, outcome):
        want = reference(argv)
        if outcome == "ok":
            assert vars(parse_args(argv)) == want
            return
        assert want == {"help": 0, "error": 2}[outcome]
        code, out, err = run(capsys, *argv)
        assert code == want
        if outcome == "help":
            assert out.startswith("usage: dfw") and err == ""
        else:
            assert out == "" and "dfw: error: " in err

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["dfw", "eval", "Tor(Z/4, Z/6)", "--rel="])
        assert main() == 0
        assert capsys.readouterr().out == "Z/2\n"
        monkeypatch.setattr(sys, "argv", ["dfw", "check", "nonsense"])
        assert main() == 2 == reference(None)

    def test_help_anywhere_wins_over_the_suite_name(self, capsys):
        # `check` checks its suite name itself, so help read after a bad
        # suite name still prints, where argparse exited 2
        assert reference(["check", "nonsense", "--help"]) == 2
        code, out, _ = run(capsys, "check", "nonsense", "--help")
        assert code == 0 and out == HELP["check"]

    def test_check_help_names_every_suite_and_format(self):
        for name in list(SUITE_NAMES) + ["all"] + sorted(RENDERERS):
            assert name in HELP["check"]


# The pattern (argparse's) that told a negative number from an option
# before its test was written out: the oracle for _is_negative_number.
OLD_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(EDGE_CHARS)).flatmap(
    lambda t: st.sampled_from([t, "-" + t, "--" + t])))
@example("-5\n")
@example("-5\n\n")
@example("-.5")
@example("-.5\n")
@example("-5.")
@example("-\u0663")
@example("-\u00b2")  # a digit, but no decimal one
@example("-\n")
@example("Lie3embed-rank")
@example("Z-Z")
@example("Lie3embed-rank-x")
def test_negative_number_matches_the_pattern(token):
    assert _is_negative_number(token) == bool(OLD_NEGATIVE_NUMBER.match(token))


def test_import_builds_no_named_tuple_or_regex():
    """Importing dfw.cli, after the standard modules that dfw imports,
    creates no named tuple class and compiles no regular expression:
    both cost the cold path of every command."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = """
import bisect, collections, functools, itertools, math, operator, os, re, sys, types, typing
calls = []
def wrap(module, name):
    original = getattr(module, name)
    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    setattr(module, name, counted)
wrap(collections, "namedtuple")
wrap(re, "_compile")
import dfw.cli
print(calls)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_import_leaves_out_dataclasses_and_inspect():
    """The cold path of every command: importing dfw.cli, in a fresh
    interpreter, loads neither dataclasses nor inspect, and adds none of
    __future__, argparse, gettext, json or dfw.theorems to the modules
    the bare interpreter had loaded (`eval` uses none of them)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; bare = set(sys.modules); import dfw.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "print(sorted({'__future__', 'argparse', 'gettext', 'json', 'dfw.theorems'} "
            "& (set(sys.modules) - bare)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"


def test_plain_sum_loads_no_functor_module():
    """`dfw eval` of a plain group sum imports neither dfw.derived nor
    dfw.functors; a functor call imports both where it is evaluated."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from dfw.cli import main; "
            "want = ('dfw.derived', 'dfw.functors'); "
            "main(['eval', 'Z/2 + Z/3']); print([m for m in want if m in sys.modules]); "
            "main(['eval', 'Tor(Z/4, Z/6)']); print([m for m in want if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "Z/6\n[]\nZ/2\n['dfw.derived', 'dfw.functors']\n"
