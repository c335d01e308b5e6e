import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfw.cli import main


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

        monkeypatch.setattr("dfw.expr.functor_on_group", never)
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


# sha256 of `dfw check all` stdout at the default config, per format
GOLDEN_CHECK_ALL = {
    "json": "480cf92949863dbab88c422d750baf7fbaa967ed67348964f7f5e4d443e6295f",
    "text": "04f5b0c440a42e4a87ef016109e6a552adefda6da4a9c19136944fb104d895ac",
    "tsv": "c2ca098b3ebd0973bb5ef26ca82e9b840a77199370e3006d6ec6ed4b1c31d7f7",
}


# sha256 of `dfw check SUITE --max-rank 5 --max-entry 2 --trials 100
# --seed 0`, per suite and format
GOLDEN_CHECK_RANK5 = {
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
        import dfw.cli as cli_mod
        from dfw.theorems import TrialRecord, Verdict

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
        monkeypatch.setitem(cli_mod.CHECKS, "exact4", lambda cfg: verdict)

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

        monkeypatch.setattr("dfw.cli.evaluate_section4", never)
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


def test_import_leaves_out_dataclasses_and_inspect():
    """The cold path of every command: importing dfw.cli, in a fresh
    interpreter, loads neither dataclasses nor inspect."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, dfw.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
