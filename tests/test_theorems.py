import json

import pytest

from dfw.abelian import PresentedGroup
from dfw.derived import NestedPresentation, Presentation
from dfw.linalg import IntMatrix
from dfw.theorems import (
    CHECKS,
    SUITE_NAMES,
    SUITES,
    TrialConfig,
    TrialRecord,
    Verdict,
    check_cross_effect,
    check_exact4,
    check_exponent_shadow,
    check_presentation_independence,
    check_superlie_kernel,
    check_thm_3_1,
    check_thm_3_2,
    evaluate_section4,
    exact4_instance,
    replay_counterexample,
    thm_3_1_instance,
    thm_3_2_instance,
    _trial_rng,
)

CFG = TrialConfig(seed=11, trials=25)


def nested(r, inner_cols, outer_cols):
    return NestedPresentation.build(
        r,
        IntMatrix.from_cols(inner_cols, rows=r),
        IntMatrix.from_cols(outer_cols, rows=r),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(max_rank=0)
        with pytest.raises(ValueError):
            TrialConfig(seed=2**64)


class TestThm31:
    def test_trivial_middle_when_lattices_equal(self):
        u = [[2, 0], [0, 3]]
        lhs, rhs = thm_3_1_instance(nested(2, u, u))
        assert lhs == rhs == "0"

    def test_full_outer_lattice(self):
        # outer = whole lattice: the complex on E itself is exact in the
        # middle because the derived square of the zero group vanishes
        lhs, rhs = thm_3_1_instance(nested(2, [[2, 0], [0, 2]], [[1, 0], [0, 1]]))
        assert lhs == rhs == "0"

    def test_suite_passes(self):
        v = check_thm_3_1(CFG)
        assert v.failed == 0 and v.passed == CFG.trials


class TestThm32:
    def test_zero_inner_lattice(self):
        r = 2
        outer = [[2, 0], [0, 2]]
        np = NestedPresentation.build(
            r,
            IntMatrix.zeros(r, 0),
            IntMatrix.from_cols(outer, rows=r),
        )
        lhs, rhs = thm_3_2_instance(np)
        assert lhs == rhs

    def test_free_case_both_sides_trivial(self):
        np = NestedPresentation.build(2, IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0))
        lhs, rhs = thm_3_2_instance(np)
        assert lhs == rhs == "0"

    def test_suite_passes(self):
        v = check_thm_3_2(CFG)
        assert (v.passed, v.failed, v.errored) == (CFG.trials, 0, 0)


class TestExact4:
    def test_free_presentation(self):
        lhs, rhs = exact4_instance(Presentation(3, IntMatrix.zeros(3, 0)))
        assert lhs == rhs == "exact"

    def test_rank_one(self):
        lhs, rhs = exact4_instance(Presentation(1, IntMatrix.from_rows([[6]])))
        assert lhs == rhs == "exact"

    def test_suite_passes(self):
        v = check_exact4(CFG)
        assert (v.passed, v.failed, v.errored) == (CFG.trials, 0, 0)


class TestCrossEffect:
    def test_worked_pair(self):
        from dfw.theorems import cross_effect_instance

        pa = Presentation.from_group(PresentedGroup.cyclic(2))
        pb = Presentation.from_group(PresentedGroup.cyclic(4))
        lhs, rhs = cross_effect_instance(pa, pb)
        assert lhs == rhs == "Z/2"

    def test_free_second_summand(self):
        from dfw.theorems import cross_effect_instance

        pa = Presentation.from_group(PresentedGroup.from_invariants(0, (2, 4)))
        pb = Presentation(2, IntMatrix.zeros(2, 0))
        lhs, rhs = cross_effect_instance(pa, pb)
        assert lhs == rhs == "Z/2"

    def test_suite_passes(self):
        v = check_cross_effect(CFG)
        assert (v.passed, v.failed, v.errored) == (CFG.trials, 0, 0)


class TestPresentationIndependence:
    def test_z6_two_ways(self):
        from dfw.theorems import presentation_independence_instance

        p1 = Presentation.from_group(PresentedGroup.cyclic(6))
        p2 = Presentation.from_group(
            PresentedGroup(2, IntMatrix.from_cols([[2, 1], [0, 3]], rows=2))
        )
        assert p1.quotient().canonical == p2.quotient().canonical
        lhs, rhs = presentation_independence_instance(p1, p2)
        assert lhs == rhs

    def test_suite_passes(self):
        v = check_presentation_independence(CFG)
        assert (v.passed, v.failed, v.errored) == (CFG.trials, 0, 0)


# (c, L1SP², L2Ls3) of the exponent suite at CFG, one per trial
EXPONENT_AT_CFG = [
    (5, "Z/5 + Z/5 + Z/5", " + ".join(["Z/5"] * 8)),
    (11, "Z/11 + Z/11 + Z/11", " + ".join(["Z/11"] * 8)),
    (8, "0", "0"),
    (9, "Z/3", "Z/3 + Z/3"),
    (11, "Z/11", "Z/11 + Z/11"),
    (11, "Z/11 + Z/11 + Z/11", " + ".join(["Z/11"] * 8)),
    (10, "0", "0"),
    (7, "0", "0"),
    (1, "0", "0"),
    (2, "0", "0"),
    (12, "Z/2", "Z/2 + Z/2"),
    (12, "Z/2", "Z/2 + Z/2"),
    (7, "Z/7", "Z/7 + Z/7"),
    (1, "0", "0"),
    (7, "0", "0"),
    (11, "0", "0"),
    (10, "0", "0"),
    (5, "0", "0"),
    (11, "0", "0"),
    (10, "Z/2 + Z/2 + Z/10", " + ".join(["Z/2"] * 6 + ["Z/10"] * 2)),
    (11, "Z/11 + Z/11 + Z/11", " + ".join(["Z/11"] * 8)),
    (3, "0", "0"),
    (6, "Z/6", "Z/6 + Z/6"),
    (3, "Z/3", "Z/3 + Z/3"),
    (6, "0", "0"),
]


class TestRecords:
    def test_verdicts_share_no_monitor_dict(self):
        a = Verdict(1, 0, None, ())
        b = Verdict(1, 0, None, ())
        assert a.monitor == {} == b.monitor
        with pytest.raises(TypeError):
            a.monitor["trials"] = 1  # the default is read-only
        c = check_exponent_shadow(TrialConfig(seed=1, trials=2))
        d = check_exponent_shadow(TrialConfig(seed=1, trials=2))
        assert c.monitor == d.monitor and c.monitor is not d.monitor
        assert check_exact4(TrialConfig(seed=1, trials=1)).monitor == {}

    def test_record_as_dict(self):
        r = TrialRecord("exact4", 3, "fail", "Z/2", "0", {"instance": {}})
        assert r._asdict() == {"suite": "exact4", "trial": 3, "status": "fail", "lhs": "Z/2",
                               "rhs": "0", "counterexample": {"instance": {}}}


class TestExtraSuites:
    def test_superlie_kernel(self):
        v = check_superlie_kernel(CFG)
        assert (v.passed, v.failed, v.errored, v.monitor) == (CFG.trials, 0, 0, {})
        assert v.records == tuple(
            TrialRecord("superlie", i, "ok", "exact", "exact") for i in range(CFG.trials)
        )

    def test_exponent_shadow(self):
        v = check_exponent_shadow(CFG)
        assert (v.passed, v.failed, v.errored) == (CFG.trials, 0, 0)
        assert v.monitor == {"l2_superlie3_exponent_divides": CFG.trials, "trials": CFG.trials}
        assert v.records == tuple(
            TrialRecord("exponent", i, "ok", f"c={c};l1_sp2={l1};l2={l2}",
                        f"c={c};l1_sp2 exponent divides c")
            for i, (c, l1, l2) in enumerate(EXPONENT_AT_CFG)
        )


class TestDeterminismAndReplay:
    def test_identical_seeds_identical_records(self):
        for name, fn in CHECKS.items():
            a = fn(TrialConfig(seed=5, trials=8))
            b = fn(TrialConfig(seed=5, trials=8))
            assert a == b

    def test_exact4_rows_carry_no_instance_data(self):
        # passing exactness rows are identical across seeds by design;
        # only failures embed the sampled instance
        a = check_exact4(TrialConfig(seed=1, trials=10))
        b = check_exact4(TrialConfig(seed=2, trials=10))
        assert [r.lhs for r in a.records] == ["exact"] * 10
        assert a.records == b.records
        assert a.failed == b.failed == 0

    def test_replay_counterexamples(self):
        # all suites pass, so exercise replay through the serialization
        # path with hand-built "counterexamples" of passing instances
        np = nested(2, [[4, 0], [0, 4]], [[2, 0], [0, 2]])
        ce = {"instance": {"nested": np.to_dict()}}
        lhs, rhs = replay_counterexample("thm31", ce)
        assert lhs == rhs
        lhs, rhs = replay_counterexample("thm32", ce)
        assert lhs == rhs
        p = Presentation(2, IntMatrix.from_cols([[2, 0], [0, 6]], rows=2))
        ce2 = {"instance": {"presentation": p.to_dict()}}
        assert replay_counterexample("exact4", ce2) == ("exact", "exact")
        ce3 = {"instance": {"a": p.to_dict(), "b": p.to_dict()}}
        lhs, rhs = replay_counterexample("crosseffect", ce3)
        assert lhs == rhs
        with pytest.raises(ValueError):
            replay_counterexample("nonsense", ce3)

    @pytest.mark.parametrize("bad", [1.5, "3", True])
    def test_instances_with_non_int_entries_are_rejected(self, bad):
        # from_dict is where an instance enters: a replayed 2.5 raises
        # instead of evaluating a silently different matrix
        p = {"ambient_rank": 2, "sublattice": [[2, bad]]}
        with pytest.raises(TypeError):
            Presentation.from_dict(p)
        with pytest.raises(TypeError):
            NestedPresentation.from_dict({"ambient_rank": 2, "inner": [[4, 0]], "outer": [[bad, 0]]})
        with pytest.raises(TypeError):
            replay_counterexample("exact4", {"instance": {"presentation": p}})

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_sampled_instances_are_canonical_dicts(self, suite):
        # the samplers build dicts without the objects; decoding and
        # encoding again must give the same dict back
        cfg = TrialConfig(seed=4, trials=1, max_rank=5)
        for i in range(30):
            instance = SUITES[suite].sample(_trial_rng(cfg, suite, i), cfg)
            for key, data in instance.items():
                if key == "c":
                    continue
                cls = NestedPresentation if key == "nested" else Presentation
                assert cls.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_samples_within_the_budgeted_sizes(self, suite):
        # Suite.terms assumes every sampled presentation has at most
        # max_rank generators and relations (exponent: at most 4)
        for max_rank in (1, 3, 6):
            cfg = TrialConfig(seed=5, trials=1, max_rank=max_rank)
            bound = 4 if suite == "exponent" else max_rank
            for i in range(30):
                instance = SUITES[suite].sample(_trial_rng(cfg, suite, i), cfg)
                for key, data in instance.items():
                    if key == "c":
                        continue
                    lattices = [data["inner"], data["outer"]] if key == "nested" else [data["sublattice"]]
                    assert data["ambient_rank"] <= bound
                    assert all(len(cols) <= bound for cols in lattices)

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_every_record_replays_to_its_sides(self, suite):
        # passing records carry no instance, so draw each trial's instance
        # again from its keyed RNG and replay it through the JSON form
        cfg = TrialConfig(seed=9, trials=6)
        verdict = CHECKS[suite](cfg)
        for rec in verdict.records:
            instance = SUITES[suite].sample(_trial_rng(cfg, suite, rec.trial), cfg)
            ce = {"instance": json.loads(json.dumps(instance))}
            assert replay_counterexample(suite, ce) == (rec.lhs, rec.rhs)

    def test_table_drives_checks_and_cli_choices(self):
        assert SUITE_NAMES == ("thm31", "thm32", "exact4", "crosseffect", "presindep")
        assert set(CHECKS) == set(SUITES) == set(SUITE_NAMES) | {"superlie", "exponent"}
        assert CHECKS["thm31"] is check_thm_3_1
        # the layered benchmark reads per-suite seconds from these span names
        assert [CHECKS[n].__name__ for n in SUITE_NAMES] == [
            "check_thm_3_1", "check_thm_3_2", "check_exact4", "check_cross_effect",
            "check_presentation_independence"]

    def test_raising_evaluate_is_an_error_record(self, monkeypatch):
        def boom(instance):
            raise ZeroDivisionError("internal")

        monkeypatch.setitem(SUITES, "exact4", SUITES["exact4"]._replace(evaluate=boom))
        cfg = TrialConfig(seed=1, trials=3)
        v = check_exact4(cfg)
        assert (v.passed, v.failed, v.errored) == (0, 0, 3)
        rec = v.records[0]
        assert rec.status == "error" and rec.lhs == "error: ZeroDivisionError: internal"
        instance = SUITES["exact4"].sample(_trial_rng(cfg, "exact4", 0), cfg)
        assert rec.counterexample["instance"] == instance == v.first_counterexample["instance"]

    def test_verdict_counts(self):
        v = check_thm_3_1(TrialConfig(seed=3, trials=9))
        assert v.passed + v.failed + v.errored == 9
        assert len(v.records) == 9


class TestSection4:
    def test_cyclic_all_zero(self):
        rep = evaluate_section4(PresentedGroup.cyclic(7))
        assert rep == {
            "H2": "0",
            "L1SP2(H2)": "0",
            "L2Ls3(H2)": "0",
            "L1SP3(Gab)": "0",
            "L1SP4(Gab)": "0",
        }

    def test_klein_four(self):
        rep = evaluate_section4(PresentedGroup.from_invariants(0, (2, 2)))
        assert rep["H2"] == "Z/2"
        assert rep["L1SP2(H2)"] == "0"

    def test_elementary_abelian_rank_three(self):
        rep = evaluate_section4(PresentedGroup.from_invariants(0, (2, 2, 2)))
        # closed-form oracle: H2 has three invariant factors 2, pairs give
        # gcd 2 three times
        assert rep["H2"] == "Z/2 + Z/2 + Z/2"
        assert rep["L1SP2(H2)"] == "Z/2 + Z/2 + Z/2"

    def test_free_input(self):
        rep = evaluate_section4(PresentedGroup.free(3))
        assert rep["H2"] == "Z^3"
        assert rep["L1SP2(H2)"] == "0"
        assert rep["L1SP3(Gab)"] == "0"
        assert rep["L1SP4(Gab)"] == "0"
