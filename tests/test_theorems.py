import json
import random

import pytest

from dfw.abelian import PresentedGroup, direct_sum
from dfw.derived import NestedPresentation, Presentation, l1_sp, l2_superlie3
from dfw.linalg import IntMatrix, column_basis
from dfw.theorems import (
    CHECKS,
    SUITE_NAMES,
    SUITES,
    Suite,
    TrialConfig,
    TrialRecord,
    Verdict,
    check_cross_effect,
    check_exact4,
    check_presentation_independence,
    check_thm_3_1,
    check_thm_3_2,
    evaluate_section4,
    exact4_instance,
    replay_counterexample,
    thm_3_1_instance,
    thm_3_2_instance,
    _presentation_dict,
    _sample_presentation,
    _scrambled_sublattice,
    _trial_rng,
)
from test_abelian import is_injective
from test_derived import superlie3_kernel_data
from test_linalg import transform_solve

CFG = TrialConfig(seed=11, trials=25)


# ------------------------- the acceptance-level trials, not `dfw check` suites

def sample_annihilated(rng, cfg):
    """c <= 12 and a scrambled presentation of a sum of cyclic groups of
    orders dividing c."""
    c = rng.randint(1, 12)
    divisors = [d for d in range(2, c + 1) if c % d == 0]
    parts = [rng.choice(divisors) for _ in range(rng.randint(0, 3))] if divisors else []
    g = direct_sum(*(PresentedGroup.cyclic(d) for d in parts))
    return {"c": c, "presentation": _presentation_dict(_scrambled_sublattice(rng, g, rng.randint(0, 1)))}


# the instance samplers by the key of their trial RNGs
SAMPLERS = {**{n: s.sample for n, s in SUITES.items()},
            "superlie": _sample_presentation, "exponent": sample_annihilated}


def annihilates(c, g):
    """c kills the group of canonical form g: no free part, and every
    invariant factor divides c."""
    return not g.free_rank and all(c % d == 0 for d in g.torsion)


def superlie_trials(cfg):
    """Left-exactness data of the super-Lie kernel on the instances keyed
    "superlie": per trial, "exact" when the inclusion of the kernel is
    injective and its composite into the reduced tensor cube vanishes, or
    what failed."""
    for i in range(cfg.trials):
        x = _sample_presentation(_trial_rng(cfg, "superlie", i), cfg)
        _, incl, h = superlie3_kernel_data(Presentation.from_dict(x["presentation"]))
        failures = []
        if not is_injective(incl):
            failures.append("kernel inclusion not injective")
        if not (h @ incl).is_zero():
            failures.append("composite into the target is nonzero")
        yield "; ".join(failures) or "exact"


def exponent_trials(cfg):
    """(c, L1SP², L2Ls3) per trial on the instances keyed "exponent": a
    group annihilated by c and the canonical forms of its two derived
    functors."""
    for i in range(cfg.trials):
        x = sample_annihilated(_trial_rng(cfg, "exponent", i), cfg)
        p = Presentation.from_dict(x["presentation"])
        yield x["c"], l1_sp(2, p).canonical, l2_superlie3(p).canonical


def nested(r, inner_cols, outer_cols):
    return NestedPresentation(
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

    def test_witness_matches_transform_formula(self):
        # the outer columns are independent, so the witness is unique and
        # equals the transform path's, entry for entry
        cfg = TrialConfig()
        proper = 0
        for i in range(cfg.trials):
            x = SUITES["thm31"].sample(_trial_rng(cfg, "thm31", i), cfg)
            np = NestedPresentation.from_dict(x["nested"])
            assert np.witness == transform_solve(np.outer, np.inner), np.to_dict()
            proper += np.witness.cols > 0 and np.witness != IntMatrix.identity(np.outer.cols)
        assert proper > 30, proper


def random_unimodular(rng, n):
    """An n x n integer matrix of determinant +-1: column additions and a
    sign change applied to the identity."""
    cols = IntMatrix.identity(n).to_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            cols[i] = [a + c * b for a, b in zip(cols[i], cols[j])]
    if n:
        cols[0] = [-a for a in cols[0]]
    return IntMatrix.from_cols(cols, rows=n)


class TestNestedOuterBasis:
    def test_any_basis_of_the_outer_lattice(self):
        # a nested pair given another basis of the same outer lattice
        # keeps the Hermite basis, with the same witness and theorem sides
        cfg = TrialConfig()
        rng = random.Random("outer-basis")
        other_basis = 0
        for i in range(60):
            x = SUITES["thm31"].sample(_trial_rng(cfg, "thm31", i), cfg)
            np = NestedPresentation.from_dict(x["nested"])
            raw = np.outer @ random_unimodular(rng, np.outer.cols)
            again = NestedPresentation(np.ambient_rank, np.inner, raw)
            assert again.outer == np.outer == column_basis(raw), np.to_dict()
            assert again.witness == np.witness and np.outer @ np.witness == np.inner
            assert thm_3_1_instance(again) == thm_3_1_instance(np)
            assert thm_3_2_instance(again) == thm_3_2_instance(np)
            other_basis += raw != np.outer
        assert other_basis > 30, other_basis


class TestThm32:
    def test_zero_inner_lattice(self):
        r = 2
        outer = [[2, 0], [0, 2]]
        np = NestedPresentation(
            r,
            IntMatrix.zeros(r, 0),
            IntMatrix.from_cols(outer, rows=r),
        )
        lhs, rhs = thm_3_2_instance(np)
        assert lhs == rhs

    def test_free_case_both_sides_trivial(self):
        np = NestedPresentation(2, IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0))
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

    def test_kernel_at_spot_1_is_held_against_l1sp2(self, monkeypatch):
        # the left map is the inclusion of the kernel at spot 1, so its
        # injectivity and exactness there hold by construction; the check
        # must instead notice an L1SP² that is not that kernel.  L1SP² is
        # trivial on most sampled groups: 3 of the 100 trials of the
        # default config have a nontrivial one.
        for wrong, cfg in ((PresentedGroup.free(0), TrialConfig()), (PresentedGroup.cyclic(2), CFG)):
            monkeypatch.setattr("dfw.theorems.l1_sp", lambda m, p: wrong)
            v = check_exact4(cfg)
            assert v.failed > 0 and v.errored == 0
            assert v.first_counterexample["lhs"] == "kernel at spot 1 is not L1SP^2"


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
    def test_record_as_dict(self):
        r = TrialRecord("exact4", 3, "fail", "Z/2", "0", {"instance": {}})
        assert r._asdict() == {"suite": "exact4", "trial": 3, "status": "fail", "lhs": "Z/2",
                               "rhs": "0", "counterexample": {"instance": {}}}


class TestExtraSuites:
    def test_superlie_kernel(self):
        assert list(superlie_trials(CFG)) == ["exact"] * CFG.trials

    def test_exponent_shadow(self):
        trials = list(exponent_trials(CFG))
        assert [(c, str(l1), str(l2)) for c, l1, l2 in trials] == EXPONENT_AT_CFG
        assert all(annihilates(c, l1) and annihilates(c, l2) for c, l1, l2 in trials)


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

    @pytest.mark.parametrize("suite", list(SAMPLERS))
    def test_sampled_instances_are_canonical_dicts(self, suite):
        # the samplers build dicts without the objects; decoding and
        # encoding again must give the same dict back
        cfg = TrialConfig(seed=4, trials=1, max_rank=5)
        for i in range(30):
            instance = SAMPLERS[suite](_trial_rng(cfg, suite, i), cfg)
            for key, data in instance.items():
                if key == "c":
                    continue
                cls = NestedPresentation if key == "nested" else Presentation
                assert cls.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("suite", list(SAMPLERS))
    def test_samples_within_the_budgeted_sizes(self, suite):
        # Suite.terms assumes every sampled presentation has at most
        # max_rank generators and relations; the exponent sampler draws
        # at most 4 of each
        for max_rank in (1, 3, 6):
            cfg = TrialConfig(seed=5, trials=1, max_rank=max_rank)
            bound = 4 if suite == "exponent" else max_rank
            for i in range(30):
                instance = SAMPLERS[suite](_trial_rng(cfg, suite, i), cfg)
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
        assert set(CHECKS) == set(SUITES) == set(SUITE_NAMES)
        assert Suite._fields == ("name", "check", "sample", "evaluate", "terms")
        assert Verdict._fields == ("passed", "failed", "first_counterexample", "records", "errored")
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
