"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is exact equality; the time budgets are the stated
wall-clock caps.
"""

import functools
import itertools
import json
import math
import random
import time

from dfw.abelian import PresentedGroup, direct_sum
from dfw.cli import main
from dfw.derived import Presentation, l1_sp
from dfw.linalg import IntMatrix, smith_diagonal
from dfw.theorems import (
    TrialConfig,
    check_exact4,
    check_presentation_independence,
    check_thm_3_1,
    check_thm_3_2,
    _random_sublattice,
    _trial_rng,
)
from test_theorems import annihilates, exponent_trials, superlie_trials


def report(num, label, ok, detail):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_presentation(rng, cfg: TrialConfig) -> Presentation:
    u = _random_sublattice(rng, cfg)
    return Presentation(u.rows, u)


def closed_form_l1sp2(g: PresentedGroup):
    tors = g.canonical.torsion
    parts = [
        PresentedGroup.cyclic(math.gcd(a, b))
        for i, a in enumerate(tors)
        for b in tors[i + 1:]
    ]
    return direct_sum(*parts).canonical


def test_criterion_1_closed_form_l1sp2():
    cfg = TrialConfig(seed=20260811, trials=200, max_rank=5, max_entry=8)
    t0 = time.perf_counter()
    failures = 0
    for i in range(cfg.trials):
        rng = _trial_rng(cfg, "closedform", i)
        p = random_presentation(rng, cfg)
        if l1_sp(2, p).canonical != closed_form_l1sp2(p.quotient()):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        1, "closed-form L1SP^2",
        failures == 0 and elapsed < 60.0,
        f"{cfg.trials - failures}/{cfg.trials} exact, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_thm31_suite():
    cfg = TrialConfig(seed=31, trials=100, max_rank=4)
    t0 = time.perf_counter()
    verdict = check_thm_3_1(cfg)
    elapsed = time.perf_counter() - t0
    report(
        2, "first homology vs induced cokernel",
        verdict.failed == verdict.errored == 0 and elapsed < 120.0,
        f"passed={verdict.passed} failed={verdict.failed} errored={verdict.errored}, {elapsed:.1f}s < 120s",
    )


def test_criterion_3_thm32_suite_and_chain_squares():
    # every trial runs coker_tor_to_l1_sp2, whose induced_cokernel verifies
    # each chain square exactly and raises on any violation (an "error"
    # record, which the gate counts like a failure)
    cfg = TrialConfig(seed=32, trials=100, max_rank=4)
    verdict = check_thm_3_2(cfg)
    report(
        3, "Tor-comparison cokernel vs wedge kernel",
        verdict.failed == verdict.errored == 0,
        f"passed={verdict.passed} failed={verdict.failed} errored={verdict.errored}, all chain squares exact",
    )


def test_criterion_4_four_term_exactness():
    cfg = TrialConfig(seed=4, trials=100, max_rank=4)
    verdict = check_exact4(cfg)
    report(
        4, "four-term sequence exactness",
        verdict.failed == verdict.errored == 0,
        f"passed={verdict.passed} failed={verdict.failed} errored={verdict.errored}",
    )


def test_criterion_5_presentation_independence():
    cfg = TrialConfig(seed=5, trials=100, max_rank=4)
    verdict = check_presentation_independence(cfg)
    if verdict.failed or verdict.errored:
        print("replayable counterexample:",
              json.dumps(verdict.first_counterexample, sort_keys=True))
    report(
        5, "presentation independence of all derived ops",
        verdict.failed == verdict.errored == 0,
        f"passed={verdict.passed} failed={verdict.failed} errored={verdict.errored}",
    )


def test_criterion_6_superlie_kernel_left_exactness():
    cfg = TrialConfig(seed=6, trials=100, max_rank=4)
    failed = sum(result != "exact" for result in superlie_trials(cfg))
    report(
        6, "super-Lie kernel injects, composites vanish",
        failed == 0,
        f"passed={cfg.trials - failed} failed={failed}",
    )


def test_criterion_7_exponent_shadow():
    cfg = TrialConfig(seed=7, trials=100, max_rank=4)
    trials = list(exponent_trials(cfg))
    exact = sum(annihilates(c, l1) for c, l1, _ in trials)
    monitored = sum(annihilates(c, l2) for c, _, l2 in trials)
    report(
        7, "exponent shadow",
        exact == cfg.trials,
        f"c*l1_sp2: {exact}/{cfg.trials} exact; "
        f"monitored c*l2_superlie3 divides on {monitored}/{cfg.trials} (not asserted)",
    )


def _laplace_det(m, rows, cols):
    @functools.lru_cache(maxsize=None)
    def det(rs, cs):
        if not rs:
            return 1
        r0 = rs[0]
        total = 0
        sign = 1
        for pos, c in enumerate(cs):
            e = m.entry(r0, c)
            if e:
                total += sign * e * det(rs[1:], cs[:pos] + cs[pos + 1:])
            sign = -sign
        return total

    return det(rows, cols)


def _minor_gcd_diagonal(m):
    n = min(m.rows, m.cols)
    diag = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, _laplace_det(m, rs, cs))
        if g == 0:
            diag.extend([0] * (n - k + 1))
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


def test_criterion_8_infrastructure(capsys):
    t0 = time.perf_counter()

    # 500-matrix Smith suite against the minor-gcd oracle
    rng = random.Random(88)
    snf_bad = 0
    for _ in range(500):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix.from_rows([[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)])
        if smith_diagonal(m) != _minor_gcd_diagonal(m):
            snf_bad += 1

    # CLI determinism: identical seeds give byte-identical reports
    def run_check():
        code = main(["check", "all", "--seed", "424242", "--trials", "3", "--format", "json"])
        out = capsys.readouterr().out
        return code, out

    det_ok = run_check() == run_check()

    # CLI round trip over 100 random groups
    rt_bad = 0
    rng = random.Random(4242)
    for _ in range(100):
        free = rng.randint(0, 3)
        tors = []
        d = 1
        for _ in range(rng.randint(0, 3)):
            d *= rng.randint(2, 6)
            tors.append(d)
        printed = str(PresentedGroup.from_invariants(free, tors).canonical)
        code = main(["eval", printed])
        out = capsys.readouterr().out
        if code != 0 or out != printed + "\n":
            rt_bad += 1

    elapsed = time.perf_counter() - t0
    report(
        8, "infrastructure",
        snf_bad == 0 and det_ok and rt_bad == 0 and elapsed < 300.0,
        f"snf 500 matrices ({snf_bad} bad), determinism={'ok' if det_ok else 'BAD'}, "
        f"round-trip 100 groups ({rt_bad} bad), {elapsed:.1f}s < 300s",
    )
