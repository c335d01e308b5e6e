"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, round by round, and
returns the ops of one round as (kind, callable) pairs.  An op callable
returns (result, latency_s): latency_s is None when the harness should time
the call itself, or the time the op measured on its own (cli-eval, whose
ops run in child processes).  ``check`` runs after the timed phase and
holds the results against properties or closed forms from ``oracle``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import oracle

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

Op = Tuple[str, Callable[[], Tuple[object, Optional[float]]]]


def rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    tail_percentile = 0
    replay_rounds = 1  # rounds the traced run replays
    traced_in_children = False  # ops run in child processes, which trace themselves

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round(self, index: int) -> List[Op]:
        raise NotImplementedError

    def check(self, results: List[list]) -> List[str]:
        """Problems found in results[round][op]; empty when all hold."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return rss_mb_self()

    def reset(self) -> None:
        """Bring the in-process caches back to their state after set-up."""

    def close(self) -> None:
        """Remove what set-up wrote."""


# ------------------------------------------------------------ check-suites

SUITES = ("thm31", "thm32", "exact4", "crosseffect", "presindep")
WARMUP_CONFIG_SEED = 1 << 60  # above every timed config seed, and the same for every run seed


class CheckSuites(Workload):
    """One op is one trial of one CLI suite at the default check config.

    Round i runs trial 0 of every suite under the config seed
    (seed << 24) + i, so each round draws fresh instances; the warm-up
    round uses a config seed no timed round reaches."""

    name = "check-suites"
    tail_percentile = 99
    replay_rounds = 100

    def setup(self, seed: int) -> None:
        from dfw import theorems

        self.theorems = theorems
        self.seed = seed
        self._warm_up()

    def _config(self, index: int):
        return self.theorems.TrialConfig(seed=(self.seed << 24) + index, trials=1)

    def _warm_up(self) -> None:
        cfg = self.theorems.TrialConfig(seed=WARMUP_CONFIG_SEED, trials=1)
        for suite in SUITES:
            self.theorems.CHECKS[suite](cfg)

    def round(self, index: int) -> List[Op]:
        cfg = self._config(index)
        theorems = self.theorems

        def op(suite):
            def run():
                rec = theorems.CHECKS[suite](cfg).records[0]
                return f"{rec.status}|{rec.lhs}|{rec.rhs}", None
            return run

        return [(suite, op(suite)) for suite in SUITES]

    def check(self, results) -> List[str]:
        problems = []
        for i, res in enumerate(results):
            for suite, r in zip(SUITES, res):
                if r is not None and not r.startswith("ok|"):
                    problems.append(f"round {i} {suite}: {r}")
        return problems

    def reset(self) -> None:
        from dfw import linalg

        linalg.clear_caches()
        self._warm_up()


# ----------------------------------------------------------- derived-rank6

def shapes() -> List[Tuple[int, int, int]]:
    """(group rank r, relators k, redundant generators e) as
    ``dfw check presindep --max-rank 6`` draws them: r in 1..5, k in
    0..r+1, e in 0..min(2, 6 - r).  Every round takes each shape once."""
    return [(r, k, e) for r in range(1, 6) for k in range(r + 2) for e in range(min(2, 6 - r) + 1)]


def derived_values(p) -> List[Tuple[str, Callable]]:
    """The derived values of one presentation, as presindep computes them,
    without l1_sp(4, .): on random presentations of rank 4 to 6 a few of
    those run for minutes (a FOUND note in CHANGES.md), longer than a run."""
    from dfw import derived

    return [
        ("l1_sp2", lambda: derived.l1_sp(2, p)),
        ("l1_sp3", lambda: derived.l1_sp(3, p)),
        ("l2_superlie3", lambda: derived.l2_superlie3(p)),
        ("tor", lambda: derived.tor(p, p)),
    ]


class DerivedRank6(Workload):
    """One op is one derived value of a scrambled presentation.

    Presentation j of round i comes from the RNG keyed by
    (seed, i, j): a random relation matrix of shape j with entries in
    [-6, 6] (theorems.random_matrix), then theorems.scrambled_presentation,
    exactly as presindep builds its second presentation.  Inputs never
    repeat within a run, so the linalg caches are left alone between ops."""

    name = "derived-rank6"
    tail_percentile = 95
    replay_rounds = 1

    def setup(self, seed: int) -> None:
        from dfw.abelian import PresentedGroup
        from dfw.derived import Presentation
        from dfw.theorems import random_matrix, scrambled_presentation

        self.seed = seed
        self.PresentedGroup = PresentedGroup
        self.Presentation = Presentation
        self.random_matrix = random_matrix
        self.scrambled = scrambled_presentation
        self.groups: List[list] = []  # the inputs of every timed round, for check
        self._first = self._build(0)
        self._warm_up()

    def _warm_up(self) -> None:
        # Diagonal presentations Z^(r-1) + Z/2 fill the functor basis caches
        # for every ambient rank without touching a seeded instance.
        for r in range(1, 7):
            g = self.PresentedGroup.from_invariants(r - 1, (2,))
            for _, op in derived_values(self.Presentation.from_group(g)):
                op().canonical

    def _build(self, index: int):
        out = []
        for j, (r, k, e) in enumerate(shapes()):
            rng = random.Random(f"{self.seed}:derived-rank6:{index}:{j}")
            g = self.PresentedGroup(r, self.random_matrix(rng, r, k, 6))
            out.append((g, self.scrambled(rng, g, e)))
        return out

    def round(self, index: int) -> List[Op]:
        # A replayed round builds its inputs afresh, as the timed round did.
        built = self._first if index == 0 and not self.groups else self._build(index)
        if index == len(self.groups):
            self.groups.append(built)
        ops: List[Op] = []
        for _, p in built:
            for name, fn in derived_values(p):
                ops.append((name, lambda fn=fn: (str(fn().canonical), None)))
        return ops

    def check(self, results) -> List[str]:
        problems = []
        for i, res in enumerate(results):
            it = iter(res)
            for j, (g, p) in enumerate(self.groups[i]):
                orders = oracle.relation_orders(g.relations.to_rows(), g.relations.cols)
                where = f"round {i} presentation {j}"
                if str(p.quotient().canonical) != oracle.render(oracle.normal_form(orders)):
                    problems.append(f"{where}: scrambling changed the group")
                closed = {
                    "tor": oracle.render(oracle.normal_form(oracle.tor(orders, orders))),
                    "l1_sp2": oracle.render(oracle.normal_form(oracle.l1_sp2(orders))),
                }
                reference = dict(derived_values(self.Presentation.from_group(g)))
                for name, _ in derived_values(p):
                    got = next(it)
                    if got is None:  # the op failed; counted apart
                        continue
                    want = str(reference[name]().canonical)
                    if got != want:
                        problems.append(f"{where} {name}: {got} != {want} on from_group")
                    if name in closed and got != closed[name]:
                        problems.append(f"{where} {name}: {got} != closed form {closed[name]}")
        return problems

    def reset(self) -> None:
        from dfw import linalg

        linalg.clear_caches()
        self._warm_up()


# ---------------------------------------------------------------- cli-eval

CHILD = HERE / "eval_child.py"


def random_sum(rng: random.Random, max_rank: int) -> Tuple[str, List[int]]:
    """A sum of Z, Z^2 and Z/n (n in 2..12) of rank at most max_rank."""
    terms, orders = [], []
    for _ in range(rng.randint(2, 3)):
        kind = rng.randrange(3)
        if kind == 0 and len(orders) < max_rank:
            terms.append("Z")
            orders.append(0)
        elif kind == 1 and len(orders) + 2 <= max_rank:
            terms.append("Z^2")
            orders += [0, 0]
        elif len(orders) < max_rank:
            n = rng.randint(2, 12)
            terms.append(f"Z/{n}")
            orders.append(n)
    return " + ".join(terms), orders


class CliEval(Workload):
    """One op is one fresh ``python`` child that imports dfw.cli and calls
    main(["eval", EXPR]); the op time is measured inside the child."""

    name = "cli-eval"
    tail_percentile = 90
    replay_rounds = 4
    traced_in_children = True

    def setup(self, seed: int) -> None:
        rng = random.Random(f"{seed}:cli-eval")
        cases = []  # (expression, extra arguments, cyclic orders of the value)
        a, oa = random_sum(rng, 3)
        b, ob = random_sum(rng, 3)
        cases.append((f"Tor({a}, {b})", [], oracle.tor(oa, ob)))
        a, oa = random_sum(rng, 4)
        cases.append((f"Lambda^2({a})", [], oracle.exterior2(oa)))
        a, oa = random_sum(rng, 4)
        cases.append((f"SP^2({a})", [], oracle.sym(2, oa)))
        a, oa = random_sum(rng, 3)
        cases.append((f"SP^3({a})", [], oracle.sym(3, oa)))
        a, oa = random_sum(rng, 4)
        cases.append((f"L1SP^2({a})", [], oracle.l1_sp2(oa)))
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        OUT.mkdir(exist_ok=True)
        self.relations = OUT / f"cli-eval-relations-{os.getpid()}.txt"
        self.relations.write_text(
            "# seeded relation matrix, one generator row per line\n"
            + "".join(" ".join(map(str, r)) + "\n" for r in rows)
        )
        cases.append(("L1SP^2(G)", ["--relations", str(self.relations)],
                      oracle.l1_sp2(oracle.relation_orders(rows, 3))))
        self.cases = [(e, extra, oracle.render(oracle.normal_form(o))) for e, extra, o in cases]
        self.seed = seed
        self.trace = False
        self.max_child_rss_mb = 0.0
        self.reports: List[Tuple[bool, dict]] = []  # (traced, child report) per op
        self._child(["Z/2 + Z"], trace=False)  # warm-up on an expression no round has

    def _child(self, argv: List[str], trace: bool) -> dict:
        cmd = [sys.executable, str(CHILD)] + (["--trace"] if trace else []) + ["eval"] + argv
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        try:
            report = json.loads(proc.stderr.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {"op_s": None, "rss_mb": 0.0, "error": proc.stderr[-2000:]}
        report["rc"] = proc.returncode
        report["stdout"] = proc.stdout
        return report

    def round(self, index: int) -> List[Op]:
        def op(expr, extra):
            def run():
                rep = self._child([expr] + extra, self.trace)
                if rep.get("op_s") is None:
                    raise RuntimeError(f"child failed (rc {rep['rc']}): {rep.get('error', '')}")
                self.max_child_rss_mb = max(self.max_child_rss_mb, rep["rss_mb"])
                self.reports.append((self.trace, rep))
                return (rep["rc"], rep["stdout"]), rep["op_s"]
            return run

        return [(expr.split("(", 1)[0], op(expr, extra)) for expr, extra, _ in self.cases]

    def check(self, results) -> List[str]:
        problems = []
        for i, res in enumerate(results):
            for (expr, _, want), r in zip(self.cases, res):
                if r is None:
                    continue
                rc, out = r
                if rc != 0 or out != want + "\n":
                    problems.append(f"round {i} {expr!r}: rc={rc} out={out!r} want {want!r}")
        return problems

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_mb

    def close(self) -> None:
        self.relations.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (CheckSuites, DerivedRank6, CliEval)}
