"""Randomized verification harnesses.

Each check suite instantiates both sides of one structural identity on
seeded random small presentations and compares canonical forms (or
verifies exactness data by mutual sublattice containment).

The suites form one table, SUITES, of Suite(name, check, sample, evaluate)
entries.  sample(rng, cfg) draws a trial instance as a JSON-able dict and
evaluate(instance) decodes it and returns (ok, lhs, rhs); the one runner,
run_suite, evaluates each sampled instance, and replay_counterexample
evaluates a serialized one through the same code.  Runs are deterministic
functions of the seed: trial i of suite s draws from an RNG keyed by
"{seed}:{s}:{i}", so identical configs reproduce identical verdicts byte
for byte.  A trial whose sides differ has status "fail"; one whose
evaluation raises has status "error".  Both carry the replayable instance.
SUITES holds exactly the `dfw check` suites; CHECKS (every suite's
check_* function by name) and SUITE_NAMES (the `dfw check` choices) are
read off it.
"""

import random
from collections.abc import Callable
from typing import NamedTuple

from .abelian import (
    Hom,
    PresentedGroup,
    direct_sum,
    kernel,
    subgroup_leq,
    subquotient,
    tensor,
)
from .expr import term_dimensions
from .derived import (
    NestedPresentation,
    Presentation,
    coker_induced_l1_sp2,
    coker_tor_to_l1_sp2,
    l1_sp,
    l2_superlie3,
    sp2_bottom_row,
    tor,
)
from .functors import (
    basis,
    ext_relations,
    functor_on_group,
    identity_koszul_sp2,
    induced_map,
    koszul_sp,
)
from .linalg import IntMatrix, column_basis, hstack


class TrialConfig:
    __slots__ = ("seed", "trials", "max_rank", "max_entry")

    def __init__(self, seed: int = 0, trials: int = 100, max_rank: int = 4, max_entry: int = 6):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in 0..2**64-1, got {seed}")
        if trials < 1:
            raise ValueError("need at least one trial")
        if max_rank < 1 or max_entry < 1:
            raise ValueError("bounds must be >= 1")
        self.seed = seed
        self.trials = trials
        self.max_rank = max_rank
        self.max_entry = max_entry


class TrialRecord(NamedTuple):
    suite: str
    trial: int
    status: str  # "ok" | "fail" | "error"
    lhs: str
    rhs: str
    counterexample: dict | None = None


class Verdict(NamedTuple):
    passed: int
    failed: int
    first_counterexample: dict | None
    records: tuple[TrialRecord, ...]
    errored: int = 0


def _trial_rng(cfg: TrialConfig, suite: str, trial: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{suite}:{trial}")


# ---------------------------------------------------------------- sampling

def random_matrix(rng, rows, cols, bound) -> IntMatrix:
    """Entries uniform in [-bound, bound], drawn row by row."""
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def _columns(m: IntMatrix) -> list[list[int]]:
    return [m.col_list(j) for j in range(m.cols)]


def _presentation_dict(sublattice: IntMatrix) -> dict:
    """Presentation.to_dict of a sublattice, without building the
    Presentation (and so without its independence check)."""
    return {"ambient_rank": sublattice.rows, "sublattice": _columns(sublattice)}


def _random_sublattice(rng, cfg: TrialConfig) -> IntMatrix:
    """The echelon basis of a random relation matrix."""
    r = rng.randint(1, cfg.max_rank)
    k = rng.randint(0, r + 1)
    return column_basis(random_matrix(rng, r, k, cfg.max_entry))


def random_group(rng, cfg: TrialConfig, max_rank: int | None = None) -> PresentedGroup:
    r = rng.randint(1, max_rank or cfg.max_rank)
    k = rng.randint(0, r + 1)
    return PresentedGroup(r, random_matrix(rng, r, k, cfg.max_entry))


def scrambled_presentation(rng, g: PresentedGroup, extra_gens: int) -> Presentation:
    """A fresh presentation of the same group: redundant generators with
    defining relations, then a random unimodular change of basis."""
    return Presentation(g.rank + extra_gens, _scrambled_sublattice(rng, g, extra_gens))


def _scrambled_sublattice(rng, g: PresentedGroup, extra_gens: int) -> IntMatrix:
    r2 = g.rank + extra_gens
    cols = []
    for j in range(g.relations.cols):
        cols.append(g.relations.col_list(j) + [0] * extra_gens)
    for e in range(extra_gens):
        col = [rng.randint(-2, 2) for _ in range(g.rank)] + [0] * extra_gens
        col[g.rank + e] = 1
        cols.append(col)
    rel = IntMatrix.from_cols(cols, rows=r2)
    u = [[int(i == t) for t in range(r2)] for i in range(r2)]
    for _ in range(3 * r2):
        i, j = rng.randrange(r2), rng.randrange(r2)
        if i != j:
            c = rng.randint(-2, 2)
            for t in range(r2):
                u[i][t] += c * u[j][t]
    return column_basis(IntMatrix.from_rows(u) @ rel)


# ---------------------------------------------------- instance evaluators

def thm_3_1_instance(np: NestedPresentation) -> tuple[str, str]:
    """Middle homology of Λ²(I) -> I (x) E -> SP²(E) versus the cokernel of
    the induced map on the derived symmetric squares."""
    e_group = PresentedGroup(np.ambient_rank, np.inner)
    i_group = np.middle_group()

    lam2_i = functor_on_group("ext", 2, i_group)
    i_tensor_e = tensor(i_group, e_group)
    sp2_e = functor_on_group("sym", 2, e_group)

    outer_koszul = koszul_sp(2, np.outer)
    mult, wedge = outer_koszul.differentials
    map_a = Hom(lam2_i, i_tensor_e, wedge)
    map_b = Hom(i_tensor_e, sp2_e, mult)
    if not (map_b @ map_a).is_zero():
        raise AssertionError("three-term complex does not compose to zero")

    _, incl_b = kernel(map_b)
    middle = subquotient(incl_b, map_a)
    lhs = str(middle.canonical)

    rhs = str(coker_induced_l1_sp2(np, outer_koszul).canonical)
    return lhs, rhs


def thm_3_2_instance(np: NestedPresentation) -> tuple[str, str]:
    """Coker{Tor(E/I, E) -> L1SP^2(E/I)} versus
    Ker{Λ²(E)/Λ²(I)-image -> E/I (x) E}."""
    r = np.ambient_rank
    lhs = str(coker_tor_to_l1_sp2(np).canonical)

    u, v = np.inner, np.outer
    wedge_source = PresentedGroup(
        basis("ext", 2, r).size,
        hstack(induced_map("ext", 2, v), ext_relations(2, u)),
    )
    tensor_target = tensor(PresentedGroup(r, v), PresentedGroup(r, u))
    wedge = identity_koszul_sp2(r).differentials[1]
    ker_group, _ = kernel(Hom(wedge_source, tensor_target, wedge))
    rhs = str(ker_group.canonical)
    return lhs, rhs


def exact4_instance(p: Presentation) -> tuple[str, str]:
    """Exactness of 0 -> L1SP² -> Λ²Q/Λ²U -> Q/U (x) Q -> SP²(Q/U) -> 0.
    The left map is the inclusion of the kernel at spot 1, so the check
    there is that this kernel is L1SP², computed independently from the
    Koszul complex; then mutual image/kernel containment at spot 2, and
    surjectivity."""
    alpha, beta, gamma = sp2_bottom_row(p)
    failures = []
    if alpha.source.canonical != l1_sp(2, p).canonical:
        failures.append("kernel at spot 1 is not L1SP^2")
    _, incl_gamma_ker = kernel(gamma)
    if not subgroup_leq(beta, incl_gamma_ker):
        failures.append("image not inside kernel at spot 2")
    if not subgroup_leq(incl_gamma_ker, beta):
        failures.append("kernel not inside image at spot 2")
    if not gamma.is_surjective():
        failures.append("right map not surjective")
    return ("exact" if not failures else "; ".join(failures)), "exact"


def cross_effect_instance(pa: Presentation, pb: Presentation) -> tuple[str, str]:
    """L1SP^2(A + B) versus L1SP^2(A) + L1SP^2(B) + Tor(A, B), all three
    summands computed independently."""
    ga, gb = pa.quotient(), pb.quotient()
    whole = Presentation.from_group(direct_sum(ga, gb))
    lhs = str(l1_sp(2, whole).canonical)
    rhs_group = direct_sum(l1_sp(2, pa), l1_sp(2, pb), tor(pa, pb))
    return lhs, str(rhs_group.canonical)


_DERIVED_OPS: tuple[tuple[str, Callable[[Presentation], PresentedGroup]], ...] = (
    ("l1_sp2", lambda p: l1_sp(2, p)),
    ("l1_sp3", lambda p: l1_sp(3, p)),
    ("l1_sp4", lambda p: l1_sp(4, p)),
    ("l2_superlie3", l2_superlie3),
    ("tor", lambda p: tor(p, p)),
)


def presentation_independence_instance(p1: Presentation, p2: Presentation) -> tuple[str, str]:
    """All derived operations evaluated on two presentations of one group."""
    lhs = ";".join(f"{name}={op(p1).canonical}" for name, op in _DERIVED_OPS)
    rhs = ";".join(f"{name}={op(p2).canonical}" for name, op in _DERIVED_OPS)
    return lhs, rhs


# ------------------------------------------------------------- the suites

class Suite(NamedTuple):
    """One check suite (see the module docstring for sample and evaluate).
    check is the public entry point that CHECKS maps the name to;
    terms(max_rank) gives the closed-form ranks of the complexes and
    presentations a trial can evaluate at that max_rank, which `dfw check`
    holds against the expression budget before running."""

    name: str
    check: Callable[[TrialConfig], Verdict]
    sample: Callable[[random.Random, TrialConfig], dict]
    evaluate: Callable[[dict], tuple]
    terms: Callable[[int], tuple[int, ...]]


def run_suite(suite: Suite, cfg: TrialConfig) -> Verdict:
    """Evaluate cfg.trials sampled instances.  A trial whose evaluation
    raises gets status "error" instead of "fail"; both keep the instance,
    and replay_counterexample on it raises again with the traceback."""
    records: list[TrialRecord] = []
    counts = {"ok": 0, "fail": 0, "error": 0}
    for i in range(cfg.trials):
        instance = suite.sample(_trial_rng(cfg, suite.name, i), cfg)
        try:
            ok, lhs, rhs = suite.evaluate(instance)
        except Exception as exc:
            status, lhs, rhs = "error", f"error: {type(exc).__name__}: {exc}", ""
        else:
            status = "ok" if ok else "fail"
        counts[status] += 1
        ce = None if status == "ok" else {"instance": instance, "lhs": lhs, "rhs": rhs}
        records.append(TrialRecord(suite.name, i, status, lhs, rhs, ce))
    first = next((r.counterexample for r in records if r.counterexample), None)
    return Verdict(counts["ok"], counts["fail"], first, tuple(records), counts["error"])


# The samplers draw instance dicts straight from the column bases, so the
# from_dict calls of evaluate are the one validation of an instance.

def _sample_nested(rng, cfg: TrialConfig) -> dict:
    """Outer lattice from a random matrix; inner from random combinations
    of the outer columns, so containment holds by construction."""
    r = rng.randint(1, cfg.max_rank)
    outer = column_basis(random_matrix(rng, r, rng.randint(0, r), cfg.max_entry))
    mix = random_matrix(rng, outer.cols, rng.randint(0, outer.cols + 1), 2)
    inner = column_basis(outer @ mix)
    return {"nested": {"ambient_rank": r, "inner": _columns(inner), "outer": _columns(outer)}}


def _sample_presentation(rng, cfg: TrialConfig) -> dict:
    return {"presentation": _presentation_dict(_random_sublattice(rng, cfg))}


def _sample_pair(rng, cfg: TrialConfig) -> dict:
    pa = _presentation_dict(_random_sublattice(rng, cfg))
    return {"a": pa, "b": _presentation_dict(_random_sublattice(rng, cfg))}


def _sample_two_presentations(rng, cfg: TrialConfig) -> dict:
    g = random_group(rng, cfg, max_rank=max(1, cfg.max_rank - 1))
    p1 = _presentation_dict(column_basis(g.relations))
    extra = rng.randint(0, min(2, cfg.max_rank - g.rank))
    return {"first": p1, "second": _presentation_dict(_scrambled_sublattice(rng, g, extra))}


def _terms(*calls) -> Callable[[int], tuple[int, ...]]:
    """Suite.terms for trials that evaluate the functors (name, degree, k)
    on groups of at most k * max_rank generators and as many relations."""
    return lambda r: tuple(t for name, degree, k in calls
                           for t in term_dimensions(name, degree, [(k * r, k * r)] * 2))


def _agree(sides: tuple[str, str]) -> tuple[bool, str, str]:
    lhs, rhs = sides
    return lhs == rhs, lhs, rhs


def check_thm_3_1(cfg: TrialConfig) -> Verdict:
    return run_suite(SUITES["thm31"], cfg)


def check_thm_3_2(cfg: TrialConfig) -> Verdict:
    return run_suite(SUITES["thm32"], cfg)


def check_exact4(cfg: TrialConfig) -> Verdict:
    return run_suite(SUITES["exact4"], cfg)


def check_cross_effect(cfg: TrialConfig) -> Verdict:
    return run_suite(SUITES["crosseffect"], cfg)


def check_presentation_independence(cfg: TrialConfig) -> Verdict:
    return run_suite(SUITES["presindep"], cfg)


# Tor's terms bound the tensor products the nested and exact4 suites build.
_NESTED_TERMS = _terms(("L1SP", 2, 1), ("Lambda", 2, 1), ("Tor", None, 1))

SUITES: dict[str, Suite] = {s.name: s for s in (
    Suite("thm31", check_thm_3_1, _sample_nested,
          lambda x: _agree(thm_3_1_instance(NestedPresentation.from_dict(x["nested"]))),
          _NESTED_TERMS),
    Suite("thm32", check_thm_3_2, _sample_nested,
          lambda x: _agree(thm_3_2_instance(NestedPresentation.from_dict(x["nested"]))),
          _NESTED_TERMS),
    Suite("exact4", check_exact4, _sample_presentation,
          lambda x: _agree(exact4_instance(Presentation.from_dict(x["presentation"]))),
          _NESTED_TERMS),
    Suite("crosseffect", check_cross_effect, _sample_pair,
          lambda x: _agree(cross_effect_instance(
              Presentation.from_dict(x["a"]), Presentation.from_dict(x["b"]))),
          _terms(("L1SP", 2, 2), ("Tor", None, 1))),
    Suite("presindep", check_presentation_independence, _sample_two_presentations,
          lambda x: _agree(presentation_independence_instance(
              Presentation.from_dict(x["first"]), Presentation.from_dict(x["second"]))),
          _terms(*(("L1SP", m, 1) for m in (2, 3, 4)), ("L2Ls3", None, 1), ("Tor", None, 1))),
)}

CHECKS: dict[str, Callable[[TrialConfig], Verdict]] = {n: s.check for n, s in SUITES.items()}
SUITE_NAMES = tuple(SUITES)


def replay_counterexample(suite: str, counterexample: dict) -> tuple[str, str]:
    """Recompute both sides of a serialized trial in isolation, through the
    same evaluate as the run that recorded it."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    _, lhs, rhs = SUITES[suite].evaluate(counterexample["instance"])
    return lhs, rhs


def evaluate_section4(g: PresentedGroup) -> dict[str, str]:
    """Derived-functor report for an abelian group: the second integral
    homology (the exterior square, classically, for abelian groups) and
    the derived values evaluated on it and on the group itself."""
    h2 = functor_on_group("ext", 2, g)
    ph2 = Presentation.from_group(h2)
    pg = Presentation.from_group(g)
    return {
        "H2": str(h2.canonical),
        "L1SP2(H2)": str(l1_sp(2, ph2).canonical),
        "L2Ls3(H2)": str(l2_superlie3(ph2).canonical),
        "L1SP3(Gab)": str(l1_sp(3, pg).canonical),
        "L1SP4(Gab)": str(l1_sp(4, pg).canonical),
    }
