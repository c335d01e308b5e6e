"""Command-line front end.

Subcommands:
  eval EXPR            print the canonical form of a group/functor expression
  check SUITE          run a verification suite
  section4 EXPR        derived-functor report for an abelian group

Exit codes: 0 success, 1 check failure (some trial's two sides differ),
2 usage or parse error or input over expr.TERM_BUDGET, 3 internal error
(some check trial raised; its record has status "error"; wins over 1).
The default seed comes from the DFW_SEED environment variable; reports
are byte-identical for identical seeds and configs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .abelian import PresentedGroup
from .expr import TERM_BUDGET, ExprError, evaluate, parse, term_dimensions
from .linalg import IntMatrix
from .theorems import CHECKS, SUITE_NAMES, SUITES, TrialConfig, Verdict, evaluate_section4

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class UsageError(ValueError):
    pass


def load_relations(path: str) -> PresentedGroup:
    """Relation matrix file: one generator row per line of
    whitespace-separated integers; '#' starts a comment."""
    rows: List[List[int]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                try:
                    rows.append([int(tok) for tok in body.split()])
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: not an integer row: {body!r}")
    except OSError as exc:
        raise UsageError(f"cannot read relations file: {exc}")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise UsageError(f"{path}: rows have differing lengths")
    matrix = IntMatrix.from_rows(rows)
    return PresentedGroup(matrix.rows, matrix)


def _default_seed() -> int:
    raw = os.environ.get("DFW_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"DFW_SEED must be an integer, got {raw!r}")


# -------------------------------------------------------------- reporting

def render_text(results: List[Tuple[str, Verdict]]) -> str:
    lines = []
    total = failures = errors = 0
    for name, verdict in results:
        trials = verdict.passed + verdict.failed + verdict.errored
        total += trials
        failures += verdict.failed
        errors += verdict.errored
        line = f"suite {name}: trials={trials} passed={verdict.passed} failed={verdict.failed}"
        lines.append(line + (f" errors={verdict.errored}" if verdict.errored else ""))
        for rec in verdict.records:
            if rec.status != "ok":
                lines.append(f"  trial {rec.trial} {rec.status.upper()}")
                lines.append(f"    lhs: {rec.lhs}")
                lines.append(f"    rhs: {rec.rhs}")
                lines.append(
                    "    counterexample: "
                    + json.dumps(rec.counterexample, sort_keys=True, separators=(",", ":"))
                )
    status = "ERROR" if errors else "FAIL" if failures else "PASS"
    counts = f"{len(results)} suites, {total} trials, {failures} failures"
    lines.append(f"result: {status} ({counts}" + (f", {errors} errors)" if errors else ")"))
    return "\n".join(lines) + "\n"


def render_tsv(results: List[Tuple[str, Verdict]]) -> str:
    lines = []
    for _, verdict in results:
        for rec in verdict.records:
            fields = [rec.suite, str(rec.trial), rec.status, rec.lhs, rec.rhs]
            if rec.counterexample is not None:
                fields.append(
                    json.dumps(rec.counterexample, sort_keys=True, separators=(",", ":"))
                )
            lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def render_json(results: List[Tuple[str, Verdict]]) -> str:
    rows = []
    for _, verdict in results:
        rows.extend(r._asdict() for r in verdict.records)
    return json.dumps(rows, sort_keys=True, separators=(",", ":")) + "\n"


RENDERERS = {"text": render_text, "tsv": render_tsv, "json": render_json}


# ------------------------------------------------------------ subcommands

def _build_parser() -> argparse.ArgumentParser:
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


def _group_from_args(expression: Optional[str], relations: Optional[str]) -> PresentedGroup:
    rel_group = load_relations(relations) if relations else None
    if expression is None:
        if rel_group is None:
            raise UsageError("need an expression or --relations FILE")
        return rel_group
    return evaluate(parse(expression), rel_group)


def cmd_eval(args) -> int:
    group = _group_from_args(args.expression, args.relations)
    sys.stdout.write(str(group.canonical) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        cfg = TrialConfig(seed=seed, trials=args.trials,
                          max_rank=args.max_rank, max_entry=args.max_entry)
    except ValueError as exc:
        raise UsageError(str(exc))
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    largest = max(t for name in names for t in SUITES[name].terms(cfg.max_rank))
    if largest > TERM_BUDGET:
        raise UsageError(f"--max-rank {cfg.max_rank} needs a free lattice of rank {largest}, "
                         f"over the budget of {TERM_BUDGET}")
    results = [(name, CHECKS[name](cfg)) for name in names]
    sys.stdout.write(RENDERERS[args.format](results))
    if any(v.errored for _, v in results):
        sys.stderr.write("dfw: error: some trials raised an internal error (status 'error')\n")
        return EXIT_ERROR
    return EXIT_CHECK_FAILED if any(v.failed for _, v in results) else EXIT_OK


def _check_section4_budget(group: PresentedGroup) -> None:
    """The report takes L1SP^2 and L2Ls3 of H2(G) and L1SP^3, L1SP^4 of G;
    reject it, before building anything, when one of their terms is over
    the expression budget."""
    dims = (group.rank, min(group.rank, group.relations.cols))
    h2 = term_dimensions("H2", None, [dims])
    h2_dims = (h2[0], min(h2))
    largest = max(
        h2
        + term_dimensions("L1SP", 2, [h2_dims])
        + term_dimensions("L2Ls3", None, [h2_dims])
        + term_dimensions("L1SP", 3, [dims])
        + term_dimensions("L1SP", 4, [dims])
    )
    if largest > TERM_BUDGET:
        raise UsageError(
            f"section4 needs a free lattice of rank {largest}, over the budget of {TERM_BUDGET}"
        )


def cmd_section4(args) -> int:
    group = _group_from_args(args.expression, args.relations)
    _check_section4_budget(group)
    report = evaluate_section4(group)
    for key, value in report.items():
        sys.stdout.write(f"{key} = {value}\n")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_section4(args)
    except (ExprError, UsageError) as exc:
        sys.stderr.write(f"dfw: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
