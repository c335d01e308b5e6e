"""Command-line front end.

Subcommands:
  eval EXPR            print the canonical form of a group/functor expression
  check SUITE          run a verification suite
  section4 [EXPR]      derived-functor report for an abelian group

Each command loads only what it runs.  Importing this module loads the
expression layer (dfw.expr, dfw.abelian and dfw.linalg), which is all
`eval` of a plain group needs; a functor call imports dfw.functors and
dfw.derived when it is evaluated, `check` and `section4` import
dfw.theorems when they run, and the check reports import json when they
are rendered.  That import builds
no named tuple class, compiles no regular expression and makes no
typing alias: each would add to the cold start of every command.

argv is read by parse_args below.  It accepts the argv that argparse
accepted for these commands, with the same fields and exit codes:
unique prefixes of long options (--rel, --max-r), --opt=value, options
before or after the positional, `--` ending the options, negative
numbers as values (--seed -3), and -h/--help, which prints that
command's usage to stdout and exits 0.  The one difference: the suite
name is checked by `check` itself, so `dfw check nonsense --help` prints
help where argparse exited 2.

Exit codes: 0 success, 1 check failure (some trial's two sides differ),
2 usage or parse error or input over expr.TERM_BUDGET, 3 internal error
(some check trial raised; its record has status "error"; wins over 1).
The default seed comes from the DFW_SEED environment variable; reports
are byte-identical for identical seeds and configs.
"""

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .abelian import PresentedGroup
from .expr import TERM_BUDGET, ExprError, evaluate, parse, term_dimensions
from .linalg import IntMatrix

if TYPE_CHECKING:
    from .theorems import Verdict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class UsageError(ValueError):
    pass


def load_relations(path: str) -> PresentedGroup:
    """Relation matrix file: one generator row per line of
    whitespace-separated integers; '#' starts a comment."""
    rows: list[list[int]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                try:
                    rows.append([int(tok) for tok in body.split()])
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: {_bad_row(body)}") from None
    except OSError as exc:
        raise UsageError(f"cannot read relations file: {exc}")
    except UnicodeDecodeError:
        raise UsageError(f"{path}: relations file is not UTF-8 text")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise UsageError(f"{path}: rows have differing lengths")
    matrix = IntMatrix.from_rows(rows)
    return PresentedGroup(matrix.rows, matrix)


# A rejected row is echoed up to this many characters.
_ECHO_LIMIT = 60


def _bad_row(body: str) -> str:
    """Why int() rejects some token of the row body.  A signed run of
    decimal digits fails only when it has more digits than int()
    converts; any other row is echoed, cut to _ECHO_LIMIT characters."""
    for tok in body.split():
        digits = tok[1:] if tok[0] in "+-" else tok
        if digits.isdecimal():
            try:
                int(digits)
            except ValueError:
                return (f"integer of {len(digits)} digits is over the limit of "
                        f"{sys.get_int_max_str_digits()} digits")
    if len(body) > _ECHO_LIMIT:
        body = body[:_ECHO_LIMIT] + "..."
    return f"not an integer row: {body!r}"


def _default_seed() -> int:
    raw = os.environ.get("DFW_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"DFW_SEED must be an integer, got {raw!r}")


# -------------------------------------------------------------- reporting

def _compact_json(value) -> str:
    """The reports' one JSON form: sorted keys, no spaces."""
    import json

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def render_text(results: list[tuple[str, "Verdict"]]) -> str:
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
                lines.append("    counterexample: " + _compact_json(rec.counterexample))
    status = "ERROR" if errors else "FAIL" if failures else "PASS"
    counts = f"{len(results)} suites, {total} trials, {failures} failures"
    lines.append(f"result: {status} ({counts}" + (f", {errors} errors)" if errors else ")"))
    return "\n".join(lines) + "\n"


def render_tsv(results: list[tuple[str, "Verdict"]]) -> str:
    lines = []
    for _, verdict in results:
        for rec in verdict.records:
            fields = [rec.suite, str(rec.trial), rec.status, rec.lhs, rec.rhs]
            if rec.counterexample is not None:
                fields.append(_compact_json(rec.counterexample))
            lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def render_json(results: list[tuple[str, "Verdict"]]) -> str:
    rows = []
    for _, verdict in results:
        rows.extend(r._asdict() for r in verdict.records)
    return _compact_json(rows) + "\n"


RENDERERS = {"text": render_text, "tsv": render_tsv, "json": render_json}


# ------------------------------------------------------------------- argv

HELP = {
    None: """\
usage: dfw [-h] {eval,check,section4} ...

exact workbench for derived functors of abelian groups

commands:
  eval EXPR          evaluate an expression to a canonical form
  check SUITE        run a verification suite
  section4 [EXPR]    derived-functor report for an abelian group

Every command takes -h/--help.  A long option may be shortened to any
unique prefix (--rel, --max-r) and takes its value as --opt VALUE or
--opt=VALUE.
""",
    "eval": """\
usage: dfw eval [-h] [--relations FILE] EXPR

evaluate an expression to a canonical form

  --relations FILE   relation matrix file binding the atom G
""",
    "check": """\
usage: dfw check [-h] [--seed S] [--trials N] [--max-rank R] [--max-entry M]
                 [--format {json,text,tsv}] SUITE

run a verification suite; SUITE is thm31, thm32, exact4, crosseffect,
presindep or all

  --seed S           trial seed (default: $DFW_SEED, else 0)
  --trials N         trials per suite (default 100)
  --max-rank R       largest ambient rank of a trial (default 4)
  --max-entry M      largest random matrix entry (default 6)
  --format F         report format: text, tsv or json (default text)
""",
    "section4": """\
usage: dfw section4 [-h] [--relations FILE] [EXPR]

derived-functor report for the abelian group EXPR, or for the group that
--relations FILE presents

  --relations FILE   relation matrix file binding the atom G
""",
}


def _format_name(value: str) -> str:
    if value not in RENDERERS:
        choices = ", ".join(repr(n) for n in sorted(RENDERERS))
        raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}")


# Each command takes one positional and long options that take one value
# each: command -> (positional field, positional required, {option:
# (default, converter)}).  An option's field is its name without the
# dashes, with "_" for "-".
COMMANDS: dict[str, tuple[str, bool, dict]] = {
    "eval": ("expression", True, {"--relations": (None, str)}),
    "check": ("suite", True, {
        "--seed": (None, _int),
        "--trials": (100, _int),
        "--max-rank": (4, _int),
        "--max-entry": (6, _int),
        "--format": ("text", _format_name),
    }),
    "section4": ("expression", False, {"--relations": (None, str)}),
}

_HELP_FLAGS = ("-h", "--help")


class HelpRequested(Exception):
    """-h/--help was read; the argument is the help text to print."""


class ArgvError(UsageError):
    """A rejected argv; `usage` is the usage of the command it was read for."""

    def __init__(self, usage: str, message: str):
        super().__init__(message)
        self.usage = usage


def _read_option(token: str, names, usage: str) -> tuple[str | None, str | None] | None:
    """What a token is among the option names: None for a positional,
    else (the option it names, or None when it names none; its attached
    value, or None).  A unique prefix of a long option names it; "-5",
    "-.5" and tokens with a space are positionals."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token.startswith("--"):
        matches = [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise ArgvError(usage, f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _is_negative_number(token: str) -> bool:
    """Does token read as a negative number, as argparse reads one: "-"
    and decimal digits, or "-" and digits (maybe none) around one "." with
    digits after it?  One trailing newline is allowed, as in argparse."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    return (token[:1] == "-" and (not whole or whole.isdecimal())
            and (fraction.isdecimal() if dot else bool(whole)))


def _check_help(usage_key: str | None, name: str, value: str | None) -> None:
    """Raise HelpRequested for -h/--help; "-hh" is -h twice, while any
    other attached value is an error."""
    if value is None or (name == "-h" and value and not value.strip("h")):
        raise HelpRequested(HELP[usage_key])
    raise ArgvError(_usage(usage_key), f"argument -h/--help: ignored explicit argument {value!r}")


def _usage(key: str | None) -> str:
    return HELP[key].split("\n\n", 1)[0] + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The fields of an argv: `command`, the command's positional and one
    per option.  Raises HelpRequested for -h/--help and ArgvError for an
    argv that is rejected."""
    extras: list[str] = []
    for i, token in enumerate(argv):
        kind = _read_option(token, _HELP_FLAGS, _usage(None))
        if kind is None:
            break
        if kind[0] is None:
            extras.append(token)
        else:
            _check_help(None, *kind)
    else:
        raise ArgvError(_usage(None), "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        choices = ", ".join(repr(c) for c in COMMANDS)
        raise ArgvError(_usage(None),
                        f"argument command: invalid choice: {command!r} (choose from {choices})")
    args = _parse_command(command, argv[i + 1:], extras)
    if extras:
        raise ArgvError(_usage(None), "unrecognized arguments: " + " ".join(extras))
    return args


def _parse_command(command: str, tokens: list[str], extras: list[str]) -> SimpleNamespace:
    """Read the argv after the command, left to right; an unknown option or
    a surplus positional goes to extras."""
    positional, required, options = COMMANDS[command]
    usage = _usage(command)
    names = _HELP_FLAGS + tuple(options)
    kinds = []  # per token: "--", None (a positional) or _read_option's pair
    for k, token in enumerate(tokens):
        if token == "--":
            kinds.append("--")
            kinds.extend([None] * (len(tokens) - k - 1))
            break
        kinds.append(_read_option(token, names, usage))
    fields = {"command": command, positional: None}
    fields.update((o[2:].replace("-", "_"), default) for o, (default, _) in options.items())
    seen = last_was_positional = False
    k = 0
    while k < len(tokens):
        token, kind = tokens[k], kinds[k]
        k += 1
        if kind == "--":
            # argparse reads a `--` next to the positional, or before it,
            # as part of it; any other `--` is an extra argument
            if seen and not last_was_positional:
                extras.append(token)
            continue
        last_was_positional = kind is None and not seen
        if kind is None:
            if seen:
                extras.append(token)
            else:
                fields[positional] = token
                seen = True
            continue
        name, value = kind
        if name is None:
            extras.append(token)
            continue
        if name in _HELP_FLAGS:
            _check_help(command, name, value)
        if value is None:
            if k == len(tokens) or kinds[k] is not None:
                raise ArgvError(usage, f"argument {name}: expected one argument")
            value = tokens[k]
            k += 1
        try:
            fields[name[2:].replace("-", "_")] = options[name][1](value)
        except ValueError as exc:
            raise ArgvError(usage, f"argument {name}: {exc}")
    if required and not seen:
        raise ArgvError(usage, f"the following arguments are required: {positional}")
    return SimpleNamespace(**fields)


# ------------------------------------------------------------ subcommands

def _group_from_args(expression: str | None, relations: str | None) -> PresentedGroup:
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
    from .theorems import CHECKS, SUITE_NAMES, SUITES, TrialConfig

    if args.suite not in SUITE_NAMES + ("all",):
        choices = ", ".join(repr(n) for n in SUITE_NAMES + ("all",))
        raise UsageError(f"argument suite: invalid choice: {args.suite!r} (choose from {choices})")
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
    from .theorems import evaluate_section4

    report = evaluate_section4(group)
    for key, value in report.items():
        sys.stdout.write(f"{key} = {value}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except HelpRequested as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
    except ArgvError as exc:
        sys.stderr.write(f"{exc.usage}dfw: error: {exc}\n")
        return EXIT_USAGE
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
