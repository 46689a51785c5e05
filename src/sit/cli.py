"""The `sit` command: load a file, then evaluate, translate or print.

Every command loads its file with `typecheck.load`, and `eval` hands its
expression to `typecheck.evaluate`, as any library caller does; this module
adds only the options, the output and the exit codes. One `Fuel` is made
per command: `--fuel N` bounds every reduction step of the command, so the
check and the `-e` evaluation after it share the N steps. `--trace-match`
is that `Fuel`'s match observer.

Exit codes: 0 success, 1 type or coverage error, 2 parse or resolve error,
3 usage error, 4 resource limit: reduction steps (E501) or nesting depth
(E502), 5 internal error (E900, a broken invariant of sit itself, reported
at `<expr>:1:1` when the `-e` expression is handled, else at FILE:1:1).
Diagnostics go to stderr, one per line, as FILE:LINE:COL: error[Ennn]:
message.
"""
from __future__ import annotations

import argparse
import sys

from .core import DataDecl, pretty, pretty_pattern
from .diagnostics import (
    INTERNAL_ERROR,
    NESTING_TOO_DEEP,
    FuelError,
    LexError,
    ParseError,
    ResolveError,
    SitError,
    SourceSpan,
    located,
    reported_at,
)
from .evaluator import DEFAULT_FUEL, Fuel
from .frontend import decode_source
from .pattern_ops import Matched, Stuck
from .translate import emit_general, synth_ctor_type, to_general
from .typecheck import evaluate, load

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_SYNTAX_ERROR = 2
EXIT_USAGE = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5


def _trace(terms, pats, outcome) -> None:
    lhs = ", ".join(pretty(t) for t in terms)
    rhs = ", ".join(pretty_pattern(p) for p in pats)
    shown = type(outcome).__name__.lower()
    match outcome:
        case Matched(sub):
            binds = ", ".join(f"{x.text} := {pretty(t)}" for x, t in sub.items())
            shown += f" {{{binds}}}"
        case Stuck(pos):
            shown += f" at {pos}"
    print(f"match [{lhs}] ~ [{rhs}] -> {shown}", file=sys.stderr)


def _step_limit(text: str) -> int:
    """The type of `--fuel`: a number of reduction steps, never negative."""
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise argparse.ArgumentTypeError(
            f"expected a number of steps (0 or more), got {text!r}"
        )
    return limit


def _classify(err: SitError) -> int:
    if err.code == INTERNAL_ERROR:
        return EXIT_INTERNAL
    if isinstance(err, FuelError) or err.code == NESTING_TOO_DEEP:
        return EXIT_LIMIT
    if isinstance(err, (LexError, ParseError, ResolveError)):
        return EXIT_SYNTAX_ERROR
    return EXIT_TYPE_ERROR


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sit", description="Type check, evaluate, and translate .sit files."
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="source file (.sit)")
    common.add_argument(
        "--fuel",
        type=_step_limit,
        default=DEFAULT_FUEL,
        help="reduction step limit for the whole command",
    )
    common.add_argument(
        "--trace-match",
        action="store_true",
        help="log every pattern matching call and its outcome",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common], help="type check a file")
    p_check.add_argument(
        "--no-coverage", action="store_true", help="skip exhaustiveness checking"
    )
    p_check.add_argument(
        "--strict-fig6",
        dest="strict_row_fields",
        action="store_true",
        help="also check pattern-row constructor fields under the data "
        "telescope scope and report differences",
    )

    p_eval = sub.add_parser(
        "eval", parents=[common], help="normalize an expression in a checked file"
    )
    p_eval.add_argument("-e", "--expr", required=True, help="expression to evaluate")

    p_translate = sub.add_parser(
        "translate", parents=[common], help="print data declarations in GADT style"
    )
    p_translate.add_argument("-o", "--output", help="write to a file instead of stdout")

    p_ctor = sub.add_parser(
        "ctor-type", parents=[common], help="print a constructor's standalone type"
    )
    p_ctor.add_argument("ctor", help="constructor name")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    fuel = Fuel(args.fuel, observer=_trace if args.trace_match else None)
    try:
        with reported_at(args.file):
            return _dispatch(args, fuel)
    except SitError as err:
        print(err.render(), file=sys.stderr)
        return _classify(err)
    except OSError as err:
        print(f"sit: {err}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args, fuel: Fuel) -> int:
    with open(args.file, "rb") as fh:
        text = decode_source(fh.read(), args.file)
    checked = load(
        text, args.file, fuel, coverage=not getattr(args, "no_coverage", False),
        strict_row_fields=getattr(args, "strict_row_fields", False),
    )
    for w in checked.warnings:
        print(w.render(), file=sys.stderr)
    if args.command == "check":
        return EXIT_OK
    if args.command == "eval":
        result = evaluate(checked, args.expr, fuel)
        with reported_at("<expr>"):
            print(pretty(result))
        return EXIT_OK
    if args.command == "translate":
        chunks = [
            emit_general(to_general(checked.sig, decl))
            for decl in checked.sig.decls
            if isinstance(decl, DataDecl)
        ]
        text = "\n".join(chunks)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return EXIT_OK
    if args.command == "ctor-type":
        # The name is an input of its own, like the `-e` expression.
        with located(SourceSpan("<ctor>", 1, 1, 1, max(len(args.ctor), 1))):
            ty = synth_ctor_type(checked.sig, args.ctor)
        print(pretty(ty))
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
