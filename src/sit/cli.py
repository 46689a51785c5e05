"""Command line driver: parse, resolve, check, then evaluate or translate.

One `Fuel` is made per command: `--fuel N` bounds every reduction step of
the command, so the check and the `-e` evaluation after it share the N
steps. `--trace-match` is that `Fuel`'s match observer. `eval` checks the
`-e` expression against the type its head fixes, if any, before it
normalizes it.

Exit codes: 0 success, 1 type or coverage error, 2 parse or resolve error,
3 usage error, 4 resource limit: reduction steps (E501) or nesting depth
(E502), 5 internal error (E900, a broken invariant of sit itself, reported
at FILE:1:1). Diagnostics go to stderr, one per line, as
FILE:LINE:COL: error[Ennn]: message.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .core import (
    EMPTY_TELESCOPE,
    UNIV,
    ConCall,
    DataCall,
    DataDecl,
    FnCall,
    Pi,
    Signature,
    Term,
    Univ,
    pretty,
    pretty_pattern,
    subst,
)
from .diagnostics import (
    INTERNAL_ERROR,
    NESTING_TOO_DEEP,
    FuelError,
    InternalError,
    LexError,
    ParseError,
    ResolveError,
    SitError,
    SourceSpan,
    Warning,
)
from .evaluator import DEFAULT_FUEL, Fuel, normalize
from .frontend import Resolver, decode_source, parse_expression, parse_file
from .pattern_ops import Matched, Stuck, vars_tele
from .translate import emit_general, synth_ctor_type, to_general
from .typecheck import TypeChecker

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_SYNTAX_ERROR = 2
EXIT_USAGE = 3
EXIT_LIMIT = 4
EXIT_INTERNAL = 5


@dataclass
class Checked:
    sig: Signature
    resolver: Resolver
    warnings: list[Warning]


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


def _load(args, fuel: Fuel) -> Checked:
    with open(args.file, "rb") as fh:
        text = decode_source(fh.read(), args.file)
    resolver = Resolver()
    decls = resolver.run(parse_file(text, args.file))
    checker = TypeChecker(
        fuel=fuel, strict_row_fields=getattr(args, "strict_row_fields", False)
    )
    sig = checker.check_signature(
        decls, coverage=not getattr(args, "no_coverage", False)
    )
    return Checked(sig, resolver, checker.warnings)


def _head_type(sig: Signature, term: Term) -> Optional[Term]:
    """The type that the head of a closed expression fixes, or None.

    A function call has the function's result at its arguments; a data
    type, a Pi or `Type` has type `Type`; a constructor of a data type with
    an empty telescope has that type. A lambda, or a constructor of a type
    with parameters or indices, fixes none: its type's arguments cannot be
    inferred without unification.
    """
    c = type(term)
    if c is FnCall:
        func = sig.func(term.name)
        return subst(func.result, dict(zip(vars_tele(func.telescope), term.args)))
    if c is ConCall:
        owner = sig.ctor_owner(term.name)
        return None if owner.telescope else DataCall(owner.name, ())
    if c is DataCall or c is Pi or c is Univ:
        return UNIV
    return None


def _print_warnings(warnings: list[Warning]) -> None:
    for w in warnings:
        print(w.render(), file=sys.stderr)


@contextmanager
def _nesting_limit(source: str):
    """Report a RecursionError as E502 at the start of `source`.

    The walks over terms recurse once per nesting level.
    """
    try:
        yield
    except RecursionError:
        raise SitError(
            NESTING_TOO_DEEP,
            "input nested too deeply to process",
            SourceSpan(source, 1, 1, 1, 1),
        ) from None


@contextmanager
def _located(span: SourceSpan):
    """Give a diagnostic raised without a location the span of the input."""
    try:
        yield
    except SitError as err:
        if err.span is None:
            err.span = span
        raise


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
        with _nesting_limit(args.file):
            return _dispatch(args, fuel)
    except SitError as err:
        print(err.render(), file=sys.stderr)
        return _classify(err)
    except InternalError as err:
        # The last resort: one diagnostic line, never a traceback.
        message = "internal error: " + " ".join(str(err).split())
        where = SourceSpan(args.file, 1, 1, 1, 1)
        print(SitError(INTERNAL_ERROR, message, where).render(), file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as err:
        print(f"sit: {err}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args, fuel: Fuel) -> int:
    checked = _load(args, fuel)
    _print_warnings(checked.warnings)
    if args.command == "check":
        return EXIT_OK
    if args.command == "eval":
        with _nesting_limit("<expr>"):
            tokens = parse_expression(args.expr)
            term: Term = checked.resolver.resolve_expression(tokens)
            with _located(tokens.span):
                ty = _head_type(checked.sig, term)
                if ty is not None:
                    TypeChecker(checked.sig, fuel).check_term(EMPTY_TELESCOPE, term, ty)
                result = normalize(checked.sig, term, fuel)
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
        with _located(SourceSpan("<ctor>", 1, 1, 1, max(len(args.ctor), 1))):
            ty = synth_ctor_type(checked.sig, args.ctor)
        print(pretty(ty))
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
