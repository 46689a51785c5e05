"""Source spans, diagnostic codes, and the error hierarchy shared by all stages."""
from __future__ import annotations

from collections import namedtuple


class SourceSpan(namedtuple("_Span", "file start_line start_col")):
    """Where a node's text starts in a source file, 1-based.

    A tuple, so building one costs one allocation: the frontend makes one per
    core node it builds.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


def _where(span: SourceSpan | None) -> str:
    """`span` as FILE:LINE:COL, or `<unknown>:0:0` when there is none."""
    return str(span) if span else "<unknown>:0:0"


def counted(n: int, noun: str) -> str:
    """`n` `noun`s in words: "no fields", "1 field", "2 fields"."""
    return f"no {noun}s" if n == 0 else f"1 {noun}" if n == 1 else f"{n} {noun}s"


# Diagnostic codes, grouped by pipeline stage.
LEX_ERROR = "E101"
PARSE_ERROR = "E102"

UNKNOWN_IDENT = "E201"
BAD_APPLICATION = "E202"
DUPLICATE_DECL = "E203"
SHADOWS_CTOR = "E204"

UNKNOWN_NAME = "E301"
ARITY_MISMATCH = "E302"
TYPE_MISMATCH = "E303"
UNEXPECTED_FORM = "E304"
CTOR_UNAVAILABLE = "E305"
CTOR_STUCK = "E306"
NOT_A_DATA_TYPE = "E307"
IMPOSSIBLE_REJECTED = "E308"
WRONG_DATA_TYPE = "E309"
DUPLICATE_PATTERN_VAR = "E310"
IMPOSSIBLE_HAS_BODY = "E311"
MISSING_BODY = "E312"
DUPLICATE_NAME = "E313"

MISSING_CASE = "E401"
CANNOT_SPLIT = "E402"

FUEL_EXHAUSTED = "E501"
NESTING_TOO_DEEP = "E502"

INTERNAL_ERROR = "E900"

UNREACHABLE_CLAUSE = "W401"
UNREACHABLE_ROW = "W302"


class InternalError(Exception):
    """An invariant the pipeline was supposed to maintain has been violated."""


class SitError(Exception):
    """Base for all user-facing diagnostics."""

    def __init__(self, code: str, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span

    def render(self) -> str:
        return f"{_where(self.span)}: error[{self.code}]: {self.message}"


class LexError(SitError):
    pass


class ParseError(SitError):
    pass


class ResolveError(SitError):
    pass


class TypeCheckError(SitError):
    """A rejection from the type checker."""


class CoverageError(TypeCheckError):
    pass


class FuelError(SitError):
    def __init__(self, limit: int, message: str | None = None):
        super().__init__(
            FUEL_EXHAUSTED, message or f"evaluation exceeded {limit} reduction steps"
        )
        self.limit = limit


class located:
    """The one guard: what fails inside it with no location of its own is
    reported at `span`. A diagnostic with no span takes it, a RecursionError
    becomes E502 (the walks over terms recurse once per nesting level) and a
    broken invariant of sit itself E900. The checker enters one per
    declaration and the `sit` command one per file and `-e` expression, so
    E502 and E900 point at the declaration, at `<expr>:1:1` or at FILE:1:1.
    A slotted class, not a `contextlib` generator: it costs a third as much.
    """

    __slots__ = ("span",)

    def __init__(self, span: SourceSpan) -> None:
        self.span = span

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, traceback) -> bool:
        if isinstance(err, SitError):
            if err.span is None:
                err.span = self.span
        elif isinstance(err, RecursionError):
            message = "input nested too deeply to process"
            raise SitError(NESTING_TOO_DEEP, message, self.span) from None
        elif isinstance(err, InternalError):
            message = "internal error: " + " ".join(str(err).split())
            raise SitError(INTERNAL_ERROR, message, self.span) from None
        return False


class Warning(namedtuple("Warning", "code message span", defaults=(None,))):
    """A non-fatal diagnostic, at `span` when it has one; never changes the
    exit status."""

    __slots__ = ()

    def render(self) -> str:
        return f"{_where(self.span)}: warning[{self.code}]: {self.message}"
