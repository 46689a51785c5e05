"""Source spans, diagnostic codes, and the error hierarchy shared by all stages."""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple


class _Span(NamedTuple):
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


class SourceSpan(_Span):
    """A 1-based region of a source file; start is never past end.

    A tuple, so building one costs one allocation: the frontend makes one per
    core node it builds, from token positions already in order, so it skips
    the check this constructor makes.
    """

    __slots__ = ()

    def __new__(
        cls, file: str, start_line: int, start_col: int, end_line: int, end_col: int
    ) -> SourceSpan:
        if start_line > end_line or (start_line == end_line and start_col > end_col):
            raise ValueError(f"backwards span {file}:{start_line}:{start_col}")
        return tuple.__new__(cls, (file, start_line, start_col, end_line, end_col))

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


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
STRICT_FIELD_SCOPE = "W301"


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
        where = str(self.span) if self.span else "<unknown>:0:0"
        return f"{where}: error[{self.code}]: {self.message}"


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
    def __init__(self, limit: int):
        super().__init__(FUEL_EXHAUSTED, f"evaluation exceeded {limit} reduction steps")
        self.limit = limit


@contextmanager
def located(span: SourceSpan):
    """Give a diagnostic raised without a location the span of the input."""
    try:
        yield
    except SitError as err:
        if err.span is None:
            err.span = span
        raise


@contextmanager
def reported_at(source: str):
    """Report what no diagnostic locates at the start of `source`: a
    RecursionError as E502 (the walks over terms recurse once per nesting
    level) and a broken invariant of sit itself as E900."""
    where = SourceSpan(source, 1, 1, 1, 1)
    try:
        yield
    except RecursionError:
        message = "input nested too deeply to process"
        raise SitError(NESTING_TOO_DEEP, message, where) from None
    except InternalError as err:
        message = "internal error: " + " ".join(str(err).split())
        raise SitError(INTERNAL_ERROR, message, where) from None


@dataclass(frozen=True)
class Warning:
    """A non-fatal diagnostic; never changes the exit status."""

    code: str
    message: str
    span: SourceSpan | None = None

    def render(self) -> str:
        where = str(self.span) if self.span else "<unknown>:0:0"
        return f"{where}: warning[{self.code}]: {self.message}"
