"""Translation of pattern-selected data types into GADT-style declarations.

Each constructor row becomes a constructor whose type quantifies the row's
pattern bindings, then the fields, and returns the data type at the terms
the patterns stand for. Plain rows are first normalized into pattern rows
whose patterns are the data telescope's variables.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BindPat,
    CtorRow,
    DataCall,
    DataDecl,
    Pattern,
    Pi,
    Signature,
    Telescope,
    Term,
    pattern_has_impossible,
    pretty,
)
from .diagnostics import UNKNOWN_NAME, TypeCheckError
from .pattern_ops import to_terms, vars_pats


@dataclass(frozen=True)
class GeneralData:
    """A data type whose constructors carry arbitrary Pi types ending in an
    instantiation of the data type. The telescope holds indices only."""

    name: str
    telescope: Telescope
    ctors: tuple[tuple[str, Term], ...]


def as_pattern_row(decl: DataDecl, row: CtorRow) -> CtorRow:
    """A plain row as the equivalent pattern row binding the telescope vars."""
    if row.patterns is not None:
        return row
    pats = tuple(BindPat(x, ty) for x, ty in decl.telescope)
    return CtorRow(row.name, row.fields, pats, row.span)


def _ctor_type(decl: DataDecl, row: CtorRow) -> Term:
    pats: tuple[Pattern, ...] = as_pattern_row(decl, row).patterns
    binders = vars_pats(pats)
    codomain: Term = DataCall(decl.name, tuple(to_terms(pats)))
    ty = codomain
    for x, t in reversed(row.fields.entries):
        ty = Pi(x, t, ty)
    for x, t in reversed(binders.entries):
        ty = Pi(x, t, ty)
    return ty


def to_general(sig: Signature, decl: DataDecl) -> GeneralData:
    """Translate a checked data declaration.

    Rows containing impossible patterns select no instantiation at all and
    are dropped; every other row translates. `sig` is unused; it stays while
    `bench/pipeline.py` passes it, and goes with the benchmark's next change.
    """
    ctors = tuple(
        (row.name, _ctor_type(decl, row))
        for row in decl.ctors
        if row.patterns is None
        or not any(pattern_has_impossible(p) for p in row.patterns)
    )
    return GeneralData(decl.name, decl.telescope, ctors)


def synth_ctor_type(sig: Signature, ctor: str) -> Term:
    """The standalone type of a constructor: its first row's translated type."""
    owner = sig.ctor_owner(ctor)
    if owner is None:
        raise TypeCheckError(UNKNOWN_NAME, f"unknown constructor {ctor}")
    row = next(row for row in owner.ctors if row.name == ctor)
    return _ctor_type(owner, row)


def emit_general(g: GeneralData) -> str:
    """Deterministic text form; emitting twice yields identical output."""
    head = _pi_groups(g.telescope, "Type")
    lines = [f"data {g.name} : {head} where"]
    for name, ty in g.ctors:
        lines.append(f"  {name} : {_render_ctor(ty)}")
    return "\n".join(lines) + "\n"


def _render_ctor(ty: Term) -> str:
    groups: list[str] = []
    while isinstance(ty, Pi):
        groups.append(f"({ty.binder.text} : {pretty(ty.domain)})")
        ty = ty.codomain
    if not groups:
        return pretty(ty)
    return f"{' '.join(groups)} → {pretty(ty)}"


def _pi_groups(tele: Telescope, codomain: str) -> str:
    if not tele:
        return codomain
    groups = " ".join(f"({x.text} : {pretty(ty)})" for x, ty in tele)
    return f"{groups} → {codomain}"
