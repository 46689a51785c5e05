"""Translation of pattern-selected data types into GADT-style declarations.

Each constructor row becomes a constructor whose type quantifies the row's
pattern bindings, then the fields, and returns the data type at the terms
the patterns stand for. The bindings and their types are the row's
`binders`, which checking fills in; an unchecked row is an internal error.
A plain row's patterns are catch-alls over the data telescope, so it
quantifies the telescope and returns the type at it.
"""
from __future__ import annotations

from .core import (
    CtorRow,
    DataCall,
    DataDecl,
    Node,
    Pi,
    Signature,
    Telescope,
    Term,
    UNIV,
    pattern_has_impossible,
    pretty,
)
from .diagnostics import UNKNOWN_NAME, InternalError, TypeCheckError
from .pattern_ops import to_terms


class GeneralData(Node):
    """A data type whose constructors carry arbitrary Pi types ending in an
    instantiation of the data type. The telescope holds indices only."""

    __slots__ = ("name", "telescope", "ctors")
    name: str
    telescope: Telescope
    ctors: tuple[tuple[str, Term], ...]


def _pis(tele: Telescope, ty: Term) -> Term:
    """`ty` under one Pi per entry of `tele`, the first entry outermost."""
    for x, t in reversed(tele):
        ty = Pi(x, t, ty)
    return ty


def _ctor_type(decl: DataDecl, row: CtorRow) -> Term:
    if row.binders is None:
        raise InternalError(f"a row of {row.name} in {decl.name} is not checked")
    codomain = DataCall(decl.name, tuple(to_terms(row.patterns)))
    return _pis(row.binders, _pis(row.fields, codomain))


def to_general(sig: Signature, decl: DataDecl) -> GeneralData:
    """Translate a checked data declaration.

    Rows containing impossible patterns select no instantiation at all and
    are dropped; every other row translates. `sig` is unused; it stays while
    `bench/pipeline.py` passes it, and goes with the benchmark's next change.
    """
    ctors = tuple(
        (row.name, _ctor_type(decl, row))
        for row in decl.ctors
        if not any(pattern_has_impossible(p) for p in row.patterns)
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
    head = _render_ctor(_pis(g.telescope, UNIV))
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
