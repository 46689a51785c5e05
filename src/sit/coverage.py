"""Constructor selection and exhaustiveness checking.

`row_outcomes` is the one place constructor rows are matched: each row of a
data declaration is matched against the (normalized) index terms, and a
plain row always matches. The outcome decides selection:

- per constructor, the first of its rows that does not mismatch is the one
  that applies: if it matches, its instantiated fields are the
  constructor's, and if it is stuck, the constructor cannot be decided;
- a split, or an impossible pattern, needs every row decided, so it is
  undecidable as soon as any row is stuck.

Coverage builds a case-splitting tree over a function's telescope. A column
is split when some clause constrains it with a constructor or impossible
pattern; the split enumerates the constructors available at the column's
type. Every leaf must be claimed by a clause, except leaves whose tuple type
is uninhabited.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    BindPat,
    ConCall,
    ConPat,
    CtorRow,
    DataCall,
    DataDecl,
    FuncDecl,
    ImpossiblePat,
    Node,
    Signature,
    Telescope,
    Term,
    Var,
    VarCall,
    pretty,
    subst,
)
from .diagnostics import (
    CANNOT_SPLIT,
    MISSING_CASE,
    UNREACHABLE_CLAUSE,
    CoverageError,
    InternalError,
    Warning,
)
from .evaluator import Fuel, index_normal_form, whnf
from .pattern_ops import Matched, MatchOutcome, Stuck, match_terms, vars_tele


class Available(Node):
    """Constructor rows selectable at an instantiation, in declaration order.

    A name repeats when several rows for the same constructor match.
    """

    __slots__ = ("rows",)
    rows: tuple[str, ...]


class Undecidable(Node):
    """Some row's match is stuck, so availability cannot be decided."""

    __slots__ = ("ctor", "position")
    ctor: str
    position: int


Availability = Available | Undecidable


def row_outcomes(
    decl: DataDecl, args: Sequence[Term], fuel: Fuel, ctor: str | None = None
) -> Iterator[tuple[CtorRow, MatchOutcome]]:
    """Each constructor row (only those of `ctor`, if given) in declaration
    order with its match outcome at these (normalized) arguments; a plain row
    matches with no bindings. Each match is reported to `fuel.observer`."""
    for row in decl.ctors:
        if ctor is not None and row.name != ctor:
            continue
        if row.patterns is None:
            yield row, Matched({})
            continue
        out = match_terms(args, row.patterns)
        if fuel.observer is not None:
            fuel.observer(args, row.patterns, out)
        yield row, out


def available_ctors(
    sig: Signature, data_name: str, args: list[Term], fuel: Fuel
) -> Availability:
    """Which constructors of a data type are available at these arguments."""
    decl = sig.data(data_name)
    if decl is None:
        raise InternalError(f"unknown data type {data_name}")
    args = [index_normal_form(sig, a, fuel) for a in args]
    names: list[str] = []
    for row, out in row_outcomes(decl, args, fuel):
        match out:
            case Matched(_):
                names.append(row.name)
            case Stuck(pos):
                return Undecidable(row.name, pos)
    return Available(tuple(names))


def available_fields(
    decl: DataDecl, args: list[Term], fuel: Fuel
) -> dict[str, Telescope] | Undecidable:
    """The field telescope of each available constructor at these (normalized)
    arguments, taken from its first matching row, in the order of those rows."""
    fields: dict[str, Telescope] = {}
    for row, out in row_outcomes(decl, args, fuel):
        match out:
            case Matched(sub) if row.name not in fields:
                fields[row.name] = instantiate_fields(decl, row, args, sub)
            case Stuck(pos):
                return Undecidable(row.name, pos)
    return fields


def instantiate_fields(
    decl: DataDecl, row: CtorRow, args: list[Term], sub: dict[Var, Term]
) -> Telescope:
    """The field telescope of a row at a concrete instantiation of the data.

    The row's match result and the data telescope's variables, replaced by
    the arguments, are substituted at once: an argument may mention the data
    telescope's own variables (a row using its data type at them, swapped).
    """
    m = dict(sub)
    m.update(zip(vars_tele(decl.telescope), args))
    return Telescope(tuple((x, subst(ty, m)) for x, ty in row.fields))


# ---------------------------------------------------------------------------
# Exhaustiveness


@dataclass
class _Column:
    var: Var
    ty: Term


def check_coverage(sig: Signature, func: FuncDecl, fuel: Fuel) -> list[Warning]:
    """Certify that the clauses cover every constructor form of the telescope.

    Raises CoverageError with a concrete uncovered pattern stack, or when a
    needed split has undecidable availability. Returns warnings for clauses
    no leaf selects. `fuel` bounds all evaluation of the check.
    """
    columns = [_Column(x, ty) for x, ty in func.telescope]
    rows = [(i, list(cl.patterns)) for i, cl in enumerate(func.clauses)]
    shapes: list[Term] = [VarCall(x) for x, _ in func.telescope]
    hole_vars = {x for x, _ in func.telescope}
    used: set[int] = set()
    _cover(sig, func, fuel, columns, rows, shapes, hole_vars, used)
    warnings = []
    for i, cl in enumerate(func.clauses):
        if i not in used:
            warnings.append(
                Warning(
                    UNREACHABLE_CLAUSE,
                    f"clause {i + 1} of {func.name} is selected by no case",
                    cl.span,
                )
            )
    return warnings


def _cover(sig, func, fuel, columns, rows, shapes, hole_vars, used) -> None:
    if not rows:
        # Unclaimed leaf: fine only if some remaining column type is empty.
        for col in columns:
            ty = whnf(sig, col.ty, fuel)
            if isinstance(ty, DataCall):
                av = available_ctors(sig, ty.name, list(ty.args), fuel)
                if isinstance(av, Available) and not av.rows:
                    return
        # Shapes are constructor spines over the holes, which print as "_".
        holes = {x: VarCall(Var("_", 0)) for x in hole_vars}
        stack = ", ".join(pretty(subst(s, holes)) for s in shapes)
        raise CoverageError(
            MISSING_CASE, f"missing case in {func.name}: {stack}", func.span
        )

    split_at = None
    for j in range(len(columns)):
        if any(not isinstance(pats[j], BindPat) for _, pats in rows):
            split_at = j
            break
    if split_at is None:
        # Every surviving row is all catch-alls; the first one claims the leaf.
        used.add(rows[0][0])
        return

    col = columns[split_at]
    ty = whnf(sig, col.ty, fuel)
    if not isinstance(ty, DataCall):
        raise InternalError(f"splitting non-data column {pretty(col.ty)}")
    indices = [index_normal_form(sig, a, fuel) for a in ty.args]
    cases = available_fields(sig.data(ty.name), indices, fuel)
    if isinstance(cases, Undecidable):
        raise CoverageError(
            CANNOT_SPLIT,
            f"cannot split on {col.var.text} : {pretty(ty)} in {func.name}: "
            f"availability of constructor {cases.ctor} is undecidable",
            func.span,
        )

    if not cases:
        # Empty split: impossible patterns here claim the vacuous case.
        for i, pats in rows:
            if isinstance(pats[split_at], ImpossiblePat):
                used.add(i)
        return

    for ctor, fields in cases.items():
        field_vars = [Var.fresh(x.text) for x, _ in fields]
        rename = {x: VarCall(w) for (x, _), w in zip(fields, field_vars)}
        field_cols = [
            _Column(w, subst(ty_i, rename))
            for w, (_, ty_i) in zip(field_vars, fields)
        ]
        case_term = ConCall(ctor, tuple(VarCall(w) for w in field_vars))
        refine = {col.var: case_term}

        new_columns = (
            [_Column(c.var, c.ty) for c in columns[:split_at]]
            + field_cols
            + [_Column(c.var, subst(c.ty, refine)) for c in columns[split_at + 1 :]]
        )
        new_shapes = [subst(s, refine) for s in shapes]
        new_holes = (hole_vars - {col.var}) | set(field_vars)

        new_rows = []
        for i, pats in rows:
            p = pats[split_at]
            match p:
                case BindPat(_, _):
                    sub_pats = [BindPat(w) for w in field_vars]
                case ConPat(name, qs):
                    if name != ctor:
                        continue
                    if len(qs) != len(field_vars):
                        raise InternalError(
                            f"pattern arity for {name} disagrees with the "
                            f"row selected at this split"
                        )
                    sub_pats = list(qs)
                case ImpossiblePat():
                    continue
            new_rows.append((i, pats[:split_at] + sub_pats + pats[split_at + 1 :]))

        _cover(sig, func, fuel, new_columns, new_rows, new_shapes, new_holes, used)
