"""Constructor selection and exhaustiveness checking.

`available_ctors` is the one place constructor rows are matched, for a
constructor the checker meets, a split, an unclaimed leaf and an impossible
pattern alike. It normalizes the index terms and matches each row of the
data declaration against them; a plain row always matches. The outcome
decides selection:

- per constructor, the first of its rows that does not mismatch is the one
  that applies: if it matches, its instantiated fields are the
  constructor's, and if it is stuck, the constructor cannot be decided;
- a split, or an impossible pattern, needs every row decided, so it is
  undecidable as soon as any row is stuck.

Coverage builds a case-splitting tree over a function's telescope. A column
is split when some clause constrains it with a constructor or impossible
pattern; the split enumerates the constructors available at the column's
type. Every leaf must be claimed by a clause, except leaves whose tuple type
is uninhabited. `check_coverage` walks the tree depth first from an explicit
stack of problems, pushing a split's cases in reverse so they are taken in
constructor order: the first missing case or undecidable split reported is
the leftmost one.
"""
from __future__ import annotations

from typing import Sequence

from .core import (
    BindPat,
    ConCall,
    ConPat,
    DataCall,
    FuncDecl,
    ImpossiblePat,
    Node,
    Signature,
    Telescope,
    Term,
    Var,
    VarCall,
    free_vars,
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
from .pattern_ops import Matched, Stuck, match_terms, vars_tele


class Undecidable(Node):
    """Some row's match is stuck, so availability cannot be decided."""

    __slots__ = ("ctor", "position")
    ctor: str
    position: int


def available_ctors(
    sig: Signature,
    data_name: str,
    args: Sequence[Term],
    fuel: Fuel,
    ctor: str | None = None,
) -> dict[str, Telescope] | Undecidable:
    """The field telescope of each constructor of a data type available at
    these arguments, taken from its first matching row, in the order of those
    rows; `Undecidable` at the first stuck row. The arguments are normalized
    here.

    Given `ctor`, only its rows are matched, and the first that does not
    mismatch decides. Every match is reported to `fuel.observer`; a plain
    row matches with no bindings, unobserved.
    """
    decl = sig.data(data_name)
    if decl is None:
        raise InternalError(f"unknown data type {data_name}")
    args = [index_normal_form(sig, a, fuel) for a in args]
    # Fields are instantiated at the row's bindings and the data telescope's
    # variables all at once: an argument may mention the data telescope's own
    # variables (a row using its data type at them, swapped).
    at_args = dict(zip(vars_tele(decl.telescope), args))
    observer = fuel.observer
    fields: dict[str, Telescope] = {}
    for row in decl.ctors:
        name = row.name
        if ctor is not None and name != ctor:
            continue
        pats = row.patterns
        m = at_args
        if pats is not None:
            out = match_terms(args, pats)
            if observer is not None:
                observer(args, pats, out)
            c = type(out)
            if c is Stuck:
                return Undecidable(name, out.position)
            if c is not Matched:
                continue
            m = {**out.sub, **at_args}
        if name not in fields:
            tele = row.fields
            if m:
                tele = Telescope(tuple((x, subst(ty, m)) for x, ty in tele.entries))
            fields[name] = tele
        if ctor is not None:
            break
    return fields


# ---------------------------------------------------------------------------
# Exhaustiveness

_HOLE = VarCall(Var("_", 0))


def check_coverage(sig: Signature, func: FuncDecl, fuel: Fuel) -> list[Warning]:
    """Certify that the clauses cover every constructor form of the telescope.

    Raises CoverageError with a concrete uncovered pattern stack, or when a
    needed split has undecidable availability. Returns warnings for clauses
    no leaf selects. `fuel` bounds all evaluation of the check.

    A problem is its columns (a variable and its type each), the rows of
    clause index and patterns that still claim it, one pattern per column,
    and the shapes: the function's arguments as constructor spines over the
    columns' variables.
    """
    used: set[int] = set()
    stack = [(
        list(func.telescope.entries),
        [(i, list(cl.patterns)) for i, cl in enumerate(func.clauses)],
        [VarCall(x) for x, _ in func.telescope.entries],
    )]
    while stack:
        columns, rows, shapes = stack.pop()
        if not rows:
            # Unclaimed leaf: fine only if some remaining column type is empty.
            for _, ty in columns:
                ty = whnf(sig, ty, fuel)
                if type(ty) is DataCall:
                    av = available_ctors(sig, ty.name, ty.args, fuel)
                    if type(av) is dict and not av:
                        break
            else:
                # Shapes are constructor spines over the holes, which print as "_".
                holes = {x: _HOLE for s in shapes for x in free_vars(s)}
                case = ", ".join(pretty(subst(s, holes)) for s in shapes)
                raise CoverageError(
                    MISSING_CASE,
                    f"missing case in {func.name}: {case or '(no arguments)'}",
                    func.span,
                )
            continue

        split_at = _split_column(rows, len(columns))
        if split_at is None:
            # Every surviving row is all catch-alls; the first one claims the leaf.
            used.add(rows[0][0])
            continue

        var, col_ty = columns[split_at]
        ty = whnf(sig, col_ty, fuel)
        if type(ty) is not DataCall:
            raise InternalError(f"splitting non-data column {pretty(col_ty)}")
        cases = available_ctors(sig, ty.name, ty.args, fuel)
        if type(cases) is Undecidable:
            raise CoverageError(
                CANNOT_SPLIT,
                f"cannot split on {var.text} : {pretty(ty)} in {func.name}: "
                f"availability of constructor {cases.ctor} is undecidable",
                func.span,
            )

        if not cases:
            # Empty split: impossible patterns here claim the vacuous case.
            for i, pats in rows:
                if type(pats[split_at]) is ImpossiblePat:
                    used.add(i)
            continue

        # Reversed, so the first constructor's case is taken first.
        for ctor, fields in reversed(cases.items()):
            entries = fields.entries
            field_vars = [Var.fresh(x.text) for x, _ in entries]
            rename = {x: VarCall(w) for (x, _), w in zip(entries, field_vars)}
            refine = {var: ConCall(ctor, tuple(VarCall(w) for w in field_vars))}
            new_columns = (
                columns[:split_at]
                + [(w, subst(ty_i, rename)) for w, (_, ty_i) in zip(field_vars, entries)]
                + [(x, subst(ty_x, refine)) for x, ty_x in columns[split_at + 1 :]]
            )
            new_rows = []
            for i, pats in rows:
                p = pats[split_at]
                c = type(p)
                if c is BindPat:
                    sub_pats = [BindPat(w) for w in field_vars]
                elif c is ConPat:
                    if p.name != ctor:
                        continue
                    if len(p.args) != len(field_vars):
                        raise InternalError(
                            f"pattern arity for {p.name} disagrees with the "
                            f"row selected at this split"
                        )
                    sub_pats = list(p.args)
                else:  # impossible, at a type with constructors
                    continue
                new_rows.append((i, pats[:split_at] + sub_pats + pats[split_at + 1 :]))
            new_shapes = [subst(s, refine) for s in shapes]
            stack.append((new_columns, new_rows, new_shapes))

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


def _split_column(rows: list[tuple[int, list]], width: int) -> int | None:
    """The first column that some row constrains with a non-catch-all."""
    for j in range(width):
        for _, pats in rows:
            if type(pats[j]) is not BindPat:
                return j
    return None

