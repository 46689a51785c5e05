"""Constructor selection and exhaustiveness checking.

`available_ctors` is the one place constructor rows are matched, for a
constructor the checker meets, a split, an unclaimed leaf and an impossible
pattern alike. It normalizes the index terms and matches each row of the
data declaration against them (a plain row's catch-alls match anything,
binding the data telescope's variables). The outcome decides selection:

- per constructor, the first of its rows that does not mismatch is the one
  that applies: if it matches, its instantiated fields are the
  constructor's, and if it is stuck, the constructor cannot be decided;
- a split, or an impossible pattern, needs every row decided, so it is
  undecidable as soon as any row is stuck.

Coverage splits a telescope into a tree of cases, walked depth first from
an explicit stack of problems. A problem is its columns (a variable and its
type each), its rows (an index and one pattern per column) and its chain:
the refinements of the splits above it, each a column variable mapped to a
constructor over fresh field variables. A first row of catch-alls claims
the problem, since under first-match selection it takes the whole branch.
Otherwise the first column some row constrains is split on the constructors
available at its type, spending one of the `Fuel`'s splits. A case whose
first agreeing row is all catch-alls, once that row's sub-patterns take
the column's place, is claimed at once. Any other case is built, since it
is split again or left unclaimed: it puts the constructor's fields in the
column's place, refines the later column types and keeps the rows that
agree, with a catch-all per field in a row that binds the column. Cases
are pushed in reverse, so the first error reported is the leftmost.

This one split answers every usefulness question. Over a function's
clauses, a leaf with no rows needs an uninhabited column type, or else its
chain names the missing case (E401); an undecidable split is E402, and a
clause that claims no leaf W401. Over the rows of one constructor and a
last row of catch-alls, a row that claims no leaf is never selected (W302):
earlier rows match first wherever it matches. Rows with `impossible` are
left out, and an undecidable split gives no W302.
"""
from __future__ import annotations

from collections.abc import Sequence

from .core import (
    BindPat,
    ConCall,
    ConPat,
    DataCall,
    DataDecl,
    Declaration,
    FnCall,
    FuncDecl,
    ImpossiblePat,
    Node,
    Signature,
    Telescope,
    Term,
    Var,
    VarCall,
    free_vars,
    pattern_has_impossible,
    pretty,
    subst,
)
from .diagnostics import (
    CANNOT_SPLIT,
    MISSING_CASE,
    UNREACHABLE_CLAUSE,
    UNREACHABLE_ROW,
    CoverageError,
    InternalError,
    Warning,
)
from .evaluator import Fuel, index_normal_form, whnf
from .pattern_ops import Matched, Stuck, match_terms


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
    these arguments, taken from its first matching row and instantiated at
    that match's bindings, in the order of those rows; `Undecidable` at the
    first stuck row. The arguments are normalized here.

    Given `ctor`, only its rows are matched, and the first that does not
    mismatch decides. Every match is reported to `fuel.observer`. A data
    type with an empty telescope (`Nat`, `Bool`) has rows of no patterns,
    each matching with no bindings: it is answered without the matcher,
    so without normalizing, instantiating or observing anything.
    """
    decl = sig.data(data_name)
    if decl is None:
        raise InternalError(f"unknown data type {data_name}")
    if args:
        # Only a call or a spine not yet known normal can change.
        args = [
            index_normal_form(sig, a, fuel)
            if type(a) is FnCall or (type(a) is ConCall and not a._spine_normal)
            else a
            for a in args
        ]
    observer = fuel.observer
    fields: dict[str, Telescope] = {}
    for row in decl.ctors:
        name = row.name
        if ctor is not None and name != ctor:
            continue
        sub = None
        if args:
            pats = row.patterns
            out = match_terms(args, pats)
            if observer is not None:
                observer(args, pats, out)
            c = type(out)
            if c is Stuck:
                return Undecidable(name, out.position)
            if c is not Matched:
                continue
            sub = out.sub
        if name not in fields:
            tele = row.fields
            if sub and tele.entries:
                tele = Telescope(tuple([(x, subst(ty, sub)) for x, ty in tele.entries]))
            fields[name] = tele
        if ctor is not None:
            break
    return fields


# ---------------------------------------------------------------------------
# Exhaustiveness and usefulness

_HOLE = VarCall(Var("_", 0))
# The pattern of each field of a row that binds its split column: coverage
# reads only a pattern's class.
_CATCH_ALL = BindPat(Var("_", 0))


def check_coverage(sig: Signature, func: FuncDecl, fuel: Fuel) -> list[Warning]:
    """Certify that the clauses cover every case of the telescope, or raise
    CoverageError (E401, E402); returns W401 for each clause no case selects."""
    used = _useful(sig, func, list(enumerate(c.patterns for c in func.clauses)), fuel)
    return [Warning(UNREACHABLE_CLAUSE, f"clause {i + 1} of {func.name} is selected "
                    "by no case", cl.span)
            for i, cl in enumerate(func.clauses) if i not in used]


def unselected_rows(sig: Signature, decl: DataDecl, fuel: Fuel) -> list[Warning]:
    """W302 for each row of `decl` that no index selects, in row order."""
    rows_of: dict[str, list] = {}
    for i, row in enumerate(decl.ctors):
        if not any(map(pattern_has_impossible, row.patterns)):
            rows_of.setdefault(row.name, []).append((i, row.patterns))
    dead: set[int] = set()
    for rows in rows_of.values():
        if len(rows) > 1:
            last = (-1, (_CATCH_ALL,) * len(decl.telescope))
            try:
                used = _useful(sig, decl, rows + [last], fuel)
            except CoverageError:  # with `last`, only an undecidable split
                continue
            dead.update(i for i, _ in rows if i not in used)
    return [Warning(UNREACHABLE_ROW, f"row of constructor {row.name} is never "
                    f"selected: the earlier rows of {row.name} match wherever it does",
                    row.span)
            for i, row in enumerate(decl.ctors) if i in dead]


def _useful(sig: Signature, decl: Declaration, rows: list, fuel: Fuel) -> set[int]:
    """The indices of the useful rows: those that claim a leaf of the split
    over the telescope of `decl`. Raises CoverageError at the first leaf no
    row claims whose columns are inhabited, and at the first undecidable
    split."""
    used: set[int] = set()
    stack = [(list(decl.telescope.entries), rows, None)]
    while stack:
        columns, rows, chain = stack.pop()
        if not rows:
            # Unclaimed leaf: fine only if some remaining column type is empty.
            for _, ty in columns:
                ty = whnf(sig, ty, fuel)
                if type(ty) is DataCall:
                    av = available_ctors(sig, ty.name, ty.args, fuel)
                    if type(av) is dict and not av:
                        break
            else:
                case = _missing_case(decl, chain)
                raise CoverageError(
                    MISSING_CASE,
                    f"missing case in {decl.name}: {case or '(no arguments)'}",
                    decl.span,
                )
            continue

        split_at = _split_column(rows)
        if split_at is None:
            # The first row is all catch-alls (see the module docstring):
            # only at the root, since a split claims its cases unbuilt.
            used.add(rows[0][0])
            continue

        fuel.split()
        var, col_ty = columns[split_at]
        ty = whnf(sig, col_ty, fuel)
        if type(ty) is not DataCall:
            raise InternalError(f"splitting non-data column {pretty(col_ty)}")
        cases = available_ctors(sig, ty.name, ty.args, fuel)
        if type(cases) is Undecidable:
            raise CoverageError(
                CANNOT_SPLIT,
                f"cannot split on {var.text} : {pretty(ty)} in {decl.name}: "
                f"availability of constructor {cases.ctor} is undecidable",
                decl.span,
            )

        if not cases:
            # Empty split: impossible patterns here claim the vacuous case.
            for i, pats in rows:
                if type(pats[split_at]) is ImpossiblePat:
                    used.add(i)
            continue

        # Reversed, so the first constructor's case is taken first.
        for ctor, fields in reversed(cases.items()):
            # Most cases are claimed at once by a first row of catch-alls, so
            # the rows decide first: a claimed case is never built. Claiming
            # spends nothing, so cases left to the stack meet the same fuel.
            claimant = _claimant(rows, split_at, ctor)
            if claimant is not None:
                used.add(claimant)
                continue
            # One pass over the fields: a field's type mentions only earlier
            # fields, so the renaming grows as it goes.
            new_columns = columns[:split_at]
            rename: dict[Var, Term] = {}
            for x, ty_x in fields.entries:
                w = VarCall(Var.fresh(x.text))
                new_columns.append((w.var, subst(ty_x, rename) if rename else ty_x))
                rename[x] = w
            arity = len(rename)
            refine = {var: ConCall(ctor, tuple(rename.values()))}
            for x, ty_x in columns[split_at + 1 :]:
                new_columns.append((x, subst(ty_x, refine)))
            catch_alls = (_CATCH_ALL,) * arity
            new_rows = []
            for i, pats in rows:
                p = pats[split_at]
                c = type(p)
                if c is BindPat:
                    sub_pats = catch_alls
                elif c is ConPat:
                    if p.name != ctor:
                        continue
                    sub_pats = p.args
                    if len(sub_pats) != arity:
                        raise InternalError(
                            f"pattern arity for {p.name} disagrees with the "
                            f"row selected at this split"
                        )
                else:  # impossible, at a type with constructors
                    continue
                new_rows.append((i, pats[:split_at] + sub_pats + pats[split_at + 1 :]))
            stack.append((new_columns, new_rows, (chain, refine)))
    return used


def _missing_case(decl: Declaration, chain: tuple | None) -> str:
    """The arguments at a leaf as constructor spines, "_" for each variable:
    the chain's refinements replayed from the root."""
    refines = []
    while chain is not None:
        chain, refine = chain
        refines.append(refine)
    shapes = [VarCall(x) for x, _ in decl.telescope.entries]
    for refine in reversed(refines):
        shapes = [subst(s, refine) for s in shapes]
    holes = {x: _HOLE for s in shapes for x in free_vars(s)}
    return ", ".join(pretty(subst(s, holes)) for s in shapes)


def _claimant(rows: list[tuple[int, tuple]], k: int, ctor: str) -> int | None:
    """The row that claims the case of `ctor` at a split of column `k`: the
    first row that agrees with `ctor`, when it is all catch-alls once its
    sub-patterns take column `k`'s place. None when that row constrains
    some column, or no row agrees. Columns before `k` are catch-alls in
    every row (see `_split_column`)."""
    for i, pats in rows:
        p = pats[k]
        c = type(p)
        if c is ConPat:
            if p.name != ctor:
                continue
            for q in p.args:
                if type(q) is not BindPat:
                    return None
        elif c is not BindPat:  # impossible, at a type with constructors
            continue
        for q in pats[k + 1 :]:
            if type(q) is not BindPat:
                return None
        return i
    return None


def _split_column(rows: list[tuple[int, tuple]]) -> int | None:
    """The first column that some row constrains with a non-catch-all, or
    None when the first row constrains none."""
    for k, p in enumerate(rows[0][1]):
        if type(p) is not BindPat:
            for j in range(k):
                for _, pats in rows:
                    if type(pats[j]) is not BindPat:
                        return j
            return k
    return None
