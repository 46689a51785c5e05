"""Type checking: terms, pattern rows, clauses, constructor rows, signatures.

`TypeChecker` is the API: it holds the signature, the one `Fuel` of the
check and the warnings. Constructor calls and constructor patterns are
checked against the expected data type through `coverage.available_ctors`,
the one query that matches constructor rows: the constructor's first row
that does not mismatch its (normalized) arguments decides. A match
instantiates the field types, no such row means the constructor is
unavailable, and a stuck match is its own hard error. A row never selected
is W302, from coverage's split, when coverage is checked.

`check_row` is the one pattern check, for clauses and constructor rows
alike: one walk checks linearity and gives the row's binder telescope and
each pattern's term, built marked normal, together. Patterns are checked
in place, never copied: a checked function is the declaration that was
read, and a checked constructor row differs from it only in its
`binders`. After an `impossible` pattern the row has no term for that
column, so the later types are checked leniently: where availability is
stuck, or the type is not a data type, the type is opaque, and a pattern
under it need only name known constructors. Signature formation folds
declarations left to right, so every name refers to an earlier
declaration (or to the one being checked, for recursion).

Every telescope is a plain tuple of `(variable, type)` pairs, and
`core.Telescope` is only its type alias: a declaration's parameters, a
row's fields, the binder telescope `check_row` returns, and the context a
term is checked in. A binder extends the context as `ctx + ((x, ty),)`,
and `()` is the empty context.

A call whose answer a term's class already gives is skipped: `_whnf`
reduces only a function call, `_require_type` converts neither one object
nor two `Type`s or argument-free calls of one data type, and an entry type
or a result is instantiated only where an instantiated variable is free.

`load` reads and checks a file, and `evaluate` an expression against it:
the one sequence of the `sit` command, the tests and the scripts. A
RecursionError (E502) or a broken invariant (E900) is reported at the
declaration being checked, or at the expression's `<expr>:1:1`.
"""
from __future__ import annotations

from collections.abc import Sequence

from . import coverage as coverage_mod
from .core import (
    BindPat,
    Clause,
    ConCall,
    ConPat,
    CtorRow,
    DataCall,
    DataDecl,
    Declaration,
    FnCall,
    FuncDecl,
    ImpossiblePat,
    Lam,
    Pattern,
    Pi,
    Signature,
    Telescope,
    Term,
    Univ,
    UNIV,
    Var,
    VarCall,
    free_vars,
    pretty,
    subst,
)
from .diagnostics import (
    ARITY_MISMATCH,
    CTOR_STUCK,
    CTOR_UNAVAILABLE,
    DUPLICATE_NAME,
    DUPLICATE_PATTERN_VAR,
    IMPOSSIBLE_HAS_BODY,
    IMPOSSIBLE_REJECTED,
    MISSING_BODY,
    NOT_A_DATA_TYPE,
    TYPE_MISMATCH,
    UNEXPECTED_FORM,
    UNKNOWN_NAME,
    WRONG_DATA_TYPE,
    SourceSpan,
    TypeCheckError,
    Warning,
    counted,
    located,
)
from .evaluator import Fuel, convertible, normalize, whnf
from .frontend import Resolver, tokenize


def _lookup(ctx: Telescope, x: Var) -> Term | None:
    """The type of the latest binding of `x` in the context, or None."""
    for y, ty in reversed(ctx):
        if y == x:
            return ty
    return None


class TypeChecker:
    """Checks terms and declarations against a signature, empty by default.

    All evaluation of the check, coverage included, spends the one `fuel`
    (a new default budget when None).
    """

    __slots__ = ("sig", "fuel", "warnings")

    def __init__(self, sig: Signature | None = None, fuel: Fuel | None = None) -> None:
        self.sig = Signature() if sig is None else sig
        self.fuel = Fuel() if fuel is None else fuel
        self.warnings: list[Warning] = []

    # -- helpers ------------------------------------------------------------

    def _whnf(self, t: Term) -> Term:
        return whnf(self.sig, t, self.fuel) if type(t) is FnCall else t

    def _require_type(self, actual: Term, expected: Term, span: SourceSpan | None):
        c = type(actual)
        if actual is expected or c is type(expected) and (c is Univ or (
            c is DataCall and not actual.args and not expected.args
            and actual.name == expected.name
        )):
            return
        if not convertible(self.sig, actual, expected, self.fuel):
            raise TypeCheckError(
                TYPE_MISMATCH,
                f"expected {pretty(expected)}, got {pretty(actual)}",
                span,
            )

    # -- terms --------------------------------------------------------------

    def infer(self, term: Term) -> Term | None:
        """The type that the head of a closed, well-scoped term fixes, or None.

        A function call has the function's result at its arguments; a data
        type, a Pi or `Type` has type `Type`; a constructor of a data type
        with an empty telescope has that type. A lambda, or a constructor of
        a type with parameters or indices, fixes none: its type's arguments
        cannot be inferred without unification.
        """
        c = type(term)
        if c is FnCall:
            func = self.sig.func(term.name)
            sub = {x: arg for (x, _), arg in zip(func.telescope, term.args)}
            return subst(func.result, sub)
        if c is ConCall:
            owner = self.sig.ctor_owner(term.name)
            return None if owner.telescope else DataCall(owner.name, ())
        if c is DataCall or c is Pi or c is Univ:
            return UNIV
        return None

    def check_term(self, ctx: Telescope, term: Term, expected: Term) -> None:
        """Check `term` against the (well-formed) type `expected`."""
        span = term.span
        c = type(term)
        if c is ConCall:
            exp = self._whnf(expected)
            if type(exp) is not DataCall:
                raise TypeCheckError(
                    NOT_A_DATA_TYPE,
                    f"constructor {term.name} cannot have non-data type "
                    f"{pretty(expected)}",
                    span,
                )
            fields = self._expect_ctor_at(term.name, exp, span)
            self.check_args(ctx, term.args, fields, span)
        elif c is VarCall:
            x = term.var
            ty = _lookup(ctx, x)
            if ty is None:
                raise TypeCheckError(UNKNOWN_NAME, f"unbound variable {x.text}", span)
            for arg in term.args:
                ty = self._whnf(ty)
                if not isinstance(ty, Pi):
                    raise TypeCheckError(
                        UNEXPECTED_FORM,
                        f"cannot apply {x.text} at non-function type {pretty(ty)}",
                        span,
                    )
                self.check_term(ctx, arg, ty.domain)
                ty = subst(ty.codomain, {ty.binder: arg})
            self._require_type(ty, expected, span)
        elif c is FnCall:
            func = self.sig.func(term.name)
            if func is None:
                raise TypeCheckError(
                    UNKNOWN_NAME, f"unknown function {term.name}", span
                )
            earlier = self.check_args(ctx, term.args, func.telescope, span)
            ty = func.result
            if earlier and not free_vars(ty).isdisjoint(earlier):
                ty = subst(ty, earlier)
            self._require_type(ty, expected, span)
        elif c is DataCall:
            decl = self.sig.data(term.name)
            if decl is None:
                raise TypeCheckError(
                    UNKNOWN_NAME, f"unknown data type {term.name}", span
                )
            self.check_args(ctx, term.args, decl.telescope, span)
            self._require_type(UNIV, expected, span)
        elif c is Pi:
            self.check_term(ctx, term.domain, UNIV)
            self.check_term(ctx + ((term.binder, term.domain),), term.codomain, UNIV)
            self._require_type(UNIV, expected, span)
        elif c is Lam:
            exp = self._whnf(expected)
            if not isinstance(exp, Pi):
                raise TypeCheckError(
                    UNEXPECTED_FORM,
                    f"lambda cannot have type {pretty(expected)}",
                    span,
                )
            x = term.binder
            cod = subst(exp.codomain, {exp.binder: VarCall(x)})
            self.check_term(ctx + ((x, exp.domain),), term.body, cod)
        elif c is Univ:
            self._require_type(UNIV, expected, span)
        else:
            raise TypeCheckError(UNEXPECTED_FORM, f"malformed term {term!r}", span)

    def _expect_ctor_at(
        self, name: str, exp: DataCall, span, lenient: bool = False
    ) -> Telescope | None:
        """The fields of constructor `name` at the data type `exp`.

        The first row of the constructor that does not mismatch decides: a
        match gives its instantiated fields, a stuck match is an error, or
        None when `lenient`. No such row means the constructor is unavailable.
        """
        owner = self.sig.ctor_owner(name)
        if owner is None:
            raise TypeCheckError(UNKNOWN_NAME, f"unknown constructor {name}", span)
        if owner.name != exp.name:
            raise TypeCheckError(
                WRONG_DATA_TYPE,
                f"constructor {name} belongs to {owner.name}, not {exp.name}",
                span,
            )
        av = coverage_mod.available_ctors(self.sig, exp.name, exp.args, self.fuel, name)
        if type(av) is coverage_mod.Undecidable:
            if lenient:
                return None
            raise TypeCheckError(
                CTOR_STUCK,
                f"cannot decide availability of constructor {name} "
                f"at {pretty(exp)}",
                span,
            )
        if not av:
            raise TypeCheckError(
                CTOR_UNAVAILABLE,
                f"constructor {name} is not available at {pretty(exp)}",
                span,
            )
        return av[name]

    def check_args(
        self,
        ctx: Telescope,
        args: Sequence[Term],
        tele: Telescope,
        span: SourceSpan | None = None,
    ) -> dict[Var, Term]:
        """Check that the arguments instantiate the telescope, left to right;
        returns the instantiation, each entry's variable mapped to its argument.

        Each entry type is instantiated at the earlier arguments all at once:
        an argument may mention the telescope's own variables (a data type's
        rows can use it at its own parameters, swapped).
        """
        if len(args) != len(tele):
            raise TypeCheckError(
                ARITY_MISMATCH,
                f"expected {counted(len(tele), 'argument')}, got {len(args)}",
                span,
            )
        earlier: dict[Var, Term] = {}
        for arg, (x, ty) in zip(args, tele):
            if earlier and not free_vars(ty).isdisjoint(earlier):
                ty = subst(ty, earlier)
            self.check_term(ctx, arg, ty)
            earlier[x] = arg
        return earlier

    def check_telescope(self, ctx: Telescope, tele: Telescope) -> Telescope:
        """Check each entry's type is a type; returns the extended context."""
        for x, ty in tele:
            self.check_term(ctx, ty, UNIV)
            ctx += ((x, ty),)
        return ctx

    # -- patterns -----------------------------------------------------------

    def check_row(
        self,
        pats: Sequence[Pattern],
        tele: Telescope,
        span: SourceSpan | None = None,
    ) -> tuple[Telescope, dict[Var, Term] | None]:
        """Check a pattern row against a telescope.

        Returns the telescope of the row's bindings (left to right and depth
        first) and the row's instantiation of the telescope, each entry's
        variable mapped to its pattern's term: None when some pattern
        contains `impossible`. A wrong number of patterns is located at the
        first one, or at `span` when there is none.
        """
        if len(pats) != len(tele):
            raise TypeCheckError(
                ARITY_MISMATCH,
                f"row has {counted(len(pats), 'pattern')} for "
                f"{counted(len(tele), 'telescope binder')}",
                pats[0].span if pats else span,
            )
        binds: list[tuple[Var, Term]] = []
        sub = self._check_pats(pats, tele, False, binds, set())
        return tuple(binds), sub

    def _check_pats(self, pats, entries, lenient, binds, seen):
        """The one walk over a row's patterns, nested rows included, left to
        right and depth first: its first error is the one reported.

        Each pattern's term, built marked normal, is substituted into the
        remaining entry types; a pattern containing `impossible` has no term,
        so a fresh opaque variable stands in and the rest is checked
        leniently. Bindings are appended to `binds`, and their names to `seen`
        (a name bound twice is E310). Returns the instantiation of the entries
        at their terms, or None when some pattern contains `impossible`.
        """
        earlier: dict[Var, Term] = {}
        impossible = False
        for pat, (x, ty) in zip(pats, entries):
            if earlier and not free_vars(ty).isdisjoint(earlier):
                ty = subst(ty, earlier)
            term = self._check_pat(pat, ty, lenient, binds, seen)
            if term is None:
                term = VarCall(Var.fresh("_abs"))
                impossible = lenient = True
            earlier[x] = term
        return None if impossible else earlier

    def _check_pat(self, pat, ty, lenient, binds, seen) -> Term | None:
        """Check one pattern at `ty`, or under an opaque type when `ty` is
        None: a binding then gets a placeholder type, `impossible` is not
        checked, and a constructor need only exist. Returns the pattern's
        term, or None when it contains `impossible`."""
        c = type(pat)
        if c is BindPat:
            text = pat.var.text
            if text in seen:
                raise TypeCheckError(DUPLICATE_PATTERN_VAR, f"pattern variable "
                                     f"{text} bound twice in one row", pat.span)
            seen.add(text)
            if ty is None:
                # A fresh variable, so no other type converts to it. It is
                # printed only in diagnostics, and no identifier can spell it.
                ty = VarCall(Var.fresh(
                    f"the type of {pat.var.text}, which is unknown after an "
                    "impossible pattern"
                ))
            binds.append((pat.var, ty))
            return VarCall(pat.var)
        if c is ConPat:
            name = pat.name
            fields = None
            if ty is not None:
                scrutinee = self._whnf(ty)
                if type(scrutinee) is DataCall:
                    fields = self._expect_ctor_at(name, scrutinee, pat.span, lenient)
                elif not lenient:
                    raise TypeCheckError(
                        NOT_A_DATA_TYPE,
                        f"constructor pattern {name} at non-data type {pretty(ty)}",
                        pat.span,
                    )
            qs = pat.args
            if fields is None:
                if self.sig.ctor_owner(name) is None:
                    raise TypeCheckError(
                        UNKNOWN_NAME, f"unknown constructor {name}", pat.span
                    )
                # A loop, not a comprehension: one frame per nesting level.
                terms = []
                for q in qs:
                    terms.append(self._check_pat(q, None, lenient, binds, seen))
                if None in terms:
                    terms = None
            elif len(qs) != len(fields):
                raise TypeCheckError(
                    ARITY_MISMATCH,
                    f"constructor {name} has {counted(len(fields), 'field')}, "
                    f"pattern has {len(qs)}",
                    pat.span,
                )
            else:
                sub = self._check_pats(qs, fields, lenient, binds, seen)
                terms = None if sub is None else sub.values()
            if terms is None:
                return None
            term = ConCall(name, tuple(terms))
            object.__setattr__(term, "_spine_normal", True)
            return term
        if c is ImpossiblePat:
            if ty is not None:
                self._check_impossible(pat, ty, lenient)
            return None
        raise TypeCheckError(UNEXPECTED_FORM, f"malformed pattern {pat!r}", pat.span)

    def _check_impossible(self, pat, ty, lenient) -> None:
        scrutinee = self._whnf(ty)
        if type(scrutinee) is not DataCall:
            if lenient:
                return
            raise TypeCheckError(
                NOT_A_DATA_TYPE,
                f"impossible pattern at non-data type {pretty(ty)}",
                pat.span,
            )
        av = coverage_mod.available_ctors(
            self.sig, scrutinee.name, scrutinee.args, self.fuel
        )
        if type(av) is coverage_mod.Undecidable:
            if lenient:
                return
            raise TypeCheckError(
                IMPOSSIBLE_REJECTED,
                f"impossible pattern at {pretty(scrutinee)}: availability of "
                f"constructor {av.ctor} is stuck, emptiness cannot be certified",
                pat.span,
            )
        if av:
            raise TypeCheckError(
                IMPOSSIBLE_REJECTED,
                f"impossible pattern at {pretty(scrutinee)}: "
                f"constructor {next(iter(av))} is available",
                pat.span,
            )

    # -- clauses and rows ---------------------------------------------------

    def check_clause(self, tele: Telescope, result: Term, clause: Clause) -> None:
        """Check one function clause: its body under the row's bindings."""
        theta, sub = self.check_row(clause.patterns, tele, clause.span)
        if sub is None and clause.body is not None:
            raise TypeCheckError(
                IMPOSSIBLE_HAS_BODY,
                "clause with an impossible pattern cannot have a body",
                clause.span,
            )
        if sub is not None and clause.body is None:
            raise TypeCheckError(
                MISSING_BODY,
                "clause without an impossible pattern needs a body",
                clause.span,
            )
        if clause.body is not None:
            if not free_vars(result).isdisjoint(sub):
                result = subst(result, sub)
            self.check_term(theta, clause.body, result)

    def check_ctor_row(self, tele: Telescope, row: CtorRow) -> CtorRow:
        """Check one constructor row, then its fields under the row's
        bindings; returns it with its `binders`, the same patterns."""
        theta, _ = self.check_row(row.patterns, tele)
        self.check_telescope(theta, row.fields)
        return CtorRow(row.name, row.fields, row.patterns, theta, row.span)

    # -- signatures ----------------------------------------------------------

    def check_signature(
        self, decls: Sequence[Declaration], coverage: bool = True
    ) -> Signature:
        """Fold the declarations into a checked signature. A failure with no
        location of its own (E501, E502, E900) is reported at its declaration.

        The check owns the signature it builds: `self.sig` is copied once
        and grown in place, so a caller's signature never changes.
        """
        self.sig = sig = self.sig.copy()
        for decl in decls:
            if sig.declares(decl.name):
                raise TypeCheckError(
                    DUPLICATE_NAME, f"duplicate name {decl.name}", decl.span
                )
            with located(decl.span):
                if isinstance(decl, DataDecl):
                    self._check_data(decl, coverage)
                else:
                    self._check_func(decl, coverage)
        return sig

    def _check_data(self, decl: DataDecl, coverage: bool) -> None:
        self.check_telescope((), decl.telescope)
        for row in decl.ctors:
            if row.name == decl.name or self.sig.declares(row.name):
                raise TypeCheckError(
                    DUPLICATE_NAME,
                    f"constructor name {row.name} is already declared",
                    row.span,
                )
        # Rows may mention the data type (and earlier rows) recursively.
        self.sig.add(decl)
        rows = tuple(
            self.check_ctor_row(decl.telescope, row)
            for row in decl.ctors
        )
        checked = DataDecl(decl.name, decl.telescope, rows, decl.span)
        self.sig.replace_last(checked)
        if coverage:
            self.warnings += coverage_mod.unselected_rows(self.sig, checked, self.fuel)

    def _check_func(self, decl: FuncDecl, coverage: bool) -> None:
        ctx = self.check_telescope((), decl.telescope)
        self.check_term(ctx, decl.result, UNIV)
        # Clauses may call the function being defined.
        self.sig.add(decl)
        for cl in decl.clauses:
            self.check_clause(decl.telescope, decl.result, cl)
        if coverage:
            self.warnings.extend(
                coverage_mod.check_coverage(self.sig, decl, self.fuel)
            )


# ---------------------------------------------------------------------------
# Loading a file and evaluating against it


class Checked:
    """A checked file, and the resolver that read it: an expression resolves
    against the names it declared."""

    __slots__ = ("sig", "resolver", "warnings")

    def __init__(self, sig: Signature, resolver: Resolver,
                 warnings: list[Warning]) -> None:
        self.sig = sig
        self.resolver = resolver
        self.warnings = warnings


def load(text: str, file: str, fuel: Fuel | None = None, *,
         coverage: bool = True) -> Checked:
    """Tokenize, read and check the text of `file`, spending `fuel` (a new
    default budget when None) on the check and its coverage."""
    resolver = Resolver()
    decls = resolver.run(tokenize(text, file))
    checker = TypeChecker(fuel=fuel)
    sig = checker.check_signature(decls, coverage=coverage)
    return Checked(sig, resolver, checker.warnings)


def evaluate(checked: Checked, text: str, fuel: Fuel) -> Term:
    """Read the expression `text` against a loaded file, check it against
    the type `TypeChecker.infer` gives, if any, and normalize it, spending
    `fuel`. Its diagnostics name it `<expr>`, and what fails with no
    location of its own is reported at `<expr>:1:1`."""
    with located(SourceSpan("<expr>", 1, 1)):
        term = checked.resolver.resolve_expression(tokenize(text, "<expr>"))
        checker = TypeChecker(checked.sig, fuel)
        ty = checker.infer(term)
        if ty is not None:
            checker.check_term((), term, ty)
        return normalize(checked.sig, term, fuel)
