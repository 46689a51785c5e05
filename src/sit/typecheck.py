"""Type checking: terms, pattern rows, clauses, constructor rows, signatures.

`TypeChecker` is the API: it holds the signature, the one `Fuel` of the
check and the warnings. Constructor calls and constructor patterns are
checked against the expected data type through `coverage.available_ctors`,
the one query that matches constructor rows: the constructor's first row
that does not mismatch its (normalized) arguments decides. A match
instantiates the field types, no such row means the constructor is
unavailable, and a stuck match is its own hard error.

`check_row` is the one pattern check, for clauses and constructor rows
alike: one walk gives each pattern's typed form and its term together.
After an `impossible` pattern the row has no term for that column, so the
later types are checked leniently: where availability is stuck, or the type
is not a data type, the type is opaque, and a pattern under it need only
name known constructors. Signature formation folds declarations left to
right, so every name refers to an earlier declaration (or to the one being
checked, for recursion).

`load` reads and checks a file, and `evaluate` an expression against it:
the one sequence of the `sit` command, the tests and the scripts.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

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
    EMPTY_TELESCOPE,
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
    STRICT_FIELD_SCOPE,
    TYPE_MISMATCH,
    UNEXPECTED_FORM,
    UNKNOWN_NAME,
    WRONG_DATA_TYPE,
    FuelError,
    SourceSpan,
    TypeCheckError,
    Warning,
    counted,
    located,
    reported_at,
)
from .evaluator import Fuel, convertible, normalize, whnf
from .frontend import Resolver, tokenize
from .pattern_ops import vars_tele


@dataclass
class TypeChecker:
    """Checks terms and declarations against a signature.

    All evaluation of the check, coverage included, spends the one `fuel`.
    `strict_row_fields` additionally re-checks pattern-row constructor fields
    under the data telescope scope and reports any disagreement as a warning.
    """

    sig: Signature = dc_field(default_factory=Signature)
    # A lambda, so `Fuel` is looked up when a checker is made: whoever
    # rebinds `typecheck.Fuel` (to count firings, say) sees the default too.
    fuel: Fuel = dc_field(default_factory=lambda: Fuel())
    strict_row_fields: bool = False
    warnings: list[Warning] = dc_field(default_factory=list)

    # -- helpers ------------------------------------------------------------

    def _whnf(self, t: Term) -> Term:
        return whnf(self.sig, t, self.fuel)

    def _require_type(self, actual: Term, expected: Term, span: Optional[SourceSpan]):
        if not convertible(self.sig, actual, expected, self.fuel):
            raise TypeCheckError(
                TYPE_MISMATCH,
                f"expected {pretty(expected)}, got {pretty(actual)}",
                span,
            )

    # -- terms --------------------------------------------------------------

    def infer(self, term: Term) -> Optional[Term]:
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
            return subst(func.result, dict(zip(vars_tele(func.telescope), term.args)))
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
            ty = ctx.lookup(x)
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
            self.check_args(ctx, term.args, func.telescope, span)
            result = subst(func.result, dict(zip(vars_tele(func.telescope), term.args)))
            self._require_type(result, expected, span)
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
            self.check_term(ctx.extended(term.binder, term.domain), term.codomain, UNIV)
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
            self.check_term(ctx.extended(x, exp.domain), term.body, cod)
        elif c is Univ:
            self._require_type(UNIV, expected, span)
        else:
            raise TypeCheckError(UNEXPECTED_FORM, f"malformed term {term!r}", span)

    def _expect_ctor_at(
        self, name: str, exp: DataCall, span, lenient: bool = False
    ) -> Optional[Telescope]:
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
        span: Optional[SourceSpan] = None,
    ) -> None:
        """Check that the arguments instantiate the telescope, left to right.

        Each entry type is instantiated at the earlier arguments all at once:
        an argument may mention the telescope's own variables (a data type's
        rows can use it at its own parameters, swapped).
        """
        entries = tele.entries
        if len(args) != len(entries):
            raise TypeCheckError(
                ARITY_MISMATCH,
                f"expected {counted(len(entries), 'argument')}, got {len(args)}",
                span,
            )
        earlier: dict[Var, Term] = {}
        for arg, (x, ty) in zip(args, entries):
            self.check_term(ctx, arg, subst(ty, earlier) if earlier else ty)
            earlier[x] = arg

    def check_telescope(self, ctx: Telescope, tele: Telescope) -> Telescope:
        """Check each entry's type is a type; returns the extended context."""
        for x, ty in tele.entries:
            self.check_term(ctx, ty, UNIV)
            ctx = ctx.extended(x, ty)
        return ctx

    # -- patterns -----------------------------------------------------------

    def check_row(
        self, pats: Sequence[Pattern], tele: Telescope
    ) -> tuple[tuple[Pattern, ...], Telescope, Optional[list[Term]]]:
        """Check a pattern row against a telescope.

        Returns the typed patterns, the telescope of their bindings (left to
        right and depth first), and the row's terms: None when some pattern
        contains `impossible`.
        """
        if len(pats) != len(tele.entries):
            raise TypeCheckError(
                ARITY_MISMATCH,
                f"row has {len(pats)} patterns for {len(tele)} telescope entries",
                pats[0].span if pats else None,
            )
        self._check_linear(pats)
        binds: list[tuple[Var, Term]] = []
        typed, terms = self._check_pats(pats, tele.entries, False, binds)
        return typed, Telescope(tuple(binds)), terms

    def _check_pats(self, pats, entries, lenient, binds):
        """The one walk over a row's patterns, nested rows included.

        Each pattern's term is substituted into the remaining entry types; a
        pattern containing `impossible` has no term, so a fresh opaque
        variable stands in and the rest is checked leniently. Bindings are
        appended to `binds`. Returns the typed patterns and their terms, or
        None for the terms when some pattern contains `impossible`.
        """
        earlier: dict[Var, Term] = {}
        typed: list[Pattern] = []
        terms: Optional[list[Term]] = []
        for pat, (x, ty) in zip(pats, entries):
            typed_p, term = self._check_pat(
                pat, subst(ty, earlier) if earlier else ty, lenient, binds
            )
            typed.append(typed_p)
            if term is None:
                term = VarCall(Var.fresh("_abs"))
                lenient = True
                terms = None
            elif terms is not None:
                terms.append(term)
            earlier[x] = term
        return tuple(typed), terms

    def _check_pat(self, pat, ty, lenient, binds) -> tuple[Pattern, Optional[Term]]:
        """Check one pattern at `ty`, or under an opaque type when `ty` is
        None: a binding then gets a placeholder type, `impossible` is not
        checked, and a constructor need only exist."""
        c = type(pat)
        if c is BindPat:
            if ty is None:
                # A fresh variable, so no other type converts to it. It is
                # printed only in diagnostics, and no identifier can spell it.
                ty = VarCall(Var.fresh(
                    f"the type of {pat.var.text}, which is unknown after an "
                    "impossible pattern"
                ))
            binds.append((pat.var, ty))
            return BindPat(pat.var, ty, pat.span), VarCall(pat.var)
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
                typed, terms = [], []
                for q in qs:
                    typed_q, term = self._check_pat(q, None, lenient, binds)
                    typed.append(typed_q)
                    terms.append(term)
                typed = tuple(typed)
                if None in terms:
                    terms = None
            elif len(qs) != len(fields.entries):
                raise TypeCheckError(
                    ARITY_MISMATCH,
                    f"constructor {name} has {counted(len(fields), 'field')}, "
                    f"pattern has {len(qs)}",
                    pat.span,
                )
            else:
                typed, terms = self._check_pats(qs, fields.entries, lenient, binds)
            term = None if terms is None else ConCall(name, tuple(terms))
            return ConPat(name, typed, pat.span), term
        if c is ImpossiblePat:
            if ty is not None:
                self._check_impossible(pat, ty, lenient)
            return pat, None
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

    def _check_linear(self, pats: Sequence[Pattern]) -> None:
        # Left to right and depth first, from a stack: the first repeated
        # name is the one reported. A recursive closure here would leave a
        # reference cycle per row for the cyclic collector.
        seen: set[str] = set()
        stack = list(reversed(pats))
        while stack:
            p = stack.pop()
            c = type(p)
            if c is BindPat:
                text = p.var.text
                if text in seen:
                    raise TypeCheckError(
                        DUPLICATE_PATTERN_VAR,
                        f"pattern variable {text} bound twice in one row",
                        p.span,
                    )
                seen.add(text)
            elif c is ConPat:
                stack.extend(reversed(p.args))

    # -- clauses and rows ---------------------------------------------------

    def check_clause(self, tele: Telescope, result: Term, clause: Clause) -> Clause:
        """Check one function clause; returns it with typed patterns."""
        typed, theta, terms = self.check_row(clause.patterns, tele)
        has_impossible = terms is None
        if has_impossible and clause.body is not None:
            raise TypeCheckError(
                IMPOSSIBLE_HAS_BODY,
                "clause with an impossible pattern cannot have a body",
                clause.span,
            )
        if not has_impossible and clause.body is None:
            raise TypeCheckError(
                MISSING_BODY,
                "clause without an impossible pattern needs a body",
                clause.span,
            )
        if clause.body is not None:
            expected = subst(result, dict(zip(vars_tele(tele), terms)))
            self.check_term(theta, clause.body, expected)
        return Clause(typed, clause.body, clause.span)

    def check_ctor_row(self, tele: Telescope, row: CtorRow) -> CtorRow:
        """Check one constructor row; returns it with typed patterns."""
        if row.patterns is None:
            self.check_telescope(tele, row.fields)
            return row
        typed, theta, _ = self.check_row(row.patterns, tele)
        self.check_telescope(theta, row.fields)
        if self.strict_row_fields:
            try:
                self.check_telescope(tele, row.fields)
            except TypeCheckError as err:
                self.warnings.append(
                    Warning(
                        STRICT_FIELD_SCOPE,
                        f"fields of constructor {row.name} do not check under "
                        f"the data telescope alone: {err.message}",
                        row.span,
                    )
                )
        return CtorRow(row.name, row.fields, typed, row.span)

    # -- signatures ----------------------------------------------------------

    def check_signature(
        self, decls: Sequence[Declaration], coverage: bool = True
    ) -> Signature:
        """Fold the declarations into a checked signature.

        The check owns the signature it builds: `self.sig` is copied once
        and grown in place, so a caller's signature never changes.
        """
        self.sig = sig = self.sig.copy()
        for decl in decls:
            if sig.declares(decl.name):
                raise TypeCheckError(
                    DUPLICATE_NAME, f"duplicate name {decl.name}", decl.span
                )
            try:
                if isinstance(decl, DataDecl):
                    self._check_data(decl)
                else:
                    self._check_func(decl, coverage)
            except FuelError as err:
                if err.span is None:
                    err.span = decl.span
                raise
        return sig

    def _check_data(self, decl: DataDecl) -> None:
        self.check_telescope(EMPTY_TELESCOPE, decl.telescope)
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
        self.sig.replace_last(DataDecl(decl.name, decl.telescope, rows, decl.span))

    def _check_func(self, decl: FuncDecl, coverage: bool) -> None:
        ctx = self.check_telescope(EMPTY_TELESCOPE, decl.telescope)
        self.check_term(ctx, decl.result, UNIV)
        # Clauses may call the function being defined.
        self.sig.add(decl)
        clauses = tuple(
            self.check_clause(decl.telescope, decl.result, cl)
            for cl in decl.clauses
        )
        checked = FuncDecl(decl.name, decl.telescope, decl.result, clauses, decl.span)
        self.sig.replace_last(checked)
        if coverage:
            self.warnings.extend(
                coverage_mod.check_coverage(self.sig, checked, self.fuel)
            )


# ---------------------------------------------------------------------------
# Loading a file and evaluating against it


@dataclass
class Checked:
    """A checked file, and the resolver that read it: an expression resolves
    against the names it declared."""

    sig: Signature
    resolver: Resolver
    warnings: list[Warning]


def load(text: str, file: str, fuel: Optional[Fuel] = None, *,
         coverage: bool = True, strict_row_fields: bool = False) -> Checked:
    """Tokenize, read and check the text of `file`, spending `fuel` (a new
    default budget when None) on the check and its coverage."""
    resolver = Resolver()
    decls = resolver.run(tokenize(text, file))
    checker = TypeChecker(fuel=fuel or Fuel(), strict_row_fields=strict_row_fields)
    sig = checker.check_signature(decls, coverage=coverage)
    return Checked(sig, resolver, checker.warnings)


def evaluate(checked: Checked, text: str, fuel: Fuel) -> Term:
    """Read the expression `text` against a loaded file, check it against
    the type `TypeChecker.infer` gives, if any, and normalize it, spending
    `fuel`. Its diagnostics name it `<expr>`."""
    with reported_at("<expr>"):
        tokens = tokenize(text, "<expr>")
        term = checked.resolver.resolve_expression(tokens)
        with located(tokens.span):
            checker = TypeChecker(checked.sig, fuel)
            ty = checker.infer(term)
            if ty is not None:
                checker.check_term(EMPTY_TELESCOPE, term, ty)
            return normalize(checked.sig, term, fuel)
