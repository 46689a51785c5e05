"""Weak-head and full normalization plus definitional equality.

Definitional equality is `core.alpha_eq`, the one term comparison (alpha
and eta for lambdas), of the normal forms; `convertible` first compares the
terms as they are, so equal terms are never evaluated.

Function calls unfold by first-match clause dispatch: clauses are tried top
to bottom, the first positive match fires, and a stuck match freezes the
call as a neutral term. There is no termination checker; a step budget turns
runaway evaluation into an error instead of a hang. Every evaluation takes
the budget explicitly, so one `Fuel` can bound a whole command.

Each firing is one turn of `whnf`'s loop: it passes every column some
clause inspects through `index_normal_form`, which returns a value already
known to be normal at once, tries the clauses with `match_terms` and goes
on with the reduct. A call nested in an inspected column costs two Python
frames, `whnf` and `index_normal_form`, so `sit eval` takes about 490
nested calls under the default recursion limit. `normalize` calls `whnf`
only on a function call, and a node none of whose children changes is
returned itself, so a value that is already normal is walked but never
copied.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import (
    ConCall,
    DataCall,
    FnCall,
    Lam,
    Pattern,
    Pi,
    Signature,
    Term,
    Univ,
    VarCall,
    alpha_eq,
    subst,
)
from .diagnostics import FuelError, InternalError
from .pattern_ops import Matched, MatchOutcome, Stuck, match_terms

DEFAULT_FUEL = 1_000_000


class Fuel:
    """The budget of one run: every clause firing of the checker, coverage
    and the evaluator spends one step of `limit` (`used`), and every case
    split of coverage one split of the same `limit` (`splits`). Either count
    past the limit is E501. Splits are counted apart, so a split changes
    neither `used` nor the firings a run reports.

    `observer`, when set, is told every match the run makes (the terms, the
    patterns and the outcome), by `whnf` and `coverage.available_ctors`.
    """

    __slots__ = ("limit", "used", "splits", "observer")

    def __init__(self, limit: int = DEFAULT_FUEL, *, observer: (
        Callable[[Sequence[Term], Sequence[Pattern], MatchOutcome], None] | None
    ) = None) -> None:
        self.limit = limit
        self.used = 0
        self.splits = 0
        self.observer = observer

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise FuelError(self.limit)

    def split(self) -> None:
        self.splits += 1
        if self.splits > self.limit:
            raise FuelError(self.limit, f"coverage exceeded {self.limit} case splits")


def whnf(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Reduce until the head is a value or a neutral.

    Function calls whose dispatch is stuck, or which no clause matches, are
    returned as neutral heads.
    """
    while type(t) is FnCall:
        func = sig.func(t.name)
        if func is None:
            raise InternalError(f"call to undeclared function {t.name}")
        # Normalize only the columns some clause actually inspects; pure
        # catch-all columns are substituted into bodies untouched.
        args = t.args
        hot = func.inspected_columns
        if hot:
            dispatched = []
            i = 0
            for a in args:
                if i in hot:
                    a = index_normal_form(sig, a, fuel)
                dispatched.append(a)
                i += 1
            args = tuple(dispatched)
        reduct = None
        for clause in func.clauses:
            out = match_terms(args, clause.patterns)
            if fuel.observer is not None:
                fuel.observer(args, clause.patterns, out)
            c = type(out)
            if c is Matched:
                if clause.body is None:
                    raise InternalError(f"matched a bodiless clause of {func.name}")
                fuel.spend()
                reduct = subst(clause.body, out.sub)
                break
            if c is Stuck:
                return FnCall(t.name, args)
        if reduct is None:
            return FnCall(t.name, args)
        t = reduct
    return t


def index_normal_form(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Weak-head normalize, recursing into constructor arguments only.

    This is exactly the shape the matcher inspects, so matching after this
    never sticks on an unreduced redex. Returns `t` itself when it is already
    in this form.
    """
    c = type(t)
    if c is FnCall:
        t = whnf(sig, t, fuel)
        c = type(t)
    if c is not ConCall or t._spine_normal:
        return t
    args = []
    changed = False
    normal = True
    for a in t.args:
        b = index_normal_form(sig, a, fuel)
        args.append(b)
        changed = changed or b is not a
        c = type(b)
        if c is ConCall:
            normal = normal and b._spine_normal
        elif c is FnCall:
            normal = False
    if changed:
        t = ConCall(t.name, tuple(args))
    if normal:
        # No argument can reduce under any signature: later calls on this
        # object (it is shared by substitution) return at once. The checker
        # builds each pattern's term so marked.
        object.__setattr__(t, "_spine_normal", True)
    return t


def normalize(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Fully normalize; idempotent. A node none of whose children changes
    is returned itself, not rebuilt."""
    c = type(t)
    if c is FnCall:
        t = whnf(sig, t, fuel)
        c = type(t)
    if c is ConCall or c is FnCall or c is DataCall or c is VarCall:
        if not t.args:
            return t
        args = []
        changed = False
        for a in t.args:
            b = normalize(sig, a, fuel)
            args.append(b)
            if b is not a:
                changed = True
        if not changed:
            return t
        if c is VarCall:
            return VarCall(t.var, tuple(args))
        return c(t.name, tuple(args))
    if c is Pi:
        dom = normalize(sig, t.domain, fuel)
        cod = normalize(sig, t.codomain, fuel)
        if dom is t.domain and cod is t.codomain:
            return t
        return Pi(t.binder, dom, cod)
    if c is Lam:
        body = normalize(sig, t.body, fuel)
        return t if body is t.body else Lam(t.binder, body)
    if c is Univ:
        return t
    raise InternalError(f"unexpected term {t!r}")


def convertible(sig: Signature, u: Term, v: Term, fuel: Fuel) -> bool:
    """Definitional equality: `alpha_eq` of the normal forms.

    Conversion is reflexive, so alpha- or eta-equal terms are equal without
    being evaluated and spend no fuel, even when their evaluation would
    diverge.
    """
    return u is v or alpha_eq(u, v) or alpha_eq(
        normalize(sig, u, fuel), normalize(sig, v, fuel)
    )
