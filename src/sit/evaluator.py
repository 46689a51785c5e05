"""Weak-head and full normalization plus definitional equality.

Function calls unfold by first-match clause dispatch: clauses are tried top
to bottom, the first positive match fires, and a stuck match freezes the
call as a neutral term. There is no termination checker; a step budget turns
runaway evaluation into an error instead of a hang. Every evaluation takes
the budget explicitly, so one `Fuel` can bound a whole command.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    Var,
    VarCall,
    alpha_eq,
    subst_at_once,
)
from .diagnostics import FuelError, InternalError
from .pattern_ops import Matched, MatchOutcome, Mismatch, Stuck, match_terms

DEFAULT_FUEL = 1_000_000

MatchObserver = Callable[[Sequence[Term], Sequence[Pattern], MatchOutcome], None]


@dataclass
class Fuel:
    """The budget of one run: every clause firing of the checker, coverage
    and the evaluator spends one step of the same `limit`.

    `observer`, when set, is told every match the run makes (the terms, the
    patterns and the outcome), by `whnf` and `coverage.row_outcomes`.
    """

    limit: int = DEFAULT_FUEL
    used: int = 0
    observer: Optional[MatchObserver] = None

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise FuelError(self.limit)


def whnf(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Reduce until the head is a value or a neutral.

    Function calls whose dispatch is stuck, or which no clause matches, are
    returned as neutral heads.
    """
    while isinstance(t, FnCall):
        func = sig.func(t.name)
        if func is None:
            raise InternalError(f"call to undeclared function {t.name}")
        args = _dispatch_args(sig, func, t.args, fuel)
        reduct = None
        for clause in func.clauses:
            out = match_terms(args, clause.patterns)
            if fuel.observer is not None:
                fuel.observer(args, clause.patterns, out)
            match out:
                case Matched(s):
                    if clause.body is None:
                        raise InternalError(
                            f"matched a bodiless clause of {func.name}"
                        )
                    fuel.spend()
                    reduct = subst_at_once(clause.body, s)
                    break
                case Stuck():
                    return FnCall(t.name, args)
                case Mismatch():
                    continue
        if reduct is None:
            return FnCall(t.name, args)
        t = reduct
    return t


def _dispatch_args(sig, func, args, fuel) -> tuple[Term, ...]:
    # Normalize only the columns some clause actually inspects; pure catch-all
    # columns are substituted into bodies untouched.
    hot = func.inspected_columns
    return tuple(
        index_normal_form(sig, a, fuel) if i in hot else a
        for i, a in enumerate(args)
    )


def index_normal_form(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Weak-head normalize, recursing into constructor arguments only.

    This is exactly the shape the matcher inspects, so matching after this
    never sticks on an unreduced redex. Returns `t` itself when it is already
    in this form.
    """
    if getattr(t, "_spine_normal", False):
        return t
    t = whnf(sig, t, fuel)
    if isinstance(t, ConCall):
        args = tuple(index_normal_form(sig, a, fuel) for a in t.args)
        if any(a is not b for a, b in zip(args, t.args)):
            t = ConCall(t.name, args)
        if all(_spine_normal(a) for a in args):
            # No argument can reduce under any signature: later calls on this
            # object (it is shared by substitution) return at once.
            object.__setattr__(t, "_spine_normal", True)
    return t


def _spine_normal(t: Term) -> bool:
    if isinstance(t, ConCall):
        return getattr(t, "_spine_normal", False)
    return not isinstance(t, FnCall)


def normalize(sig: Signature, t: Term, fuel: Fuel) -> Term:
    """Fully normalize; idempotent."""
    t = whnf(sig, t, fuel)
    match t:
        case FnCall(name, args):
            return FnCall(name, tuple(normalize(sig, a, fuel) for a in args))
        case VarCall(x, args):
            return VarCall(x, tuple(normalize(sig, a, fuel) for a in args))
        case DataCall(name, args):
            return DataCall(name, tuple(normalize(sig, a, fuel) for a in args))
        case ConCall(name, args):
            return ConCall(name, tuple(normalize(sig, a, fuel) for a in args))
        case Pi(x, dom, cod):
            return Pi(x, normalize(sig, dom, fuel), normalize(sig, cod, fuel))
        case Lam(x, body):
            return Lam(x, normalize(sig, body, fuel))
        case Univ():
            return t
    raise InternalError(f"unexpected term {t!r}")


def convertible(sig: Signature, u: Term, v: Term, fuel: Fuel) -> bool:
    """Definitional equality: normal forms alpha-equal, with eta for lambdas.

    Conversion is reflexive, so alpha-equal terms are equal without being
    evaluated and spend no fuel, even when their evaluation would diverge.
    """
    if u is v or alpha_eq(u, v):
        return True
    return _conv(normalize(sig, u, fuel), normalize(sig, v, fuel), {})


def _conv(u: Term, v: Term, env: dict[Var, Var]) -> bool:
    match u, v:
        case Lam(x, a), Lam(y, b):
            return _conv(a, b, {**env, x: y})
        case Lam(x, a), VarCall(_, _):
            # fn x => f x is equal to f: compare the body with f applied to x.
            return _conv(a, VarCall(v.var, v.args + (VarCall(x),)), {**env, x: x})
        case VarCall(_, _), Lam(y, b):
            return _conv(VarCall(u.var, u.args + (VarCall(y),)), b, {**env, y: y})
        case VarCall(x, us), VarCall(y, vs):
            return env.get(x, x) == y and _conv_list(us, vs, env)
        case FnCall(f, us), FnCall(g, vs):
            return f == g and _conv_list(us, vs, env)
        case DataCall(f, us), DataCall(g, vs):
            return f == g and _conv_list(us, vs, env)
        case ConCall(f, us), ConCall(g, vs):
            return f == g and _conv_list(us, vs, env)
        case Pi(x, a, b), Pi(y, c, d):
            return _conv(a, c, env) and _conv(b, d, {**env, x: y})
        case Univ(), Univ():
            return True
        case _:
            return False


def _conv_list(us, vs, env) -> bool:
    return len(us) == len(vs) and all(_conv(u, v, env) for u, v in zip(us, vs))
