"""The three pattern operations: binding collection, pattern-to-term
conversion, and the three-outcome matcher.

Matching is purely syntactic over weak-head-normal constructor spines; the
matcher never reduces. Callers normalize the terms they hand in.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    BindPat,
    ConCall,
    ConPat,
    ImpossiblePat,
    Node,
    Pattern,
    Telescope,
    Term,
    Var,
    VarCall,
)
from .diagnostics import InternalError


class Matched(Node):
    """Positive success; the substitution binds exactly the catch-all vars,
    in binding order (left to right, depth first)."""

    __slots__ = ("sub",)
    sub: dict[Var, Term]


class Mismatch(Node):
    """Negative success: distinct constructor heads, no match possible."""

    __slots__ = ()


_MISMATCH = Mismatch()


class Stuck(Node):
    """Cannot decide: position of the term whose head blocks matching."""

    __slots__ = ("position",)
    position: int


MatchOutcome = Matched | Mismatch | Stuck


def vars_tele(tele: Telescope) -> list[Var]:
    """The binders of a telescope, in order."""
    return [x for x, _ in tele.entries]


def vars_pats(pats: Sequence[Pattern]) -> Telescope:
    """All catch-all bindings in the patterns, left to right, depth first.

    Requires checked patterns: every binding carries the type stored by
    pattern checking. Impossible patterns contribute nothing.
    """
    out: list[tuple[Var, Term]] = []
    for p in pats:
        _vars_pat(p, out)
    return Telescope(tuple(out))


def _vars_pat(p: Pattern, out: list[tuple[Var, Term]]) -> None:
    match p:
        case BindPat(x, ty):
            if ty is None:
                raise InternalError(f"binding {x!r} has no type; pattern not checked")
            out.append((x, ty))
        case ConPat(_, args):
            for q in args:
                _vars_pat(q, out)
        case ImpossiblePat():
            pass


def to_term(p: Pattern) -> Term:
    """The term that matches exactly this pattern.

    Undefined on impossible sub-patterns, which match no term at all.
    """
    c = type(p)
    if c is BindPat:
        return VarCall(p.var)
    if c is ConPat:
        args = []
        for q in p.args:
            args.append(to_term(q))
        return ConCall(p.name, tuple(args))
    if c is ImpossiblePat:
        raise ValueError("impossible patterns have no matching term")
    raise InternalError(f"unexpected pattern {p!r}")


def to_terms(pats: Sequence[Pattern]) -> list[Term]:
    return [to_term(p) for p in pats]


def match_terms(terms: Sequence[Term], pats: Sequence[Pattern]) -> MatchOutcome:
    """Match a list of terms against a list of patterns.

    Per position: a binding matches anything; equal constructor heads recurse;
    distinct constructor heads are a Mismatch; a constructor pattern against
    any non-constructor head (neutral variable or function call, lambda, Pi,
    Type, a data type) is Stuck. A Mismatch anywhere decides the whole list
    negatively even if another position is Stuck; otherwise any Stuck position
    makes the list Stuck; otherwise the per-position substitutions are joined.

    The top-level row is walked here and nested rows by `_collect`, one frame
    per level of nesting. Every Mismatch is one shared instance: it has
    no fields, so a clause that fails allocates no outcome.
    """
    n = len(pats)
    if len(terms) != n:
        raise InternalError(f"matching {len(terms)} terms against {n} patterns")
    sub: dict[Var, Term] = {}
    stuck_at = -1
    for i in range(n):
        p = pats[i]
        c = type(p)
        if c is BindPat:
            x = p.var
            if x in sub:
                raise InternalError(f"pattern variable {x!r} is bound twice")
            sub[x] = terms[i]
        elif c is ConPat:
            u = terms[i]
            if type(u) is not ConCall:
                if stuck_at < 0:
                    stuck_at = i
                continue
            if u.name != p.name:
                return _MISMATCH
            if len(u.args) != len(p.args):
                raise InternalError(f"constructor {p.name} matched with wrong arity")
            if p.args:
                out = _collect(u.args, p.args, sub)
                if out is _MISMATCH:
                    return out
                if out is not None and stuck_at < 0:
                    stuck_at = i
        elif c is ImpossiblePat:
            return _MISMATCH
        else:
            raise InternalError(f"unexpected pattern {p!r}")
    return Matched(sub) if stuck_at < 0 else Stuck(stuck_at)


def _collect(
    terms: Sequence[Term], pats: Sequence[Pattern], sub: dict[Var, Term]
) -> Optional[Mismatch | Stuck]:
    """Add the bindings of every nested position to `sub`, left to right and
    depth first; None when every position matches.

    A variable already in `sub` is bound twice: pattern linearity was
    violated upstream, which is a bug.
    """
    stuck_at: Optional[int] = None
    for i, (u, p) in enumerate(zip(terms, pats)):
        c = type(p)
        if c is BindPat:
            x = p.var
            if x in sub:
                raise InternalError(f"pattern variable {x!r} is bound twice")
            sub[x] = u
        elif c is ConPat:
            if type(u) is not ConCall:
                if stuck_at is None:
                    stuck_at = i
                continue
            if u.name != p.name:
                return _MISMATCH
            if len(u.args) != len(p.args):
                raise InternalError(f"constructor {p.name} matched with wrong arity")
            out = _collect(u.args, p.args, sub)
            if out is _MISMATCH:
                return out
            if out is not None and stuck_at is None:
                stuck_at = i
        elif c is ImpossiblePat:
            return _MISMATCH
        else:
            raise InternalError(f"unexpected pattern {p!r}")
    return None if stuck_at is None else Stuck(stuck_at)
