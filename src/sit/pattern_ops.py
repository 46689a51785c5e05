"""The pattern operations: pattern-to-term conversion and the three-outcome
matcher.

Matching is purely syntactic over weak-head-normal constructor spines; the
matcher never reduces. Callers normalize the terms they hand in. The matcher
is one loop over an explicit stack of rows, with no nesting limit.
"""
from __future__ import annotations

from collections.abc import Sequence

from .core import (
    BindPat,
    ConCall,
    ConPat,
    ImpossiblePat,
    Node,
    Pattern,
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

    Per position: a binding matches anything; equal constructor heads match
    their argument rows; distinct constructor heads are a Mismatch; a
    constructor pattern against any non-constructor head (neutral variable or
    function call, lambda, Pi, Type, a data type) is Stuck. A Mismatch
    anywhere decides the whole list negatively even if another position is
    Stuck; otherwise any Stuck position, at any depth, makes the list Stuck at
    its top-level position; otherwise the bindings are joined, left to right
    and depth first.

    One loop walks every row, nested ones included, keeping the rows it has
    yet to finish on an explicit stack, so nesting has no depth limit. Every
    Mismatch is one shared instance: it has no fields, so a clause that fails
    allocates no outcome. A variable bound twice means pattern linearity was
    violated upstream, which is a bug.
    """
    n = len(pats)
    if len(terms) != n:
        raise InternalError(f"matching {len(terms)} terms against {n} patterns")
    sub: dict[Var, Term] = {}
    stuck_at = -1
    # Frames (terms, patterns, next index, top-level position) of the rows
    # left unfinished; `top` is -1 while the top-level row is walked.
    stack: list[tuple[Sequence[Term], Sequence[Pattern], int, int]] = []
    top = -1
    i = 0
    while True:
        if i == n:
            if not stack:
                break
            terms, pats, i, top = stack.pop()
            n = len(pats)
            continue
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
                    stuck_at = i if top < 0 else top
            elif u.name != p.name:
                return _MISMATCH
            elif len(u.args) != len(p.args):
                raise InternalError(f"constructor {p.name} matched with wrong arity")
            elif p.args:
                stack.append((terms, pats, i + 1, top))
                if top < 0:
                    top = i
                terms, pats, n, i = u.args, p.args, len(p.args), 0
                continue
        elif c is ImpossiblePat:
            return _MISMATCH
        else:
            raise InternalError(f"unexpected pattern {p!r}")
        i += 1
    return Matched(sub) if stuck_at < 0 else Stuck(stuck_at)
