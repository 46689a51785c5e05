"""The term and pattern walks branch on a node's exact class, and the
frontend's one pass on a token's kind.

A node of any other class reaches each walk's fallback error, a token of any
other kind is a parse error, and the walks over arguments are plain loops,
one Python frame per level of nesting.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

import pytest

from sit.core import (
    EMPTY_TELESCOPE,
    UNIV,
    ConCall,
    Lam,
    Pi,
    Telescope,
    Var,
    VarCall,
    alpha_eq,
    free_vars,
    pattern_has_impossible,
    pretty,
    subst,
)
from sit.diagnostics import InternalError, ParseError, SourceSpan, TypeCheckError
from sit.evaluator import Fuel, convertible, index_normal_form, normalize
from sit.frontend import Resolver, tokenize
from sit.pattern_ops import match_terms, to_term
from sit.typecheck import TypeChecker

from support import con, dat, nat_lit, ref


@dataclass(frozen=True)
class Foreign:
    """A node of no class the walks know, with the fields they may read."""

    args: tuple = ()
    span: Optional[SourceSpan] = field(default=None, compare=False)


FOREIGN = Foreign()


class TestForeignNode:
    def test_free_vars(self):
        with pytest.raises(InternalError):
            free_vars(con("suc", FOREIGN))

    def test_subst(self):
        x = Var.fresh("x")
        with pytest.raises(InternalError):
            subst(con("suc", FOREIGN), {x: UNIV})

    def test_pretty(self):
        with pytest.raises(InternalError):
            pretty(con("suc", FOREIGN))

    def test_alpha_eq_and_impossible_test_say_no(self):
        assert not alpha_eq(FOREIGN, FOREIGN)
        assert not pattern_has_impossible(FOREIGN)

    def test_normalize_and_convertible(self, nat_sig):
        with pytest.raises(InternalError):
            normalize(nat_sig, con("suc", FOREIGN), Fuel())
        with pytest.raises(InternalError):
            convertible(nat_sig, FOREIGN, UNIV, Fuel())

    def test_match_terms_and_to_term(self):
        with pytest.raises(InternalError):
            match_terms([con("zero")], [FOREIGN])
        with pytest.raises(InternalError):
            to_term(FOREIGN)

    def test_check_term_and_check_pattern(self, nat_sig):
        with pytest.raises(TypeCheckError):
            TypeChecker(nat_sig).check_term(EMPTY_TELESCOPE, FOREIGN, UNIV)
        with pytest.raises(TypeCheckError):
            tele = Telescope.of((Var.fresh("x"), UNIV))
            TypeChecker(nat_sig).check_row((FOREIGN,), tele)

    def test_resolver(self):
        # A token of a kind the lexer never makes where an expression, a
        # declaration and a pattern start: the token at `at` of `text`.
        for text, at, method, what in [
            ("f Type", 0, "resolve_expression", "an expression"),
            ("f Type", 0, "run", "a declaration"),
            ("def f : Type | f", 5, "run", "a pattern"),
        ]:
            tokens = tokenize(text)
            tokens.kinds[at] = "foreign"
            with pytest.raises(ParseError) as exc:
                getattr(Resolver(), method)(tokens)
            assert (exc.value.code, exc.value.message) == ("E102", f"expected {what}, found 'f'")


class TestDepth:
    # Twice the nesting that `all()` over a generator allowed (247 levels),
    # with room to spare under the default recursion limit.
    DEPTH = 400

    def test_equal_deep_values(self, nat_sig):
        assert sys.getrecursionlimit() == 1000
        u, v = nat_lit(self.DEPTH), nat_lit(self.DEPTH)
        assert u is not v
        assert alpha_eq(u, v)
        assert convertible(nat_sig, u, v, Fuel())
        assert not convertible(nat_sig, u, nat_lit(self.DEPTH - 1), Fuel())

    def test_deep_value_prints(self):
        assert pretty(nat_lit(self.DEPTH)) == "suc (" * (self.DEPTH - 1) + (
            "suc zero" + ")" * (self.DEPTH - 1)
        )

    def test_deep_open_value(self, nat_sig):
        x = Var.fresh("x")
        t = VarCall(x)
        for _ in range(self.DEPTH):
            t = ConCall("suc", (t,))
        assert free_vars(t) == {x}
        # Node `==` recurses through tuple comparison and stops near 240
        # levels: compare with `alpha_eq`.
        assert alpha_eq(normalize(nat_sig, t, Fuel()), t)
        assert alpha_eq(subst(t, {x: con("zero")}), nat_lit(self.DEPTH))

    def test_deep_index_normal_form(self, nat_sig):
        # Past the 497 levels that tuples built through generators allowed.
        t = nat_lit(700)
        assert index_normal_form(nat_sig, t, Fuel()) is t


class TestDeepEquality:
    """`alpha_eq` is one loop, so equality takes any nesting; `convertible`
    settles equal sides with it before `normalize` recurses."""

    DEPTH = 10_000

    def pi_nest(self, bottom: Lam | VarCall) -> Pi:
        """`(x1 : Nat) -> (x2 : Fin x1) -> ... -> Box bottom`, each domain
        naming the binder above it, with fresh binders."""
        xs = [Var.fresh("x") for _ in range(self.DEPTH)]
        t = dat("Box", bottom)
        for i in reversed(range(self.DEPTH)):
            t = Pi(xs[i], dat("Fin", ref(xs[i - 1])) if i else dat("Nat"), t)
        return t

    def test_equal_values(self, nat_sig):
        assert sys.getrecursionlimit() == 1000
        u, v = nat_lit(self.DEPTH), nat_lit(self.DEPTH)
        assert u is not v
        assert alpha_eq(u, v)
        assert convertible(nat_sig, u, v, Fuel())

    def test_values_differing_at_the_deepest_level(self):
        assert sys.getrecursionlimit() == 1000
        u = nat_lit(self.DEPTH)
        x = Var.fresh("x")
        v = VarCall(x)
        for _ in range(self.DEPTH):
            v = ConCall("suc", (v,))
        assert not alpha_eq(u, v)
        assert not alpha_eq(v, u)
        assert not alpha_eq(u, nat_lit(self.DEPTH + 1))

    def test_pi_nest_with_an_eta_pair_at_the_bottom(self, nat_sig):
        assert sys.getrecursionlimit() == 1000
        f, y = Var.fresh("f"), Var.fresh("y")
        expanded = self.pi_nest(Lam(y, VarCall(f, (ref(y),))))
        plain = self.pi_nest(ref(f))
        assert alpha_eq(expanded, plain) and alpha_eq(plain, expanded)
        assert convertible(nat_sig, expanded, plain, Fuel())
        assert convertible(nat_sig, plain, expanded, Fuel())
        # The same nest with another variable at the bottom differs.
        assert not alpha_eq(expanded, self.pi_nest(ref(Var.fresh("g"))))
