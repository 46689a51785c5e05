from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sit import evaluator
from sit.core import ConCall, FnCall, Lam, Pi, UNIV, Var, VarCall, pretty
from sit.diagnostics import FuelError
from sit.evaluator import Fuel, convertible, index_normal_form, normalize, whnf
from sit.typecheck import TypeChecker

from support import HIGHER_ORDER, check_source, con, dat, fn, nat_lit, ref


def nat_terms():
    """Closed arithmetic over zero, suc, and plus."""
    return st.recursive(
        st.just(con("zero")),
        lambda children: st.one_of(
            st.builds(lambda a: con("suc", a), children),
            st.builds(lambda a, b: fn("plus", a, b), children, children),
        ),
        max_leaves=12,
    )


def nat_value(t) -> int:
    """Independent arithmetic meaning of a closed term."""
    match t:
        case ConCall("zero", ()):
            return 0
        case ConCall("suc", (a,)):
            return 1 + nat_value(a)
        case FnCall("plus", (a, b)):
            return nat_value(a) + nat_value(b)
    raise AssertionError(f"unexpected {t!r}")


class TestWhnf:
    def test_unfolds_one_clause(self, nat_sig):
        t = fn("plus", nat_lit(1), nat_lit(0))
        out = whnf(nat_sig, t, Fuel())
        assert out == con("suc", fn("plus", nat_lit(0), nat_lit(0)))

    def test_constructor_heads_are_values(self, nat_sig):
        t = con("suc", fn("plus", nat_lit(0), nat_lit(0)))
        assert whnf(nat_sig, t, Fuel()) == t

    def test_stuck_call_stays_neutral(self, nat_sig):
        k = Var.fresh("k")
        t = fn("plus", ref(k), nat_lit(0))
        assert whnf(nat_sig, t, Fuel()) == t

    def test_closed_call_no_clause_matches_stays_neutral(self):
        # Without coverage a partial function checks; its call at a value
        # that no clause matches has no reduct.
        sig = check_source(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def pred (n : Nat) : Nat\n  | suc m => m\n",
            coverage=False,
        )
        assert pretty(normalize(sig, fn("pred", con("zero")), Fuel())) == "pred zero"

    def test_beta_with_spine_argument(self, nat_sig):
        # Substituting a lambda for a spine head reduces on the spot, so
        # weak-head forms never contain beta redexes.
        f = Var.fresh("f")
        from sit.core import subst

        t = subst(
            VarCall(f, (nat_lit(0),)),
            {f: Lam(Var.fresh("y"), con("suc", ref(Var.fresh("z"))))},
        )
        assert whnf(nat_sig, t, Fuel()) == t  # already a value

    def test_match_is_applied_at_once(self):
        # A self-call whose arguments are the clause's own pattern variables:
        # the match a := b, b := a must not act on the b it inserts for a.
        sig = check_source(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def k (a : Nat) (b : Nat) : Nat\n  | a, b => a\n"
        )
        a, b = (p.var for p in sig.func("k").clauses[0].patterns)
        assert whnf(sig, fn("k", ref(b), ref(a)), Fuel()) == ref(b)


class TestNormalize:
    def test_full_evaluation(self, nat_sig):
        assert normalize(nat_sig, fn("plus", nat_lit(1), nat_lit(0)), Fuel()) == nat_lit(1)
        assert normalize(nat_sig, fn("plus", nat_lit(2), nat_lit(3)), Fuel()) == nat_lit(5)

    def test_universe(self, nat_sig):
        assert normalize(nat_sig, UNIV, Fuel()) == UNIV

    def test_idempotent(self, nat_sig, norm_sig):
        samples = [
            fn("plus", nat_lit(2), nat_lit(2)),
            con("suc", fn("plus", nat_lit(0), ref(Var.fresh("k")))),
        ]
        for t in samples:
            once = normalize(nat_sig, t, Fuel())
            assert normalize(nat_sig, once, Fuel()) == once

    def test_normal_value_is_returned_itself(self, nat_sig):
        # A closed constructor value is already normal: nothing is rebuilt
        # and no clause fires.
        v = nat_lit(3)
        fuel = Fuel()
        assert normalize(nat_sig, v, fuel) is v
        assert fuel.used == 0

    def test_normalizes_under_binders(self, nat_sig):
        x = Var.fresh("x")
        t = Lam(x, fn("plus", nat_lit(0), ref(x)))
        assert normalize(nat_sig, t, Fuel()) == Lam(x, ref(x))

    def test_rebuilds_a_pi_and_an_applied_variable(self):
        sig = check_source(HIGHER_ORDER)
        x, g = Var.fresh("x"), Var.fresh("g")
        pi = Pi(x, fn("T", con("true")), fn("T", con("false")))
        assert normalize(sig, pi, Fuel()) == Pi(x, dat("Nat"), dat("Bool"))
        t = VarCall(g, (fn("plus", nat_lit(0), nat_lit(1)), nat_lit(2)))
        assert normalize(sig, t, Fuel()) == VarCall(g, (nat_lit(1), nat_lit(2)))

    def test_index_normal_form_reaches_constructor_arguments(self, nat_sig):
        t = con("suc", fn("plus", nat_lit(0), nat_lit(0)))
        assert index_normal_form(nat_sig, t, Fuel()) == nat_lit(1)

    def test_index_normal_form_returns_a_normal_value_itself(self, nat_sig):
        v = index_normal_form(nat_sig, fn("plus", nat_lit(3), nat_lit(2)), Fuel())
        assert v == nat_lit(5)
        assert index_normal_form(nat_sig, v, Fuel()) is v
        assert index_normal_form(nat_sig, v.args[0], Fuel()) is v.args[0]

    def test_index_normal_form_calls_grow_linearly(self, nat_sig, monkeypatch):
        # A normal constructor spine is not walked again on every dispatch:
        # the calls of plus n n grow with n, not with n squared.
        calls = []
        real = evaluator.index_normal_form

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(evaluator, "index_normal_form", counted)

        def count(n: int) -> int:
            calls.clear()
            assert normalize(nat_sig, fn("plus", nat_lit(n), nat_lit(n)), Fuel()) == nat_lit(2 * n)
            return len(calls)

        assert count(80) <= 2.5 * count(40)

    @settings(max_examples=150)
    @given(nat_terms())
    def test_agrees_with_arithmetic(self, nat_sig, t):
        assert normalize(nat_sig, t, Fuel()) == nat_lit(nat_value(t))

    @settings(max_examples=100)
    @given(nat_terms())
    def test_idempotent_on_random_arithmetic(self, nat_sig, t):
        once = normalize(nat_sig, t, Fuel())
        assert normalize(nat_sig, once, Fuel()) == once


class TestConvertible:
    def test_reflexivity(self, nat_sig):
        assert convertible(nat_sig, dat("Nat"), dat("Nat"), Fuel())

    def test_function_unfolding(self, norm_sig):
        assert convertible(norm_sig, fn("termTy", con("natT")), dat("Nat"), Fuel())
        assert convertible(norm_sig, fn("termTy", con("boolT")), dat("Bool"), Fuel())
        assert not convertible(norm_sig, fn("termTy", con("natT")), dat("Bool"), Fuel())

    def test_alpha_renaming(self, nat_sig):
        x, y = Var.fresh("x"), Var.fresh("y")
        lhs = Lam(x, fn("plus", nat_lit(0), ref(x)))
        rhs = Lam(y, fn("plus", nat_lit(0), ref(y)))
        assert convertible(nat_sig, lhs, rhs, Fuel())

    def test_alpha_equal_sides_are_not_evaluated(self, norm_sig, monkeypatch):
        # Conversion is reflexive: identical or alpha-equal sides are equal
        # before either is normalized, so they spend no fuel.
        calls = []
        real = evaluator.normalize

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(evaluator, "normalize", counted)
        fuel = Fuel()
        t = fn("termTy", con("natT"))
        x, y = Var.fresh("x"), Var.fresh("y")
        assert convertible(norm_sig, t, t, fuel)
        assert convertible(norm_sig, t, fn("termTy", con("natT")), fuel)
        assert convertible(
            norm_sig, Lam(x, fn("termTy", ref(x))), Lam(y, fn("termTy", ref(y))), fuel
        )
        assert calls == [] and fuel.used == 0
        # Sides that differ before evaluation are still normalized.
        assert convertible(norm_sig, t, dat("Nat"), fuel)
        assert len(calls) == 2 and fuel.used == 1

    def test_lambda_eta(self, nat_sig):
        g, x = Var.fresh("g"), Var.fresh("x")
        assert convertible(nat_sig, Lam(x, VarCall(g, (ref(x),))), ref(g), Fuel())
        assert convertible(nat_sig, ref(g), Lam(x, VarCall(g, (ref(x),))), Fuel())
        h = Var.fresh("h")
        assert not convertible(nat_sig, Lam(x, VarCall(h, (ref(x),))), ref(g), Fuel())


    def test_eta_equal_sides_are_not_evaluated(self):
        # `loop zero` never stops, but `fn x => f (loop zero) x` is eta-equal
        # to `f (loop zero)` as it stands.
        sig = check_source(TestFuel.LOOP)
        f, x = Var.fresh("f"), Var.fresh("x")
        diverges = fn("loop", nat_lit(0))
        expanded = Lam(x, VarCall(f, (diverges, ref(x))))
        fuel = Fuel(limit=10)
        assert convertible(sig, expanded, VarCall(f, (diverges,)), fuel)
        assert convertible(sig, VarCall(f, (diverges,)), expanded, fuel)
        assert fuel.used == 0

class TestDispatch:
    OVERLAP = """
data Nat : Type
  | zero
  | suc (n : Nat)

def pick (a : Nat) (b : Nat) : Nat
  | zero, b => b
  | a, b => suc b
"""

    def test_first_match_wins(self):
        sig = check_source(self.OVERLAP)
        assert normalize(sig, fn("pick", nat_lit(0), nat_lit(1)), Fuel()) == nat_lit(1)
        assert normalize(sig, fn("pick", nat_lit(2), nat_lit(1)), Fuel()) == nat_lit(2)

    def test_reordering_overlapping_clauses_changes_results(self):
        reordered = self.OVERLAP.replace(
            "| zero, b => b\n  | a, b => suc b",
            "| a, b => suc b\n  | zero, b => b",
        )
        sig = check_source(reordered)
        assert normalize(sig, fn("pick", nat_lit(0), nat_lit(1)), Fuel()) == nat_lit(2)

    def test_stuck_before_match_freezes_call(self):
        sig = check_source(self.OVERLAP)
        k = Var.fresh("k")
        t = fn("pick", ref(k), nat_lit(1))
        # The second clause would match anything, but the first is stuck on k.
        assert whnf(sig, t, Fuel()) == t


class TestFuel:
    LOOP = """
data Nat : Type
  | zero
  | suc (n : Nat)

def loop (x : Nat) : Nat
  | x => loop x
"""

    def test_runaway_evaluation_raises(self):
        sig = check_source(self.LOOP)
        with pytest.raises(FuelError):
            normalize(sig, fn("loop", nat_lit(0)), Fuel(limit=100))

    def test_budget_is_reported(self):
        sig = check_source(self.LOOP)
        with pytest.raises(FuelError) as exc:
            whnf(sig, fn("loop", nat_lit(0)), Fuel(limit=7))
        assert exc.value.limit == 7


class TestSubjectReduction:
    def test_normal_forms_keep_their_types(self, nat_sig, norm_sig):
        cases = [
            (nat_sig, fn("plus", nat_lit(2), nat_lit(2)), dat("Nat")),
            (
                norm_sig,
                fn("normalize", con("natT"), con("succ", con("nat", nat_lit(1)))),
                fn("termTy", con("natT")),
            ),
            (
                norm_sig,
                fn("normalize", con("boolT"), con("inv", con("bool", con("true")))),
                dat("Bool"),
            ),
            (
                norm_sig,
                fn("ifElse", dat("Nat"), con("true"), nat_lit(1), nat_lit(2)),
                dat("Nat"),
            ),
        ]
        for sig, term, ty in cases:
            TypeChecker(sig).check_term((), term, ty)
            reduced = normalize(sig, term, Fuel())
            TypeChecker(sig).check_term((), reduced, ty)
