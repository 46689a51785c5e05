from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sit.core import (
    BindPat,
    ConPat,
    ImpossiblePat,
    Lam,
    Pi,
    UNIV,
    Var,
    VarCall,
    pretty,
    subst,
)
from sit.diagnostics import InternalError
from sit.pattern_ops import (
    Matched,
    Mismatch,
    Stuck,
    match_terms,
    to_term,
    to_terms,
    vars_pats,
    vars_tele,
)
from sit.typecheck import TypeChecker

from support import RowGen, con, corpus_telescopes, dat, ref


def bind(name: str, ty=None) -> BindPat:
    return BindPat(Var.fresh(name), ty)


class TestVars:
    def test_vars_tele_empty(self):
        from sit.core import Telescope

        assert vars_tele(Telescope()) == []

    def test_vars_tele_vec(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        assert [v.text for v in vars_tele(tele)] == ["A", "n"]

    def test_vars_pats_impossible_contributes_nothing(self):
        assert vars_pats([ImpossiblePat()]).entries == ()

    def test_vars_pats_unchecked_bind_is_internal_error(self):
        with pytest.raises(InternalError):
            vars_pats([bind("m")])

    def test_vars_pats_on_checked_vcons_row(self, vec_sig):
        row = vec_sig.data("Vec").ctors[1]
        theta = vars_pats(row.patterns)
        assert [(x.text, pretty(ty)) for x, ty in theta] == [("A", "Type"), ("m", "Nat")]

    def test_vars_pats_on_checked_fin_row(self, fin_sig):
        row = fin_sig.data("Fin").ctors[0]
        theta = vars_pats(row.patterns)
        assert [(x.text, pretty(ty)) for x, ty in theta] == [("m", "Nat")]


class TestToTerms:
    def test_bind_becomes_variable(self):
        p = bind("x")
        assert to_term(p) == VarCall(p.var)

    def test_structure_preserving(self):
        a, m = bind("A"), bind("m")
        pats = [a, ConPat("suc", (m,))]
        assert to_terms(pats) == [ref(a.var), con("suc", ref(m.var))]

    def test_impossible_rejected(self):
        with pytest.raises(ValueError):
            to_terms([ImpossiblePat()])
        with pytest.raises(ValueError):
            to_term(ConPat("suc", (ImpossiblePat(),)))


class TestMatchTerms:
    def vec_row(self):
        # A, suc m
        return [bind("A"), ConPat("suc", (bind("m"),))]

    def test_head_mismatch(self):
        out = match_terms([dat("Nat"), con("zero")], self.vec_row())
        assert out == Mismatch()

    def test_match_collects_bindings(self):
        pats = self.vec_row()
        out = match_terms([dat("Nat"), con("suc", con("zero"))], pats)
        assert isinstance(out, Matched)
        a = pats[0].var
        m = pats[1].args[0].var
        assert list(out.sub.items()) == [(a, dat("Nat")), (m, con("zero"))]

    def test_variable_blocks_matching(self):
        k = Var.fresh("k")
        out = match_terms([dat("Nat"), ref(k)], self.vec_row())
        assert out == Stuck(1)

    def test_mismatch_dominates_stuck(self):
        k = Var.fresh("k")
        pats = [ConPat("suc", (bind("m"),)), ConPat("suc", (bind("m2"),))]
        out = match_terms([ref(k), con("zero")], pats)
        assert out == Mismatch()

    @pytest.mark.parametrize(
        "blocker",
        [
            Lam(Var.fresh("x"), con("zero")),
            Pi(Var.fresh("x"), UNIV, UNIV),
            UNIV,
            dat("Nat"),
        ],
        ids=["lambda", "pi", "universe", "data"],
    )
    def test_non_constructor_heads_are_stuck(self, blocker):
        out = match_terms([blocker], [ConPat("zero", ())])
        assert out == Stuck(0)

    def test_impossible_matches_nothing(self):
        assert match_terms([con("zero")], [ImpossiblePat()]) == Mismatch()

    def test_nested_stuck_reports_top_level_position(self):
        k = Var.fresh("k")
        pats = [ConPat("suc", (ConPat("suc", (bind("m"),)),))]
        out = match_terms([con("suc", ref(k))], pats)
        assert out == Stuck(0)

    def test_length_mismatch_is_internal(self):
        with pytest.raises(InternalError):
            match_terms([con("zero")], [])

    def test_variable_bound_twice_is_internal(self):
        x = bind("x")
        with pytest.raises(InternalError):
            match_terms([con("zero"), con("zero")], [x, x])


class TestRoundTrip:
    def test_corpus_rows_match_their_own_terms(self, vec_sig, fin_sig):
        for sig in (vec_sig, fin_sig):
            for decl_name in ("Vec", "Fin"):
                decl = sig.data(decl_name)
                if decl is None:
                    continue
                for row in decl.ctors:
                    if row.patterns is None:
                        continue
                    out = match_terms(to_terms(row.patterns), row.patterns)
                    assert isinstance(out, Matched)
                    for x, t in out.sub.items():
                        assert t == VarCall(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_identity_substitution_property(self, norm_sig, seed):
        rng = random.Random(seed)
        gen = RowGen(norm_sig, rng)
        checker = TypeChecker(norm_sig)
        tele = rng.choice(corpus_telescopes(norm_sig))
        typed, theta, _ = checker.check_row(gen.row(tele), tele)
        out = match_terms(to_terms(typed), typed)
        assert isinstance(out, Matched)
        for x, _ in theta:
            assert subst(VarCall(x), out.sub) == VarCall(x)

    def test_random_rows_identity_substitution(self, norm_sig):
        rng = random.Random(7)
        gen = RowGen(norm_sig, rng)
        checker = TypeChecker(norm_sig)
        teles = corpus_telescopes(norm_sig)
        for _ in range(150):
            tele = rng.choice(teles)
            pats = gen.row(tele)
            typed, theta, _ = checker.check_row(pats, tele)
            out = match_terms(to_terms(typed), typed)
            assert isinstance(out, Matched)
            # The substitution's domain is exactly the bindings, in order.
            assert list(out.sub) == [x for x, _ in vars_pats(typed)]
            for x, _ in theta:
                assert subst(VarCall(x), out.sub) == VarCall(x)


class TestStability:
    def test_matched_composes_through_substitution(self, norm_sig):
        rng = random.Random(99)
        gen = RowGen(norm_sig, rng)
        checker = TypeChecker(norm_sig)
        teles = corpus_telescopes(norm_sig)
        from support import enumerate_terms

        for _ in range(100):
            tele = rng.choice(teles)
            pats = gen.row(tele)
            typed, theta, _ = checker.check_row(pats, tele)
            # Instantiate some bindings with closed terms and leave the rest
            # as free variables targeted by a second substitution.
            rho, tau = {}, {}
            for x, ty in theta:
                choices = list(enumerate_terms(norm_sig, subst(ty, rho), 3))
                if choices and rng.random() < 0.5:
                    rho[x] = rng.choice(choices)
                else:
                    hole = Var.fresh("h")
                    rho[x] = VarCall(hole)
                    if choices:
                        tau[hole] = rng.choice(choices)
            terms = [subst(t, rho) for t in to_terms(typed)]
            out = match_terms(terms, typed)
            assert isinstance(out, Matched)
            after = match_terms([subst(t, tau) for t in terms], typed)
            assert isinstance(after, Matched)
            for x in out.sub:
                assert subst(VarCall(x), after.sub) == subst(out.sub[x], tau)

    def test_mismatch_is_preserved(self):
        pats = [ConPat("suc", (bind("m"),))]
        x = Var.fresh("x")
        terms = [con("zero")]
        assert match_terms(terms, pats) == Mismatch()
        tau = {x: con("zero")}
        assert match_terms([subst(t, tau) for t in terms], pats) == Mismatch()

    def test_stuck_may_resolve_either_way(self):
        pats = [ConPat("suc", (bind("m"),))]
        k = Var.fresh("k")
        assert match_terms([ref(k)], pats) == Stuck(0)
        positive = {k: con("suc", con("zero"))}
        negative = {k: con("zero")}
        assert isinstance(match_terms([subst(ref(k), positive)], pats), Matched)
        assert match_terms([subst(ref(k), negative)], pats) == Mismatch()
