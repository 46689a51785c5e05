from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sit.core import (
    BindPat,
    ConCall,
    ConPat,
    ImpossiblePat,
    Lam,
    Pi,
    UNIV,
    Var,
    VarCall,
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
)
from sit.typecheck import TypeChecker

from support import (
    RowGen,
    con,
    corpus_telescopes,
    dat,
    enumerate_tuples,
    fn,
    index_tuples_with_one_var,
    ref,
)


def bind(name: str) -> BindPat:
    return BindPat(Var.fresh(name))


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

    def test_nested_variable_bound_twice_is_internal(self):
        x = bind("x")
        with pytest.raises(InternalError):
            match_terms([con("zero"), con("suc", con("zero"))], [x, ConPat("suc", (x,))])

    def test_wrong_arity_is_internal(self):
        with pytest.raises(InternalError):
            match_terms([con("suc", con("zero"))], [ConPat("suc", ())])

    def test_unknown_pattern_is_internal(self):
        with pytest.raises(InternalError):
            match_terms([con("suc", con("zero"))], [ConPat("suc", (object(),))])

    def test_every_mismatch_is_one_instance(self):
        first = match_terms([con("zero")], [ConPat("suc", (bind("m"),))])
        nested = match_terms([con("suc", con("zero"))], [ConPat("suc", (ImpossiblePat(),))])
        assert type(first) is Mismatch and first is nested


class TestNestedRows:
    """Rows inside constructor patterns are walked by the same loop as the
    top-level row."""

    def test_bindings_are_made_depth_first_left_to_right(self):
        a, b, c, d, e = (bind(x) for x in "abcde")
        pats = [ConPat("pair", (a, ConPat("pair", (b, ConPat("suc", (c,)))), d)), e]
        terms = [
            con("pair", con("zero"), con("pair", dat("Nat"), con("suc", UNIV)), ref(e.var)),
            con("zero"),
        ]
        out = match_terms(terms, pats)
        assert isinstance(out, Matched)
        assert list(out.sub.items()) == [
            (a.var, con("zero")),
            (b.var, dat("Nat")),
            (c.var, UNIV),
            (d.var, ref(e.var)),
            (e.var, con("zero")),
        ]

    def test_mismatch_after_a_nested_stuck(self):
        k = Var.fresh("k")
        deep = ConPat("suc", (ConPat("suc", (bind("m"),)),))
        # in a later top-level position
        out = match_terms([con("suc", ref(k)), con("zero")], [deep, ConPat("suc", (bind("n"),))])
        assert out is match_terms([con("zero")], [ConPat("suc", (bind("n"),))])
        # and later in the same nested row
        pats = [ConPat("pair", (deep, ConPat("zero", ())))]
        out = match_terms([con("pair", con("suc", ref(k)), con("suc", con("zero")))], pats)
        assert type(out) is Mismatch

    def test_stuck_at_depth_is_reported_at_its_top_level_position(self):
        k = Var.fresh("k")
        three = ConPat("suc", (ConPat("suc", (ConPat("suc", (bind("m"),)),)),))
        out = match_terms([con("zero"), con("suc", con("suc", ref(k)))], [bind("x"), three])
        assert out == Stuck(1)
        # The first stuck position in the row wins, whatever its depth.
        out = match_terms(
            [con("suc", con("suc", fn("plus", ref(k), ref(k)))), ref(k)],
            [three, ConPat("zero", ())],
        )
        assert out == Stuck(0)


def suc_pattern(depth: int, leaf) -> ConPat:
    p = leaf
    for _ in range(depth):
        p = ConPat("suc", (p,))
    return p


def suc_term(depth: int, leaf):
    t = leaf
    for _ in range(depth):
        t = con("suc", t)
    return t


class TestDeepRows:
    """Matching keeps the rows it has yet to finish on a list, not on Python
    frames, so nesting is limited by memory only. Outcomes are compared with
    `is` or by position: `==` on nodes recurses."""

    DEPTH = 10_000

    def test_matches(self):
        x = bind("x")
        leaf = con("zero")
        out = match_terms([suc_term(self.DEPTH, leaf)], [suc_pattern(self.DEPTH, x)])
        assert isinstance(out, Matched)
        assert list(out.sub) == [x.var] and out.sub[x.var] is leaf

    def test_mismatch_at_the_deepest_level(self):
        pats = [suc_pattern(self.DEPTH, bind("x"))]
        out = match_terms([suc_term(self.DEPTH - 1, con("zero"))], pats)
        assert type(out) is Mismatch

    def test_stuck_at_the_deepest_level(self):
        pats = [bind("y"), suc_pattern(self.DEPTH, bind("x"))]
        terms = [con("zero"), suc_term(self.DEPTH - 1, ref(Var.fresh("k")))]
        assert match_terms(terms, pats) == Stuck(1)


def reference_match(terms, pats):
    """`match_terms`'s docstring, one recursive call per position: a
    Mismatch anywhere wins, then the first top-level position with a Stuck
    anywhere inside it; otherwise every binding, depth first."""
    sub = {}
    outcomes = [_reference_one(u, p, sub) for u, p in zip(terms, pats, strict=True)]
    if Mismatch in outcomes:
        return Mismatch()
    if Stuck in outcomes:
        return Stuck(outcomes.index(Stuck))
    return Matched(sub)


def _reference_one(u, p, sub):
    if isinstance(p, BindPat):
        sub[p.var] = u
        return Matched
    if isinstance(p, ImpossiblePat):
        return Mismatch
    if not isinstance(u, ConCall):
        return Stuck
    if u.name != p.name:
        return Mismatch
    outcomes = [_reference_one(a, q, sub) for a, q in zip(u.args, p.args, strict=True)]
    for outcome in (Mismatch, Stuck):
        if outcome in outcomes:
            return outcome
    return Matched


class TestAgainstReference:
    def test_random_rows_and_index_tuples(self, norm_sig, vec_sig, fin_sig):
        rng = random.Random(19)
        seen = {Matched: 0, Mismatch: 0, Stuck: 0}
        for sig in (norm_sig, vec_sig, fin_sig):
            gen = RowGen(sig, rng, con_prob=0.8)
            for tele in corpus_telescopes(sig):
                rows = [gen.row(tele) for _ in range(6)]
                rows += [[ImpossiblePat()] + row[1:] for row in rows[:1]]
                closed = list(enumerate_tuples(sig, tele, 3))[:40]
                open_ = list(index_tuples_with_one_var(sig, tele, 3))[:40]
                for terms in closed + open_ + [to_terms(row) for row in rows[:-1]]:
                    for pats in rows:
                        out = match_terms(terms, pats)
                        want = reference_match(terms, pats)
                        assert type(out) is type(want)
                        if type(out) is Matched:
                            assert list(out.sub.items()) == list(want.sub.items())
                        elif type(out) is Stuck:
                            assert out.position == want.position
                        seen[type(out)] += 1
        assert min(seen.values()) >= 50, seen


class TestRoundTrip:
    def test_corpus_rows_match_their_own_terms(self, vec_sig, fin_sig):
        for sig in (vec_sig, fin_sig):
            for decl_name in ("Vec", "Fin"):
                decl = sig.data(decl_name)
                if decl is None:
                    continue
                for row in decl.ctors:
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
        pats = gen.row(tele)
        theta, _ = checker.check_row(pats, tele)
        out = match_terms(to_terms(pats), pats)
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
            theta, _ = checker.check_row(pats, tele)
            out = match_terms(to_terms(pats), pats)
            assert isinstance(out, Matched)
            # The substitution's domain is exactly the bindings, in order.
            assert list(out.sub) == [x for x, _ in theta]
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
            theta, _ = checker.check_row(pats, tele)
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
            terms = [subst(t, rho) for t in to_terms(pats)]
            out = match_terms(terms, pats)
            assert isinstance(out, Matched)
            after = match_terms([subst(t, tau) for t in terms], pats)
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
