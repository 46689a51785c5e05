from __future__ import annotations

import itertools

import pytest

from sit.core import DataCall, Pi, Signature, pretty
from sit.diagnostics import InternalError, TypeCheckError
from sit.frontend import Resolver, tokenize
from sit.pattern_ops import Matched, Mismatch, match_terms, to_terms
from sit.translate import emit_general, synth_ctor_type, to_general
from sit.typecheck import TypeChecker
from sit.core import UNIV

from support import (
    check_source,
    enumerate_tuples,
    index_tuples_with_one_var,
    load_corpus,
    oracle_unify,
)


FIN = """
data Nat : Type
  | zero
  | suc (n : Nat)

data Fin (n : Nat) : Type
  | suc m => fzero
  | suc m => fsuc (x : Fin m)
"""


def pi_chain(ty):
    binders = []
    while isinstance(ty, Pi):
        binders.append((ty.binder.text, pretty(ty.domain)))
        ty = ty.codomain
    return binders, pretty(ty)


class TestToGeneral:
    def test_fin(self, fin_sig):
        g = to_general(fin_sig, fin_sig.data("Fin"))
        assert g.name == "Fin"
        types = {name: pi_chain(ty) for name, ty in g.ctors}
        assert types["fzero"] == ([("m", "Nat")], "Fin (suc m)")
        assert types["fsuc"] == ([("m", "Nat"), ("x", "Fin m")], "Fin (suc m)")

    def test_vec(self, vec_sig):
        g = to_general(vec_sig, vec_sig.data("Vec"))
        types = {name: pi_chain(ty) for name, ty in g.ctors}
        assert types["vnil"] == ([("A", "Type")], "Vec A zero")
        assert types["vcons"] == (
            [("A", "Type"), ("m", "Nat"), ("x", "A"), ("xs", "Vec A m")],
            "Vec A (suc m)",
        )

    def test_plain_rows_are_normalized_first(self, list_sig):
        g = to_general(list_sig, list_sig.data("List"))
        types = {name: pi_chain(ty) for name, ty in g.ctors}
        assert types["nil"] == ([("A", "Type")], "List A")
        assert types["cons"] == (
            [("A", "Type"), ("x", "A"), ("xs", "List A")],
            "List A",
        )

    def test_codomain_is_fully_applied_data(self, norm_sig):
        g = to_general(norm_sig, norm_sig.data("Term"))
        for _, ty in g.ctors:
            while isinstance(ty, Pi):
                ty = ty.codomain
            assert isinstance(ty, DataCall)
            assert ty.name == "Term"
            assert len(ty.args) == 1

    def test_total_on_all_corpus_data(self):
        for name in ("nat", "list", "vec", "fin", "normalize"):
            sig = load_corpus(name)
            for decl in sig.decls:
                if hasattr(decl, "ctors"):
                    g = to_general(sig, decl)
                    assert len(g.ctors) == len(decl.ctors)

    def test_unchecked_row_is_internal_error(self):
        # A row as the reader builds it has no binders: translating it is a
        # broken invariant, named by the row, not a wrong type.
        sig = Signature()
        for decl in Resolver().run(tokenize(FIN, "<test>")):
            sig.add(decl)
        with pytest.raises(InternalError, match="fzero in Fin"):
            to_general(sig, sig.data("Fin"))
        with pytest.raises(InternalError, match="fsuc in Fin"):
            synth_ctor_type(sig, "fsuc")
        with pytest.raises(InternalError, match="zero in Nat"):
            synth_ctor_type(sig, "zero")


class TestSynthCtorType:
    def test_empty_telescope_collapses(self, nat_sig):
        assert pretty(synth_ctor_type(nat_sig, "zero")) == "Nat"

    def test_fzero(self, fin_sig):
        assert pi_chain(synth_ctor_type(fin_sig, "fzero")) == (
            [("m", "Nat")],
            "Fin (suc m)",
        )

    def test_vcons(self, vec_sig):
        assert pi_chain(synth_ctor_type(vec_sig, "vcons")) == (
            [("A", "Type"), ("m", "Nat"), ("x", "A"), ("xs", "Vec A m")],
            "Vec A (suc m)",
        )

    def test_unknown_constructor(self, nat_sig):
        with pytest.raises(TypeCheckError):
            synth_ctor_type(nat_sig, "mystery")

    def test_synthesized_types_check_as_types(self, vec_sig, fin_sig):
        for sig, ctor in ((vec_sig, "vcons"), (vec_sig, "vnil"), (fin_sig, "fsuc")):
            TypeChecker(sig).check_term(
                (), synth_ctor_type(sig, ctor), UNIV
            )


class TestEmit:
    def test_fin_golden(self, fin_sig):
        g = to_general(fin_sig, fin_sig.data("Fin"))
        assert emit_general(g) == (
            "data Fin : (n : Nat) → Type where\n"
            "  fzero : (m : Nat) → Fin (suc m)\n"
            "  fsuc : (m : Nat) (x : Fin m) → Fin (suc m)\n"
        )

    def test_vec_golden(self, vec_sig):
        g = to_general(vec_sig, vec_sig.data("Vec"))
        assert emit_general(g) == (
            "data Vec : (A : Type) (n : Nat) → Type where\n"
            "  vnil : (A : Type) → Vec A zero\n"
            "  vcons : (A : Type) (m : Nat) (x : A) (xs : Vec A m) → Vec A (suc m)\n"
        )

    def test_term_golden(self, norm_sig):
        # Two rows each select natT and boolT, and `case`'s row is a
        # catch-all binding the index as A.
        g = to_general(norm_sig, norm_sig.data("Term"))
        assert emit_general(g) == (
            "data Term : (t : TermTy) → Type where\n"
            "  nat : (n : Nat) → Term natT\n"
            "  succ : (x : Term natT) → Term natT\n"
            "  bool : (b : Bool) → Term boolT\n"
            "  inv : (x : Term boolT) → Term boolT\n"
            "  case : (A : TermTy) (b : Term boolT) (x : Term A) (y : Term A) → Term A\n"
        )

    def test_nullary_data_header(self, norm_sig):
        g = to_general(norm_sig, norm_sig.data("TermTy"))
        assert emit_general(g).splitlines()[0] == "data TermTy : Type where"

    def test_empty_constructor_data_is_header_only(self):
        sig = check_source("data Empty : Type\n")
        g = to_general(sig, sig.data("Empty"))
        assert emit_general(g) == "data Empty : Type where\n"

    def test_deterministic(self, vec_sig):
        g = to_general(vec_sig, vec_sig.data("Vec"))
        assert emit_general(g) == emit_general(g)


class TestWellTypedness:
    def test_translated_constructors_recheck(self):
        # The whole Pi chain checks as a type, which covers both the binder
        # telescope and the fully applied codomain.
        for name in ("nat", "list", "vec", "fin", "normalize"):
            sig = load_corpus(name)
            for decl in sig.decls:
                if not hasattr(decl, "ctors"):
                    continue
                for _, ty in to_general(sig, decl).ctors:
                    TypeChecker(sig).check_term((), ty, UNIV)

    def test_pattern_terms_instantiate_the_telescope(self, vec_sig, fin_sig):
        for sig, name in ((vec_sig, "Vec"), (fin_sig, "Fin")):
            decl = sig.data(name)
            for row in decl.ctors:
                TypeChecker(sig).check_args(
                    row.binders, to_terms(row.patterns), decl.telescope
                )


class TestSoundnessAgainstUnificationOracle:
    def outcomes_agree(self, sig, decl, tuples):
        for tup in tuples:
            for row in decl.ctors:
                pats = row.patterns
                pat_terms = to_terms(pats)
                flexible = {x for x, _ in row.binders}
                got = match_terms(list(tup), pats)
                expected = oracle_unify(list(tup), pat_terms, flexible)
                if isinstance(got, Matched):
                    assert expected[0] == "unifies"
                    assert got.sub == expected[1]
                elif isinstance(got, Mismatch):
                    assert expected[0] == "clash"
                else:
                    assert expected[0] == "undecided"

    def test_closed_tuples(self, vec_sig, fin_sig, norm_sig):
        for sig, name in ((vec_sig, "Vec"), (fin_sig, "Fin"), (norm_sig, "Term")):
            decl = sig.data(name)
            tuples = list(enumerate_tuples(sig, decl.telescope, 3))
            assert tuples
            self.outcomes_agree(sig, decl, tuples)

    def test_tuples_with_one_free_variable(self, fin_sig, vec_sig):
        for sig, name in ((fin_sig, "Fin"), (vec_sig, "Vec")):
            decl = sig.data(name)
            tuples = list(
                itertools.islice(
                    index_tuples_with_one_var(sig, decl.telescope, 3), 200
                )
            )
            assert tuples
            self.outcomes_agree(sig, decl, tuples)
