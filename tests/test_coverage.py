from __future__ import annotations

import itertools
import signal
import time

import pytest

from sit.core import EMPTY_TELESCOPE, ConCall, Var, VarCall
from sit.coverage import Undecidable, available_ctors, check_coverage
from sit.diagnostics import CoverageError, TypeCheckError
from sit.evaluator import Fuel
from sit.pattern_ops import Matched, match_terms
from sit.typecheck import TypeChecker, load

from support import (
    check_source,
    con,
    dat,
    enumerate_tuples,
    nat_lit,
    ref,
)


class TestAvailableCtors:
    def test_empty_at_zero(self, fin_sig):
        assert available_ctors(fin_sig, "Fin", [nat_lit(0)], Fuel()) == {}

    def test_both_at_successor(self, fin_sig):
        out = available_ctors(fin_sig, "Fin", [nat_lit(1)], Fuel())
        assert list(out) == ["fzero", "fsuc"]
        # The fields are the row's, instantiated at the index: fsuc's x is a
        # Fin zero.
        assert out["fzero"].entries == ()
        [(_, x_ty)] = out["fsuc"].entries
        assert x_ty == dat("Fin", nat_lit(0))

    def test_undecidable_at_variable(self, fin_sig):
        k = Var.fresh("k")
        out = available_ctors(fin_sig, "Fin", [ref(k)], Fuel())
        assert out == Undecidable("fzero", 0)

    def test_plain_rows_always_available(self, list_sig):
        a = Var.fresh("A")
        out = available_ctors(list_sig, "List", [ref(a)], Fuel())
        assert list(out) == ["nil", "cons"]

    def test_arguments_are_normalized_first(self, fin_sig):
        idx = con("suc", dat_fn_to_one(fin_sig))
        out = available_ctors(fin_sig, "Fin", [idx], Fuel())
        assert list(out) == ["fzero", "fsuc"]

    def test_duplicate_rows_listed_once_with_the_first_rows_fields(self):
        sig = check_source(
            """
data Nat : Type
  | zero
  | suc (n : Nat)

data Parity (n : Nat) : Type
  | zero => even
  | suc m => odd
  | zero => even (k : Nat)
"""
        )
        out = available_ctors(sig, "Parity", [nat_lit(0)], Fuel())
        assert list(out) == ["even"]
        assert out["even"].entries == ()


def dat_fn_to_one(fin_sig):
    from support import fn

    return fn("toNat", nat_lit(2), con("fsuc", con("fzero")))


class TestCheckCoverage:
    def test_toNat_is_covered(self, fin_sig):
        warnings = check_coverage(fin_sig, fin_sig.func("toNat"), Fuel())
        assert warnings == []

    def test_normalize_is_covered(self, norm_sig):
        assert check_coverage(norm_sig, norm_sig.func("normalize"), Fuel()) == []

    def test_one_clause_plus_misses_successor(self):
        with pytest.raises(CoverageError) as exc:
            check_source(
                """
data Nat : Type
  | zero
  | suc (n : Nat)

def plus (a : Nat) (b : Nat) : Nat
  | zero, b => b
"""
            )
        assert exc.value.code == "E401"
        assert "suc _, _" in exc.value.message

    def test_nested_missing_case_is_named(self):
        with pytest.raises(CoverageError) as exc:
            check_source(
                """
data Nat : Type
  | zero
  | suc (n : Nat)

def pred2 (a : Nat) : Nat
  | zero => zero
  | suc zero => zero
  | suc (suc m) => suc m
"""
                .replace("  | suc (suc m) => suc m\n", "")
            )
        assert "suc (suc _)" in exc.value.message

    def test_first_missing_case_is_the_leftmost(self):
        # Two cases are missing, one under each branch of the first split;
        # the one under zero is reported.
        with pytest.raises(CoverageError) as exc:
            check_source(
                """
data Nat : Type
  | zero
  | suc (n : Nat)

def f (a : Nat) (b : Nat) : Nat
  | zero, zero => zero
  | suc a, zero => zero
"""
            )
        assert exc.value.code == "E401"
        assert exc.value.message == "missing case in f: zero, suc _"

    def test_impossible_covers_vacuous_split(self, fin_sig):
        sig = check_source(
            """
data Nat : Type
  | zero
  | suc (n : Nat)

data Fin (n : Nat) : Type
  | suc m => fzero
  | suc m => fsuc (x : Fin m)

def absurd (x : Fin zero) : Nat
  | impossible
"""
        )
        assert check_coverage(sig, sig.func("absurd"), Fuel()) == []

    def test_vacuous_leaf_without_clauses(self):
        # Splitting the Nat argument first leaves a Fin zero column with no
        # available constructors in the zero branch; no clause is required.
        sig = check_source(
            """
data Nat : Type
  | zero
  | suc (n : Nat)

data Fin (n : Nat) : Type
  | suc m => fzero
  | suc m => fsuc (x : Fin m)

def toNat (n : Nat) (x : Fin n) : Nat
  | suc m, fzero => zero
  | suc m, fsuc y => suc (toNat m y)
"""
        )
        assert check_coverage(sig, sig.func("toNat"), Fuel()) == []

    def test_cannot_split_on_undecidable_availability(self):
        with pytest.raises(CoverageError) as exc:
            check_source(
                """
data Nat : Type
  | zero
  | suc (n : Nat)

data Mix (n : Nat) : Type
  | m => any
  | suc m => pos (x : Nat)

def f (n : Nat) (x : Mix n) : Nat
  | n, any => zero
"""
            )
        assert exc.value.code == "E402"

    def test_unreachable_clause_is_a_warning(self):
        src = """
data Nat : Type
  | zero
  | suc (n : Nat)

def f (a : Nat) : Nat
  | a => a
  | zero => zero
"""
        warnings = load(src, "<test>").warnings
        assert [w.code for w in warnings] == ["W401"]
        assert "clause 2" in warnings[0].message

    def test_overlapping_reachable_clauses_do_not_warn(self):
        src = """
data Nat : Type
  | zero
  | suc (n : Nat)

def pick (a : Nat) (b : Nat) : Nat
  | zero, b => b
  | a, b => suc b
"""
        assert load(src, "<test>").warnings == []

    def test_catch_all_row_claims_its_branch_before_a_split(self):
        # Under first-match dispatch the first row takes every case, so the
        # undecidable split the second row asks for is never made.
        src = """
data Nat : Type
  | zero
  | suc (n : Nat)

data Mix (n : Nat) : Type
  | m => any
  | suc m => pos (x : Nat)

def f (n : Nat) (x : Mix n) : Nat
  | n, x => zero
  | n, any => zero
"""
        warnings = load(src, "<test>").warnings
        assert [w.code for w in warnings] == ["W401"]
        assert "clause 2" in warnings[0].message

    def test_doubling_family_checks_quickly(self):
        # Clause i is `true` at column i, then a catch-all. Splitting below
        # a first row of catch-alls doubled the work with each column; the
        # alarm ends a run that hangs.
        n = 30
        tele = " ".join(f"(x{i} : Bool)" for i in range(n))
        rows = [
            ", ".join("true" if j == i else f"a{j}" for j in range(n)) + " => true"
            for i in range(n)
        ] + [", ".join(f"a{j}" for j in range(n)) + " => false"]
        src = "data Bool : Type\n  | true\n  | false\n"
        src += f"def f {tele} : Bool\n" + "".join(f"  | {r}\n" for r in rows)

        def expire(*_):
            raise TimeoutError("coverage of the doubling family took over 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            start = time.perf_counter()
            assert load(src, "<test>", Fuel(100)).warnings == []
            assert time.perf_counter() - start < 2.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestPerConstructorRule:
    # The first row of c matches at T zero k and the second is stuck: the
    # checker takes the first row that does not mismatch, so c is accepted,
    # while a split needs every row decided and is undecidable.
    TWO_ROWS = """
data Nat : Type
  | zero
  | suc (n : Nat)

data T (a : Nat) (b : Nat) : Type
  | zero, m => c
  | n, suc k => c
"""

    def test_later_stuck_row_does_not_block_a_constructor(self):
        check_source(self.TWO_ROWS + "def use (k : Nat) : T zero k\n  | k => c\n")

    def test_later_stuck_row_makes_availability_undecidable(self):
        sig = check_source(self.TWO_ROWS)
        k = Var.fresh("k")
        out = available_ctors(sig, "T", [nat_lit(0), ref(k)], Fuel())
        assert out == Undecidable("c", 1)

    def test_later_stuck_row_blocks_a_split(self):
        with pytest.raises(CoverageError) as exc:
            check_source(
                self.TWO_ROWS
                + "def g (k : Nat) (t : T zero k) : Nat\n  | k, c => zero\n"
            )
        assert exc.value.code == "E402"


class TestDispatchSoundness:
    def test_covered_functions_never_fall_through(self, fin_sig, norm_sig, nat_sig):
        cases = [
            (nat_sig, "plus", 6),
            (fin_sig, "toNat", 6),
            (norm_sig, "normalize", 4),
            (norm_sig, "ifElse", 3),
            (norm_sig, "not", 2),
            (norm_sig, "termTy", 2),
        ]
        for sig, name, depth in cases:
            func = sig.func(name)
            count = 0
            for args in itertools.islice(
                enumerate_tuples(sig, func.telescope, depth), 300
            ):
                count += 1
                outcomes = [match_terms(list(args), cl.patterns) for cl in func.clauses]
                assert any(isinstance(o, Matched) for o in outcomes), (
                    f"{name} falls through on {args}"
                )
            assert count > 0


class TestSplitAvailabilityAgreement:
    def test_probe_by_type_checker(self, fin_sig, vec_sig, norm_sig):
        # At closed indices, the availability decision agrees with whether the
        # checker accepts a constructor call there (probed before field
        # checking by handing over fresh unchecked arguments).
        cases = [
            (fin_sig, "Fin", 4),
            (vec_sig, "Vec", 3),
            (norm_sig, "Term", 2),
        ]
        for sig, data_name, depth in cases:
            decl = sig.data(data_name)
            ctor_names = sorted({row.name for row in decl.ctors})
            for indices in itertools.islice(
                enumerate_tuples(sig, decl.telescope, depth), 60
            ):
                av = available_ctors(sig, data_name, list(indices), Fuel())
                assert type(av) is dict
                for ctor in ctor_names:
                    row = next(r for r in decl.ctors if r.name == ctor)
                    args = tuple(VarCall(Var.fresh("probe")) for _ in row.fields)
                    try:
                        TypeChecker(sig).check_term(
                            EMPTY_TELESCOPE, ConCall(ctor, args), dat(data_name, *indices)
                        )
                        accepted = True
                    except TypeCheckError as err:
                        if err.code == "E305":
                            accepted = False
                        else:
                            accepted = True  # unavailable was not the reason
                    assert accepted == (ctor in av)
