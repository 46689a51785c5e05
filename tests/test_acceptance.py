"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete.
"""
from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from sit.cli import run
from sit.core import (
    ConCall,
    ConPat,
    DataDecl,
    Var,
    VarCall,
    subst,
)
from sit.evaluator import Fuel, normalize
from sit.pattern_ops import Matched, Mismatch, match_terms, to_terms
from sit.translate import to_general
from sit.typecheck import TypeChecker
from sit.core import UNIV

from support import (
    FIXTURES,
    RowGen,
    check_source,
    con,
    corpus_telescopes,
    enumerate_terms,
    enumerate_tuples,
    fn,
    index_tuples_with_one_var,
    load_corpus,
    nat_lit,
    oracle_unify,
)

CORPUS_NAMES = ("nat", "list", "vec", "fin", "normalize")


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL", flush=True)
        raise
    print(f"[acceptance] {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def sigs():
    return {name: load_corpus(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="module")
def random_rows(sigs):
    """1,000 random well-typed impossible-free pattern rows with their
    telescopes and `check_row`'s binder telescopes, shared by the
    identity-substitution and instantiation checks."""
    rng = random.Random(20260808)
    pool = []
    for name in ("nat", "vec", "fin", "normalize"):
        sig = sigs[name]
        gen = RowGen(sig, rng)
        checker = TypeChecker(sig)
        teles = corpus_telescopes(sig)
        pool.append((sig, gen, checker, teles))
    rows = []
    for i in range(1000):
        sig, gen, checker, teles = pool[i % len(pool)]
        tele = rng.choice(teles)
        pats = gen.row(tele)
        theta, _ = checker.check_row(pats, tele)
        rows.append((sig, tele, pats, theta))
    return rows


def test_c1_corpus_accepts_quickly():
    with criterion("C1 corpus type-checks with coverage in < 1 s"):
        start = time.perf_counter()
        for name in CORPUS_NAMES:
            load_corpus(name)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"corpus checking took {elapsed:.2f} s"


NEGATIVE_FIXTURES = [
    ("01_vnil_wrong_length.sit", 1, "E305", "10:10"),
    ("02_fzero_stuck.sit", 1, "E306", "10:10"),
    ("03_impossible_available.sit", 1, "E308", "10:8"),
    ("04_duplicate_pattern_vars.sit", 1, "E310", "6:8"),
    ("05_impossible_with_body.sit", 1, "E311", "10:3"),
    ("06_missing_case_plus.sit", 1, "E401", "5:1"),
    ("07_out_of_order.sit", 2, "E201", "1:26"),
    ("08_conversion_mismatch.sit", 1, "E303", "6:10"),
    ("09_unknown_identifier.sit", 2, "E201", "6:10"),
    ("10_lambda_at_data_type.sit", 1, "E304", "6:10"),
    ("11_missing_body.sit", 1, "E312", "6:3"),
    ("12_duplicate_declaration.sit", 2, "E203", "5:6"),
    ("13_impossible_stuck.sit", 1, "E308", "10:8"),
    ("14_pattern_at_function_type.sit", 1, "E307", "6:5"),
    ("15_cannot_split.sit", 1, "E402", "9:1"),
    ("16_over_application.sit", 2, "E202", "6:10"),
    ("17_binder_shadows_ctor.sit", 2, "E204", "5:10"),
    ("18_wrong_data_type.sit", 1, "E309", "10:10"),
    ("19_ctor_pattern_arity.sit", 1, "E302", "6:5"),
    ("20_self_call_match.sit", 1, "E306", "16:36"),
]


def test_c2_negative_suite(capsys):
    with criterion(f"C2 negative suite ({len(NEGATIVE_FIXTURES)} fixtures)"):
        assert len(NEGATIVE_FIXTURES) >= 10
        for name, want_exit, want_code, want_span in NEGATIVE_FIXTURES:
            got = run(["check", str(FIXTURES / name)])
            err = capsys.readouterr().err
            assert got == want_exit, f"{name}: exit {got}, wanted {want_exit}"
            assert f"error[{want_code}]" in err, f"{name}: missing {want_code} in {err!r}"
            where = f"{name}:{want_span}: error[{want_code}]"
            assert where in err, f"{name}: not at {want_span}: {err!r}"


def test_c3_identity_substitution(random_rows):
    with criterion("C3 identity substitution on 1,000 random rows"):
        assert len(random_rows) == 1000
        for _, _, pats, theta in random_rows:
            out = match_terms(to_terms(pats), pats)
            assert isinstance(out, Matched)
            assert list(out.sub) == [x for x, _ in theta]
            for x, _ in theta:
                assert subst(VarCall(x), out.sub) == VarCall(x)


def test_c4_pattern_terms_instantiate_telescopes(sigs, random_rows):
    with criterion("C4 pattern terms instantiate their telescopes"):
        checked = 0
        for sig in sigs.values():
            for decl in sig.decls:
                tele = decl.telescope
                if isinstance(decl, DataDecl):
                    rows = [(r.patterns, r.binders) for r in decl.ctors]
                else:
                    checker = TypeChecker(sig)
                    rows = [(cl.patterns, checker.check_row(cl.patterns, tele)[0])
                            for cl in decl.clauses]
                for pats, theta in rows:
                    TypeChecker(sig).check_args(theta, to_terms(pats), tele)
                    checked += 1
        for sig, tele, pats, theta in random_rows:
            TypeChecker(sig).check_args(theta, to_terms(pats), tele)
            checked += 1
        assert checked >= 1000


# Extra indexed types widen the depth-3 space: two indices, nested index
# patterns, and duplicate selection rows.
EXTRA_INDEXED = """
data Nat : Type
  | zero
  | suc (n : Nat)

data Bool : Type
  | true
  | false

data Le (m : Nat) (n : Nat) : Type
  | zero, n => lzero
  | suc a, suc b => lsuc (x : Le a b)

data Even (n : Nat) : Type
  | zero => ezero
  | suc (suc m) => ess (x : Even m)

data Parity (n : Nat) : Type
  | zero => whole
  | suc (suc m) => whole
  | suc m => half
"""


def _soundness_pairs(sig, decl, depth):
    closed = list(enumerate_tuples(sig, decl.telescope, depth))
    opens = list(
        itertools.islice(index_tuples_with_one_var(sig, decl.telescope, depth), 600)
    )
    for tup in closed + opens:
        for row in decl.ctors:
            yield tup, row


def test_c5_translation_soundness(sigs):
    with criterion("C5 availability agrees with the unification oracle"):
        start = time.perf_counter()
        compared = 0
        seen = {"unifies": 0, "clash": 0, "undecided": 0}
        sources = [(sig, 3) for sig in sigs.values()]
        sources.append((check_source(EXTRA_INDEXED), 7))
        for sig, depth in sources:
            for decl in sig.decls:
                if not isinstance(decl, DataDecl):
                    continue
                for tup, row in _soundness_pairs(sig, decl, depth):
                    pats = row.patterns
                    flexible = {x for x, _ in row.binders}
                    got = match_terms(list(tup), pats)
                    want = oracle_unify(list(tup), to_terms(pats), flexible)
                    if isinstance(got, Matched):
                        assert want[0] == "unifies"
                        assert got.sub == want[1]
                    elif isinstance(got, Mismatch):
                        assert want[0] == "clash"
                    else:
                        assert want[0] == "undecided"
                    seen[want[0]] += 1
                    compared += 1
        elapsed = time.perf_counter() - start
        assert compared > 500, f"only {compared} comparisons"
        assert all(seen.values()), f"outcome classes not all exercised: {seen}"
        assert elapsed < 30.0, f"soundness enumeration took {elapsed:.1f} s"


def test_c6_translated_constructors_recheck(sigs):
    with criterion("C6 translated constructor types re-check"):
        total = 0
        for sig in sigs.values():
            for decl in sig.decls:
                if not isinstance(decl, DataDecl):
                    continue
                for _, ty in to_general(sig, decl).ctors:
                    TypeChecker(sig).check_term((), ty, UNIV)
                    total += 1
        assert total > 0


def test_c7_evaluation_correctness(sigs):
    with criterion("C7 normalizer program evaluates correctly"):
        sig = sigs["normalize"]
        fuel = Fuel()
        four = normalize(
            sig, fn("normalize", con("natT"), con("succ", con("nat", nat_lit(3)))), fuel
        )
        assert four == nat_lit(4)

        inverted = normalize(
            sig, fn("normalize", con("boolT"), con("inv", con("bool", con("true")))), fuel
        )
        assert inverted == con("false")

        # case (bool true) x y picks x; the result is x's normal form.
        x_branch = con("succ", con("nat", nat_lit(0)))
        y_branch = con("nat", nat_lit(7))
        picked = normalize(
            sig,
            fn(
                "normalize",
                con("natT"),
                con("case", con("bool", con("true")), x_branch, y_branch),
            ),
            fuel,
        )
        assert picked == normalize(sig, fn("normalize", con("natT"), x_branch), fuel)
        assert picked == nat_lit(1)


# Enumeration depths tuned so 500 closed tuples exist where the argument
# space allows; not/termTy have exactly two well-typed argument tuples.
COVERAGE_FUZZ = [
    ("nat", "plus", 25, 500),
    ("fin", "toNat", 35, 500),
    ("normalize", "not", 3, 2),
    ("normalize", "termTy", 3, 2),
    ("normalize", "ifElse", 17, 500),
    ("normalize", "normalize", 5, 500),
]


def test_c8_coverage_fuzz(sigs, capsys):
    with criterion("C8 covered functions never fall through on 500 tuples"):
        for sig_name, func_name, depth, expected in COVERAGE_FUZZ:
            sig = sigs[sig_name]
            func = sig.func(func_name)
            count = 0
            for args in itertools.islice(
                enumerate_tuples(sig, func.telescope, depth), 500
            ):
                count += 1
                assert any(
                    isinstance(match_terms(list(args), cl.patterns), Matched)
                    for cl in func.clauses
                ), f"{func_name} falls through on {args}"
            assert count == expected, f"{func_name}: {count} tuples, wanted {expected}"

        got = run(["check", str(FIXTURES / "06_missing_case_plus.sit")])
        err = capsys.readouterr().err
        assert got == 1
        assert "missing case" in err and "suc _, _" in err


def test_c9_match_stability(sigs):
    with criterion("C9 match outcomes stable under substitution (1,000 triples)"):
        rng = random.Random(1789)
        pool = []
        for name in ("nat", "vec", "fin", "normalize"):
            sig = sigs[name]
            pool.append(
                (sig, RowGen(sig, rng), TypeChecker(sig), corpus_telescopes(sig))
            )
        matched_cases = mismatch_cases = 0
        for i in range(1000):
            sig, gen, checker, teles = pool[i % len(pool)]
            tele = rng.choice(teles)
            pats = gen.row(tele)
            theta, _ = checker.check_row(pats, tele)

            # Instantiate the row's own match: closed values for some
            # bindings, fresh holes (with tau mappings) for the rest.
            rho, tau = {}, {}
            for x, ty in theta:
                choices = list(
                    itertools.islice(enumerate_terms(sig, subst(ty, rho), 3), 20)
                )
                if choices and rng.random() < 0.5:
                    rho[x] = rng.choice(choices)
                else:
                    hole = Var.fresh("h")
                    rho[x] = VarCall(hole)
                    if choices:
                        tau[hole] = rng.choice(choices)
            terms = [subst(t, rho) for t in to_terms(pats)]

            make_mismatch = rng.random() < 0.4
            if make_mismatch:
                spot = _some_con_position(pats)
                if spot is None:
                    make_mismatch = False
                else:
                    i_pos, want_name = spot
                    other = _other_ctor_term(sig, want_name)
                    terms[i_pos] = other

            before = match_terms(terms, pats)
            after = match_terms([subst(t, tau) for t in terms], pats)
            if make_mismatch:
                assert before == Mismatch()
                assert after == Mismatch()
                mismatch_cases += 1
            else:
                assert isinstance(before, Matched)
                assert isinstance(after, Matched)
                for x in before.sub:
                    assert subst(VarCall(x), after.sub) == subst(before.sub[x], tau)
                matched_cases += 1
        assert matched_cases + mismatch_cases == 1000
        assert matched_cases >= 400 and mismatch_cases >= 100


def _some_con_position(pats):
    for i, p in enumerate(pats):
        if isinstance(p, ConPat):
            return i, p.name
    return None


def _other_ctor_term(sig, avoid: str):
    owner = sig.ctor_owner(avoid)
    for row in owner.ctors:
        if row.name != avoid:
            return ConCall(row.name, tuple(VarCall(Var.fresh("w")) for _ in row.fields))
    return ConCall(avoid + "_ghost", ())
