from __future__ import annotations

import gc
import random

import pytest

from sit import core, coverage, evaluator, typecheck
from sit.cli import run
from sit.core import (
    BindPat,
    Clause,
    ConCall,
    ConPat,
    CtorRow,
    DataDecl,
    FuncDecl,
    ImpossiblePat,
    UNIV,
    Var,
    pretty,
    pretty_pattern,
)
from sit.diagnostics import FuelError, SitError, TypeCheckError
from sit.evaluator import Fuel
from sit.frontend import Resolver, tokenize
from sit.pattern_ops import Matched, match_terms, to_term, to_terms
from sit.typecheck import TypeChecker, evaluate, load

from support import (
    COMPUTED_INDEX_PROGRAMS,
    CORPUS,
    FIXTURES,
    HIGHER_ORDER,
    RowGen,
    check_source,
    con,
    dat,
    deadline,
    enumerate_tuples,
    fn,
    load_corpus,
    nat_lit,
    ref,
    wide_matrix,
)


def code_of(excinfo) -> str:
    return excinfo.value.code


class TestCheckTerm:
    def test_vnil_at_zero_length(self, vec_sig):
        ty = dat("Vec", dat("Nat"), nat_lit(0))
        TypeChecker(vec_sig).check_term((), con("vnil"), ty)

    def test_vnil_at_nonzero_length_is_unavailable(self, vec_sig):
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(vec_sig).check_term(
                (), con("vnil"), dat("Vec", dat("Nat"), nat_lit(1))
            )
        assert code_of(exc) == "E305"

    def test_vcons_fields_are_instantiated_by_the_match(self, vec_sig):
        term = con("vcons", nat_lit(0), con("vnil"))
        ty = dat("Vec", dat("Nat"), nat_lit(1))
        TypeChecker(vec_sig).check_term((), term, ty)

    def test_vcons_field_type_enforced(self, vec_sig):
        term = con("vcons", con("vnil"), con("vnil"))  # head is not a Nat
        ty = dat("Vec", dat("Nat"), nat_lit(1))
        with pytest.raises(TypeCheckError):
            TypeChecker(vec_sig).check_term((), term, ty)

    def test_fzero_at_variable_index_is_stuck(self, fin_sig):
        k = Var.fresh("k")
        ctx = ((k, dat("Nat")),)
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(fin_sig).check_term(ctx, con("fzero"), dat("Fin", ref(k)))
        assert code_of(exc) == "E306"

    def test_indices_are_normalized_before_matching(self, fin_sig):
        # Fin (toNat ...) style: the index reduces to suc zero first.
        idx = fn("toNat", nat_lit(2), con("fsuc", con("fzero")))
        ty = dat("Fin", con("suc", idx))
        TypeChecker(fin_sig).check_term((), con("fzero"), ty)

    def test_universe_in_universe(self, nat_sig):
        TypeChecker(nat_sig).check_term((), UNIV, UNIV)

    def test_conversion_rule_uses_evaluation(self, norm_sig):
        ty = fn("termTy", con("natT"))
        TypeChecker(norm_sig).check_term((), nat_lit(3), ty)

    def test_unknown_head(self, nat_sig):
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(nat_sig).check_term((), fn("mystery"), dat("Nat"))
        assert code_of(exc) == "E301"

    def test_ctor_of_other_data(self, norm_sig):
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(norm_sig).check_term((), con("true"), dat("Nat"))
        assert code_of(exc) == "E309"


class TestCheckArgs:
    def test_empty(self, nat_sig):
        TypeChecker(nat_sig).check_args((), [], ())

    def test_vec_telescope(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        TypeChecker(vec_sig).check_args((), [dat("Nat"), nat_lit(0)], tele)

    def test_failure_at_first_position(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        with pytest.raises(TypeCheckError):
            TypeChecker(vec_sig).check_args(
                (), [nat_lit(0), dat("Nat")], tele
            )

    def test_length_mismatch(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(vec_sig).check_args((), [dat("Nat")], tele)
        assert code_of(exc) == "E302"

    def test_dependency_threading(self, vec_sig):
        # Second entry's type mentions the first argument.
        a, n = Var.fresh("A"), Var.fresh("n")
        tele = ((a, UNIV), (n, ref(a)))
        TypeChecker(vec_sig).check_args((), [dat("Nat"), nat_lit(0)], tele)
        with pytest.raises(TypeCheckError):
            TypeChecker(vec_sig).check_args(
                (), [dat("Nat"), con("vnil")], tele
            )

    def test_subst_walks_grow_linearly(self, nat_sig, monkeypatch):
        # Each entry type is instantiated once, at every earlier argument at
        # once: the walks grow with the telescope, not with its square.
        calls = []
        real = core._subst

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(core, "_subst", counted)

        def count(n: int) -> int:
            a = Var.fresh("A")
            xs = [Var.fresh("x") for _ in range(n)]
            tele = ((a, UNIV), *((x, ref(a)) for x in xs))
            calls.clear()
            args = [dat("Nat")] + [nat_lit(0)] * n
            TypeChecker(nat_sig).check_args((), args, tele)
            return len(calls)

        assert count(20) <= 2.5 * count(10)


def column(ty):
    """The telescope of a row of one pattern at `ty`."""
    return ((Var.fresh("x"), ty),)


class TestCheckPattern:
    def test_fzero_pattern_has_no_bindings(self, fin_sig):
        n = Var.fresh("n")
        tele = column(dat("Fin", con("suc", ref(n))))
        theta, _ = TypeChecker(fin_sig).check_row((ConPat("fzero", ()),), tele)
        assert theta == ()

    def test_impossible_at_empty_type(self, fin_sig):
        tele = column(dat("Fin", nat_lit(0)))
        theta, sub = TypeChecker(fin_sig).check_row((ImpossiblePat(),), tele)
        assert theta == ()
        assert sub is None

    def test_impossible_rejected_when_constructors_available(self, fin_sig):
        n = Var.fresh("n")
        tele = column(dat("Fin", con("suc", ref(n))))
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(fin_sig).check_row((ImpossiblePat(),), tele)
        assert code_of(exc) == "E308"

    def test_bind_type_is_stored(self, nat_sig):
        p = BindPat(Var.fresh("m"))
        theta, _ = TypeChecker(nat_sig).check_row((p,), column(dat("Nat")))
        assert theta == ((p.var, dat("Nat")),)


class TestCheckPatterns:
    def test_dependent_row(self, fin_sig):
        m = BindPat(Var.fresh("m"))
        pats = [ConPat("suc", (m,)), ConPat("fzero", ())]
        tele = fin_sig.func("toNat").telescope
        theta, _ = TypeChecker(fin_sig).check_row(pats, tele)
        assert [(x.text, pretty(ty)) for x, ty in theta] == [("m", "Nat")]

    def test_empty_row(self, nat_sig):
        theta, sub = TypeChecker(nat_sig).check_row([], ())
        assert sub == {}
        assert theta == ()

    def test_duplicate_binding_names(self, nat_sig):
        tele = nat_sig.func("plus").telescope
        pats = [BindPat(Var.fresh("m")), BindPat(Var.fresh("m"))]
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(nat_sig).check_row(pats, tele)
        assert code_of(exc) == "E310"

    def test_second_pattern_sees_first_match(self, fin_sig):
        # After matching n as suc m, the second column's type is Fin (suc m),
        # where fsuc's argument lives at Fin m.
        m, y = BindPat(Var.fresh("m")), BindPat(Var.fresh("y"))
        pats = [ConPat("suc", (m,)), ConPat("fsuc", (y,))]
        tele = fin_sig.func("toNat").telescope
        theta, _ = TypeChecker(fin_sig).check_row(pats, tele)
        entries = {x.text: pretty(ty) for x, ty in theta}
        assert entries == {"m": "Nat", "y": "Fin m"}

    def test_row_bindings_grow_linearly(self, nat_sig, monkeypatch):
        # The row's bindings are joined into one list as each pattern is
        # checked, not copied into a new telescope per pattern: the entries
        # that `typecheck` passes to `tuple` grow with the row, not its square.
        built = []

        def counted(entries=()):
            entries = tuple(entries)
            built.append(len(entries))
            return entries

        def count(n: int) -> int:
            xs = [Var.fresh(f"x{i}") for i in range(n)]
            tele = tuple((x, dat("Nat")) for x in xs)
            pats = [BindPat(Var.fresh(f"y{i}")) for i in range(n)]
            built.clear()
            monkeypatch.setattr(typecheck, "tuple", counted, raising=False)
            theta, _ = TypeChecker(nat_sig).check_row(pats, tele)
            monkeypatch.undo()
            assert [x for x, _ in theta] == [p.var for p in pats]
            return sum(built)

        assert 0 < count(80) <= 2.5 * count(40)

    def test_nested_patterns_check_in_linear_work(self, fin_sig, monkeypatch):
        # Each nesting level builds its pattern's term from its fields' terms
        # once, rather than walking the whole sub-pattern below it again.
        built = []
        real = ConCall.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        def count(n: int) -> int:
            pat = ConPat("fzero")
            for _ in range(n):
                pat = ConPat("fsuc", (pat,))
            ty = dat("Fin", nat_lit(n + 1))
            monkeypatch.setattr(ConCall, "__init__", counted)
            built.clear()
            _, sub = TypeChecker(fin_sig).check_row((pat,), column(ty))
            monkeypatch.undo()
            assert list(sub.values()) == [to_term(pat)]
            return len(built)

        assert count(80) <= 2.5 * count(40)


def _first_error(text: str) -> str:
    with pytest.raises(TypeCheckError) as exc:
        TypeChecker().check_signature(Resolver().run(tokenize(text, "<test>")))
    return exc.value.render()


class TestLinearityInTheWalk:
    """A row's linearity is checked by the one pattern walk, as it records
    each binder: a name bound twice is E310 at its second binder, and the
    first error the walk reaches, left to right and depth first, wins."""

    FIN = (
        "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
        "data Fin (n : Nat) : Type\n  | suc m => fzero\n  | suc m => fsuc (x : Fin m)\n"
    )

    def test_nested_duplicate_at_its_second_binder(self):
        text = (
            self.FIN
            + "def f (n : Nat) (x : Fin n) : Nat\n"
            + "  | suc m, fsuc m => zero\n"
            + "  | suc m, fzero => zero\n"
        )
        assert len(text.splitlines()) == 9
        assert _first_error(text) == (
            "<test>:8:17: error[E310]: pattern variable m bound twice in one row"
        )

    def test_constructor_row_duplicate(self):
        text = self.FIN + "data Same (a : Nat) (b : Nat) : Type\n  | k, k => same\n"
        assert _first_error(text) == (
            "<test>:8:8: error[E310]: pattern variable k bound twice in one row"
        )

    def test_duplicate_after_impossible(self):
        text = (
            self.FIN
            + "def g (n : Nat) (x : Fin n) (a : Nat) (b : Nat) : Nat\n"
            + "  | zero, impossible, k, k\n"
        )
        assert _first_error(text) == (
            "<test>:8:26: error[E310]: pattern variable k bound twice in one row"
        )

    def test_first_error_in_walk_order(self):
        # `suc` has one field: the walk reaches its arity before the second
        # `x`, so the row is E302 at `suc`, not E310.
        text = self.FIN + "def h (n : Nat) (m : Nat) : Nat\n  | suc x x, m => zero\n"
        assert _first_error(text) == (
            "<test>:8:5: error[E302]: constructor suc has 1 field, pattern has 2"
        )


class TestKnownAnswersSkipped:
    """Calls whose answer is known before they are made are not made."""

    def test_a_pattern_term_is_built_normal(self, fin_sig, monkeypatch):
        m = BindPat(Var.fresh("m"))
        pat = ConPat("suc", (ConPat("suc", (m,)),))
        _, sub = TypeChecker(fin_sig).check_row((pat,), column(dat("Nat")))
        (term,) = sub.values()
        calls = []

        def counted(sig, t, fuel):
            calls.append(t)
            return evaluator.index_normal_form(sig, t, fuel)

        monkeypatch.setattr(coverage, "index_normal_form", counted)
        av = coverage.available_ctors(fin_sig, "Fin", [term], Fuel())
        assert list(av) == ["fzero", "fsuc"]
        assert calls == []

    def test_nat_checks_without_conversion(self, monkeypatch):
        # Every type compared in nat.sit is `Nat` or `Type`.
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluator.convertible(*args)

        monkeypatch.setattr(typecheck, "convertible", counted)
        load_corpus("nat")
        assert calls == []

    def test_a_closed_result_is_not_instantiated(self, nat_sig, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return core.subst(*args)

        monkeypatch.setattr(typecheck, "subst", counted)
        clause = Clause((ConPat("suc", (BindPat(Var.fresh("m")),)),), con("zero"))
        TypeChecker(nat_sig).check_clause(column(dat("Nat")), dat("Nat"), clause)
        assert calls == []


class TestCheckedInPlace:
    """Checking reads patterns in place: the signature holds the nodes the
    reader built, and a checked row adds only its binder telescope."""

    def test_signature_holds_the_read_nodes(self):
        for path in sorted(CORPUS.glob("*.sit")):
            decls = Resolver().run(tokenize(path.read_text(encoding="utf-8"), str(path)))
            sig = TypeChecker().check_signature(decls)
            assert len(sig.decls) == len(decls)
            for read, checked in zip(decls, sig.decls):
                if isinstance(read, FuncDecl):
                    assert checked is read
                    continue
                assert len(checked.ctors) == len(read.ctors)
                for read_row, row in zip(read.ctors, checked.ctors):
                    assert read_row.binders is None
                    assert row.patterns is read_row.patterns
                    # The binders are the row's variables in the order the
                    # match of its own terms binds them, at check_row's types.
                    out = match_terms(to_terms(row.patterns), row.patterns)
                    assert [x for x, _ in row.binders] == list(out.sub)
                    theta, _ = TypeChecker(sig).check_row(row.patterns, read.telescope)
                    assert row.binders == theta

    def test_checked_vcons_row_binders(self, vec_sig):
        row = vec_sig.data("Vec").ctors[1]
        assert [(x.text, pretty(ty)) for x, ty in row.binders] == [
            ("A", "Type"), ("m", "Nat")
        ]

    def test_checked_fin_row_binders(self, fin_sig):
        row = fin_sig.data("Fin").ctors[0]
        assert [(x.text, pretty(ty)) for x, ty in row.binders] == [("m", "Nat")]

    def test_impossible_contributes_no_binder(self, fin_sig):
        y = BindPat(Var.fresh("y"))
        tele = ((Var.fresh("x"), dat("Fin", nat_lit(0))),
                (Var.fresh("n"), dat("Nat")))
        theta, sub = TypeChecker(fin_sig).check_row((ImpossiblePat(), y), tele)
        assert theta == ((y.var, dat("Nat")),)
        assert sub is None


class TestCheckClauseAndRows:
    def test_clause_body_checked_under_pattern_bindings_only(self):
        # The telescope variable a is out of scope in the body; its
        # occurrences in the result type are substituted away.
        src = """
data Nat : Type
  | zero
  | suc (n : Nat)

def f (a : Nat) : Nat
  | m => a
"""
        with pytest.raises(Exception) as exc:
            check_source(src)
        assert getattr(exc.value, "code", "") in ("E201",)

    def test_wrong_body_type(self, nat_sig):
        tele = nat_sig.func("plus").telescope
        clause = Clause((BindPat(Var.fresh("x")), BindPat(Var.fresh("y"))), UNIV)
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(nat_sig).check_clause(tele, dat("Nat"), clause)
        assert code_of(exc) == "E303"

    def test_unbound_variable_in_ctor_fields(self, nat_sig):
        m = Var.fresh("m")
        row = CtorRow("bad", ((Var.fresh("x"), ref(m)),), ())
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(nat_sig).check_ctor_row((), row)
        assert code_of(exc) == "E301"


class TestHigherOrderFunctions:
    def test_applied_variables_and_lambda_arguments_check(self):
        # `f (f n)` checks an applied variable, `fn m => suc m` a lambda.
        sig = check_source(
            HIGHER_ORDER + "def three (n : Nat) : Nat\n  | n => twice (fn m => suc m) n\n"
        )
        assert sig.func("twice") is not None and sig.func("three") is not None

    def test_variable_applied_at_a_data_type(self):
        with pytest.raises(TypeCheckError) as exc:
            check_source(HIGHER_ORDER + "def bad (n : Nat) : Nat\n  | n => n zero\n")
        assert code_of(exc) == "E304"
        assert exc.value.message == "cannot apply n at non-function type Nat"

    @pytest.mark.parametrize("arg, col", [("suc", 12), ("(plus zero)", 12)])
    def test_eta_expanded_argument_at_the_wrong_domain(self, arg, col):
        # The expansion's variable takes its head's span.
        text = HIGHER_ORDER + f"def k (b : Bool) : Nat\n  | b => h {arg}\n"
        with pytest.raises(TypeCheckError) as exc:
            check_source(text)
        assert code_of(exc) == "E303"
        assert exc.value.message == "expected Nat, got Bool"
        line = text.count("\n")
        assert exc.value.span[1:3] == (line, col)


class TestInfer:
    """`infer` gives the type an expression's head fixes, or None."""

    SAME = "\ndef same (A : Type) (a : A) : A\n  | A, a => a\n"

    @pytest.mark.parametrize(
        "text, expected",
        [
            # A function's result at its arguments: `A` at `Nat`.
            ("same Nat zero", dat("Nat")),
            # A constructor of a type with an empty telescope.
            ("zero", dat("Nat")),
            # No rule for a constructor of an indexed type, or a lambda.
            ("fsuc Nat", None),
            ("fn m => m", None),
            ("Fin zero", UNIV),
            ("(n : Nat) -> Fin n", UNIV),
            ("Type", UNIV),
        ],
    )
    def test_head_forms(self, text, expected):
        source = (CORPUS / "fin.sit").read_text(encoding="utf-8") + self.SAME
        checked = load(source, "fin.sit")
        term = checked.resolver.resolve_expression(tokenize(text, "<expr>"))
        assert TypeChecker(checked.sig).infer(term) == expected

    def test_load_and_evaluate_spend_one_fuel(self):
        # Checking the file fires 7 clauses, evaluating the expression 2.
        text = (CORPUS / "normalize.sit").read_text(encoding="utf-8")
        expr = "normalize natT (succ (nat (suc (suc (suc zero)))))"
        fuel = Fuel(9)
        checked = load(text, "normalize.sit", fuel)
        assert fuel.used == 7
        assert pretty(evaluate(checked, expr, fuel)) == "suc (suc (suc (suc zero)))"
        assert fuel.used == 9
        fuel = Fuel(8)
        with pytest.raises(FuelError) as exc:
            evaluate(load(text, "normalize.sit", fuel), expr, fuel)
        assert str(exc.value.span) == "<expr>:1:1"


class TestCheckSignature:
    def test_corpus_accepts(self):
        for name in ("nat", "list", "vec", "fin", "normalize"):
            load_corpus(name)

    def test_checking_leaves_no_reference_cycles(self):
        # Every cycle left behind waits for the cyclic collector, which then
        # walks it on each collection: checking a file should make none.
        gc.collect()
        gc.disable()
        try:
            for path in sorted(CORPUS.glob("*.sit")):
                load_corpus(path.stem)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_out_of_order_reference(self):
        vec = DataDecl(
            "Vec",
            ((Var.fresh("A"), UNIV), (Var.fresh("n"), dat("Nat"))),
            (),
        )
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker().check_signature([vec])
        assert code_of(exc) == "E301"

    def test_row_uses_its_data_type_at_swapped_parameters(self):
        # The field type `D B A y` instantiates D's telescope with D's own
        # variables: x's type A becomes B, and must not turn back into A.
        sig = check_source(
            "data D (A : Type) (B : Type) (x : A) : Type\n"
            "  | mk (y : B) (d : D B A y)\n"
        )
        assert sig.data("D") is not None

    def test_duplicate_names(self, nat_sig):
        decl = DataDecl("Twice", (), ())
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker().check_signature([decl, decl])
        assert code_of(exc) == "E313"

    def test_determinism(self):
        src = """
data Nat : Type
  | zero
  | suc (n : Nat)
def bad (k : Nat) : Nat
  | k => suc Nat
"""
        results = []
        for _ in range(2):
            try:
                check_source(src)
                results.append(("ok", ""))
            except TypeCheckError as err:
                results.append(("err", err.code))
        assert results[0] == results[1] == ("err", "E303")

    def test_one_fuel_for_the_whole_check(self, monkeypatch):
        # The checker and coverage spend one budget; `Fuel` is counted the
        # way the benchmark counts clause firings, through these attributes.
        made = []
        real = evaluator.Fuel

        def counted(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        for module in (evaluator, typecheck, coverage):
            monkeypatch.setattr(module, "Fuel", counted)
        path = CORPUS / "normalize.sit"
        decls = Resolver().run(tokenize(path.read_text(encoding="utf-8"), str(path)))
        TypeChecker().check_signature(decls)
        assert len(made) == 1 and made[0].used == 7

    def test_fuel_used_is_pinned(self):
        # The clause firings of checking each corpus file, each fixture the
        # checker reaches and each program that selects rows at computed
        # indices; the benchmark's firings_per_s counts these.
        pinned = {
            "fin": 0, "list": 0, "nat": 0, "normalize": 7, "vec": 0,
            "01_vnil_wrong_length": 0, "02_fzero_stuck": 0,
            "03_impossible_available": 0, "04_duplicate_pattern_vars": 0,
            "05_impossible_with_body": 0, "06_missing_case_plus": 0,
            "08_conversion_mismatch": 0, "10_lambda_at_data_type": 0,
            "11_missing_body": 0, "13_impossible_stuck": 0,
            "14_pattern_at_function_type": 0, "15_cannot_split": 0,
            "18_wrong_data_type": 0, "19_ctor_pattern_arity": 0,
            "20_self_call_match": 2,
            "pick": 8, "pick_E306": 4, "sum": 10, "sum_E305": 5,
        }
        used = {}
        for name in pinned:
            text = COMPUTED_INDEX_PROGRAMS.get(name)
            if text is None:
                path = CORPUS / f"{name}.sit"
                if not path.exists():
                    path = FIXTURES / f"{name}.sit"
                text = path.read_text(encoding="utf-8")
            decls = Resolver().run(tokenize(text, name))
            checker = TypeChecker()
            try:
                checker.check_signature(decls)
            except TypeCheckError:
                pass
            used[name] = checker.fuel.used
        assert used == pinned


def _unknown_ctor_at_y(decls):
    # The resolver rejects an unknown constructor name, so this row is built
    # in the library: the last clause's `suc k` at y becomes `nope k`.
    f = decls[-1]
    pats = list(f.clauses[0].patterns)
    pats[2] = ConPat("nope", pats[2].args)
    clause = Clause(tuple(pats), None)
    return decls[:-1] + [FuncDecl(f.name, f.telescope, f.result, (clause,))]


class TestImpossibleRows:
    FIN = """
data Nat : Type
  | zero
  | suc (n : Nat)

data Fin (n : Nat) : Type
  | suc m => fzero
  | suc m => fsuc (x : Fin m)
"""

    def test_patterns_after_impossible_are_checked_leniently(self):
        # The second column is uninhabited; the third's type mentions an
        # opaque stand-in, so its stuck availability must be tolerated.
        check_source(
            self.FIN
            + "def g (n : Nat) (x : Fin zero) (y : Fin n) : Nat\n"
            + "  | n, impossible, fsuc w\n"
        )

    def test_nested_impossible_inside_constructor_pattern(self):
        check_source(
            self.FIN
            + "data Wrap : Type\n  | wrap (f : Fin zero)\n"
            + "def unwrap (w : Wrap) : Nat\n  | wrap impossible\n"
        )

    # The columns after the impossible first one are checked leniently: y's
    # type is the pattern variable T, not a data type, and Fin n is stuck at
    # the pattern variable n; n itself is still at Nat.
    OPAQUE = "def f (x : Fin zero) (T : Type) (y : T) (n : Nat) (z : Fin n) : Nat\n  | "

    @pytest.mark.parametrize(
        "decl, edit, code, message",
        [
            (OPAQUE + "impossible, T, suc k, n, z", None, None, None),
            (OPAQUE + "impossible, T, suc impossible, n, z", None, None, None),
            (OPAQUE + "impossible, T, y, n, impossible", None, None, None),
            (OPAQUE + "impossible, T, impossible, n, z", None, None, None),
            (OPAQUE + "impossible, T, y, impossible, z", None, "E308", "at Nat"),
            (
                "data D (x : Fin zero) (T : Type) (y : T) : Type\n"
                "  | impossible, T, suc k => w (f : Fin k)",
                None,
                "E303",
                "expected Nat, got the type of k, which is unknown after an "
                "impossible pattern",
            ),
            (
                OPAQUE + "impossible, T, suc k, n, z",
                _unknown_ctor_at_y,
                "E301",
                "unknown constructor nope",
            ),
        ],
        ids=[
            "ctor_at_binder_type",
            "nested_impossible_at_binder_type",
            "impossible_at_stuck_fin",
            "impossible_at_binder_type",
            "impossible_at_nat",
            "data_row_field_at_opaque_binder",
            "unknown_ctor_at_opaque_type",
        ],
    )
    def test_patterns_after_impossible(self, decl, edit, code, message):
        decls = Resolver().run(tokenize(self.FIN + decl + "\n", "<test>"))
        if edit is not None:
            decls = edit(decls)
        checker = TypeChecker()
        if code is None:
            checker.check_signature(decls)
            return
        with pytest.raises(TypeCheckError) as exc:
            checker.check_signature(decls)
        assert code_of(exc) == code
        assert message in exc.value.message

    def test_error_without_a_location_points_at_its_declaration(self):
        # The edited clause and pattern have no span, so the E301 takes the
        # span of the function, which is given back its own.
        text = self.FIN + self.OPAQUE + "impossible, T, suc k, n, z\n"
        decls = Resolver().run(tokenize(text, "<test>"))
        edited = _unknown_ctor_at_y(decls)
        f = edited[-1]
        edited[-1] = FuncDecl(f.name, f.telescope, f.result, f.clauses, decls[-1].span)
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker().check_signature(edited)
        assert exc.value.render() == "<test>:9:1: error[E301]: unknown constructor nope"

    def test_nested_impossible_at_inhabited_field_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            check_source(
                self.FIN
                + "def f (a : Nat) : Nat\n  | suc impossible => zero\n"
            )
        assert code_of(exc) == "E308"

    def test_impossible_at_a_non_data_type(self):
        # No `impossible` comes earlier in the row, so the column is checked
        # strictly: only a data type can be certified empty.
        text = (
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def f (A : Type) (x : A) : Nat\n  | A, impossible\n"
        )
        assert _first_error(text) == (
            "<test>:5:8: error[E307]: impossible pattern at non-data type A"
        )


class TestMultiRowConstructors:
    PARITY = """
data Nat : Type
  | zero
  | suc (n : Nat)

data Parity (n : Nat) : Type
  | zero => whole
  | suc (suc m) => whole
  | suc m => half
"""

    def test_any_matching_row_makes_the_constructor_available(self):
        checker = TypeChecker(check_source(self.PARITY))
        checker.check_term((), con("whole"), dat("Parity", nat_lit(0)))
        checker.check_term((), con("whole"), dat("Parity", nat_lit(2)))
        checker.check_term((), con("half"), dat("Parity", nat_lit(1)))

    def test_unavailable_when_every_row_mismatches(self):
        checker = TypeChecker(check_source(self.PARITY))
        with pytest.raises(TypeCheckError) as exc:
            checker.check_term((), con("whole"), dat("Parity", nat_lit(1)))
        assert code_of(exc) == "E305"


def _warnings(text: str, file: str = "<test>") -> list:
    """The warnings of checking `text`, up to its first error if it has one."""
    checker = TypeChecker()
    try:
        checker.check_signature(Resolver().run(tokenize(text, file)))
    except SitError:
        pass
    return checker.warnings


class TestUnreachableRows:
    """W302: a constructor row that the earlier rows of the same constructor,
    together, match wherever it does is never selected. Coverage's split over
    the data telescope decides it, as it decides W401 for clauses."""

    NAT = "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
    BOOL = "data Bool : Type\n  | true\n  | false\n"
    NEVER = (
        "warning[W302]: row of constructor c is never selected: the earlier "
        "rows of c match wherever it does"
    )

    @pytest.mark.parametrize(
        "text, where",
        [
            ("data T : Type\n  | c\n  | c (x : T)\n", "<test>:3:3"),
            (NAT + "data C (n : Nat) : Type\n  | k => c\n  | suc k => c (x : Nat)\n",
             "<test>:6:3"),
            (NAT + "data C (n : Nat) : Type\n  | suc k => c\n"
             "  | suc (suc k) => c (x : Nat)\n", "<test>:6:3"),
        ],
        ids=["plain", "catch-all", "nested"],
    )
    def test_a_subsumed_row_warns(self, text, where):
        assert [w.render() for w in _warnings(text)] == [f"{where}: {self.NEVER}"]

    @pytest.mark.parametrize(
        "rows",
        [
            "  | zero => c\n  | suc k => c (x : Nat)\n",
            "  | suc (suc k) => c\n  | suc k => c (x : Nat)\n",
            "  | zero => c\n  | k => d\n",
        ],
        ids=["disjoint", "narrower-first", "other-constructor"],
    )
    def test_a_reachable_row_does_not_warn(self, rows):
        assert _warnings(self.NAT + "data C (n : Nat) : Type\n" + rows) == []

    @pytest.mark.parametrize(
        "rows",
        ["  | impossible => c\n  | x => c (y : Nat)\n",
         "  | x => c\n  | impossible => c (y : Nat)\n"],
        ids=["earlier", "later"],
    )
    def test_a_row_with_impossible_neither_warns_nor_subsumes(self, rows):
        fin = TestImpossibleRows.FIN + "data T (x : Fin zero) : Type\n"
        assert _warnings(fin + rows) == []

    @pytest.mark.parametrize(
        "index, warned",
        [("k", []), ("zero", [f"<test>:9:3: {NEVER}"])],
        ids=["undecidable", "decided"],
    )
    def test_an_undecidable_split_does_not_warn(self, index, warned):
        # At `T k` the rows of T stick on k, so whether the second row of c
        # is ever selected cannot be decided; at `T zero` it can.
        text = (
            self.NAT + "data T (n : Nat) : Type\n  | zero => a\n  | m => b\n"
            f"data D (k : Nat) (t : T {index}) : Type\n"
            "  | k, b => c\n  | k, b => c (y : Nat)\n"
        )
        assert [w.render() for w in load(text, "<test>").warnings] == warned

    def test_no_corpus_file_or_fixture_warns(self):
        for path in sorted(CORPUS.glob("*.sit")) + sorted(FIXTURES.glob("*.sit")):
            codes = [w.code for w in _warnings(path.read_text(encoding="utf-8"))]
            assert "W302" not in codes, path.name

    @pytest.mark.parametrize(
        "rows, where",
        [
            ("  | zero => c\n  | suc k => c\n  | k => c (x : Nat)\n", "<test>:7:3"),
            ("  | zero => c\n  | suc zero => c\n  | suc (suc k) => c\n"
             "  | k => c (x : Nat)\n", "<test>:8:3"),
        ],
        ids=["two-rows", "three-rows"],
    )
    def test_a_row_that_earlier_rows_cover_together_warns(self, rows, where):
        # No single earlier row matches wherever the last one does, but
        # together they match every index: the last row is never selected.
        text = self.NAT + "data C (n : Nat) : Type\n" + rows
        assert [w.render() for w in _warnings(text)] == [f"{where}: {self.NEVER}"]

    @pytest.mark.parametrize("as_data", [False, True], ids=["function", "data"])
    def test_a_wide_matrix_runs_out_of_splits(self, as_data):
        # Unbounded, the split of this matrix makes about half a million
        # case splits, clauses or constructor rows alike; the budget stops it
        # at the declaration.
        with deadline(2.0, "splitting the 20-column matrix"):
            with pytest.raises(FuelError) as exc:
                load(wide_matrix(as_data), "<test>", Fuel(100))
        assert exc.value.render() == (
            "<test>:4:1: error[E501]: coverage exceeded 100 case splits"
        )

    def test_no_coverage_makes_no_split(self):
        # W302 is coverage's split, so without coverage the rows of the
        # 20-column matrix are checked but never split.
        fuel = Fuel(100)
        with deadline(2.0, "checking the 20-column matrix"):
            checked = load(wide_matrix(as_data=True), "<test>", fuel, coverage=False)
        assert (checked.warnings, fuel.splits) == ([], 0)

    def test_a_row_warns_exactly_when_no_index_selects_it(self):
        # Random rows of two constructors over telescopes of closed data.
        # The oracle selects, at every closed index tuple two levels deeper
        # than any pattern, the first row of each constructor that matches.
        sig = check_source(self.NAT + self.BOOL)
        rng = random.Random(31)
        gen = RowGen(sig, rng)
        binders = ["(n : Nat)", "(a : Nat) (b : Bool)", "(a : Bool) (b : Nat)"]
        teles = {
            text: check_source(self.NAT + self.BOOL + f"data D {text} : Type\n")
            .data("D").telescope
            for text in binders
        }
        first_row = 8  # the line of the first row, after Nat, Bool and D
        dead_seen = live_seen = 0
        for _ in range(300):
            text = rng.choice(binders)
            rows = [(rng.choice("cd"), gen.row(teles[text], depth=2))
                    for _ in range(rng.randint(2, 5))]
            selected = set()
            for index in enumerate_tuples(sig, teles[text], 4):
                firsts = {}
                for i, (ctor, pats) in enumerate(rows):
                    if ctor not in firsts and type(match_terms(index, pats)) is Matched:
                        firsts[ctor] = i
                selected.update(firsts.values())
            program = self.NAT + self.BOOL + f"data D {text} : Type\n" + "".join(
                f"  | {', '.join(map(pretty_pattern, pats))} => {ctor}\n"
                for ctor, pats in rows
            )
            warnings = load(program, "<test>").warnings
            warned = {w.span.start_line - first_row for w in warnings}
            assert warned == set(range(len(rows))) - selected, program
            dead_seen += len(warned)
            live_seen += len(selected)
        assert dead_seen and live_seen


class TestPatternTermsAreWellTyped:
    def test_corpus_rows(self, vec_sig, fin_sig, norm_sig):
        for sig in (vec_sig, fin_sig, norm_sig):
            for decl in sig.decls:
                rows = []
                if isinstance(decl, DataDecl):
                    rows = [(row.patterns, decl.telescope) for row in decl.ctors]
                elif isinstance(decl, FuncDecl):
                    rows = [(cl.patterns, decl.telescope) for cl in decl.clauses]
                for pats, tele in rows:
                    checker = TypeChecker(sig)
                    theta, _ = checker.check_row(pats, tele)
                    checker.check_args(theta, to_terms(pats), tele)


class TestPlainAndPatternRowAgreement:
    LIST = """\
data Nat : Type
  | zero
  | suc (n : Nat)

data List (A : Type) : Type
  | nil
  | cons (x : A) (xs : List A)

def len (A : Type) (xs : List A) : Nat
  | A, nil => zero
  | A, cons x xs => suc (len A xs)
"""
    COMMANDS = [
        ["check"],
        ["translate"],
        ["ctor-type", "nil"],
        ["ctor-type", "cons"],
        ["eval", "-e", "len Nat (cons zero (cons (suc zero) nil))"],
        ["eval", "-e", "len Nat (cons nil nil)"],
    ]

    def outputs(self, text, tmp_path, capsys):
        path = tmp_path / "list.sit"
        path.write_text(text)
        out = []
        for command in self.COMMANDS:
            code = run([command[0], str(path), *command[1:]])
            got = capsys.readouterr()
            out.append((code, got.out, got.err.replace(str(path), "list.sit")))
        return out

    def test_list_rows_in_pattern_form(self, tmp_path, capsys):
        # A plain row is read as catch-alls over the data telescope: written
        # out as a pattern row, every command gives the same output.
        pattern_form = self.LIST.replace("  | nil", "  | A => nil").replace(
            "  | cons", "  | A => cons"
        )
        assert pattern_form != self.LIST
        plain = self.outputs(self.LIST, tmp_path, capsys)
        assert plain == self.outputs(pattern_form, tmp_path, capsys)
        assert [code for code, _, _ in plain] == [0, 0, 0, 0, 0, 1]
        assert plain[1][1].endswith(
            "data List : (A : Type) → Type where\n"
            "  nil : (A : Type) → List A\n"
            "  cons : (A : Type) (x : A) (xs : List A) → List A\n"
        )
        assert plain[4][1] == "suc (suc zero)\n"
        assert "error[E309]: constructor nil belongs to List, not Nat" in plain[5][2]
