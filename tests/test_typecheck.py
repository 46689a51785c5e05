from __future__ import annotations

import gc

import pytest

from sit import core, coverage, evaluator, typecheck
from sit.core import (
    BindPat,
    Clause,
    ConCall,
    ConPat,
    CtorRow,
    DataDecl,
    EMPTY_TELESCOPE,
    FuncDecl,
    ImpossiblePat,
    Telescope,
    UNIV,
    Var,
    pretty,
)
from sit.diagnostics import FuelError, TypeCheckError
from sit.evaluator import Fuel
from sit.frontend import Resolver, tokenize
from sit.pattern_ops import to_terms, vars_pats
from sit.typecheck import TypeChecker, evaluate, load

from support import (
    COMPUTED_INDEX_PROGRAMS,
    CORPUS,
    FIXTURES,
    HIGHER_ORDER,
    check_source,
    con,
    dat,
    fn,
    load_corpus,
    nat_lit,
    ref,
)


def code_of(excinfo) -> str:
    return excinfo.value.code


class TestCheckTerm:
    def test_vnil_at_zero_length(self, vec_sig):
        ty = dat("Vec", dat("Nat"), nat_lit(0))
        TypeChecker(vec_sig).check_term(EMPTY_TELESCOPE, con("vnil"), ty)

    def test_vnil_at_nonzero_length_is_unavailable(self, vec_sig):
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(vec_sig).check_term(
                EMPTY_TELESCOPE, con("vnil"), dat("Vec", dat("Nat"), nat_lit(1))
            )
        assert code_of(exc) == "E305"

    def test_vcons_fields_are_instantiated_by_the_match(self, vec_sig):
        term = con("vcons", nat_lit(0), con("vnil"))
        ty = dat("Vec", dat("Nat"), nat_lit(1))
        TypeChecker(vec_sig).check_term(EMPTY_TELESCOPE, term, ty)

    def test_vcons_field_type_enforced(self, vec_sig):
        term = con("vcons", con("vnil"), con("vnil"))  # head is not a Nat
        ty = dat("Vec", dat("Nat"), nat_lit(1))
        with pytest.raises(TypeCheckError):
            TypeChecker(vec_sig).check_term(EMPTY_TELESCOPE, term, ty)

    def test_fzero_at_variable_index_is_stuck(self, fin_sig):
        k = Var.fresh("k")
        ctx = Telescope.of((k, dat("Nat")))
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(fin_sig).check_term(ctx, con("fzero"), dat("Fin", ref(k)))
        assert code_of(exc) == "E306"

    def test_indices_are_normalized_before_matching(self, fin_sig):
        # Fin (toNat ...) style: the index reduces to suc zero first.
        idx = fn("toNat", nat_lit(2), con("fsuc", con("fzero")))
        ty = dat("Fin", con("suc", idx))
        TypeChecker(fin_sig).check_term(EMPTY_TELESCOPE, con("fzero"), ty)

    def test_universe_in_universe(self, nat_sig):
        TypeChecker(nat_sig).check_term(EMPTY_TELESCOPE, UNIV, UNIV)

    def test_conversion_rule_uses_evaluation(self, norm_sig):
        ty = fn("termTy", con("natT"))
        TypeChecker(norm_sig).check_term(EMPTY_TELESCOPE, nat_lit(3), ty)

    def test_unknown_head(self, nat_sig):
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(nat_sig).check_term(EMPTY_TELESCOPE, fn("mystery"), dat("Nat"))
        assert code_of(exc) == "E301"

    def test_ctor_of_other_data(self, norm_sig):
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(norm_sig).check_term(EMPTY_TELESCOPE, con("true"), dat("Nat"))
        assert code_of(exc) == "E309"


class TestCheckArgs:
    def test_empty(self, nat_sig):
        TypeChecker(nat_sig).check_args(EMPTY_TELESCOPE, [], Telescope())

    def test_vec_telescope(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        TypeChecker(vec_sig).check_args(EMPTY_TELESCOPE, [dat("Nat"), nat_lit(0)], tele)

    def test_failure_at_first_position(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        with pytest.raises(TypeCheckError):
            TypeChecker(vec_sig).check_args(
                EMPTY_TELESCOPE, [nat_lit(0), dat("Nat")], tele
            )

    def test_length_mismatch(self, vec_sig):
        tele = vec_sig.data("Vec").telescope
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(vec_sig).check_args(EMPTY_TELESCOPE, [dat("Nat")], tele)
        assert code_of(exc) == "E302"

    def test_dependency_threading(self, vec_sig):
        # Second entry's type mentions the first argument.
        a, n = Var.fresh("A"), Var.fresh("n")
        tele = Telescope.of((a, UNIV), (n, ref(a)))
        TypeChecker(vec_sig).check_args(EMPTY_TELESCOPE, [dat("Nat"), nat_lit(0)], tele)
        with pytest.raises(TypeCheckError):
            TypeChecker(vec_sig).check_args(
                EMPTY_TELESCOPE, [dat("Nat"), con("vnil")], tele
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
            tele = Telescope.of((a, UNIV), *((x, ref(a)) for x in xs))
            calls.clear()
            args = [dat("Nat")] + [nat_lit(0)] * n
            TypeChecker(nat_sig).check_args(EMPTY_TELESCOPE, args, tele)
            return len(calls)

        assert count(20) <= 2.5 * count(10)


def column(ty):
    """The telescope of a row of one pattern at `ty`."""
    return Telescope.of((Var.fresh("x"), ty))


class TestCheckPattern:
    def test_fzero_pattern_has_no_bindings(self, fin_sig):
        n = Var.fresh("n")
        tele = column(dat("Fin", con("suc", ref(n))))
        typed, theta, _ = TypeChecker(fin_sig).check_row((ConPat("fzero", ()),), tele)
        assert theta.entries == ()

    def test_impossible_at_empty_type(self, fin_sig):
        tele = column(dat("Fin", nat_lit(0)))
        typed, theta, _ = TypeChecker(fin_sig).check_row((ImpossiblePat(),), tele)
        assert theta.entries == ()

    def test_impossible_rejected_when_constructors_available(self, fin_sig):
        n = Var.fresh("n")
        tele = column(dat("Fin", con("suc", ref(n))))
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(fin_sig).check_row((ImpossiblePat(),), tele)
        assert code_of(exc) == "E308"

    def test_bind_type_is_stored(self, nat_sig):
        p = BindPat(Var.fresh("m"))
        (typed,), theta, _ = TypeChecker(nat_sig).check_row((p,), column(dat("Nat")))
        assert typed.ty == dat("Nat")
        assert theta.entries == ((p.var, dat("Nat")),)


class TestCheckPatterns:
    def test_dependent_row(self, fin_sig):
        m = BindPat(Var.fresh("m"))
        pats = [ConPat("suc", (m,)), ConPat("fzero", ())]
        tele = fin_sig.func("toNat").telescope
        typed, theta, _ = TypeChecker(fin_sig).check_row(pats, tele)
        assert [(x.text, pretty(ty)) for x, ty in theta] == [("m", "Nat")]

    def test_empty_row(self, nat_sig):
        typed, theta, _ = TypeChecker(nat_sig).check_row([], Telescope())
        assert typed == ()
        assert theta.entries == ()

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
        typed, theta, _ = TypeChecker(fin_sig).check_row(pats, tele)
        entries = {x.text: pretty(ty) for x, ty in theta}
        assert entries == {"m": "Nat", "y": "Fin m"}

    def test_row_bindings_grow_linearly(self, nat_sig, monkeypatch):
        # The row's bindings are joined into one list as each pattern is
        # checked, not copied into a new telescope per pattern.
        built = []
        real = Telescope.__init__

        def counted(self, entries=()):
            built.append(len(entries))
            real(self, entries)

        monkeypatch.setattr(Telescope, "__init__", counted)

        def count(n: int) -> int:
            xs = [Var.fresh(f"x{i}") for i in range(n)]
            tele = Telescope(tuple((x, dat("Nat")) for x in xs))
            pats = [BindPat(Var.fresh(f"y{i}")) for i in range(n)]
            built.clear()
            typed, theta, _ = TypeChecker(nat_sig).check_row(pats, tele)
            assert [x for x, _ in theta] == [p.var for p in pats]
            return sum(built)

        assert count(80) <= 2.5 * count(40)

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
            (typed,), _, _ = TypeChecker(fin_sig).check_row((pat,), column(ty))
            monkeypatch.undo()
            assert typed == pat
            return len(built)

        assert count(80) <= 2.5 * count(40)


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
        row = CtorRow("bad", Telescope.of((Var.fresh("x"), ref(m))), None)
        with pytest.raises(TypeCheckError) as exc:
            TypeChecker(nat_sig).check_ctor_row(Telescope(), row)
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
            Telescope.of((Var.fresh("A"), UNIV), (Var.fresh("n"), dat("Nat"))),
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
        decl = DataDecl("Twice", Telescope(), ())
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

    def test_strict_row_scope_flag_reports_difference(self):
        src = """
data Nat : Type
  | zero
  | suc (n : Nat)

data Vec (A : Type) (n : Nat) : Type
  | A, zero => vnil
  | A, suc m => vcons (x : A) (xs : Vec A m)
"""
        decls = Resolver().run(tokenize(src, "<test>"))
        checker = TypeChecker(strict_row_fields=True)
        checker.check_signature(decls)
        assert any(w.code == "W301" for w in checker.warnings)

        checker = TypeChecker(strict_row_fields=False)
        checker.check_signature(Resolver().run(tokenize(src, "<test>")))
        assert not checker.warnings


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

    def test_nested_impossible_at_inhabited_field_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            check_source(
                self.FIN
                + "def f (a : Nat) : Nat\n  | suc impossible => zero\n"
            )
        assert code_of(exc) == "E308"


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
        checker.check_term(EMPTY_TELESCOPE, con("whole"), dat("Parity", nat_lit(0)))
        checker.check_term(EMPTY_TELESCOPE, con("whole"), dat("Parity", nat_lit(2)))
        checker.check_term(EMPTY_TELESCOPE, con("half"), dat("Parity", nat_lit(1)))

    def test_unavailable_when_every_row_mismatches(self):
        checker = TypeChecker(check_source(self.PARITY))
        with pytest.raises(TypeCheckError) as exc:
            checker.check_term(EMPTY_TELESCOPE, con("whole"), dat("Parity", nat_lit(1)))
        assert code_of(exc) == "E305"


class TestPatternTermsAreWellTyped:
    def test_corpus_rows(self, vec_sig, fin_sig, norm_sig):
        for sig in (vec_sig, fin_sig, norm_sig):
            for decl in sig.decls:
                rows = []
                if isinstance(decl, DataDecl):
                    rows = [
                        (row.patterns, decl.telescope)
                        for row in decl.ctors
                        if row.patterns is not None
                    ]
                elif isinstance(decl, FuncDecl):
                    rows = [(cl.patterns, decl.telescope) for cl in decl.clauses]
                for pats, tele in rows:
                    TypeChecker(sig).check_args(vars_pats(pats), to_terms(pats), tele)


class TestPlainAndPatternRowAgreement:
    def test_list_rows_in_pattern_form(self):
        from sit.translate import as_pattern_row

        list_sig = check_source(
            """
data Nat : Type
  | zero
  | suc (n : Nat)

data List (A : Type) : Type
  | nil
  | cons (x : A) (xs : List A)
"""
        )
        decl = list_sig.data("List")
        pattern_rows = tuple(as_pattern_row(decl, row) for row in decl.ctors)
        converted = DataDecl(decl.name, decl.telescope, pattern_rows)
        sig2 = TypeChecker().check_signature([list_sig.data("Nat"), converted])

        good = [
            (con("nil"), dat("List", dat("Nat"))),
            (con("cons", nat_lit(0), con("nil")), dat("List", dat("Nat"))),
        ]
        bad = [
            (con("cons", con("nil"), con("nil")), dat("List", dat("Nat"))),
        ]
        for term, ty in good:
            TypeChecker(list_sig).check_term(EMPTY_TELESCOPE, term, ty)
            TypeChecker(sig2).check_term(EMPTY_TELESCOPE, term, ty)
        for term, ty in bad:
            for sig in (list_sig, sig2):
                with pytest.raises(TypeCheckError):
                    TypeChecker(sig).check_term(EMPTY_TELESCOPE, term, ty)
