from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sit import cli, typecheck
from sit.cli import run

from support import COMPUTED_INDEX_PROGRAMS, CORPUS, FIXTURES, HIGHER_ORDER


def corpus(name: str) -> str:
    return str(CORPUS / name)


SRC = str(Path(cli.__file__).resolve().parent.parent)


def sit_process(
    *args: str, env: dict[str, str] | None = None, text: bool = True
) -> subprocess.CompletedProcess:
    """`sit ARGS` as a new process, with the default recursion limit and
    `env` added to the environment."""
    return subprocess.run(
        [sys.executable, "-m", "sit.cli", *args],
        capture_output=True,
        text=text,
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        timeout=120,
    )


class TestCheck:
    def test_success_is_silent(self, capsys):
        assert run(["check", corpus("vec.sit")]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_no_coverage_accepts_partial_functions(self, tmp_path):
        src = tmp_path / "partial.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def plus (a : Nat) (b : Nat) : Nat\n  | zero, b => b\n"
        )
        assert run(["check", str(src)]) == 1
        assert run(["check", str(src), "--no-coverage"]) == 0

    def test_strict_fig6_is_gone(self, capsys):
        # A pattern row's fields are read in the row's own scope, so no
        # second check under the data telescope is offered.
        assert run(["check", corpus("vec.sit"), "--strict-fig6"]) == 3
        assert "unrecognized arguments: --strict-fig6" in capsys.readouterr().err

    def test_diagnostic_format(self, capsys):
        assert run(["check", str(FIXTURES / "09_unknown_identifier.sit")]) == 2
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(r".*\.sit:\d+:\d+: error\[E\d{3}\]: .+", err)

    def test_missing_case_without_arguments(self, tmp_path, capsys):
        src = tmp_path / "no_clauses.sit"
        src.write_text("def f : Type\n")
        assert run(["check", str(src)]) == 1
        err = capsys.readouterr().err
        assert err == f"{src}:1:1: error[E401]: missing case in f: (no arguments)\n"

    @pytest.mark.parametrize("operand", ["(plus zero) zero", "plus zero zero"])
    def test_application_of_a_group_is_located(self, tmp_path, capsys, operand):
        # A head in parentheses applied to arguments is located like a name
        # applied to them: from the head's first token to the last argument.
        src = tmp_path / "app.sit"
        src.write_text(
            (CORPUS / "nat.sit").read_text()
            + "data T (n : Nat) : Type\n"
            + f"def g (y : T zero) (x : {operand}) : Nat\n"
        )
        line = len(src.read_text().splitlines())
        assert run(["check", str(src)]) == 1
        err = capsys.readouterr().err
        assert err == f"{src}:{line}:25: error[E303]: expected Type, got Nat\n"

    @pytest.mark.parametrize("arg", ["suc", "(plus zero)"])
    def test_eta_expanded_argument_is_located(self, tmp_path, capsys, arg):
        src = tmp_path / "eta.sit"
        src.write_text(HIGHER_ORDER + f"\ndef k (b : Bool) : Nat\n  | b => h {arg}\n")
        line = len(src.read_text().splitlines())
        assert run(["check", str(src)]) == 1
        err = capsys.readouterr().err
        assert err == f"{src}:{line}:12: error[E303]: expected Nat, got Bool\n"

    def test_coverage_spends_the_fuel_limit(self, tmp_path, capsys):
        src = tmp_path / "loop_index.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "data Fin (n : Nat) : Type\n"
            "  | suc m => fzero\n  | suc m => fsuc (x : Fin m)\n"
            "def loop (n : Nat) : Nat\n  | n => loop n\n"
            "def f (x : Fin (loop zero)) : Nat\n"
        )
        assert run(["check", str(src), "--fuel", "100"]) == 4
        err = capsys.readouterr().err
        assert "exceeded 100 reduction steps" in err
        # Reported at the declaration whose check ran out of fuel.
        assert err.startswith(f"{src}:9:1: error[E501]")

    def test_fuel_bounds_the_whole_check(self, tmp_path, capsys):
        # Each of the 20 declarations normalizes `plus 8 zero` once, which
        # fires 9 clauses: 180 firings from one budget.
        eight = "suc (" * 8 + "zero" + ")" * 8
        src = tmp_path / "twenty.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def plus (a : Nat) (b : Nat) : Nat\n"
            "  | zero, b => b\n  | suc a, b => suc (plus a b)\n"
            "data Box (n : Nat) : Type\n  | box\n"
            + "".join(
                f"def d{i} (x : Nat) : Box (plus ({eight}) zero)\n  | x => box\n"
                for i in range(1, 21)
            )
        )
        assert run(["check", str(src), "--fuel", "180"]) == 0
        assert run(["check", str(src), "--fuel", "179"]) == 4
        # Reported at the 20th declaration, the one that spent step 180.
        err = capsys.readouterr().err
        assert err == f"{src}:47:1: error[E501]: evaluation exceeded 179 reduction steps\n"

    def test_type_equal_to_itself_spends_no_fuel(self, tmp_path, capsys):
        # `loop zero` never stops, but a type is convertible with itself
        # without being evaluated, so the budget is never touched.
        src = tmp_path / "reflexive.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "data Box (n : Nat) : Type\n  | box\n"
            "def loop (n : Nat) : Nat\n  | n => loop n\n"
            "def f (x : Box (loop zero)) : Box (loop zero)\n  | x => x\n"
        )
        assert run(["check", str(src), "--fuel", "1000"]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_utf8_is_a_lex_error(self, tmp_path, capsys):
        src = tmp_path / "bad.sit"
        # The two bytes of "é" are one column; the bad byte is at column 16.
        src.write_bytes(b"data N : Type\n | z\n  | s (n : N) \xc3\xa9\xff\n")
        assert run(["check", str(src)]) == 2
        err = capsys.readouterr().err
        assert err == f"{src}:3:16: error[E101]: invalid UTF-8 byte 0xff\n"

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, capsys):
        src = tmp_path / "bom.sit"
        src.write_bytes(b"\xef\xbb\xbfdata N : Type\n  | z\n")
        assert run(["check", str(src)]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_byte_after_byte_order_mark_is_located(self, tmp_path, capsys):
        # The mark is not a character of the text: "N" is at column 6 and
        # the bad byte after it at column 7.
        src = tmp_path / "bombad.sit"
        src.write_bytes(b"\xef\xbb\xbfdata N\xff : Type\n")
        assert run(["check", str(src)]) == 2
        err = capsys.readouterr().err
        assert err == f"{src}:1:7: error[E101]: invalid UTF-8 byte 0xff\n"

    def test_byte_order_mark_past_the_start_is_a_lex_error(self, tmp_path, capsys):
        src = tmp_path / "bommid.sit"
        src.write_bytes(b"data N : Type\n  | z\n\xef\xbb\xbf")
        assert run(["check", str(src)]) == 2
        err = capsys.readouterr().err
        assert err == f"{src}:3:1: error[E101]: unexpected character '\\ufeff'\n"

    def test_deep_vec_literal_checks(self, tmp_path, capsys):
        # A nested constructor takes two checker frames: check_term and
        # check_args.
        n = 450
        index = "suc (" * n + "zero" + ")" * n
        literal = "vcons zero (" * n + "vnil" + ")" * n
        src = tmp_path / "long.sit"
        src.write_text(
            (CORPUS / "vec.sit").read_text()
            + f"def big (u : Nat) : Vec Nat ({index})\n  | u => {literal}\n"
        )
        assert run(["check", str(src)]) == 0
        assert capsys.readouterr().err == ""

    def test_deep_nesting_is_reported_at_its_declaration(self, tmp_path, capsys):
        src = tmp_path / "deep.sit"
        deep = "suc (" * 2000 + "zero" + ")" * 2000
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            f"def big (x : Nat) : Nat\n  | x => {deep}\n"
        )
        assert run(["check", str(src)]) == 4
        err = capsys.readouterr().err
        assert err == f"{src}:4:1: error[E502]: input nested too deeply to process\n"

    def test_deep_pattern_is_reported_at_the_file(self, tmp_path):
        # The reader takes one frame per level of a nested pattern, and the
        # checker two, so a 2,000-deep one is past both limits.
        n = 2000
        pat = "suc (" * (n - 1) + "suc n" + ")" * (n - 1)
        src = tmp_path / "deep_pattern.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            f"def f (x : Nat) : Nat\n  | {pat} => n\n"
        )
        res = sit_process("check", str(src))
        assert res.returncode == 4
        assert "Traceback" not in res.stderr
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"{src}:1:1: error[E502]")


class TestEval:
    def test_normalization(self, capsys):
        code = run(
            [
                "eval",
                corpus("normalize.sit"),
                "-e",
                "normalize natT (succ (nat (suc (suc (suc zero)))))",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "suc (suc (suc (suc zero)))"

    def test_function_with_no_parameters(self, tmp_path, capsys):
        # `| => e` is the one clause a function with no parameters can have.
        src = tmp_path / "four.sit"
        nat = (CORPUS / "nat.sit").read_text()
        src.write_text(nat + "def two : Nat\n  | => suc (suc zero)\n"
                       "def four : Nat\n  | => suc (suc two)\n")
        assert run(["eval", str(src), "-e", "four"]) == 0
        assert capsys.readouterr().out == "suc (suc (suc (suc zero)))\n"

        line = len(nat.splitlines()) + 3
        src.write_text(nat + "def two : Nat\n  | => suc (suc zero)\n  | => zero\n")
        assert run(["check", str(src)]) == 0
        assert capsys.readouterr().err == (
            f"{src}:{line}:3: warning[W401]: clause 2 of two is selected by no case\n"
        )

        # An empty row for a function with parameters is located at its clause.
        src.write_text(nat + "def f (n : Nat) : Nat\n  | => zero\n")
        assert run(["check", str(src)]) == 1
        assert capsys.readouterr().err == (
            f"{src}:{line - 1}:3: error[E302]: row has no patterns for 1 telescope binder\n"
        )

    def test_constructor_rows_with_different_field_counts(self, tmp_path, capsys):
        # `c` has no field at `C zero` and one at `C (suc k)`: a call with
        # either count is read, and the checker selects the row by type.
        src = tmp_path / "rows.sit"
        nat = (CORPUS / "nat.sit").read_text()
        line = len(nat.splitlines()) + 5
        data = "data C (n : Nat) : Type\n  | zero => c\n  | suc k => c (x : Nat)\n"
        src.write_text(nat + data + "def g (k : Nat) : C (suc k)\n  | k => c zero\n")
        assert run(["check", str(src)]) == 0
        assert run(["eval", str(src), "-e", "g zero"]) == 0
        assert capsys.readouterr().out == "c zero\n"

        src.write_text(nat + data + "def h : C zero\n  | => c zero\n")
        assert run(["check", str(src)]) == 1
        assert capsys.readouterr().err == (
            f"{src}:{line}:8: error[E302]: expected no arguments, got 1\n"
        )

        src.write_text(nat + data + "def h : C zero\n  | => c zero zero\n")
        assert run(["check", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"{src}:{line}:8: error[E202]: constructor c takes 0 or 1 arguments, got 2\n"
        )

    def test_fuel_exhaustion_exit_code(self, tmp_path, capsys):
        src = tmp_path / "loop.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n"
            "def loop (x : Nat) : Nat\n  | x => loop x\n"
        )
        code = run(["eval", str(src), "--fuel", "50", "-e", "loop zero"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error[E501]" in err
        assert err.startswith("<expr>:1:1: error[E501]")

    def test_check_and_eval_share_the_fuel(self, capsys):
        args = [
            "eval",
            corpus("normalize.sit"),
            "-e",
            "normalize natT (succ (nat (suc (suc (suc zero)))))",
        ]
        # Checking the file fires 7 clauses, evaluating the expression 2.
        assert run(args + ["--fuel", "9"]) == 0
        capsys.readouterr()
        assert run(args + ["--fuel", "8"]) == 4
        err = capsys.readouterr().err
        assert err == "<expr>:1:1: error[E501]: evaluation exceeded 8 reduction steps\n"

    @pytest.mark.parametrize(
        "expr, where, message",
        [
            ("plus zero Nat", "1:11", "expected Nat, got Type"),
            ("suc Nat", "1:5", "expected Nat, got Type"),
            ("h suc", "1:3", "expected Nat, got Bool"),
            ("h (plus zero)", "1:3", "expected Nat, got Bool"),
            ("twice suc Type", "1:11", "expected Nat, got Type"),
            ("Nat -> plus zero zero", "1:8", "expected Type, got Nat"),
        ],
    )
    def test_expression_is_checked(self, tmp_path, capsys, expr, where, message):
        src = tmp_path / "higher.sit"
        src.write_text(HIGHER_ORDER)
        assert run(["eval", str(src), "-e", expr]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"<expr>:{where}: error[E303]: {message}\n"

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("twice (fn m => suc m) (app suc zero)", "suc (suc (suc zero))"),
            ("(x : T true) -> T false", "Nat → Bool"),
            ("T true", "Nat"),
            ("fn m => plus zero m", "fn m => m"),
            ("fn g => g (plus zero zero)", "fn g => g zero"),
        ],
    )
    def test_higher_order_evaluation(self, tmp_path, capsys, expr, value):
        src = tmp_path / "higher.sit"
        src.write_text(HIGHER_ORDER)
        assert run(["eval", str(src), "-e", expr]) == 0
        assert capsys.readouterr().out == value + "\n"

    def test_indexed_constructor_is_evaluated_unchecked(self, capsys):
        # Its index cannot be inferred without unification.
        assert run(["eval", corpus("fin.sit"), "-e", "fsuc fzero"]) == 0
        assert capsys.readouterr().out == "fsuc fzero\n"

    def test_deep_value_prints(self, capsys):
        def nat(n):
            return "suc (" * (n - 1) + "suc zero" + ")" * (n - 1)

        expr = f"plus ({nat(400)}) ({nat(400)})"
        assert run(["eval", corpus("nat.sit"), "-e", expr]) == 0
        assert capsys.readouterr().out == nat(800) + "\n"

    def test_deep_nested_calls_evaluate(self):
        # Each nested call costs `whnf` and `index_normal_form` one frame
        # each, so 450 levels fit under the default recursion limit.
        expr = "suc zero"
        for _ in range(450):
            expr = f"plus ({expr}) (suc zero)"
        res = sit_process("eval", corpus("nat.sit"), "-e", expr)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "suc (" * 450 + "suc zero" + ")" * 450 + "\n"

    def test_deep_nesting_is_a_diagnostic(self, capsys):
        # The frontend takes any depth; evaluating the value gives up first.
        deep = "suc (" * 2000 + "zero" + ")" * 2000
        assert run(["eval", corpus("nat.sit"), "-e", deep]) == 4
        err = capsys.readouterr().err
        assert "error[E502]" in err
        assert err.startswith("<expr>:1:1: error[E502]")
        assert "Traceback" not in err

    def test_trace_match_at_computed_indices(self, capsys, tmp_path):
        for name, text in COMPUTED_INDEX_PROGRAMS.items():
            path = tmp_path / f"{name}.sit"
            path.write_text(text, encoding="utf-8")
            code = 1 if "_E" in name else 0
            assert run(["check", str(path), "--trace-match"]) == code
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.replace(str(path), path.name) == COMPUTED_INDEX_TRACES[name]

    def test_trace_match_logs_outcomes(self, capsys, monkeypatch):
        args = ["eval", corpus("nat.sit"), "-e", "plus zero zero"]
        assert run(args + ["--trace-match"]) == 0
        out = capsys.readouterr()
        assert out.out == "zero\n"
        assert out.err == "match [zero, zero] ~ [zero, b] -> matched {b := zero}\n"

        assert run(["check", corpus("normalize.sit"), "--trace-match"]) == 0
        assert capsys.readouterr().err == NORMALIZE_TRACE

        # The observer belongs to its run: nothing is traced after a traced
        # run, even one that raised.
        def fail(*_):
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(typecheck, "normalize", fail)
        with pytest.raises(RuntimeError):
            run(args + ["--trace-match"])
        monkeypatch.undo()
        capsys.readouterr()
        assert run(args) == 0
        assert capsys.readouterr().err == ""

    def test_trace_match_at_plain_rows(self, capsys, tmp_path):
        # A plain row of a type with arguments selects its constructor by a
        # match of its catch-alls, which is traced like any other.
        path = tmp_path / "len.sit"
        path.write_text((CORPUS / "list.sit").read_text() + LEN)
        assert run(["check", str(path), "--trace-match"]) == 0
        assert capsys.readouterr().err == "match [A] ~ [A] -> matched {A := A}\n" * 4
        args = ["eval", str(path), "-e", "len (List Type) (cons nil nil)", "--trace-match"]
        assert run(args) == 0
        out = capsys.readouterr()
        assert out.out == "suc zero\n"
        assert out.err == LEN_EVAL_TRACE


LEN = """
data Nat : Type
  | zero
  | suc (n : Nat)

def len (A : Type) (xs : List A) : Nat
  | A, nil => zero
  | A, cons x xs => suc (len A xs)
"""

# `sit eval` of `len (List Type) (cons nil nil)` after corpus/list.sit and
# LEN, `--trace-match`: the file's check as in `sit check`, then the -e check
# selects `cons` at `List (List Type)` and `nil` at `List Type` and at
# `List (List Type)`, then `len` runs.
LEN_EVAL_TRACE = "match [A] ~ [A] -> matched {A := A}\n" * 4 + """\
match [List Type] ~ [A] -> matched {A := List Type}
match [Type] ~ [A] -> matched {A := Type}
match [List Type] ~ [A] -> matched {A := List Type}
match [List Type, cons nil nil] ~ [A, nil] -> mismatch
match [List Type, cons nil nil] ~ [A, cons x xs] -> matched {A := List Type, x := nil, xs := nil}
match [List Type, nil] ~ [A, nil] -> matched {A := List Type}
"""


# `sit check corpus/normalize.sit --trace-match`: every match of the check,
# in the order it is made.
NORMALIZE_TRACE = """\
match [natT] ~ [natT] -> matched {}
match [natT] ~ [natT] -> matched {}
match [natT] ~ [natT] -> matched {}
match [natT] ~ [natT] -> matched {}
match [natT] ~ [natT] -> matched {}
match [boolT] ~ [boolT] -> matched {}
match [boolT] ~ [natT] -> mismatch
match [boolT] ~ [boolT] -> matched {}
match [boolT] ~ [boolT] -> matched {}
match [boolT] ~ [natT] -> mismatch
match [boolT] ~ [boolT] -> matched {}
match [boolT] ~ [natT] -> mismatch
match [boolT] ~ [boolT] -> matched {}
match [t] ~ [A] -> matched {A := t}
match [boolT] ~ [natT] -> mismatch
match [boolT] ~ [boolT] -> matched {}
match [natT] ~ [natT] -> matched {}
match [natT] ~ [natT] -> matched {}
match [natT] ~ [boolT] -> mismatch
match [natT] ~ [boolT] -> mismatch
match [natT] ~ [A] -> matched {A := natT}
match [boolT] ~ [natT] -> mismatch
match [boolT] ~ [natT] -> mismatch
match [boolT] ~ [boolT] -> matched {}
match [boolT] ~ [boolT] -> matched {}
match [boolT] ~ [A] -> matched {A := boolT}
"""


# `sit check --trace-match` on each program of support.COMPUTED_INDEX_PROGRAMS:
# the matches of row selection at computed indices, in the order they are
# made, then the diagnostic of each failing variant.
COMPUTED_INDEX_TRACES = {
    "pick": """\
match [suc zero, suc zero] ~ [zero, b] -> mismatch
match [suc zero, suc zero] ~ [suc a, b] -> matched {a := zero, b := suc zero}
match [zero, suc zero] ~ [zero, b] -> matched {b := suc zero}
match [suc (suc zero)] ~ [suc m] -> matched {m := suc zero}
match [suc zero, suc zero] ~ [zero, b] -> mismatch
match [suc zero, suc zero] ~ [suc a, b] -> matched {a := zero, b := suc zero}
match [zero, suc zero] ~ [zero, b] -> matched {b := suc zero}
match [suc (suc zero)] ~ [suc m] -> matched {m := suc zero}
match [suc zero] ~ [suc m] -> matched {m := zero}
match [suc zero, suc zero] ~ [zero, b] -> mismatch
match [suc zero, suc zero] ~ [suc a, b] -> matched {a := zero, b := suc zero}
match [zero, suc zero] ~ [zero, b] -> matched {b := suc zero}
match [suc (suc zero)] ~ [suc m] -> matched {m := suc zero}
match [suc zero] ~ [suc m] -> matched {m := zero}
match [zero] ~ [suc m] -> mismatch
match [zero] ~ [suc m] -> mismatch
match [suc zero, suc zero] ~ [zero, b] -> mismatch
match [suc zero, suc zero] ~ [suc a, b] -> matched {a := zero, b := suc zero}
match [zero, suc zero] ~ [zero, b] -> matched {b := suc zero}
match [suc (suc zero)] ~ [suc m] -> matched {m := suc zero}
match [suc (suc zero)] ~ [suc m] -> matched {m := suc zero}
match [suc zero] ~ [suc m] -> matched {m := zero}
match [suc zero] ~ [suc m] -> matched {m := zero}
match [zero] ~ [suc m] -> mismatch
match [zero] ~ [suc m] -> mismatch
""",
    "pick_E306": """\
match [suc zero, plus n n] ~ [zero, b] -> mismatch
match [suc zero, plus n n] ~ [suc a, b] -> matched {a := zero, b := plus n n}
match [zero, plus n n] ~ [zero, b] -> matched {b := plus n n}
match [n, n] ~ [zero, b] -> stuck at 0
match [suc (plus n n)] ~ [suc m] -> matched {m := plus n n}
match [suc zero, plus n n] ~ [zero, b] -> mismatch
match [suc zero, plus n n] ~ [suc a, b] -> matched {a := zero, b := plus n n}
match [zero, plus n n] ~ [zero, b] -> matched {b := plus n n}
match [n, n] ~ [zero, b] -> stuck at 0
match [suc (plus n n)] ~ [suc m] -> matched {m := plus n n}
match [n, n] ~ [zero, b] -> stuck at 0
match [plus n n] ~ [suc m] -> stuck at 0
pick_E306.sit:15:13: error[E306]: cannot decide availability of constructor fzero at Fin (plus n n)
""",
    "sum": """\
match [suc zero, suc (suc zero)] ~ [zero, b] -> mismatch
match [suc zero, suc (suc zero)] ~ [suc a, b] -> matched {a := zero, b := suc (suc zero)}
match [suc (suc zero), mul zero (suc (suc zero))] ~ [zero, b] -> mismatch
match [suc (suc zero), mul zero (suc (suc zero))] ~ [suc a, b] -> matched {a := suc zero, b := mul zero (suc (suc zero))}
match [suc zero, mul zero (suc (suc zero))] ~ [zero, b] -> mismatch
match [suc zero, mul zero (suc (suc zero))] ~ [suc a, b] -> matched {a := zero, b := mul zero (suc (suc zero))}
match [zero, mul zero (suc (suc zero))] ~ [zero, b] -> matched {b := mul zero (suc (suc zero))}
match [zero, suc (suc zero)] ~ [zero, b] -> matched {b := suc (suc zero)}
match [Nat, suc (suc zero)] ~ [A, suc m] -> matched {A := Nat, m := suc zero}
match [Nat, suc zero] ~ [A, suc m] -> matched {A := Nat, m := zero}
match [Nat, zero] ~ [A, zero] -> matched {A := Nat}
match [suc zero, suc (suc zero)] ~ [zero, b] -> mismatch
match [suc zero, suc (suc zero)] ~ [suc a, b] -> matched {a := zero, b := suc (suc zero)}
match [suc (suc zero), mul zero (suc (suc zero))] ~ [zero, b] -> mismatch
match [suc (suc zero), mul zero (suc (suc zero))] ~ [suc a, b] -> matched {a := suc zero, b := mul zero (suc (suc zero))}
match [suc zero, mul zero (suc (suc zero))] ~ [zero, b] -> mismatch
match [suc zero, mul zero (suc (suc zero))] ~ [suc a, b] -> matched {a := zero, b := mul zero (suc (suc zero))}
match [zero, mul zero (suc (suc zero))] ~ [zero, b] -> matched {b := mul zero (suc (suc zero))}
match [zero, suc (suc zero)] ~ [zero, b] -> matched {b := suc (suc zero)}
match [Nat, suc (suc zero)] ~ [A, zero] -> mismatch
match [Nat, suc (suc zero)] ~ [A, suc m] -> matched {A := Nat, m := suc zero}
match [Nat, suc zero] ~ [A, zero] -> mismatch
match [Nat, suc zero] ~ [A, suc m] -> matched {A := Nat, m := zero}
match [Nat, zero] ~ [A, zero] -> matched {A := Nat}
match [Nat, zero] ~ [A, suc m] -> mismatch
""",
    "sum_E305": """\
match [suc zero, suc (suc zero)] ~ [zero, b] -> mismatch
match [suc zero, suc (suc zero)] ~ [suc a, b] -> matched {a := zero, b := suc (suc zero)}
match [suc (suc zero), mul zero (suc (suc zero))] ~ [zero, b] -> mismatch
match [suc (suc zero), mul zero (suc (suc zero))] ~ [suc a, b] -> matched {a := suc zero, b := mul zero (suc (suc zero))}
match [suc zero, mul zero (suc (suc zero))] ~ [zero, b] -> mismatch
match [suc zero, mul zero (suc (suc zero))] ~ [suc a, b] -> matched {a := zero, b := mul zero (suc (suc zero))}
match [zero, mul zero (suc (suc zero))] ~ [zero, b] -> matched {b := mul zero (suc (suc zero))}
match [zero, suc (suc zero)] ~ [zero, b] -> matched {b := suc (suc zero)}
match [Nat, suc (suc zero)] ~ [A, suc m] -> matched {A := Nat, m := suc zero}
match [Nat, suc zero] ~ [A, zero] -> mismatch
sum_E305.sit:18:14: error[E305]: constructor vnil is not available at Vec Nat (suc zero)
""",
}


class TestTranslate:
    def test_prints_general_form(self, capsys):
        assert run(["translate", corpus("fin.sit")]) == 0
        out = capsys.readouterr().out
        assert "fzero : (m : Nat) → Fin (suc m)" in out
        assert out.count("data ") == 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.txt"
        assert run(["translate", corpus("vec.sit"), "-o", str(target)]) == 0
        text = target.read_text(encoding="utf-8")
        assert "vcons : (A : Type) (m : Nat) (x : A) (xs : Vec A m) → Vec A (suc m)" in text


class TestCtorType:
    def test_prints_type(self, capsys):
        assert run(["ctor-type", corpus("fin.sit"), "fzero"]) == 0
        assert capsys.readouterr().out.strip() == "(m : Nat) → Fin (suc m)"

    def test_unknown_constructor(self, capsys):
        assert run(["ctor-type", corpus("fin.sit"), "mystery"]) == 1
        # The name is its own input, the way `-e` is `<expr>`.
        err = capsys.readouterr().err
        assert err == "<ctor>:1:1: error[E301]: unknown constructor mystery\n"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run([]) == 3
        assert run(["frobnicate", "x.sit"]) == 3

    def test_negative_fuel(self, capsys):
        args = ["eval", corpus("nat.sit"), "-e", "suc zero"]
        assert run(args + ["--fuel", "-3"]) == 3
        assert "argument --fuel" in capsys.readouterr().err
        # 0 is a valid budget: vec.sit checks with no step and no split,
        # while nat.sit's check makes one case split and runs out there.
        assert run(["check", corpus("vec.sit"), "--fuel", "0"]) == 0
        assert run(args + ["--fuel", "0"]) == 4
        assert capsys.readouterr().err.endswith(
            "nat.sit:6:1: error[E501]: coverage exceeded 0 case splits\n"
        )

    def test_missing_file(self, capsys):
        assert run(["check", "no-such-file.sit"]) == 3

    def test_parse_error(self, tmp_path):
        src = tmp_path / "broken.sit"
        src.write_text("def f (x : Nat) : Nat | zero =>\n")
        assert run(["check", str(src)]) == 2

    def test_parse_error_at_end_of_input(self, tmp_path, capsys):
        assert run(["eval", corpus("nat.sit"), "-e", ""]) == 2
        err = capsys.readouterr().err
        assert err == "<expr>:1:1: error[E102]: expected an expression, found end of input\n"
        src = tmp_path / "cut.sit"
        src.write_text("data Nat : Type\n  | zero\n  | suc (n :")
        assert run(["check", str(src)]) == 2
        err = capsys.readouterr().err
        assert err == f"{src}:3:13: error[E102]: expected an expression, found end of input\n"

    @pytest.mark.parametrize(
        "expr, where, message",
        [
            ("fn => zero", "1:4", "expected a binder name, found '=>'"),
            ("fn x zero", "1:6", "expected '=>', found 'zero'"),
            ("(x : Nat", "1:9", "expected ')', found end of input"),
            ("(x : Nat) Nat", "1:11", "expected '->', found 'Nat'"),
        ],
    )
    def test_expression_parse_error(self, capsys, expr, where, message):
        assert run(["eval", corpus("nat.sit"), "-e", expr]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"<expr>:{where}: error[E102]: {message}\n"

    def test_type_error(self, tmp_path):
        src = tmp_path / "ill.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n"
            "def f (x : Nat) : Nat\n  | x => Nat\n"
        )
        assert run(["check", str(src)]) == 1

    def test_module_entry_point(self):
        # `sit.cli.main` as a new process runs it: exit codes come back through
        # `sys.exit`.
        ok = sit_process("check", corpus("nat.sit"))
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "", "")
        bad = sit_process("check", str(FIXTURES / "01_vnil_wrong_length.sit"))
        assert bad.returncode == 1
        assert "error[E305]" in bad.stderr

    def test_internal_error_is_one_diagnostic_line(self, tmp_path):
        # Applying a function-valued call breaks the core's application
        # invariant (a known gap): the last resort reports it as E900 with
        # exit 5, not as a traceback with the type-error code, at the `-e`
        # expression where it was raised.
        src = tmp_path / "higher_order.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def k (n : Nat) : Nat -> Nat\n  | n => fn m => suc n\n"
            "def use (g : Nat -> Nat) : Nat\n  | g => g zero\n"
        )
        res = sit_process("eval", str(src), "-e", "use (k zero)")
        assert res.returncode == 5
        assert "Traceback" not in res.stderr
        (line,) = res.stderr.splitlines()
        assert line.startswith("<expr>:1:1: error[E900]: internal error: cannot apply")

    def test_internal_error_in_a_declaration_is_located_there(self, tmp_path):
        # The same broken invariant, met while `t`'s result type is
        # normalized to select the row of `b`: reported at `t`, line 10.
        src = tmp_path / "e900.sit"
        src.write_text(
            "data Nat : Type\n  | zero\n  | suc (n : Nat)\n"
            "def k (n : Nat) : Nat -> Nat\n  | n => fn m => suc n\n"
            "def use (g : Nat -> Nat) : Nat\n  | g => g zero\n"
            "data B (n : Nat) : Type\n  | zero => b\n"
            "def t : B (use (k zero))\n  | => b\n"
        )
        res = sit_process("check", str(src))
        assert res.returncode == 5
        assert "Traceback" not in res.stderr
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"{src}:10:1: error[E900]: internal error: cannot apply")


class TestProcess:
    @pytest.mark.parametrize(
        "args",
        [
            ("translate", corpus("nat.sit")),
            ("eval", corpus("nat.sit"), "-e", "(x : Nat) -> Nat"),
            ("ctor-type", corpus("vec.sit"), "vcons"),
        ],
    )
    def test_output_is_utf8_whatever_the_locale(self, args):
        # Each prints a `→`; a stdout that cannot encode it gets the same
        # bytes as a UTF-8 one, not a UnicodeEncodeError traceback.
        utf8 = sit_process(*args, env={"PYTHONIOENCODING": "utf-8"}, text=False)
        assert "→".encode() in utf8.stdout
        narrow = sit_process(*args, env={"PYTHONIOENCODING": "ascii"}, text=False)
        assert (narrow.returncode, narrow.stdout, narrow.stderr) == (0, utf8.stdout, b"")

    def test_import_path_stays_light(self):
        # What `import sit` costs is most of a `sit` run on a small file;
        # `dataclasses` (which imports `inspect`) and `typing` took half of
        # it. `-S`, because a host's `site` may import `typing` itself.
        heavy = "sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys())"
        res = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys, sit, sit.cli; print({heavy})"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        assert (res.returncode, res.stdout, res.stderr) == (0, "[]\n", "")
