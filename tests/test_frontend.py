from __future__ import annotations

import gc
import weakref

import pytest

from sit.core import (
    EMPTY_TELESCOPE,
    BindPat,
    Clause,
    ConCall,
    ConPat,
    CtorRow,
    DataCall,
    DataDecl,
    FnCall,
    FuncDecl,
    ImpossiblePat,
    Lam,
    Node,
    Pi,
    Telescope,
    Univ,
    Var,
    VarCall,
    alpha_eq,
)
from sit.diagnostics import LexError, ParseError, ResolveError, SourceSpan
from sit.frontend import (
    Resolver,
    Token,
    _Reader,
    decode_source,
    tokenize,
)

from support import CORPUS


NAT = """
data Nat : Type
  | zero
  | suc (n : Nat)
"""

# Names for the expressions below to use: two indexed types and three
# functions, the last of no arguments.
PRELUDE = NAT + """
data Vec (A : Type) (n : Nat) : Type
data Fin (n : Nat) : Type
def f (a : Nat) : Nat
def g (a : Nat) : Nat
def x : Nat
"""

NAT_T = DataCall("Nat", ())


def _expr(text: str):
    resolver = Resolver()
    resolver.run(tokenize(PRELUDE))
    return resolver.resolve_expression(tokenize(text, "<expr>"))


def _node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


class TestParser:
    """The parser, through the core tree its result resolves to."""

    def test_plain_data(self):
        (decl,) = Resolver().run(tokenize("data Nat : Type | zero | suc (n : Nat)"))
        n = decl.ctors[1].fields.entries[0][0]
        assert n.text == "n"
        assert decl == DataDecl(
            "Nat",
            EMPTY_TELESCOPE,
            (
                CtorRow("zero", EMPTY_TELESCOPE, None),
                CtorRow("suc", Telescope(((n, NAT_T),)), None),
            ),
        )

    def test_pattern_row(self):
        decls = Resolver().run(
            tokenize(
                NAT
                + "data Vec (A : Type) (n : Nat) : Type\n"
                "  | A, zero => vnil\n"
                "  | A, suc m => vcons (x : A) (xs : Vec A m)\n"
            )
        )
        rows = decls[1].ctors
        a = rows[0].patterns[0].var
        assert rows[0] == CtorRow("vnil", EMPTY_TELESCOPE, (BindPat(a), ConPat("zero", ())))
        a, m = rows[1].patterns[0].var, rows[1].patterns[1].args[0].var
        assert (a.text, m.text) == ("A", "m")
        assert rows[1].patterns == (BindPat(a), ConPat("suc", (BindPat(m),)))
        assert rows[1].name == "vcons"

    def test_nested_and_impossible_patterns(self):
        decls = Resolver().run(
            tokenize(
                NAT
                + "def f (a : Nat) : Nat\n"
                "  | suc (suc m) => m\n"
                "  | impossible\n"
            )
        )
        clauses = decls[1].clauses
        m = clauses[0].patterns[0].args[0].args[0].var
        assert clauses[0].patterns == (ConPat("suc", (ConPat("suc", (BindPat(m),)),)),)
        assert clauses[1] == Clause((ImpossiblePat(),), None)

    def test_arrows_are_right_associative(self):
        e = _expr("Nat -> Nat -> Nat")
        want = Pi(Var.fresh("_"), NAT_T, Pi(Var.fresh("_"), NAT_T, NAT_T))
        assert alpha_eq(e, want)

    def test_application_binds_tighter_than_arrow(self):
        e = _expr("fn A => fn n => Vec A n -> Type")
        a, n = e.binder, e.body.binder
        vec = DataCall("Vec", (VarCall(a), VarCall(n)))
        assert alpha_eq(e, Lam(a, Lam(n, Pi(Var.fresh("_"), vec, Univ()))))

    def test_dependent_function_type(self):
        e = _expr("(n : Nat) -> Fin n")
        n = e.binder
        assert n.text == "n"
        assert e == Pi(n, NAT_T, DataCall("Fin", (VarCall(n),)))

    def test_lambda(self):
        e = _expr("fn x => suc x")
        assert e == Lam(e.binder, ConCall("suc", (VarCall(e.binder),)))

    def test_missing_clause_body_is_an_error(self):
        with pytest.raises(ParseError):
            Resolver().run(tokenize("def f (x : Nat) : Nat | zero =>"))

    def test_unterminated_group(self):
        with pytest.raises(ParseError):
            _expr("(Nat")

    def test_comments_and_crlf(self):
        decls = Resolver().run(
            tokenize("-- a comment\r\ndata Nat : Type -- trailing\r\n  | zero\r\n")
        )
        assert decls[0].name == "Nat"
        assert decls[0].ctors[0].name == "zero"

    def test_spans_are_recorded(self):
        decls = Resolver().run(tokenize("data Nat : Type\n  | zero\n", file="demo.sit"))
        span = decls[0].span
        assert span.file == "demo.sit"
        assert (span.start_line, span.start_col) == (1, 1)

    def test_unclosed_group_in_pattern_row_is_reported_where_it_ends(self):
        src = (
            NAT
            + "data Fin (n : Nat) : Type\n"
            + "  | suc m => fzero\n"
            + "  | suc m => fsuc (i : Fin m\n"
            + "def f (a : Nat) : Nat\n"
        )
        with pytest.raises(ParseError) as exc:
            Resolver().run(tokenize(src))
        assert exc.value.message == "expected ')', found 'def'"
        assert (exc.value.span.start_line, exc.value.span.start_col) == (8, 1)

    def test_pattern_row_needs_a_constructor_name(self):
        with pytest.raises(ParseError) as exc:
            Resolver().run(tokenize("data T (a : Nat) (b : Nat) : Type\n  | zero, m => (\n"))
        assert exc.value.message.startswith("expected a constructor name")
        assert (exc.value.span.start_line, exc.value.span.start_col) == (2, 16)

    def test_parenthesised_expression_spans_its_parentheses(self):
        e = _expr("f (g x)")
        assert e.span == SourceSpan("<expr>", 1, 1, 1, 7)
        assert e.args[0].span == SourceSpan("<expr>", 1, 3, 1, 7)
        assert e.args[0].args[0].span == SourceSpan("<expr>", 1, 6, 1, 6)

    def test_parenthesised_pattern_spans_its_parentheses(self):
        decls = Resolver().run(tokenize(NAT + "def f (n : Nat) : Nat\n  | suc (suc m) => m\n"))
        pat = decls[1].clauses[0].patterns[0]
        assert pat.span == SourceSpan("<input>", 6, 5, 6, 15)
        assert pat.args[0].span == SourceSpan("<input>", 6, 9, 6, 15)
        assert pat.args[0].args[0].span == SourceSpan("<input>", 6, 14, 6, 14)

    def test_at_most_one_span_per_token(self, monkeypatch):
        built = {"nodes": 0, "checked spans": 0, "spans": 0}

        def counting(key, f):
            def counted(*args, **kwargs):
                built[key] += 1
                return f(*args, **kwargs)

            return counted

        for cls in _node_classes():
            monkeypatch.setattr(cls, "__init__", counting("nodes", cls.__init__))
        monkeypatch.setattr(SourceSpan, "__new__", counting("checked spans", SourceSpan.__new__))
        monkeypatch.setattr(_Reader, "_span", counting("spans", _Reader._span))
        resolver = Resolver()
        resolver.run(tokenize(PRELUDE))
        for text, nodes in [
            ("suc (" * 60 + "zero" + ")" * 60, 61),
            ("f (fn y => y)", 3),
            ("(n : Nat) -> (Nat -> Fin n)", 6),
            # The reduct's root is copied to take the application's span.
            ("(fn y => y) zero", 4),
        ]:
            built.update(dict.fromkeys(built, 0))
            # Tokenizing builds neither a node nor a span.
            tokens = tokenize(text, "<expr>")
            assert built == {"nodes": 0, "checked spans": 0, "spans": 0}, text
            # Resolving builds one span per core node, none of them through
            # the check, and so at most one per token.
            resolver.resolve_expression(tokens)
            assert built == {"nodes": nodes, "checked spans": 0, "spans": nodes}, text
            assert nodes <= len(tokens)


class TestDeepInput:
    """Expressions are read and resolved on a list of the forms still open,
    not on Python frames, so nesting depth is limited by memory only. The
    results are walked in loops: `==` on nodes recurses."""

    DEPTH = 10_000

    def test_nested_applications(self):
        e = _expr("suc (" * self.DEPTH + "zero" + ")" * self.DEPTH)
        end = 6 * self.DEPTH + 4
        assert e.span == SourceSpan("<expr>", 1, 1, 1, end)
        depth = 0
        while e.name == "suc":
            (e,) = e.args
            depth += 1
            # Each argument fills the group that opens at its left.
            assert e.span == SourceSpan("<expr>", 1, 5 * depth, 1, end - depth + 1)
        assert (type(e), e.name, e.args, depth) == (ConCall, "zero", (), self.DEPTH)

    def test_nested_parentheses(self):
        e = _expr("(" * self.DEPTH + "Type" + ")" * self.DEPTH)
        assert type(e) is Univ
        assert e.span == SourceSpan("<expr>", 1, 1, 1, 2 * self.DEPTH + 4)

    def test_arrow_chain(self):
        e = _expr("Type -> " * self.DEPTH + "Type")
        depth, uid = 0, None
        while type(e) is Pi:
            assert (type(e.domain), e.binder.text) == (Univ, "_")
            # An arrow's binder is made after its codomain's.
            assert uid is None or e.binder.uid < uid
            assert e.span == SourceSpan("<expr>", 1, 8 * depth + 1, 1, 8 * self.DEPTH + 4)
            e, uid, depth = e.codomain, e.binder.uid, depth + 1
        assert (type(e), depth) == (Univ, self.DEPTH)

    def test_deep_declaration(self):
        text = (
            "def f : " + "Type -> " * self.DEPTH + "Type\n"
            "  | x => " + "(fn y => " * self.DEPTH + "y" + ")" * self.DEPTH + "\n"
        )
        (decl,) = Resolver().run(tokenize(text))
        e, depth = decl.result, 0
        while type(e) is Pi:
            e, depth = e.codomain, depth + 1
        assert (type(e), depth) == (Univ, self.DEPTH)
        e, depth = decl.clauses[0].body, 0  # the body of the first clause
        while type(e) is Lam:
            binder, e, depth = e.binder, e.body, depth + 1
        assert (e, depth) == (VarCall(binder), self.DEPTH)


class TestSourceSpan:
    def test_start_is_never_past_end(self):
        with pytest.raises(ValueError):
            SourceSpan("f", 2, 1, 1, 5)
        with pytest.raises(ValueError):
            SourceSpan("f", 1, 5, 1, 4)
        assert str(SourceSpan("f", 1, 5, 1, 5)) == "f:1:5"


class TestLexer:
    def test_word_must_start_with_a_letter(self):
        with pytest.raises(LexError) as exc:
            tokenize("def ²x")
        assert exc.value.code == "E101"
        assert (exc.value.span.start_line, exc.value.span.start_col) == (1, 5)
        assert [(t.kind, t.text) for t in tokenize("x²'")] == [
            ("IDENT", "x²'"),
            ("EOF", ""),
        ]

    def test_eof_follows_a_trailing_comment(self):
        eof = tokenize("data -- done")[-1]
        assert eof.kind == "EOF"
        assert (eof.span.start_line, eof.span.start_col) == (1, 13)


class TestTokenPins:
    """Every token's kind, text, line and column on the lexer's edge cases,
    EOF included."""

    @pytest.mark.parametrize(
        "text, tokens",
        [
            pytest.param(
                decode_source(b"data Nat : Type\r\n  | zero\r\n  | suc (n : Nat)\r\n", "f.sit"),
                [
                    ("data", "data", 1, 1), ("IDENT", "Nat", 1, 6), ("COLON", ":", 1, 10),
                    ("Type", "Type", 1, 12), ("BAR", "|", 2, 3), ("IDENT", "zero", 2, 5),
                    ("BAR", "|", 3, 3), ("IDENT", "suc", 3, 5), ("LPAREN", "(", 3, 9),
                    ("IDENT", "n", 3, 10), ("COLON", ":", 3, 12), ("IDENT", "Nat", 3, 14),
                    ("RPAREN", ")", 3, 17), ("EOF", "", 4, 1),
                ],
                id="crlf",
            ),
            pytest.param(
                decode_source(b"def f\r: Type\r  | x", "f.sit"),
                [
                    ("def", "def", 1, 1), ("IDENT", "f", 1, 5), ("COLON", ":", 2, 1),
                    ("Type", "Type", 2, 3), ("BAR", "|", 3, 3), ("IDENT", "x", 3, 5),
                    ("EOF", "", 3, 6),
                ],
                id="lone_cr",
            ),
            pytest.param(
                "def\tf\t: Type\n\t|\tx => x",
                [
                    ("def", "def", 1, 1), ("IDENT", "f", 1, 5), ("COLON", ":", 1, 7),
                    ("Type", "Type", 1, 9), ("BAR", "|", 2, 2), ("IDENT", "x", 2, 4),
                    ("FATARROW", "=>", 2, 6), ("IDENT", "x", 2, 9), ("EOF", "", 2, 10),
                ],
                id="tabs",
            ),
            pytest.param(
                "data D : Type -- rows follow\n  | c",
                [
                    ("data", "data", 1, 1), ("IDENT", "D", 1, 6), ("COLON", ":", 1, 8),
                    ("Type", "Type", 1, 10), ("BAR", "|", 2, 3), ("IDENT", "c", 2, 5),
                    ("EOF", "", 2, 6),
                ],
                id="comment_at_line_end",
            ),
            pytest.param(
                "data -- done",
                [("data", "data", 1, 1), ("EOF", "", 1, 13)],
                id="comment_at_eof",
            ),
            pytest.param(
                "a-->b\nc",
                [("IDENT", "a", 1, 1), ("IDENT", "c", 2, 1), ("EOF", "", 2, 2)],
                id="comment_after_dashes",
            ),
            pytest.param(
                "fn x=>x->y=>z",
                [
                    ("fn", "fn", 1, 1), ("IDENT", "x", 1, 4), ("FATARROW", "=>", 1, 5),
                    ("IDENT", "x", 1, 7), ("ARROW", "->", 1, 8), ("IDENT", "y", 1, 10),
                    ("FATARROW", "=>", 1, 11), ("IDENT", "z", 1, 13), ("EOF", "", 1, 14),
                ],
                id="arrows_against_words",
            ),
            pytest.param(
                "x' x'' x²'",
                [
                    ("IDENT", "x'", 1, 1), ("IDENT", "x''", 1, 4), ("IDENT", "x²'", 1, 8),
                    ("EOF", "", 1, 11),
                ],
                id="primes",
            ),
            pytest.param("", [("EOF", "", 1, 1)], id="empty"),
            pytest.param("  \n\t \n ", [("EOF", "", 3, 2)], id="blank_only"),
        ],
    )
    def test_tokens(self, text, tokens):
        result = tokenize(text, "f.sit")
        assert [(t.kind, t.text, t.line, t.col) for t in result] == tokens
        assert len(result) == len(tokens)
        assert result[-1] == Token("EOF", "", "f.sit", *tokens[-1][2:])
        assert [result[i] for i in range(len(result))] == list(result)

    @pytest.mark.parametrize(
        "text, line, col",
        [("def ²x", 1, 5), ("2x", 1, 1), ("def f\n  'x", 2, 3), ("a @ b", 1, 3)],
    )
    def test_bad_character(self, text, line, col):
        with pytest.raises(LexError) as exc:
            tokenize(text)
        assert exc.value.code == "E101"
        span = exc.value.span
        assert (span.start_line, span.start_col, span.end_line, span.end_col) == (
            line, col, line, col
        )

    def test_no_tracked_object_per_token(self):
        # Tokens kept as tuples until parsing ends would each count towards
        # the cyclic collector's next pass.
        text = (CORPUS / "normalize.sit").read_text() * 20
        gc.disable()
        try:
            before = gc.get_count()[0]
            tokens = tokenize(text)
            grown = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert len(tokens) == 5161
        assert grown < 50


class TestResolver:
    def test_constructor_pattern(self):
        decls = Resolver().run(
            tokenize(NAT + "def f (a : Nat) : Nat\n  | suc m => m\n")
        )
        clause = decls[1].clauses[0]
        pat = clause.patterns[0]
        assert isinstance(pat, ConPat) and pat.name == "suc"
        assert isinstance(pat.args[0], BindPat)

    def test_non_constructor_name_binds(self):
        decls = Resolver().run(tokenize(NAT + "def f (a : Nat) : Nat\n  | m => m\n"))
        pat = decls[1].clauses[0].patterns[0]
        assert isinstance(pat, BindPat) and pat.var.text == "m"

    def test_body_sees_pattern_binding(self):
        decls = Resolver().run(tokenize(NAT + "def f (a : Nat) : Nat\n  | m => m\n"))
        clause = decls[1].clauses[0]
        assert clause.body == VarCall(clause.patterns[0].var)

    def test_bare_constructor_expands_to_lambda(self):
        decls = Resolver().run(
            tokenize(NAT + "def f (a : Nat) : Nat -> Nat\n  | a => suc\n")
        )
        body = decls[1].clauses[0].body
        assert isinstance(body, Lam)
        assert body.body == ConCall("suc", (VarCall(body.binder),))

    def test_bare_indexed_constructor_quantifies_pattern_bindings(self):
        src = (
            NAT
            + """
data Vec (A : Type) (n : Nat) : Type
  | A, zero => vnil
  | A, suc m => vcons (x : A) (xs : Vec A m)

def f (a : Nat) : Nat
  | a => a
"""
        )
        resolver = Resolver()
        resolver.run(tokenize(src))
        term = resolver.resolve_expression(tokenize("vcons", "<expr>"))
        # fn A => fn m => fn x => fn xs => vcons x xs
        binders = []
        while isinstance(term, Lam):
            binders.append(term.binder)
            term = term.body
        assert [b.text for b in binders] == ["A", "m", "x", "xs"]
        assert term == ConCall("vcons", (VarCall(binders[2]), VarCall(binders[3])))

    def test_underapplied_function_expands(self):
        resolver = Resolver()
        resolver.run(
            tokenize(
                NAT
                + "def plus (a : Nat) (b : Nat) : Nat\n"
                + "  | zero, b => b\n  | suc a, b => suc (plus a b)\n"
            )
        )
        term = resolver.resolve_expression(tokenize("plus zero", "<expr>"))
        assert isinstance(term, Lam)
        assert isinstance(term.body, FnCall) and len(term.body.args) == 2

    def test_resolved_binders_are_globally_unique(self):
        decls = Resolver().run(tokenize((CORPUS / "normalize.sit").read_text()))
        seen = set()

        def visit_pattern(p):
            if isinstance(p, BindPat):
                assert p.var not in seen
                seen.add(p.var)
            elif isinstance(p, ConPat):
                for q in p.args:
                    visit_pattern(q)

        def visit_term(t):
            match t:
                case Pi(x, dom, cod):
                    assert x not in seen
                    seen.add(x)
                    visit_term(dom)
                    visit_term(cod)
                case Lam(x, body):
                    assert x not in seen
                    seen.add(x)
                    visit_term(body)
                case VarCall(_, args) | FnCall(_, args) | ConCall(_, args):
                    for a in args:
                        visit_term(a)
                case _:
                    pass

        for d in decls:
            for x, ty in d.telescope:
                assert x not in seen
                seen.add(x)
                visit_term(ty)
            if isinstance(d, FuncDecl):
                visit_term(d.result)
                for cl in d.clauses:
                    for p in cl.patterns:
                        visit_pattern(p)
                    if cl.body is not None:
                        visit_term(cl.body)
            elif isinstance(d, DataDecl):
                for row in d.ctors:
                    for p in row.patterns or ():
                        visit_pattern(p)
                    for x, ty in row.fields:
                        assert x not in seen
                        seen.add(x)
                        visit_term(ty)

    def test_unknown_identifier(self):
        with pytest.raises(ResolveError) as exc:
            Resolver().run(tokenize(NAT + "def f (a : Nat) : Nat\n  | m => foo\n"))
        assert exc.value.code == "E201"

    def test_unknown_constructor_in_pattern(self):
        with pytest.raises(ResolveError) as exc:
            Resolver().run(tokenize(NAT + "def f (a : Nat) : Nat\n  | wrap m => m\n"))
        assert exc.value.code == "E201"

    def test_over_application(self):
        with pytest.raises(ResolveError) as exc:
            Resolver().run(tokenize(NAT + "def f (a : Nat) : Nat\n  | m => suc m m\n"))
        assert exc.value.code == "E202"

    def test_duplicate_declaration(self):
        with pytest.raises(ResolveError) as exc:
            Resolver().run(tokenize(NAT + NAT))
        assert exc.value.code == "E203"

    def test_binder_shadowing_constructor(self):
        with pytest.raises(ResolveError) as exc:
            Resolver().run(tokenize(NAT + "def f (zero : Nat) : Nat\n  | m => m\n"))
        assert exc.value.code == "E204"

    def test_clause_body_does_not_see_telescope(self):
        with pytest.raises(ResolveError) as exc:
            Resolver().run(tokenize(NAT + "def f (a : Nat) : Nat\n  | m => a\n"))
        assert exc.value.code == "E201"

    def test_keeps_only_the_global_table(self):
        resolver = Resolver()
        tokens = tokenize(PRELUDE)
        ref = weakref.ref(tokens)
        resolver.run(tokens)
        del tokens
        assert list(vars(resolver)) == ["globals"] and ref() is None
        tokens = tokenize("f (suc x)", "<expr>")
        ref = weakref.ref(tokens)
        resolver.resolve_expression(tokens)
        del tokens
        assert list(vars(resolver)) == ["globals"] and ref() is None


def _error(text: str, expression: bool = False):
    """The error of reading `text` as a file, or as an expression after the
    prelude."""
    with pytest.raises((ParseError, ResolveError)) as exc:
        if expression:
            _expr(text)
        else:
            Resolver().run(tokenize(text))
    err = exc.value
    return err.code, err.message, tuple(err.span)[1:]


class TestErrorOrder:
    """A parse error anywhere comes first; else the first resolve error in
    resolution order, spanning the whole form it is about."""

    def test_parse_error_after_a_resolve_error(self):
        text = "def f : Type\n  | x => foo\n" + "\n" * 6 + "def g : Type\n"
        assert _error(text) == ("E201", "unknown identifier foo", (2, 10, 2, 12))
        assert _error(text.replace("g : Type", "g : Type )")) == (
            "E102", "expected a declaration, found ')'", (9, 14, 9, 14)
        )

    def test_trailing_token_after_an_unknown_name(self):
        assert _error("foo )", expression=True) == (
            "E102", "expected end of input, found ')'", (1, 5, 1, 5)
        )

    def test_binder_error_spans_its_fn(self):
        assert _error("fn zero => foo", expression=True) == (
            "E204", "binder zero shadows a constructor", (1, 1, 1, 14)
        )

    def test_duplicate_data_spans_its_declaration(self):
        assert _error(NAT + "data Nat : Type\n  | one\n  | two (n : Nat)\n") == (
            "E203", "duplicate name Nat", (5, 1, 7, 7)
        )

    def test_duplicate_telescope_binder_spans_its_declaration(self):
        text = NAT + "def f (x : Nat) (x : Nat) : Nat\n  | a, b => a\n"
        assert _error(text) == (
            "E203", "duplicate telescope binder x", (5, 1, 6, 13)
        )

    def test_arguments_before_a_head_in_parentheses(self):
        # The head `(foo zero)` is resolved after its argument, as a name is.
        assert _error("(foo zero) bar", expression=True) == (
            "E201", "unknown identifier bar", (1, 12, 1, 14)
        )
        assert _error("(foo zero) zero", expression=True) == (
            "E201", "unknown identifier foo", (1, 2, 1, 4)
        )
