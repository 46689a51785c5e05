"""Surface syntax: lexer, parser, and resolver.

Concrete grammar (line comments start with `--`, `->` is right-associative,
application binds tighter than `->`):

    file    ::= decl*
    decl    ::= "data" ID tele ":" "Type" ctorRow*
              | "def" ID tele ":" expr clause*
    ctorRow ::= "|" (patList "=>")? ID tele
    clause  ::= "|" patList ("=>" expr)?
    patList ::= pat ("," pat)*
    pat     ::= ID patAtom* | "impossible"
    patAtom ::= ID | "impossible" | "(" pat ")"
    tele    ::= ("(" ID+ ":" expr ")")*
    expr    ::= "fn" ID "=>" expr | "(" ID ":" expr ")" "->" expr
              | expr1 ("->" expr)?
    expr1   ::= atom+
    atom    ::= ID | "Type" | "(" expr ")"

The lexer cuts each line into pieces in one `findall` pass, blanks and
comments included, so the pieces' lengths give each token's column. Its
output is four parallel lists (kind, text, line and column, one entry per
token) rather than one object per token: strings and small integers are not
tracked by the cyclic garbage collector, so a file's tokens add nothing to
its passes while the file is parsed. The parser reads the lists through one
cursor; a `Token` is built only for an error message or for a reader of
`tokenize`'s result. The parser builds one span per syntax node, from its
first token to its last token or child, and a parenthesised expression or
pattern takes the span of its parentheses.

Declarations, telescopes and patterns are parsed by recursive descent.
Expressions are parsed by one loop over an explicit stack of the forms
still open (parentheses, Pi domains, and `fn`, Pi and arrow bodies), so no
nesting depth of an expression exhausts Python's stack.

The resolver turns surface declarations into core ones: pattern identifiers
naming a declared constructor become constructor patterns, all other
identifiers bind; expression heads resolve to local binders, then functions,
then data types, then constructors. Under-applied heads are expanded to
lambdas over their missing parameters, so core terms stay fully applied.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import (
    BindPat,
    Clause,
    ConCall,
    ConPat,
    CtorRow,
    DataCall,
    DataDecl,
    Declaration,
    FnCall,
    FuncDecl,
    ImpossiblePat,
    Lam,
    Node,
    Pattern,
    Pi,
    Telescope,
    Term,
    Univ,
    Var,
    VarCall,
    apply_spine,
)
from .diagnostics import (
    BAD_APPLICATION,
    DUPLICATE_DECL,
    LEX_ERROR,
    PARSE_ERROR,
    SHADOWS_CTOR,
    UNKNOWN_IDENT,
    InternalError,
    LexError,
    ParseError,
    ResolveError,
    SourceSpan,
)

KEYWORDS = {"data", "def", "fn", "impossible", "Type"}


# ---------------------------------------------------------------------------
# Lexer


class Token(NamedTuple):
    """One token and where it starts."""

    kind: str  # IDENT, one of KEYWORDS, LPAREN, RPAREN, COLON, COMMA, BAR, FATARROW, ARROW, EOF
    text: str  # "" for EOF
    file: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        line, col, n = self.line, self.col, len(self.text)
        return SourceSpan(self.file, line, col, line, col + n - 1 if n else col)


@dataclass
class Tokens:
    """The tokens of one text as four parallel lists, one entry per token
    and EOF last. Indexing, and so iterating, builds each entry's `Token`."""

    kinds: list[str]
    texts: list[str]
    lines: list[int]
    cols: list[int]
    file: str

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.texts[i], self.file, self.lines[i], self.cols[i])


def decode_source(data: bytes, file: str) -> str:
    """The text of a UTF-8 source file, each newline read as "\n" (as a file
    opened in text mode reads it). An undecodable byte is a lex error at its
    line and column."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lines = _newlines(data[: err.start].decode("utf-8")).split("\n")
        line, col = len(lines), len(lines[-1]) + 1
        raise LexError(
            LEX_ERROR,
            f"invalid UTF-8 byte 0x{data[err.start]:02x}",
            SourceSpan(file, line, col, line, col),
        ) from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# The pieces of one line: each blank belongs to the piece after it, and
# each other character to exactly one piece, so the pieces' lengths give
# each token's column.
_PIECE = re.compile(r"[ \t\r]*(?:--.*|[\w']+|=>|->|.)")

# The kind of each piece that is a keyword or a punctuation token.
_KIND = {k: k for k in KEYWORDS} | {
    "(": "LPAREN",
    ")": "RPAREN",
    ":": "COLON",
    ",": "COMMA",
    "|": "BAR",
    "=>": "FATARROW",
    "->": "ARROW",
}


def tokenize(text: str, file: str = "<input>") -> Tokens:
    """The tokens of `text`, EOF last. A character that starts no token is a
    lex error at its line and column."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    add_kind, add_text, add_line, add_col = (
        kinds.append, texts.append, lines.append, cols.append
    )
    kind_of, pieces = _KIND.get, _PIECE.findall
    line = 0
    for line_text in text.split("\n"):
        line += 1
        end = 1  # the column after the pieces so far
        for piece in pieces(line_text):
            end += len(piece)
            kind = kind_of(piece)
            if kind is None:
                if piece[0] in " \t\r":
                    piece = piece.lstrip(" \t\r")
                    kind = kind_of(piece)
                if kind is None:
                    if not piece:
                        continue  # blanks at the end of the line
                    c = piece[0]
                    if c == "-" and len(piece) > 1:
                        continue  # a comment ("->" has a kind)
                    # A word starts with a letter or "_": "2x", "'x" and "²x"
                    # are errors, and so is any other character.
                    if not (c.isalpha() or c == "_"):
                        col = end - len(piece)
                        span = SourceSpan(file, line, col, line, col)
                        raise LexError(LEX_ERROR, f"unexpected character {c!r}", span)
                    kind = "IDENT"
            add_kind(kind)
            add_text(piece)
            add_line(line)
            add_col(end - len(piece))
    add_kind("EOF")
    add_text("")
    add_line(line)
    add_col(len(line_text) + 1)
    return Tokens(kinds, texts, lines, cols, file)


# ---------------------------------------------------------------------------
# Surface trees (spans never participate in equality)


class SRef(Node):
    __slots__ = ("name", "span")
    name: str
    span: Optional[SourceSpan]


class SUniv(Node):
    __slots__ = ("span",)
    span: Optional[SourceSpan]


class SApp(Node):
    __slots__ = ("head", "args", "span")
    head: SExpr
    args: tuple[SExpr, ...]
    span: Optional[SourceSpan]


class SArrow(Node):
    __slots__ = ("domain", "codomain", "span")
    domain: SExpr
    codomain: SExpr
    span: Optional[SourceSpan]


class SPi(Node):
    __slots__ = ("binder", "domain", "codomain", "span")
    binder: str
    domain: SExpr
    codomain: SExpr
    span: Optional[SourceSpan]


class SFn(Node):
    __slots__ = ("binder", "body", "span")
    binder: str
    body: SExpr
    span: Optional[SourceSpan]


SExpr = SRef | SUniv | SApp | SArrow | SPi | SFn


class SPatApp(Node):
    __slots__ = ("name", "args", "span")
    name: str
    args: tuple[SPat, ...]
    span: Optional[SourceSpan]
    _defaults = {"args": ()}


class SPatImpossible(Node):
    __slots__ = ("span",)
    span: Optional[SourceSpan]


SPat = SPatApp | SPatImpossible

STeleGroup = tuple[tuple[str, ...], SExpr]


class SCtorRow(Node):
    __slots__ = ("patterns", "name", "tele", "span")
    patterns: Optional[tuple[SPat, ...]]
    name: str
    tele: tuple[STeleGroup, ...]
    span: Optional[SourceSpan]


class SClause(Node):
    __slots__ = ("patterns", "body", "span")
    patterns: tuple[SPat, ...]
    body: Optional[SExpr]
    span: Optional[SourceSpan]


class SData(Node):
    __slots__ = ("name", "tele", "rows", "span")
    name: str
    tele: tuple[STeleGroup, ...]
    rows: tuple[SCtorRow, ...]
    span: Optional[SourceSpan]


class SDef(Node):
    __slots__ = ("name", "tele", "result", "clauses", "span")
    name: str
    tele: tuple[STeleGroup, ...]
    result: SExpr
    clauses: tuple[SClause, ...]
    span: Optional[SourceSpan]


SDecl = SData | SDef


# ---------------------------------------------------------------------------
# Parser


# Tokens that end a constructor row: the next row or declaration.
_ROW_END = ("BAR", "data", "def", "EOF")


class _Parser:
    """Reads a `Tokens` record through one cursor, `pos`, an index into its
    lists."""

    def __init__(self, tokens: Tokens):
        # The parser looks at most two tokens past the current one, and its
        # scans stop at EOF, so two more EOFs keep every index in range. They
        # are appended in place: the lists were made for this parser alone.
        for column in (tokens.kinds, tokens.texts, tokens.lines, tokens.cols):
            column += column[-1:] * 2
        self.tokens = tokens
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.lines, self.cols = tokens.lines, tokens.cols
        self.filename = tokens.file
        self.pos = 0

    def expect(self, kind: str, what: str) -> int:
        """The index of the current token, which must be a `kind`; the
        cursor moves past it."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise _unexpected(what, self.tokens[pos])
        self.pos = pos + 1
        return pos

    def span(self, first: int, last: int) -> SourceSpan:
        """The span from the start of token `first` to the end of token
        `last`, which is not EOF."""
        lines, cols = self.lines, self.cols
        end_col = cols[last] + len(self.texts[last]) - 1
        return SourceSpan(self.filename, lines[first], cols[first], lines[last], end_col)

    def span_to(self, first: int, end: SourceSpan) -> SourceSpan:
        """The span from the start of token `first` to the end of `end`."""
        return SourceSpan(
            self.filename, self.lines[first], self.cols[first], end.end_line, end.end_col
        )

    # declarations

    def file(self) -> list[SDecl]:
        decls = []
        kinds = self.kinds
        while (kind := kinds[self.pos]) != "EOF":
            if kind == "data":
                decls.append(self.data_decl())
            elif kind == "def":
                decls.append(self.def_decl())
            else:
                raise _unexpected("a declaration", self.tokens[self.pos])
        return decls

    def data_decl(self) -> SData:
        start = self.expect("data", "'data'")
        name = self.expect("IDENT", "a data type name")
        tele = self.tele()
        self.expect("COLON", "':'")
        self.expect("Type", "'Type'")
        rows = []
        while self.kinds[self.pos] == "BAR":
            rows.append(self.ctor_row())
        span = self.span_to(start, rows[-1].span) if rows else self.span(start, name)
        return SData(self.texts[name], tele, tuple(rows), span)

    def def_decl(self) -> SDef:
        start = self.expect("def", "'def'")
        name = self.expect("IDENT", "a function name")
        tele = self.tele()
        self.expect("COLON", "':'")
        result = self.expr()
        clauses = []
        while self.kinds[self.pos] == "BAR":
            clauses.append(self.clause())
        span = self.span_to(start, clauses[-1].span if clauses else result.span)
        return SDef(self.texts[name], tele, result, tuple(clauses), span)

    def ctor_row(self) -> SCtorRow:
        bar = self.expect("BAR", "'|'")
        # A plain row's name is followed by a telescope group or the row's
        # end, and neither can follow a pattern's head: anything else starts
        # a pattern row, which must reach "=>".
        pats = None
        pos = self.pos
        if not (
            self.kinds[pos] == "IDENT"
            and (self.kinds[pos + 1] in _ROW_END or self.binder_group(pos + 1))
        ):
            pats = tuple(self.pat_list())
            self.expect("FATARROW", "'=>'")
        name = self.expect("IDENT", "a constructor name")
        tele = self.tele()
        return SCtorRow(pats, self.texts[name], tele, self.span(bar, name))

    def clause(self) -> SClause:
        bar = self.expect("BAR", "'|'")
        pats = self.pat_list()
        if self.kinds[self.pos] == "FATARROW":
            self.pos += 1
            body = self.expr()
            span = self.span_to(bar, body.span)
        else:
            body, span = None, self.span(bar, bar)
        return SClause(tuple(pats), body, span)

    def binder_group(self, pos: int) -> int:
        """The index of the ":" of a telescope group `"(" IDENT+ ":"` that
        starts at token `pos`, or 0 when none starts there.

        A Pi type also starts with "(" IDENT, but result types following a
        telescope always sit behind an explicit ":".
        """
        kinds = self.kinds
        if kinds[pos] != "LPAREN":
            return 0
        i = pos + 1
        while kinds[i] == "IDENT":
            i += 1
        return i if i > pos + 1 and kinds[i] == "COLON" else 0

    def tele(self) -> tuple[STeleGroup, ...]:
        groups = []
        while colon := self.binder_group(self.pos):
            names = tuple(self.texts[self.pos + 1 : colon])
            self.pos = colon + 1
            ty = self.expr()
            self.expect("RPAREN", "')'")
            groups.append((names, ty))
        return tuple(groups)

    # patterns

    def pat_list(self) -> list[SPat]:
        pats = [self.pattern()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            pats.append(self.pattern())
        return pats

    def pattern(self) -> SPat:
        if self.kinds[self.pos] == "impossible":
            return self.pat_atom()
        head = self.expect("IDENT", "a pattern")
        args = []
        while (atom := self.pat_atom()) is not None:
            args.append(atom)
        span = self.span_to(head, args[-1].span) if args else self.span(head, head)
        return SPatApp(self.texts[head], tuple(args), span)

    def pat_atom(self) -> Optional[SPat]:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "IDENT":
            self.pos = pos + 1
            return SPatApp(self.texts[pos], (), self.span(pos, pos))
        if kind == "impossible":
            self.pos = pos + 1
            return SPatImpossible(self.span(pos, pos))
        if kind == "LPAREN":
            self.pos = pos + 1
            p = self.pattern()
            close = self.expect("RPAREN", "')'")
            return _respan(p, self.span(pos, close))
        return None

    # expressions

    def expr(self) -> SExpr:
        """An expression, read with an explicit stack of the forms still
        open around it rather than one Python frame per level of nesting.

        A `fn`, Pi or arrow waits on the stack for its body or codomain, a
        Pi for its domain, and an application for the group that one of its
        atoms opens. An expression that fills a pair of parentheses is
        grouped: the group's span replaces its own, so it builds none.
        """
        kinds, texts, lines, cols, file = (
            self.kinds, self.texts, self.lines, self.cols, self.filename
        )
        pos = self.pos
        stack: list[tuple] = []
        grouped = False  # whether the expression starting now is grouped
        resumed = None  # an application to go on with after its group
        while True:
            if resumed is None:
                kind = kinds[pos]
                if kind == "fn":
                    if kinds[pos + 1] != "IDENT":
                        raise _unexpected("a binder name", self.tokens[pos + 1])
                    if kinds[pos + 2] != "FATARROW":
                        raise _unexpected("'=>'", self.tokens[pos + 2])
                    stack.append((_FN, pos, texts[pos + 1], grouped))
                    pos += 3
                    grouped = False
                    continue
                if (
                    kind == "LPAREN"
                    and kinds[pos + 1] == "IDENT"
                    and kinds[pos + 2] == "COLON"
                ):
                    stack.append((_DOMAIN, pos, texts[pos + 1], grouped))
                    pos += 3
                    grouped = False
                    continue
                head, args, app_grouped = None, [], grouped
            else:
                head, args, app_grouped = resumed
                resumed = None
            # An application: a head atom, then argument atoms while they
            # come. "(x :" as an argument can only open a Pi's parentheses.
            while True:
                kind = kinds[pos]
                if kind == "IDENT" or kind == "Type":
                    # A head alone in its group gets the group's span.
                    if head is None and app_grouped and kinds[pos + 1] == "RPAREN":
                        span = None
                    else:
                        line, col = lines[pos], cols[pos]
                        end_col = col + len(texts[pos]) - 1
                        span = SourceSpan(file, line, col, line, end_col)
                    atom = SRef(texts[pos], span) if kind == "IDENT" else SUniv(span)
                    pos += 1
                elif kind == "LPAREN":
                    stack.append((_GROUP, pos, head, args, app_grouped))
                    pos += 1
                    grouped = True
                    break
                elif head is None:
                    raise _unexpected("an expression", self.tokens[pos])
                else:
                    break
                if head is None:
                    head = atom
                else:
                    args.append(atom)
            if kind == "LPAREN":
                continue  # the group first; its closing resumes this
            arrow = kinds[pos] == "ARROW"
            if not args:
                e = head
            elif app_grouped and not arrow:
                e = SApp(head, tuple(args))
            else:
                e = SApp(head, tuple(args), head.span.to(args[-1].span))
            if arrow:
                pos += 1
                stack.append((_ARROW, e, app_grouped))
                grouped = False
                continue
            # `e` is complete: close each form it completes.
            while stack:
                frame = stack.pop()
                form = frame[0]
                if form is _GROUP:
                    _, open_pos, head, args, app_grouped = frame
                    if kinds[pos] != "RPAREN":
                        raise _unexpected("')'", self.tokens[pos])
                    # ")" is one character wide: it ends where it starts.
                    span = SourceSpan(
                        file, lines[open_pos], cols[open_pos], lines[pos], cols[pos]
                    )
                    e = _respan(e, span)
                    pos += 1
                    if head is None:
                        head = e
                    else:
                        args.append(e)
                    resumed = head, args, app_grouped
                    break
                if form is _ARROW:
                    _, dom, g = frame
                    e = SArrow(dom, e, None if g else dom.span.to(e.span))
                elif form is _FN:
                    _, start, binder, g = frame
                    e = SFn(binder, e, None if g else self.span_to(start, e.span))
                elif form is _PI:
                    _, start, binder, dom, g = frame
                    e = SPi(binder, dom, e, None if g else self.span_to(start, e.span))
                else:  # _DOMAIN: `e` is the domain
                    _, start, binder, g = frame
                    if kinds[pos] != "RPAREN":
                        raise _unexpected("')'", self.tokens[pos])
                    if kinds[pos + 1] != "ARROW":
                        raise _unexpected("'->'", self.tokens[pos + 1])
                    pos += 2
                    stack.append((_PI, start, binder, e, g))
                    grouped = False
                    break
            else:
                self.pos = pos
                return e


# The forms `_Parser.expr` keeps open on its stack.
_GROUP, _ARROW, _FN, _DOMAIN, _PI = "group", "arrow", "fn", "domain", "pi"


def _respan(node, span: SourceSpan):
    # The node was just built by the parser and nothing else holds it yet, so
    # giving it its parentheses' span in place is as good as a copy.
    object.__setattr__(node, "span", span)
    return node


def _unexpected(what: str, tok: Token) -> ParseError:
    got = tok.text or "end of input"
    return ParseError(PARSE_ERROR, f"expected {what}, found {got!r}", tok.span)


def parse_file(text: str, file: str = "<input>") -> list[SDecl]:
    """Parse a whole compilation unit."""
    return _Parser(tokenize(text, file)).file()


def parse_expression(text: str, file: str = "<expr>") -> SExpr:
    parser = _Parser(tokenize(text, file))
    e = parser.expr()
    parser.expect("EOF", "end of input")
    return e


# ---------------------------------------------------------------------------
# Resolver


@dataclass
class _Global:
    kind: str  # "data" | "func" | "ctor"
    arity: int
    hints: tuple[str, ...]  # one binder name per parameter, for eta-expansion
    # constructors only:
    fields_arity: int = 0
    owner: str = ""


class Resolver:
    """Resolves surface declarations into core ones, in order.

    Later declarations see earlier ones; a declaration also sees itself (for
    recursive fields and clauses).
    """

    def __init__(self) -> None:
        self.globals: dict[str, _Global] = {}

    def run(self, decls: list[SDecl]) -> list[Declaration]:
        return [self._decl(d) for d in decls]

    # declarations

    def _declare(self, name: str, entry: _Global, span, *, same_data_ok: str = "") -> None:
        existing = self.globals.get(name)
        if existing is not None:
            if existing.kind == "ctor" and existing.owner == same_data_ok:
                return  # another selection row for the same constructor
            raise ResolveError(DUPLICATE_DECL, f"duplicate name {name}", span)
        self.globals[name] = entry

    def _decl(self, d: SDecl) -> Declaration:
        match d:
            case SData(name, stele, rows):
                scope: dict[str, Var] = {}
                tele = self._tele(stele, scope, d.span)
                self._declare(
                    name,
                    _Global("data", len(tele), tuple(x.text for x, _ in tele)),
                    d.span,
                )
                core_rows = tuple(self._row(name, tele, scope, r) for r in rows)
                return DataDecl(name, tele, core_rows, d.span)
            case SDef(name, stele, sresult, sclauses):
                scope = {}
                tele = self._tele(stele, scope, d.span)
                result = self._expr(sresult, [scope])
                self._declare(
                    name,
                    _Global("func", len(tele), tuple(x.text for x, _ in tele)),
                    d.span,
                )
                clauses = tuple(self._clause(c) for c in sclauses)
                return FuncDecl(name, tele, result, clauses, d.span)
        raise InternalError(f"unexpected declaration {d!r}")

    def _tele(self, groups, scope: dict[str, Var], span) -> Telescope:
        entries: list[tuple[Var, Term]] = []
        for names, sty in groups:
            ty = self._expr(sty, [scope])
            for n in names:
                var = self._bind(n, span)
                if n in scope:
                    raise ResolveError(
                        DUPLICATE_DECL, f"duplicate telescope binder {n}", span
                    )
                scope[n] = var
                entries.append((var, ty))
        return Telescope(tuple(entries))

    def _row(self, data_name, data_tele, data_scope, r: SCtorRow) -> CtorRow:
        if r.patterns is None:
            fields_scope = dict(data_scope)
            fields = self._tele(r.tele, fields_scope, r.span)
            pats = None
            binds = len(data_tele)
        else:
            pat_scope: dict[str, Var] = {}
            pats = tuple(self._pattern(p, pat_scope) for p in r.patterns)
            binds = len(pat_scope)
            fields_scope = pat_scope
            fields = self._tele(r.tele, fields_scope, r.span)
        self._declare(
            r.name,
            _Global(
                "ctor",
                binds + len(fields),
                tuple(fields_scope.keys()),
                fields_arity=len(fields),
                owner=data_name,
            ),
            r.span,
            same_data_ok=data_name,
        )
        return CtorRow(r.name, fields, pats, r.span)

    def _clause(self, c: SClause) -> Clause:
        # Clause bodies see the pattern bindings only; the telescope's
        # variables are substituted away by the checker.
        pat_scope: dict[str, Var] = {}
        pats = tuple(self._pattern(p, pat_scope) for p in c.patterns)
        body = self._expr(c.body, [pat_scope]) if c.body is not None else None
        return Clause(pats, body, c.span)

    # patterns

    def _pattern(self, p: SPat, scope: dict[str, Var]) -> Pattern:
        c = type(p)
        if c is SPatApp:
            name = p.name
            entry = self.globals.get(name)
            if entry is not None and entry.kind == "ctor":
                args = []
                for a in p.args:
                    args.append(self._pattern(a, scope))
                return ConPat(name, tuple(args), p.span)
            if p.args:
                raise ResolveError(
                    UNKNOWN_IDENT, f"unknown constructor {name}", p.span
                )
            var = Var.fresh(name)
            scope[name] = var
            return BindPat(var, None, p.span)
        if c is SPatImpossible:
            return ImpossiblePat(p.span)
        raise InternalError(f"unexpected pattern {p!r}")

    # expressions

    def _bind(self, name: str, span) -> Var:
        entry = self.globals.get(name)
        if entry is not None and entry.kind == "ctor":
            raise ResolveError(
                SHADOWS_CTOR, f"binder {name} shadows a constructor", span
            )
        return Var.fresh(name)

    def _expr(self, e: SExpr, scopes: list[dict[str, Var]]) -> Term:
        c = type(e)
        if c is SRef or c is SApp:
            # An application is resolved in this one frame: its arguments
            # first, then its head, a local binder before a global.
            if c is SRef:
                head, args = e, ()
            else:
                head = e.head
                resolved: list[Term] = []
                for a in e.args:
                    resolved.append(self._expr(a, scopes))
                args = tuple(resolved)
                if type(head) is not SRef:
                    inner = self._expr(head, scopes)
                    try:
                        return apply_spine(inner, args)
                    except InternalError:
                        raise ResolveError(
                            BAD_APPLICATION, "this expression cannot take arguments", e.span
                        ) from None
            name = head.name
            i = len(scopes)
            while i:
                i -= 1
                var = scopes[i].get(name)
                if var is not None:
                    return VarCall(var, args, e.span)
            entry = self.globals.get(name)
            if entry is None:
                raise ResolveError(UNKNOWN_IDENT, f"unknown identifier {name}", head.span)
            # A fully applied global is built here; `_apply_global` expands
            # the partial applications and reports the bad ones.
            kind = entry.kind
            if kind == "ctor":
                if len(args) == entry.fields_arity:
                    return ConCall(name, args, e.span)
            elif len(args) == entry.arity:
                call = FnCall if kind == "func" else DataCall
                return call(name, args, e.span)
            return self._apply_global(name, entry, args, e.span)
        if c is SArrow:
            dom = self._expr(e.domain, scopes)
            cod = self._expr(e.codomain, scopes)
            return Pi(Var.fresh("_"), dom, cod, e.span)
        if c is SPi:
            dom = self._expr(e.domain, scopes)
            var = self._bind(e.binder, e.span)
            cod = self._expr(e.codomain, scopes + [{e.binder: var}])
            return Pi(var, dom, cod, e.span)
        if c is SFn:
            var = self._bind(e.binder, e.span)
            body = self._expr(e.body, scopes + [{e.binder: var}])
            return Lam(var, body, e.span)
        if c is SUniv:
            return Univ(e.span)
        raise InternalError(f"unexpected expression {e!r}")

    def _apply_global(
        self, name: str, entry: _Global, args: tuple[Term, ...], span
    ) -> Term:
        """A global applied to fewer or more arguments than it takes: an
        under-applied one is expanded to lambdas, an over-applied one is an
        error."""
        n = len(args)
        if entry.kind == "ctor":
            if n == 0:
                return self._expand_ctor(name, entry, span)
            raise ResolveError(
                BAD_APPLICATION,
                f"constructor {name} takes {entry.fields_arity} arguments "
                f"(or none), got {n}",
                span,
            )
        if n > entry.arity:
            raise ResolveError(
                BAD_APPLICATION,
                f"{name} takes {entry.arity} arguments, got {n}",
                span,
            )
        missing = [Var.fresh(h) for h in entry.hints[n:]]
        full = args + tuple(VarCall(v) for v in missing)
        call: Term = (
            FnCall(name, full, span)
            if entry.kind == "func"
            else DataCall(name, full, span)
        )
        for v in reversed(missing):
            call = Lam(v, call, span)
        return call

    def _expand_ctor(self, name: str, entry: _Global, span) -> Term:
        # A bare constructor reference stands for a function over all its
        # synthesized parameters; only the trailing field parameters feed the
        # actual call.
        params = [Var.fresh(h) for h in entry.hints]
        field_params = params[len(params) - entry.fields_arity :]
        call: Term = ConCall(name, tuple(VarCall(v) for v in field_params), span)
        for v in reversed(params):
            call = Lam(v, call, span)
        return call

    def resolve_expression(self, e: SExpr) -> Term:
        """Resolve a standalone expression against the declared globals."""
        return self._expr(e, [{}])


def resolve(decls: list[SDecl]) -> list[Declaration]:
    """Resolve a parsed file into core declarations."""
    return Resolver().run(decls)
