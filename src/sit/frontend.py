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
its passes. The parser reads the lists through one cursor; a `Token` is
built only for an error message or for a reader of `tokenize`'s result.

The parser builds no node and no span. It returns a `Syntax`: the tokens,
and the syntax as plain tuples over token positions. Each tuple is a kind,
the index of its first and of its last token, then its children; a name,
`Type` or `impossible` with nothing around it is just its token's index.
One line per kind:

    (DATA, data, last, name, tele, rows)      last: the last row's name
    (DEF, def, last, name, tele, result, clauses)
    (ROW, bar, name, patterns, tele)          patterns: None in a plain row
    (CLAUSE, bar, last, patterns, body)       body: None without "=>"
    (APP, first, last, head, arg, ...)        an application, in a term or
                                              a pattern; with no args, a
                                              name in parentheses
    (ARROW, first, last, domain, codomain)
    (PI, first, last, binder, domain, codomain)
    (FN, first, last, binder, body)

`name` and `binder` are token indices, and a clause without "=>" ends at
its bar. A telescope is a tuple of groups `(first, colon, type)`, whose
names are the tokens from `first` up to the colon. Rows, clauses and
patterns are tuples. An expression or pattern that fills a pair of
parentheses takes their positions as its own.

Declarations, telescopes and patterns are parsed by recursive descent.
Expressions are parsed by one loop over an explicit stack of the forms
still open (parentheses, Pi domains, and `fn`, Pi and arrow bodies), so no
nesting depth of an expression exhausts Python's stack.

The resolver turns the tuples into core declarations: pattern identifiers
naming a declared constructor become constructor patterns, all other
identifiers bind; expression heads resolve to local binders, then functions,
then data types, then constructors. Under-applied heads are expanded to
lambdas over their missing parameters, so core terms stay fully applied.
Each core node built from a tuple gets one span, made once from the token
lists at the tuple's first and last token; the lambdas of an expanded head
share its span, and the variables they bind have none.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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
    counted,
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
# Parser

# The kinds of syntax tuples; the module docstring gives their fields.
DATA, DEF, ROW, CLAUSE = "data", "def", "row", "clause"
APP, ARROW, PI, FN = "app", "arrow", "pi", "fn"


class Syntax(NamedTuple):
    """What the parser returns: the tokens, and the syntax read from them as
    plain tuples over token positions."""

    tokens: Tokens
    tree: object  # a list of declarations, or one expression

    @property
    def span(self) -> SourceSpan:
        """From the start of the first token to the end of the last one before
        EOF; the text has at least one."""
        tokens = self.tokens
        first, last = tokens[0], tokens[tokens.kinds.index("EOF") - 1]
        end_col = last.col + len(last.text) - 1
        return SourceSpan(tokens.file, first.line, first.col, last.line, end_col)


# Tokens that end a constructor row: the next row or declaration.
_ROW_END = ("BAR", "data", "def", "EOF")


class _Parser:
    """Reads a `Tokens` record through one cursor, `pos`, an index into its
    lists."""

    def __init__(self, tokens: Tokens):
        # The parser looks at most two tokens past the current one, and its
        # scans stop at EOF, so two more EOFs keep every index in range. They
        # are appended in place, as the lists belong to this parse: the
        # tokens of its `Syntax` end with three EOFs.
        for column in (tokens.kinds, tokens.texts, tokens.lines, tokens.cols):
            column += column[-1:] * 2
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.pos = 0

    def expect(self, kind: str, what: str) -> int:
        """The index of the current token, which must be a `kind`; the
        cursor moves past it."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise _unexpected(what, self.tokens[pos])
        self.pos = pos + 1
        return pos

    # declarations

    def file(self) -> list[tuple]:
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

    def data_decl(self) -> tuple:
        start = self.expect("data", "'data'")
        name = self.expect("IDENT", "a data type name")
        tele = self.tele()
        self.expect("COLON", "':'")
        self.expect("Type", "'Type'")
        rows = []
        while self.kinds[self.pos] == "BAR":
            rows.append(self.ctor_row())
        return (DATA, start, rows[-1][2] if rows else name, name, tele, tuple(rows))

    def def_decl(self) -> tuple:
        start = self.expect("def", "'def'")
        name = self.expect("IDENT", "a function name")
        tele = self.tele()
        self.expect("COLON", "':'")
        result = self.expr()
        last = self.pos - 1
        clauses = []
        while self.kinds[self.pos] == "BAR":
            clauses.append(self.clause())
            last = clauses[-1][2]
        return (DEF, start, last, name, tele, result, tuple(clauses))

    def ctor_row(self) -> tuple:
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
            pats = self.pat_list()
            self.expect("FATARROW", "'=>'")
        name = self.expect("IDENT", "a constructor name")
        return (ROW, bar, name, pats, self.tele())

    def clause(self) -> tuple:
        bar = self.expect("BAR", "'|'")
        pats = self.pat_list()
        if self.kinds[self.pos] != "FATARROW":
            return (CLAUSE, bar, bar, pats, None)
        self.pos += 1
        body = self.expr()
        return (CLAUSE, bar, self.pos - 1, pats, body)

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

    def tele(self) -> tuple:
        groups = []
        while colon := self.binder_group(self.pos):
            first = self.pos + 1
            self.pos = colon + 1
            ty = self.expr()
            self.expect("RPAREN", "')'")
            groups.append((first, colon, ty))
        return tuple(groups)

    # patterns

    def pat_list(self) -> tuple:
        pats = [self.pattern()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            pats.append(self.pattern())
        return tuple(pats)

    def pattern(self):
        if self.kinds[self.pos] == "impossible":
            return self.pat_atom()
        head = self.expect("IDENT", "a pattern")
        args = []
        while (atom := self.pat_atom()) is not None:
            args.append(atom)
        return (APP, head, self.pos - 1, head, *args) if args else head

    def pat_atom(self):
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "IDENT" or kind == "impossible":
            self.pos = pos + 1
            return pos
        if kind == "LPAREN":
            self.pos = pos + 1
            p = self.pattern()
            close = self.expect("RPAREN", "')'")
            if type(p) is int:
                return (APP, pos, close, p)
            return (APP, pos, close) + p[3:]
        return None

    # expressions

    def expr(self):
        """An expression, read with an explicit stack of the forms still
        open around it rather than one Python frame per level of nesting.

        A `fn`, Pi or arrow waits on the stack for its body or codomain, a
        Pi for its domain, and an application for the group that one of its
        atoms opens. An expression that fills a pair of parentheses is
        grouped: it is built with the group's positions, the group (on top
        of the stack) giving the first and the ")" due next the last.
        """
        kinds = self.kinds
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
                    stack.append((FN, pos, grouped))
                    pos += 3
                    grouped = False
                    continue
                if (
                    kind == "LPAREN"
                    and kinds[pos + 1] == "IDENT"
                    and kinds[pos + 2] == "COLON"
                ):
                    stack.append((_DOMAIN, pos, grouped))
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
                    atom = pos
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
                e = (APP, stack[-1][1], pos, head, *args)
            else:
                first = head if type(head) is int else head[1]
                e = (APP, first, pos - 1, head, *args)
            if arrow:
                pos += 1
                stack.append((ARROW, e, app_grouped))
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
                    if type(e) is int:
                        e = (APP, open_pos, pos, e)
                    elif e[1] != open_pos:  # a group just inside this one
                        e = (e[0], open_pos, pos) + e[3:]
                    pos += 1
                    if head is None:
                        head = e
                    else:
                        args.append(e)
                    resumed = head, args, app_grouped
                    break
                if form is _DOMAIN:  # `e` is the domain
                    _, start, g = frame
                    if kinds[pos] != "RPAREN":
                        raise _unexpected("')'", self.tokens[pos])
                    if kinds[pos + 1] != "ARROW":
                        raise _unexpected("'->'", self.tokens[pos + 1])
                    pos += 2
                    stack.append((PI, start, e, g))
                    grouped = False
                    break
                # A `fn`, Pi or arrow whose body or codomain is `e`. One that
                # fills a group takes the group's positions.
                g = frame[-1]
                last = pos if g else pos - 1
                if form is ARROW:
                    _, dom, _ = frame
                    first = stack[-1][1] if g else dom if type(dom) is int else dom[1]
                    e = (ARROW, first, last, dom, e)
                elif form is FN:
                    _, start, _ = frame
                    e = (FN, stack[-1][1] if g else start, last, start + 1, e)
                else:  # PI
                    _, start, dom, _ = frame
                    e = (PI, stack[-1][1] if g else start, last, start + 1, dom, e)
            else:
                self.pos = pos
                return e


# The forms `_Parser.expr` keeps open on its stack besides `fn`, Pi and arrow.
_GROUP, _DOMAIN = "group", "domain"


def _unexpected(what: str, tok: Token) -> ParseError:
    got = tok.text or "end of input"
    return ParseError(PARSE_ERROR, f"expected {what}, found {got!r}", tok.span)


def parse_file(text: str, file: str = "<input>") -> Syntax:
    """Parse a whole compilation unit."""
    tokens = tokenize(text, file)
    return Syntax(tokens, _Parser(tokens).file())


def parse_expression(text: str, file: str = "<expr>") -> Syntax:
    tokens = tokenize(text, file)
    parser = _Parser(tokens)
    e = parser.expr()
    parser.expect("EOF", "end of input")
    return Syntax(tokens, e)


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


_new_tuple = tuple.__new__


class Resolver:
    """Resolves parsed declarations into core ones, in order.

    Later declarations see earlier ones; a declaration also sees itself (for
    recursive fields and clauses). The declared names stay for later calls,
    so an expression resolves against the file resolved before it.
    """

    def __init__(self) -> None:
        self.globals: dict[str, _Global] = {}

    def run(self, syntax: Syntax) -> list[Declaration]:
        self._read(syntax.tokens)
        return [self._decl(d) for d in syntax.tree]

    def resolve_expression(self, syntax: Syntax) -> Term:
        """Resolve a standalone expression against the declared globals."""
        self._read(syntax.tokens)
        return self._term(syntax.tree, [{}])

    def _read(self, tokens: Tokens) -> None:
        self.texts, self.lines, self.cols = tokens.texts, tokens.lines, tokens.cols
        self.file = tokens.file

    def _span(self, first: int, last: int) -> SourceSpan:
        """The span from the start of token `first` to the end of token
        `last`. Tokens come in source order and none is empty, so it is
        built without the start-before-end check of `SourceSpan(...)`."""
        lines, cols = self.lines, self.cols
        end_col = cols[last] + len(self.texts[last]) - 1
        return _new_tuple(
            SourceSpan, (self.file, lines[first], cols[first], lines[last], end_col)
        )

    # declarations

    def _declare(self, name: str, entry: _Global, span, *, same_data_ok: str = "") -> None:
        existing = self.globals.get(name)
        if existing is not None:
            if existing.kind == "ctor" and existing.owner == same_data_ok:
                return  # another selection row for the same constructor
            raise ResolveError(DUPLICATE_DECL, f"duplicate name {name}", span)
        self.globals[name] = entry

    def _decl(self, d: tuple) -> Declaration:
        kind = d[0]
        if kind is DATA:
            _, first, last, name_at, stele, rows = d
            name, span = self.texts[name_at], self._span(first, last)
            scope: dict[str, Var] = {}
            tele = self._tele(stele, scope, span)
            self._declare(
                name, _Global("data", len(tele), tuple(x.text for x, _ in tele)), span
            )
            core_rows = tuple(self._row(name, tele, scope, r) for r in rows)
            return DataDecl(name, tele, core_rows, span)
        if kind is DEF:
            _, first, last, name_at, stele, sresult, sclauses = d
            name, span = self.texts[name_at], self._span(first, last)
            scope = {}
            tele = self._tele(stele, scope, span)
            result = self._term(sresult, [scope])
            self._declare(
                name, _Global("func", len(tele), tuple(x.text for x, _ in tele)), span
            )
            clauses = tuple(self._clause(c) for c in sclauses)
            return FuncDecl(name, tele, result, clauses, span)
        raise InternalError(f"unexpected declaration {d!r}")

    def _tele(self, groups, scope: dict[str, Var], span) -> Telescope:
        entries: list[tuple[Var, Term]] = []
        for first, colon, sty in groups:
            ty = self._term(sty, [scope])
            for n in self.texts[first:colon]:
                var = self._bind(n, span)
                if n in scope:
                    raise ResolveError(
                        DUPLICATE_DECL, f"duplicate telescope binder {n}", span
                    )
                scope[n] = var
                entries.append((var, ty))
        return Telescope(tuple(entries))

    def _row(self, data_name, data_tele, data_scope, r: tuple) -> CtorRow:
        _, bar, name_at, spats, stele = r
        name, span = self.texts[name_at], self._span(bar, name_at)
        if spats is None:
            fields_scope = dict(data_scope)
            fields = self._tele(stele, fields_scope, span)
            pats = None
            binds = len(data_tele)
        else:
            pat_scope: dict[str, Var] = {}
            pats = tuple(self._pattern(p, pat_scope) for p in spats)
            binds = len(pat_scope)
            fields_scope = pat_scope
            fields = self._tele(stele, fields_scope, span)
        self._declare(
            name,
            _Global(
                "ctor",
                binds + len(fields),
                tuple(fields_scope.keys()),
                fields_arity=len(fields),
                owner=data_name,
            ),
            span,
            same_data_ok=data_name,
        )
        return CtorRow(name, fields, pats, span)

    def _clause(self, c: tuple) -> Clause:
        # Clause bodies see the pattern bindings only; the telescope's
        # variables are substituted away by the checker.
        _, bar, last, spats, sbody = c
        pat_scope: dict[str, Var] = {}
        pats = tuple(self._pattern(p, pat_scope) for p in spats)
        body = self._term(sbody, [pat_scope]) if sbody is not None else None
        return Clause(pats, body, self._span(bar, last))

    # patterns

    def _pattern(self, p, scope: dict[str, Var]) -> Pattern:
        if type(p) is int:
            first = last = head = p
            sargs = ()
        elif p[0] is APP:
            first, last, head, sargs = p[1], p[2], p[3], p[4:]
        else:
            raise InternalError(f"unexpected pattern {p!r}")
        span = self._span(first, last)
        name = self.texts[head]
        if name == "impossible":  # the keyword: no identifier is spelt so
            return ImpossiblePat(span)
        entry = self.globals.get(name)
        if entry is not None and entry.kind == "ctor":
            args = []
            for a in sargs:
                args.append(self._pattern(a, scope))
            return ConPat(name, tuple(args), span)
        if sargs:
            raise ResolveError(UNKNOWN_IDENT, f"unknown constructor {name}", span)
        var = Var.fresh(name)
        scope[name] = var
        return BindPat(var, None, span)

    # expressions

    def _bind(self, name: str, span) -> Var:
        entry = self.globals.get(name)
        if entry is not None and entry.kind == "ctor":
            raise ResolveError(
                SHADOWS_CTOR, f"binder {name} shadows a constructor", span
            )
        return Var.fresh(name)

    def _term(self, e, scopes: list[dict[str, Var]]) -> Term:
        if type(e) is int:
            first = last = head = e
            args = ()
        else:
            kind = e[0]
            if kind is APP:
                # An application is resolved in this one frame: its arguments
                # first, then its head, a local binder before a global.
                first, last, head = e[1], e[2], e[3]
                args = ()
                if len(e) > 4:
                    resolved: list[Term] = []
                    for a in e[4:]:
                        resolved.append(self._term(a, scopes))
                    args = tuple(resolved)
                if type(head) is not int:
                    if head[0] is APP and len(head) == 4:  # a name in parentheses
                        head = head[3]
                    else:
                        inner = self._term(head, scopes)
                        try:
                            return apply_spine(inner, args)
                        except InternalError:
                            raise ResolveError(
                                BAD_APPLICATION,
                                "this expression cannot take arguments",
                                self._span(first, last),
                            ) from None
            elif kind is ARROW:
                _, first, last, sdom, scod = e
                dom = self._term(sdom, scopes)
                cod = self._term(scod, scopes)
                return Pi(Var.fresh("_"), dom, cod, self._span(first, last))
            elif kind is PI:
                _, first, last, binder, sdom, scod = e
                span = self._span(first, last)
                dom = self._term(sdom, scopes)
                name = self.texts[binder]
                var = self._bind(name, span)
                cod = self._term(scod, scopes + [{name: var}])
                return Pi(var, dom, cod, span)
            elif kind is FN:
                _, first, last, binder, sbody = e
                span = self._span(first, last)
                name = self.texts[binder]
                var = self._bind(name, span)
                body = self._term(sbody, scopes + [{name: var}])
                return Lam(var, body, span)
            else:
                raise InternalError(f"unexpected expression {e!r}")
        # A name or `Type` at token `head`, applied to `args`. No binder or
        # global is named `Type`: it is a keyword.
        span = self._span(first, last)
        name = self.texts[head]
        i = len(scopes)
        while i:
            i -= 1
            var = scopes[i].get(name)
            if var is not None:
                return VarCall(var, args, span)
        entry = self.globals.get(name)
        if entry is None:
            if name == "Type":
                if args:
                    raise ResolveError(
                        BAD_APPLICATION, "this expression cannot take arguments", span
                    )
                return Univ(span)
            # The span of the head as written: a name alone, even in
            # parentheses, is its whole application.
            h = e[3] if args else e
            at = self._span(h, h) if type(h) is int else self._span(h[1], h[2])
            raise ResolveError(UNKNOWN_IDENT, f"unknown identifier {name}", at)
        # A fully applied global is built here; `_apply_global` expands
        # the partial applications and reports the bad ones.
        kind = entry.kind
        if kind == "ctor":
            if len(args) == entry.fields_arity:
                return ConCall(name, args, span)
        elif len(args) == entry.arity:
            call = FnCall if kind == "func" else DataCall
            return call(name, args, span)
        return self._apply_global(name, entry, args, span)

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
            k = entry.fields_arity
            takes = counted(k, "argument") + (" (or none)" if k else "")
            raise ResolveError(
                BAD_APPLICATION, f"constructor {name} takes {takes}, got {n}", span
            )
        if n > entry.arity:
            raise ResolveError(
                BAD_APPLICATION,
                f"{name} takes {counted(entry.arity, 'argument')}, got {n}",
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


def resolve(syntax: Syntax) -> list[Declaration]:
    """Resolve a parsed file into core declarations."""
    return Resolver().run(syntax)
