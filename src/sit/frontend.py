"""Surface syntax: the lexer, and one pass from tokens to core declarations.

Concrete grammar (line comments start with `--`, `->` is right-associative,
application binds tighter than `->`):

    file    ::= decl*
    decl    ::= "data" ID tele ":" "Type" ctorRow*
              | "def" ID tele ":" expr clause*
    ctorRow ::= "|" (patList "=>")? ID tele
    clause  ::= "|" patList? ("=>" expr)?
    patList ::= pat ("," pat)*
    pat     ::= ID patAtom* | "impossible"
    patAtom ::= ID | "impossible" | "(" pat ")"
    tele    ::= ("(" ID+ ":" expr ")")*
    expr    ::= "fn" ID "=>" expr | "(" ID ":" expr ")" "->" expr
              | expr1 ("->" expr)?
    expr1   ::= atom+
    atom    ::= ID | "Type" | "(" expr ")"

A clause's pattern list is empty only before "=>": `| => e` is the clause of
a function with no parameters. A plain constructor row (no patterns and no
"=>") is read as the pattern row it stands for, one catch-all per binder of
the data telescope, so every constructor is selected by its row's match.

The lexer cuts each line into pieces in one `findall` pass, blanks and
comments included, so the pieces' lengths give each token's column. Its
output is four parallel lists (kind, text, line and column, one entry per
token) rather than one object per token: strings and small integers are not
tracked by the cyclic garbage collector, so a file's tokens add nothing to
its passes. The pass below reads the lists through one cursor; a `Token` is
built only for an error message or for a reader of `tokenize`'s result.

Declarations are read in order, and whether a pattern name is a constructor
or a binder depends only on the declarations above it, so one pass reads the
tokens straight into core declarations, resolving each form as it is read.
`tokenize` cuts the text; `Resolver.run` and `Resolver.resolve_expression`
do the pass. Pattern identifiers naming a declared constructor become
constructor patterns, all other identifiers bind; expression heads resolve
to local binders, then functions, then data types, then constructors.
Under-applied heads are expanded to lambdas over their missing parameters,
so core terms stay fully applied. Fresh binders are made in reading order,
except that an application's arguments come before its head name, a Pi
binder after its domain and an arrow's `_` after its codomain.

Declarations, telescopes and patterns are read by recursive descent.
Expressions are read by one loop over an explicit stack of the forms still
open (parentheses, Pi domains, and `fn`, Pi and arrow bodies), which also
holds the scopes that `fn` and Pi open, so no nesting depth of an
expression exhausts Python's stack.

The pass stops at the first error it meets, a parse error or a resolve
error alike, in reading order, except that an application's argument atoms
are resolved before its head name; a head in parentheses that is more than
a name is resolved when its group closes, before the arguments after it.
An error about a declared name, a binder or a pattern's head points at
that name.

Each core node gets one location, a `SourceSpan` made once from the token
lists: where its form's text starts, at its first token. A form that fills
a pair of parentheses starts at their "(", the outermost pair's when it
fills several. The lambdas of an expanded head share its location, and so
do the uses of the variables they bind, so an error on one points at the
head. A head in parentheses applied to arguments gives a grown spine or a
beta-reduct, whose root is copied to take the application's location. The
catch-alls of a plain row are spelt by no source text, so they have no
location.
"""
from __future__ import annotations

import codecs
import re
from collections import namedtuple

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


class Token(namedtuple("Token", "kind text file line col")):
    """One token and where it starts. `kind` is IDENT, one of KEYWORDS, LPAREN,
    RPAREN, COLON, COMMA, BAR, FATARROW, ARROW or EOF; `text` is "" for EOF."""

    __slots__ = ()

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col)


class Tokens:
    """The tokens of one text as four parallel lists, one entry per token
    and EOF last. Indexing, and so iterating, builds each entry's `Token`."""

    __slots__ = ("kinds", "texts", "lines", "cols", "file", "__weakref__")

    def __init__(self, kinds: list[str], texts: list[str], lines: list[int],
                 cols: list[int], file: str) -> None:
        self.kinds = kinds
        self.texts = texts
        self.lines = lines
        self.cols = cols
        self.file = file

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.texts[i], self.file, self.lines[i], self.cols[i])

    @property
    def span(self) -> SourceSpan:
        """Where the first token starts."""
        return SourceSpan(self.file, self.lines[0], self.cols[0])


def decode_source(data: bytes, file: str) -> str:
    """The text of a UTF-8 source file, each newline read as "\n" (as a file
    opened in text mode reads it). An undecodable byte is a lex error at its
    line and column.

    A leading byte-order mark is dropped before decoding, so that the
    position of a bad byte counts from the first character after it; a
    U+FEFF anywhere else is an unexpected character."""
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lines = _newlines(data[: err.start].decode("utf-8")).split("\n")
        line, col = len(lines), len(lines[-1]) + 1
        raise LexError(
            LEX_ERROR,
            f"invalid UTF-8 byte 0x{data[err.start]:02x}",
            SourceSpan(file, line, col),
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
                        span = SourceSpan(file, line, col)
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
# Parser and resolver


def parse_file(text: str, file: str = "<input>") -> Tokens:
    """The tokens of a whole compilation unit, for `Resolver.run`. Kept,
    like `parse_expression`, for `bench/` alone, which calls it by name."""
    return tokenize(text, file)


def parse_expression(text: str, file: str = "<expr>") -> Tokens:
    """The tokens of a standalone expression, for
    `Resolver.resolve_expression`."""
    return tokenize(text, file)


class _Global:
    __slots__ = ("kind", "arity", "hints", "owner", "counts")

    def __init__(self, kind: type[DataCall | FnCall | ConCall], arity: int,
                 hints: tuple[str, ...], owner: str = "") -> None:
        self.kind = kind  # the node a full call builds
        # The arguments a full call takes: a constructor's fields at its
        # first row; `counts` holds the field count of each of its rows.
        self.arity = arity
        self.counts = (arity,)
        # One binder name per parameter, for eta-expansion: a constructor's
        # parameters are its first row's bindings, then its fields.
        self.hints = hints
        self.owner = owner  # a constructor's data type


class Resolver:
    """Reads declarations into core ones, in order.

    Later declarations see earlier ones; a declaration also sees itself (for
    recursive fields and clauses). The declared names are all a resolver
    keeps between calls, so an expression resolves against the file read
    before it.
    """

    def __init__(self) -> None:
        self.globals: dict[str, _Global] = {}

    def run(self, tokens: Tokens) -> list[Declaration]:
        """The core declarations of a file's tokens."""
        return _Reader(tokens, self.globals).decls()

    def resolve_expression(self, tokens: Tokens) -> Term:
        """Resolve a standalone expression against the declared globals."""
        return _Reader(tokens, self.globals).expression()


# Tokens that end a constructor row: the next row or declaration.
_ROW_END = ("BAR", "data", "def", "EOF")

# Tokens that start an argument of a pattern.
_PATTERN_ARG = ("IDENT", "impossible", "LPAREN")

# The forms `_Reader.expr` keeps open on its stack.
_GROUP, _DOMAIN, _PI, _FN, _ARROW = "group", "domain", "pi", "fn", "arrow"

_new_tuple = tuple.__new__


class _Reader:
    """Reads a `Tokens` record through one cursor, `pos`, an index into its
    lists, declaring what it reads in `globals` and building core terms as
    it goes."""

    def __init__(self, tokens: Tokens, globals: dict[str, _Global]):
        self.tokens = tokens
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.lines, self.cols, self.file = tokens.lines, tokens.cols, tokens.file
        self.globals = globals
        self.pos = 0

    def expect(self, kind: str, what: str) -> int:
        """The index of the current token, which must be a `kind`; the
        cursor moves past it."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise _unexpected(what, self.tokens[pos])
        self.pos = pos + 1
        return pos

    def decls(self) -> list[Declaration]:
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

    def expression(self) -> Term:
        e = self.expr([{}])
        self.expect("EOF", "end of input")
        return e

    def _span(self, first: int) -> SourceSpan:
        """Where token `first` starts. Built as a plain tuple: the
        namedtuple's own constructor is one more Python call per node."""
        return _new_tuple(SourceSpan, (self.file, self.lines[first], self.cols[first]))

    # declarations

    def declare(self, at: int, entry: _Global) -> None:
        """Declare the name at token `at`. A constructor's name may name
        several rows of its data type, each adding its field count."""
        name = self.texts[at]
        existing = self.globals.get(name)
        if existing is None:
            self.globals[name] = entry
        elif existing.kind is not ConCall or existing.owner != entry.owner:
            raise ResolveError(
                DUPLICATE_DECL, f"duplicate name {name}", self._span(at)
            )
        elif entry.arity not in existing.counts:
            existing.counts += (entry.arity,)

    def data_decl(self) -> DataDecl:
        start = self.expect("data", "'data'")
        name_at = self.expect("IDENT", "a data type name")
        name = self.texts[name_at]
        scope: dict[str, Var] = {}
        tele = self.tele(scope)
        self.expect("COLON", "':'")
        self.expect("Type", "'Type'")
        hints = tuple(x.text for x, _ in tele)
        self.declare(name_at, _Global(DataCall, len(tele), hints))
        rows = []
        while self.kinds[self.pos] == "BAR":
            rows.append(self.ctor_row(name, scope))
        return DataDecl(name, tele, tuple(rows), self._span(start))

    def def_decl(self) -> FuncDecl:
        start = self.expect("def", "'def'")
        name_at = self.expect("IDENT", "a function name")
        scope: dict[str, Var] = {}
        tele = self.tele(scope)
        self.expect("COLON", "':'")
        result = self.expr([scope])
        hints = tuple(x.text for x, _ in tele)
        self.declare(name_at, _Global(FnCall, len(tele), hints))
        clauses = []
        while self.kinds[self.pos] == "BAR":
            clauses.append(self.clause())
        span = self._span(start)
        return FuncDecl(self.texts[name_at], tele, result, tuple(clauses), span)

    def ctor_row(self, data_name: str, data_scope: dict[str, Var]) -> CtorRow:
        bar = self.expect("BAR", "'|'")
        # A plain row's name is followed by a telescope group or the row's
        # end, and neither can follow a pattern's head: anything else starts
        # a pattern row, which must reach "=>".
        kinds, pos = self.kinds, self.pos
        if kinds[pos] == "IDENT" and (
            kinds[pos + 1] in _ROW_END or self.binder_group(pos + 1)
        ):
            # A plain row: one catch-all per data telescope binder, binding
            # the very variables its fields resolve against.
            scope = dict(data_scope)
            pats = tuple([BindPat(x) for x in data_scope.values()])
        else:
            scope = {}
            pats = self.pat_list(scope)
            self.expect("FATARROW", "'=>'")
        name_at = self.expect("IDENT", "a constructor name")
        fields = self.tele(scope)
        self.declare(name_at, _Global(ConCall, len(fields), tuple(scope), data_name))
        return CtorRow(self.texts[name_at], fields, pats, span=self._span(bar))

    def clause(self) -> Clause:
        # Clause bodies see the pattern bindings only; the telescope's
        # variables are substituted away by the checker.
        bar = self.expect("BAR", "'|'")
        scope: dict[str, Var] = {}
        # An empty pattern list, for a function with no parameters, only
        # before "=>".
        pats = () if self.kinds[self.pos] == "FATARROW" else self.pat_list(scope)
        if self.kinds[self.pos] != "FATARROW":
            return Clause(pats, None, self._span(bar))
        self.pos += 1
        body = self.expr([scope])
        return Clause(pats, body, self._span(bar))

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

    def tele(self, scope: dict[str, Var]) -> Telescope:
        """A telescope, its binders added to `scope`."""
        entries: list[tuple[Var, Term]] = []
        while colon := self.binder_group(self.pos):
            first = self.pos + 1
            self.pos = colon + 1
            ty = self.expr([scope])
            self.expect("RPAREN", "')'")
            for at in range(first, colon):
                var = self.bind(at)
                name = var.text
                if name in scope:
                    message = f"duplicate telescope binder {name}"
                    raise ResolveError(DUPLICATE_DECL, message, self._span(at))
                scope[name] = var
                entries.append((var, ty))
        return Telescope(tuple(entries))

    def bind(self, at: int) -> Var:
        """A fresh variable for the binder at token `at`."""
        name = self.texts[at]
        entry = self.globals.get(name)
        if entry is not None and entry.kind is ConCall:
            raise ResolveError(
                SHADOWS_CTOR, f"binder {name} shadows a constructor", self._span(at)
            )
        return Var.fresh(name)

    # patterns: a name naming a declared constructor is one, any other binds

    def pat_list(self, scope: dict[str, Var]) -> tuple[Pattern, ...]:
        pats = [self.pattern(scope)]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            pats.append(self.pattern(scope))
        return tuple(pats)

    def pattern(self, scope: dict[str, Var], group: int = -1) -> Pattern:
        """A name and its arguments, or `impossible`. Inside the parentheses
        that open at token `group`, it reads their ")" and starts at their
        "("."""
        kinds = self.kinds
        head = self.pos
        args = []
        if kinds[head] == "impossible":
            self.pos += 1
        else:
            self.expect("IDENT", "a pattern")
            if kinds[self.pos] in _PATTERN_ARG:
                name = self.texts[head]
                entry = self.globals.get(name)
                if entry is None or entry.kind is not ConCall:
                    message = f"unknown constructor {name}"
                    raise ResolveError(UNKNOWN_IDENT, message, self._span(head))
                while kinds[pos := self.pos] in _PATTERN_ARG:
                    self.pos = pos + 1
                    if kinds[pos] == "LPAREN":
                        args.append(self.pattern(scope, pos))
                    else:
                        args.append(self.pat_node(pos, (), pos, scope))
        if group < 0:
            return self.pat_node(head, tuple(args), head, scope)
        self.expect("RPAREN", "')'")
        return self.pat_node(head, tuple(args), group, scope)

    def pat_node(self, head: int, args: tuple, first: int, scope) -> Pattern:
        span = self._span(first)
        name = self.texts[head]
        if name == "impossible":  # the keyword: no identifier is spelt so
            return ImpossiblePat(span)
        entry = self.globals.get(name)
        if entry is not None and entry.kind is ConCall:
            return ConPat(name, args, span)
        var = Var.fresh(name)
        scope[name] = var
        return BindPat(var, span)

    # expressions

    def expr(self, scopes: list[dict[str, Var]]) -> Term:
        """An expression resolved in `scopes`, innermost last, read with an
        explicit stack of the forms still open around it rather than one
        Python frame per level of nesting.

        A `fn`, Pi or arrow waits on the stack for its body or codomain, a
        Pi for its domain, and an application for the group that one of its
        atoms opens; a `fn` or Pi keeps its binder's scope on `scopes` until
        it closes. An application is resolved when it ends, its arguments
        before its head name. An expression that fills a pair of
        parentheses starts at their "(", the outermost pair's when it fills
        several; a name alone in the group at an application's head
        is resolved with that application's arguments.
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
                    var = self.bind(pos + 1)
                    scopes.append({var.text: var})
                    stack.append((_FN, pos, grouped, var))
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
                # The head, where its name as written starts, and the
                # arguments.
                head, hf, args, app_grouped = None, 0, [], grouped
            else:
                head, hf, args, app_grouped = resumed
                resumed = None
            # An application: a head atom, then argument atoms while they
            # come. "(x :" as an argument can only open a Pi's parentheses.
            while True:
                kind = kinds[pos]
                if kind == "IDENT" or kind == "Type":
                    if head is None:
                        head = hf = pos
                    else:
                        args.append(self.name(pos, (), pos, scopes))
                    pos += 1
                elif kind == "LPAREN":
                    stack.append((_GROUP, pos, head, hf, args, app_grouped))
                    pos += 1
                    grouped = True
                    break
                elif head is None:
                    raise _unexpected("an expression", self.tokens[pos])
                else:
                    break
            if kind == "LPAREN":
                continue  # the group first; its closing resumes this
            arrow = kinds[pos] == "ARROW"
            fills = app_grouped and not arrow  # the group on top of the stack
            if type(head) is not int:
                e = head
                if args:
                    span = self._span(self.filled(stack, pos) if fills else hf)
                    try:
                        e = apply_spine(head, tuple(args))
                    except InternalError:
                        raise ResolveError(
                            BAD_APPLICATION, "this expression cannot take arguments", span
                        ) from None
                    # The grown spine or the beta-reduct stands for the whole
                    # application: a copy of its root takes its span, which
                    # is every term class's last field.
                    fields = type(e).__match_args__[:-1]
                    e = type(e)(*[getattr(e, f) for f in fields], span)
            elif not fills:
                e = self.name(head, tuple(args), hf, scopes, hf)
            elif args or stack[-1][2] is not None:
                e = self.name(head, tuple(args), self.filled(stack, pos), scopes, hf)
            else:
                e = head  # a name alone in a group at an application's head
            if arrow:
                pos += 1
                stack.append((_ARROW, hf, app_grouped, e))
                grouped = False
                continue
            # `e` is complete: close each form it completes.
            while stack:
                frame = stack.pop()
                form = frame[0]
                if form is _GROUP:
                    _, open_pos, head, hf, args, app_grouped = frame
                    if kinds[pos] != "RPAREN":
                        raise _unexpected("')'", self.tokens[pos])
                    if head is None:  # the group is the head
                        head, hf = e, open_pos
                    else:
                        args.append(e)
                    pos += 1
                    resumed = head, hf, args, app_grouped
                    break
                if form is _DOMAIN:  # `e` is the domain
                    _, start, g = frame
                    if kinds[pos] != "RPAREN":
                        raise _unexpected("')'", self.tokens[pos])
                    if kinds[pos + 1] != "ARROW":
                        raise _unexpected("'->'", self.tokens[pos + 1])
                    var = self.bind(start + 1)
                    scopes.append({var.text: var})
                    stack.append((_PI, start, g, var, e))
                    pos += 2
                    grouped = False
                    break
                # A `fn`, Pi or arrow whose body or codomain is `e`, starting
                # at token `start` unless it fills a group.
                start = frame[1]
                span = self._span(self.filled(stack, pos) if frame[2] else start)
                if form is _ARROW:
                    e = Pi(Var.fresh("_"), frame[3], e, span)
                    continue
                scopes.pop()
                if form is _FN:
                    e = Lam(frame[3], e, span)
                else:
                    e = Pi(frame[3], frame[4], e, span)
            else:
                self.pos = pos
                return e

    def filled(self, stack: list[tuple], pos: int) -> int:
        """The first token of an expression that ends before token `pos` and
        fills the group on top of `stack`: its "(", or that of the outermost
        group it fills."""
        kinds = self.kinds
        i = len(stack) - 1
        if kinds[pos] == "RPAREN":
            # The group fills the one below it when it is the head of an
            # application that starts that group and ends with it.
            while stack[i][2] is None and stack[i][5] and kinds[pos + 1] == "RPAREN":
                i -= 1
                pos += 1
        return stack[i][1]

    def name(self, head: int, args: tuple[Term, ...], first: int, scopes, hf=0) -> Term:
        """The name or `Type` at token `head` applied to `args`, starting at
        token `first`: a local binder before a global. With arguments, the
        name as written starts at token `hf`."""
        span = self._span(first)
        name = self.texts[head]
        i = len(scopes)
        while i:
            i -= 1
            var = scopes[i].get(name)
            if var is not None:
                return VarCall(var, args, span)
        entry = self.globals.get(name)
        if entry is None:
            # No binder or global is named `Type`: it is a keyword.
            if name != "Type":
                at = self._span(hf) if args else span
                raise ResolveError(UNKNOWN_IDENT, f"unknown identifier {name}", at)
            if args:
                raise ResolveError(
                    BAD_APPLICATION, "this expression cannot take arguments", span
                )
            return Univ(span)
        # A fully applied global is built here; `apply_global` expands the
        # partial applications and reports the bad ones.
        if len(args) == entry.arity:
            return entry.kind(name, args, span)
        return self.apply_global(name, entry, args, span)

    def apply_global(
        self, name: str, entry: _Global, args: tuple[Term, ...], span
    ) -> Term:
        """A global applied to fewer or more arguments than it takes: a
        constructor applied to as many as one of its later rows has fields
        is a full call, whose row the checker selects by type; an
        under-applied global, or a constructor with none, is expanded to
        lambdas over its first row's missing parameters; any other is an
        error."""
        n = len(args)
        kind = entry.kind
        if kind is ConCall and n:
            if n in entry.counts:
                return ConCall(name, args, span)
            k = sorted(entry.counts)
            takes = counted(k[0], "argument") if len(k) == 1 else (
                " or ".join(map(str, k)) + " arguments"
            )
            takes += " (or none)" if k[0] else ""
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
        full = args + tuple(VarCall(v, (), span) for v in missing)
        # A constructor's call takes only its fields, the trailing parameters.
        call: Term = kind(name, full[len(full) - entry.arity :], span)
        for v in reversed(missing):
            call = Lam(v, call, span)
        return call


def _unexpected(what: str, tok: Token) -> ParseError:
    got = "end of input" if tok.kind == "EOF" else repr(tok.text)
    return ParseError(PARSE_ERROR, f"expected {what}, found {got}", tok.span)
