"""Core term language: spine-normal terms, telescopes, patterns, declarations,
signatures, and capture-avoiding substitution.

Every head symbol (function, data type, constructor) is fully applied to its
declared arity; partial application only exists for variables, whose spines
may grow. Binders are globally unique `Var`s carrying a surface name for
printing.

The term walks (`free_vars`, `_subst`, `alpha_eq`, `pretty`, and those of
`evaluator`, `pattern_ops` and `typecheck`) visit every node
of every term the checker builds, so their cost per node sets the speed of
the whole pipeline. They branch on `type(t) is C`, most frequent class
first, and not on `match` class patterns: under CPython 3.11 a class
pattern is an `isinstance` test plus one attribute fetch per sub-pattern,
and dispatching a `ConCall` through a six-case `match` took 0.33 µs against
0.01 µs for a chain of `type(t) is` tests (timeit, net of the call, on an
Intel Xeon). They loop over arguments with plain `for` loops, not `all()`
or `tuple()` over a generator: every frame a level adds lowers the nesting
a recursive walk takes before `RecursionError`. `alpha_eq` is one loop over
an explicit stack, so it takes any nesting. `Var` is a named tuple, so it
hashes and compares in C.

Every pass builds nodes as it goes, so the cost of building one counts as
much as the cost of visiting it. Tree classes derive from `Node`, which
keeps its fields in slots and stores them through the slots' descriptors.
A frozen dataclass stores each field through `object.__setattr__` into an
instance dict: a `ConCall` took 0.79 µs to build that way against 0.66 µs
as a `Node`, its two cache slots included, and a `Pi` 1.09 against 0.77 µs
(timeit, net of the call, same host). Creating the class at import took
0.87 ms for a frozen dataclass and 0.08 ms for a `Node`.
"""
from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .diagnostics import InternalError, SourceSpan

_uid = itertools.count(1)


class Var(NamedTuple):
    """A binder identity: surface text plus a globally unique id.

    Every set and map of the walks is keyed by vars, so a var is a named
    tuple: it hashes and compares in C, not through Python-level methods.
    """

    text: str
    uid: int

    @staticmethod
    def fresh(text: str = "x") -> Var:
        return Var(text, next(_uid))

    def __repr__(self) -> str:
        return f"{self.text}#{self.uid}"


# ---------------------------------------------------------------------------
# Syntax-tree nodes


class Node:
    """The base of every syntax-tree class: an immutable record in slots.

    A subclass annotates its fields, in constructor order and with `span`
    last if it has one; they are its `__match_args__`, and a field with a
    default (`span` always defaults to None) names it in `_defaults`. Its
    `__slots__` are the fields followed by any caches, which start as None
    and are filled in later with `object.__setattr__`. `==`, `hash` and
    `repr` read the fields except `span`, and assignment and deletion raise.

    Each subclass gets an `__init__` that stores every slot through the
    slot's own descriptor, since `__setattr__` raises; the module docstring
    gives the measured cost.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must declare __slots__")
        fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        compared = tuple(f for f in fields if f != "span")
        cls._compared = compared
        cls._key = attrgetter(*compared) if compared else staticmethod(_no_fields)
        # def __init__(self, name, args, span=None):
        #     _set_name(self, name); ...; _set__fv(self, None)
        defaults = {"span": None, **cls._defaults}
        scope = {f"_set_{s}": getattr(cls, s).__set__ for s in cls.__slots__}
        scope.update((f"_default_{f}", v) for f, v in defaults.items())
        params = ", ".join(f"{f}=_default_{f}" if f in defaults else f for f in fields)
        body = "; ".join(
            f"_set_{s}(self, {s if s in fields else None})" for s in cls.__slots__
        )
        exec(f"def __init__(self, {params}):\n    {body or 'pass'}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"


def _no_fields(node: Node) -> tuple[()]:
    return ()


# ---------------------------------------------------------------------------
# Terms


class FnCall(Node):
    """A function applied to exactly its telescope."""

    __slots__ = ("name", "args", "span", "_fv")
    name: str
    args: tuple[Term, ...]
    span: Optional[SourceSpan]


class VarCall(Node):
    """A variable applied to a (possibly empty) spine of arguments."""

    __slots__ = ("var", "args", "span", "_fv")
    var: Var
    args: tuple[Term, ...]
    span: Optional[SourceSpan]
    _defaults = {"args": ()}


class DataCall(Node):
    """An inductive type applied to exactly its telescope."""

    __slots__ = ("name", "args", "span", "_fv")
    name: str
    args: tuple[Term, ...]
    span: Optional[SourceSpan]


class ConCall(Node):
    """A constructor applied to exactly its field telescope."""

    __slots__ = ("name", "args", "span", "_fv", "_spine_normal")
    name: str
    args: tuple[Term, ...]
    span: Optional[SourceSpan]


class Pi(Node):
    __slots__ = ("binder", "domain", "codomain", "span", "_fv")
    binder: Var
    domain: Term
    codomain: Term
    span: Optional[SourceSpan]


class Lam(Node):
    __slots__ = ("binder", "body", "span", "_fv")
    binder: Var
    body: Term
    span: Optional[SourceSpan]


class Univ(Node):
    __slots__ = ("span", "_fv")
    span: Optional[SourceSpan]


Term = FnCall | VarCall | DataCall | ConCall | Pi | Lam | Univ

UNIV = Univ()


# ---------------------------------------------------------------------------
# Telescopes


class Telescope(Node):
    """An ordered list of typed bindings; later types may mention earlier vars.

    The checker's context is a telescope too: the in-scope bindings, oldest
    first.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[Var, Term], ...]
    _defaults = {"entries": ()}

    @staticmethod
    def of(*entries: tuple[Var, Term]) -> Telescope:
        return Telescope(tuple(entries))

    def extended(self, var: Var, ty: Term) -> Telescope:
        return Telescope(self.entries + ((var, ty),))

    def lookup(self, var: Var) -> Optional[Term]:
        """The type of the latest binding of `var`, or None."""
        for x, ty in reversed(self.entries):
            if x == var:
                return ty
        return None

    def __iter__(self) -> Iterator[tuple[Var, Term]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


EMPTY_TELESCOPE = Telescope()


# ---------------------------------------------------------------------------
# Patterns


class BindPat(Node):
    """A catch-all pattern; its type is filled in by pattern checking."""

    __slots__ = ("var", "ty", "span")
    var: Var
    ty: Optional[Term]
    span: Optional[SourceSpan]
    _defaults = {"ty": None}


class ConPat(Node):
    __slots__ = ("name", "args", "span")
    name: str
    args: tuple[Pattern, ...]
    span: Optional[SourceSpan]
    _defaults = {"args": ()}


class ImpossiblePat(Node):
    __slots__ = ("span",)
    span: Optional[SourceSpan]


Pattern = BindPat | ConPat | ImpossiblePat


def pattern_has_impossible(p: Pattern) -> bool:
    c = type(p)
    if c is BindPat:
        return False
    if c is ConPat:
        for q in p.args:
            if pattern_has_impossible(q):
                return True
        return False
    return c is ImpossiblePat


# ---------------------------------------------------------------------------
# Declarations and signatures


class CtorRow(Node):
    """One constructor of a data declaration.

    `patterns` is None for a plain constructor; a pattern row selects the
    constructor only at instantiations its patterns match.
    """

    __slots__ = ("name", "fields", "patterns", "span")
    name: str
    fields: Telescope
    patterns: Optional[tuple[Pattern, ...]]
    span: Optional[SourceSpan]
    _defaults = {"patterns": None}


class Clause(Node):
    """One function clause; the body is absent iff a pattern is impossible."""

    __slots__ = ("patterns", "body", "span")
    patterns: tuple[Pattern, ...]
    body: Optional[Term]
    span: Optional[SourceSpan]


class DataDecl(Node):
    __slots__ = ("name", "telescope", "ctors", "span")
    name: str
    telescope: Telescope
    ctors: tuple[CtorRow, ...]
    span: Optional[SourceSpan]


class FuncDecl(Node):
    __slots__ = ("name", "telescope", "result", "clauses", "span", "_inspected_columns")
    name: str
    telescope: Telescope
    result: Term
    clauses: tuple[Clause, ...]
    span: Optional[SourceSpan]

    @property
    def inspected_columns(self) -> frozenset[int]:
        """The argument positions where some clause has a pattern other than
        a plain binder."""
        cols = self._inspected_columns
        if cols is None:
            cols = frozenset(
                i
                for cl in self.clauses
                for i, p in enumerate(cl.patterns)
                if not isinstance(p, BindPat)
            )
            object.__setattr__(self, "_inspected_columns", cols)
        return cols


Declaration = DataDecl | FuncDecl


class Signature:
    """An ordered list of declarations with name lookup tables.

    `add` appends a declaration in place, and `copy` gives an independent
    signature to grow. Data, function, and constructor names
    share one global namespace, except that a data declaration may repeat a
    constructor name across several of its own rows (each row is an
    alternative selection of the same constructor).
    """

    def __init__(self, decls: Iterable[Declaration] = ()) -> None:
        self.decls: list[Declaration] = []
        self._datas: dict[str, DataDecl] = {}
        self._funcs: dict[str, FuncDecl] = {}
        self._ctor_owner: dict[str, DataDecl] = {}
        for decl in decls:
            self.add(decl)

    def add(self, decl: Declaration) -> None:
        """Append `decl`; only `decl` is indexed."""
        self.decls.append(decl)
        self._index(decl)

    def replace_last(self, decl: Declaration) -> None:
        """Put `decl` in place of the last declaration, which declared the
        same names (a checked declaration replaces its unchecked source)."""
        self.decls[-1] = decl
        self._index(decl)

    def _index(self, decl: Declaration) -> None:
        if isinstance(decl, DataDecl):
            self._datas[decl.name] = decl
            for row in decl.ctors:
                self._ctor_owner[row.name] = decl
        else:
            self._funcs[decl.name] = decl

    def copy(self) -> Signature:
        out = object.__new__(Signature)
        out.decls = list(self.decls)
        out._datas = dict(self._datas)
        out._funcs = dict(self._funcs)
        out._ctor_owner = dict(self._ctor_owner)
        return out

    def data(self, name: str) -> Optional[DataDecl]:
        return self._datas.get(name)

    def func(self, name: str) -> Optional[FuncDecl]:
        return self._funcs.get(name)

    def ctor_owner(self, name: str) -> Optional[DataDecl]:
        """The data declaration that introduces constructor `name`."""
        return self._ctor_owner.get(name)

    def declares(self, name: str) -> bool:
        return name in self._datas or name in self._funcs or name in self._ctor_owner


# ---------------------------------------------------------------------------
# Capture-avoiding substitution


# A substitution is a plain `dict[Var, Term]`. `subst` applies it all at
# once: a replacement never acts on the value of another, so a value may
# mention a variable that the map also replaces. A match yields one in
# binding order, and a telescope is instantiated by growing one as its
# entries are checked, so each entry type is walked once.

_NO_VARS: frozenset[Var] = frozenset()


def free_vars(t: Term) -> frozenset[Var]:
    """The variables free in `t`, as an immutable set.

    The set is computed once per term object and cached on it. A node
    shares a child's set when the union adds nothing. A bare variable is
    the exception: it is the most common node, a set cached on each would
    cost memory, and its answer takes no walk.
    """
    fv = getattr(t, "_fv", None)
    if fv is not None:
        return fv
    c = type(t)
    if c is VarCall:
        fv = frozenset((t.var,))
        if not t.args:
            return fv
        sets = [fv]
        for a in t.args:
            sets.append(free_vars(a))
        fv = _union(sets)
    elif c is ConCall or c is FnCall or c is DataCall:
        sets = []
        for a in t.args:
            sets.append(free_vars(a))
        fv = _union(sets)
    elif c is Pi:
        fv = _union([free_vars(t.domain), _bound(t.binder, free_vars(t.codomain))])
    elif c is Lam:
        fv = _bound(t.binder, free_vars(t.body))
    elif c is Univ:
        fv = _NO_VARS
    else:
        raise InternalError(f"unexpected term {t!r}")
    object.__setattr__(t, "_fv", fv)
    return fv


def _union(sets: list[frozenset[Var]]) -> frozenset[Var]:
    out = _NO_VARS
    for s in sets:
        if not s <= out:
            out = s if not out else out | s
    return out


def _bound(x: Var, fv: frozenset[Var]) -> frozenset[Var]:
    return fv - {x} if x in fv else fv


def apply_spine(t: Term, args: tuple[Term, ...]) -> Term:
    """Apply a term to extra arguments, staying inside the spine-normal grammar.

    Variables grow their spine and lambdas beta-reduce; any other head cannot
    take arguments, which elaboration is responsible for ruling out.
    """
    if not args:
        return t
    match t:
        case VarCall(x, spine):
            return VarCall(x, spine + args)
        case Lam(x, body):
            return apply_spine(_subst(body, {x: args[0]}), args[1:])
        case _:
            raise InternalError(f"cannot apply {t!r} to arguments")


def subst(t: Term, m: dict[Var, Term]) -> Term:
    """Replace each free variable of `m`'s domain by its value, all at once,
    renaming binders that would capture a value's free variables.

    Subterms in which no such variable is free are returned, not copied.
    """
    return _subst(t, m)


def _subst(t: Term, m: dict[Var, Term]) -> Term:
    c = type(t)
    if c is VarCall and not t.args:
        return m.get(t.var, t)
    if free_vars(t).isdisjoint(m):
        return t
    if c is ConCall or c is FnCall or c is DataCall or c is VarCall:
        new_args = []
        for a in t.args:
            new_args.append(_subst(a, m))
        if c is VarCall:
            v = m.get(t.var)
            if v is not None:
                return apply_spine(v, tuple(new_args))
            return VarCall(t.var, tuple(new_args))
        return c(t.name, tuple(new_args))
    if c is Pi:
        new_dom = _subst(t.domain, m)
        y, cod = _subst_under(t.binder, t.codomain, m)
        return Pi(y, new_dom, cod)
    if c is Lam:
        return Lam(*_subst_under(t.binder, t.body, m))
    raise InternalError(f"unexpected term {t!r}")


def _subst_under(y: Var, body: Term, m: dict[Var, Term]) -> tuple[Var, Term]:
    """The binder and body of `y. body` after substituting `m` into it."""
    m = {x: v for x, v in m.items() if x != y and x in free_vars(body)}
    if not m:
        return y, body
    if any(y in free_vars(v) for v in m.values()):
        # A replacement would be captured: rename the binder too.
        fresh = Var.fresh(y.text)
        m[y] = VarCall(fresh)
        y = fresh
    return y, _subst(body, m)


# ---------------------------------------------------------------------------
# Equality and printing


def alpha_eq(u: Term, v: Term) -> bool:
    """Equality up to renaming of bound variables and eta for lambdas:
    `fn x => f x` equals `f`.

    One loop walks both terms, keeping what it has yet to compare on an
    explicit stack, so nesting has no depth limit. `left` renames each
    binder of `u` in scope to the binder of `v` at the same place, and
    `right` renames back; a variable not in scope maps to itself. Two
    variables are equal when each side renames to the other, so a variable
    bound on one side never equals one free, or bound elsewhere, on the
    other, and the comparison is symmetric. Entering a binder pair pushes
    both outer renamings, which are put back once everything under the
    binders is compared. An eta step binds the lambda's binder to a new
    variable, numbered below zero so that it occurs in neither term. A node
    of no term class equals nothing.
    """
    left: dict[Var, Var] = {}
    right: dict[Var, Var] = {}
    etas = 0
    # Pairs of terms left to compare, and pairs of (binder, outer renaming)
    # that end a binder pair's scope.
    stack: list[tuple] = []
    while True:
        c = type(u)
        if c is not type(v):
            # Eta: `fn x => b` and `f` are equal when `b` and `f w` are.
            etas += 1
            if c is Lam and type(v) is VarCall:
                x, y = u.binder, Var(u.binder.text, -etas)
                u, v = u.body, VarCall(v.var, v.args + (VarCall(y),))
            elif c is VarCall and type(v) is Lam:
                x, y = Var(v.binder.text, -etas), v.binder
                u, v = VarCall(u.var, u.args + (VarCall(x),)), v.body
            else:
                return False
            stack.append(((x, left.get(x, x)), (y, right.get(y, y))))
            left[x], right[y] = y, x
            continue
        if c is ConCall or c is FnCall or c is DataCall or c is VarCall:
            if c is VarCall:
                x, y = u.var, v.var
                if left.get(x, x) != y or right.get(y, y) != x:
                    return False
            elif u.name != v.name:
                return False
            us, vs = u.args, v.args
            if len(us) != len(vs):
                return False
            if us:
                # The first arguments are compared next, the others later.
                if len(us) > 1:
                    stack.extend(zip(us[1:], vs[1:]))
                u, v = us[0], vs[0]
                continue
        elif c is Pi or c is Lam:
            if c is Pi:
                stack.append((u.domain, v.domain))
            x, y = u.binder, v.binder
            stack.append(((x, left.get(x, x)), (y, right.get(y, y))))
            left[x], right[y] = y, x
            u, v = (u.codomain, v.codomain) if c is Pi else (u.body, v.body)
            continue
        elif c is tuple:
            # A binder pair's scope has ended: put back the outer renamings.
            left[u[0]], right[v[0]] = u[1], v[1]
        elif c is not Univ:
            return False
        if not stack:
            return True
        u, v = stack.pop()


def pretty(t: Term) -> str:
    """Render a term for diagnostics and output; binders print by surface text."""
    c = type(t)
    if c is ConCall or c is FnCall or c is DataCall:
        head = t.name
    elif c is VarCall:
        head = t.var.text
    elif c is Pi:
        x, dom, cod = t.binder, t.domain, t.codomain
        if x in free_vars(cod):
            return f"({x.text} : {pretty(dom)}) → {pretty(cod)}"
        if type(dom) is Pi or type(dom) is Lam:
            return f"({pretty(dom)}) → {pretty(cod)}"
        return f"{pretty(dom)} → {pretty(cod)}"
    elif c is Lam:
        return f"fn {t.binder.text} => {pretty(t.body)}"
    elif c is Univ:
        return "Type"
    else:
        raise InternalError(f"unexpected term {t!r}")
    if not t.args:
        return head
    parts = [head]
    for a in t.args:
        s = pretty(a)
        # An argument is an atom when it is `Type` or a head with no arguments.
        ca = type(a)
        if ca is Univ or (ca is not Pi and ca is not Lam and not a.args):
            parts.append(s)
        else:
            parts.append(f"({s})")
    return " ".join(parts)


def pretty_pattern(p: Pattern) -> str:
    match p:
        case BindPat(x, _):
            return x.text
        case ImpossiblePat():
            return "impossible"
        case ConPat(name, args):
            if not args:
                return name
            parts = [name]
            for q in args:
                s = pretty_pattern(q)
                parts.append(f"({s})" if isinstance(q, ConPat) and q.args else s)
            return " ".join(parts)
    raise InternalError(f"unexpected pattern {p!r}")
