"""Every core node class keeps what `@dataclass(frozen=True)` guaranteed:
no instance dict, no assignment or deletion, `==` and `hash` blind to
`span`, and the same `repr` and `__match_args__`.

Every surface form (the ids that start with "S") is a plain tuple over
token positions, or a bare token index, with the same guarantees: it holds
no span, so the same text parsed at another place in a file gives an equal
form with an equal hash, while its first and last tokens still give where
it is.
"""
from __future__ import annotations

import pytest

from sit.core import (
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
    Pi,
    Telescope,
    Univ,
    Var,
    VarCall,
)
from sit.coverage import Undecidable
from sit.diagnostics import SourceSpan
from sit.frontend import APP, ARROW, CLAUSE, DATA, DEF, FN, PI, ROW, parse_file
from sit.pattern_ops import Matched, Mismatch, Stuck

X = Var("x", 1)
A = SourceSpan("a.sit", 1, 1, 1, 3)
B = SourceSpan("b.sit", 2, 4, 3, 1)
N = VarCall(X)
TELE = Telescope(((X, Univ()),))

# Class, the fields of a sample node (its span is added when the class has
# one), and the `repr` and `__match_args__` that a frozen dataclass gave it.
CASES = [
    (FnCall, ("f", (N,)), "FnCall(name='f', args=(VarCall(var=x#1, args=()),))",
     ("name", "args", "span")),
    (VarCall, (X, (Univ(),)), "VarCall(var=x#1, args=(Univ(),))", ("var", "args", "span")),
    (DataCall, ("D", ()), "DataCall(name='D', args=())", ("name", "args", "span")),
    (ConCall, ("c", (N,)), "ConCall(name='c', args=(VarCall(var=x#1, args=()),))",
     ("name", "args", "span")),
    (Pi, (X, Univ(), N), "Pi(binder=x#1, domain=Univ(), codomain=VarCall(var=x#1, args=()))",
     ("binder", "domain", "codomain", "span")),
    (Lam, (X, N), "Lam(binder=x#1, body=VarCall(var=x#1, args=()))", ("binder", "body", "span")),
    (Univ, (), "Univ()", ("span",)),
    (Telescope, (((X, Univ()),),), "Telescope(entries=((x#1, Univ()),))", ("entries",)),
    (BindPat, (X, Univ()), "BindPat(var=x#1, ty=Univ())", ("var", "ty", "span")),
    (ConPat, ("c", (BindPat(X),)), "ConPat(name='c', args=(BindPat(var=x#1, ty=None),))",
     ("name", "args", "span")),
    (ImpossiblePat, (), "ImpossiblePat()", ("span",)),
    (CtorRow, ("c", TELE, None),
     "CtorRow(name='c', fields=Telescope(entries=((x#1, Univ()),)), patterns=None)",
     ("name", "fields", "patterns", "span")),
    (Clause, ((ImpossiblePat(),), None), "Clause(patterns=(ImpossiblePat(),), body=None)",
     ("patterns", "body", "span")),
    (DataDecl, ("D", TELE, ()),
     "DataDecl(name='D', telescope=Telescope(entries=((x#1, Univ()),)), ctors=())",
     ("name", "telescope", "ctors", "span")),
    (FuncDecl, ("f", TELE, Univ(), ()),
     "FuncDecl(name='f', telescope=Telescope(entries=((x#1, Univ()),)), result=Univ(), "
     "clauses=())",
     ("name", "telescope", "result", "clauses", "span")),
    (Matched, ({X: N},), "Matched(sub={x#1: VarCall(var=x#1, args=())})", ("sub",)),
    (Mismatch, (), "Mismatch()", ()),
    (Stuck, (2,), "Stuck(position=2)", ("position",)),
    (Undecidable, ("c", 1), "Undecidable(ctor='c', position=1)", ("ctor", "position")),
]


SRC = """\
data Fin (n : Nat) : Type
  | suc m => fz
  | suc m => fs (i : Fin m)
def f (n : Nat) : Nat -> Nat
  | suc (m) => fn x => x
  | zero, impossible
  | zero => (x : Type) -> f x
"""

# Id, where the form sits in the declarations of SRC, the form, and the
# texts of its first and last token.
SYNTAX_CASES = [
    ("SRef", (1, 6, 0, 4, 4), 45, "x", "x"),
    ("SUniv", (1, 6, 2, 4, 4), 56, "Type", "Type"),
    ("SApp", (1, 6, 2, 4, 5), (APP, 59, 60, 59, 60), "f", "x"),
    ("SArrow", (1, 5), (ARROW, 33, 35, 33, 35), "Nat", "Nat"),
    ("SPi", (1, 6, 2, 4), (PI, 53, 60, 54, 56, (APP, 59, 60, 59, 60)), "(", "x"),
    ("SFn", (1, 6, 0, 4), (FN, 42, 45, 43, 45), "fn", "x"),
    ("SPatApp", (1, 6, 0, 3, 0), (APP, 37, 40, 37, (APP, 38, 40, 39)), "suc", ")"),
    ("SPatImpossible", (1, 6, 1, 3, 1), 49, "impossible", "impossible"),
    ("SCtorRow", (0, 5, 1),
     (ROW, 14, 18, ((APP, 15, 16, 15, 16),), ((20, 21, (APP, 22, 23, 22, 23)),)), "|", "fs"),
    ("SClause", (1, 6, 1), (CLAUSE, 46, 46, (47, 49), None), "|", "|"),
    ("SData", (0,),
     (DATA, 0, 18, 1, ((3, 4, 5),), (
         (ROW, 9, 13, ((APP, 10, 11, 10, 11),), ()),
         (ROW, 14, 18, ((APP, 15, 16, 15, 16),), ((20, 21, (APP, 22, 23, 22, 23)),)),
     )), "data", "fs"),
    ("SDef", (1,),
     (DEF, 25, 60, 26, ((28, 29, 30),), (ARROW, 33, 35, 33, 35), (
         (CLAUSE, 36, 45, ((APP, 37, 40, 37, (APP, 38, 40, 39)),), (FN, 42, 45, 43, 45)),
         (CLAUSE, 46, 46, (47, 49), None),
         (CLAUSE, 50, 60, (51,), (PI, 53, 60, 54, 56, (APP, 59, 60, 59, 60))),
     )), "def", "x"),
]


def _form(syntax, path):
    form = syntax.tree
    for i in path:
        form = form[i]
    return form


def _pair(cls, fields):
    """Two nodes with the same fields; their spans differ if they have one."""
    if "span" in cls.__match_args__:
        return cls(*fields, A), cls(*fields, B)
    return cls(*fields), cls(*fields)


def _node_contract(cls, fields, text, match_args):
    node, other = _pair(cls, fields)
    assert not hasattr(node, "__dict__")
    for name in match_args + ("extra",):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    for name in match_args:
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == other and not node != other
    if cls is Matched:  # its substitution is a dict
        with pytest.raises(TypeError):
            hash(node)
    else:
        assert hash(node) == hash(other)
    assert repr(node) == text
    assert cls.__match_args__ == match_args
    if "span" in match_args:
        assert (node.span, other.span) == (A, B)


def _syntax_contract(path, expected, first_text, last_text):
    syntax = parse_file(SRC, "a.sit")
    moved = parse_file("\n\n  " + SRC, "b.sit")
    form, other = _form(syntax, path), _form(moved, path)
    assert type(form) is type(expected)
    assert form == expected and other == form and not other != form
    assert hash(other) == hash(form)
    first, last = (form, form) if type(form) is int else form[1:3]
    assert first <= last
    tokens = syntax.tokens
    assert (tokens.texts[first], tokens.texts[last]) == (first_text, last_text)
    assert (moved.tokens[first].line, moved.tokens[first].file) == (
        tokens[first].line + 2, "b.sit"
    )


@pytest.mark.parametrize(
    "check, case",
    [pytest.param(_node_contract, c, id=c[0].__name__) for c in CASES]
    + [pytest.param(_syntax_contract, c[1:], id=c[0]) for c in SYNTAX_CASES],
)
def test_node_contract(check, case):
    check(*case)


def test_equality_needs_the_same_class():
    assert FnCall("f", ()) != DataCall("f", ())
    assert Univ() != ()
    assert ConCall("c", (N,)) != ConCall("c", (Univ(),))
