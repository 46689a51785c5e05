"""Every syntax-tree class keeps what `@dataclass(frozen=True)` guaranteed:
no instance dict, no assignment or deletion, `==` and `hash` blind to
`span`, and the same `repr` and `__match_args__`.
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
from sit.frontend import (
    SApp,
    SArrow,
    SClause,
    SCtorRow,
    SData,
    SDef,
    SFn,
    SPatApp,
    SPatImpossible,
    SPi,
    SRef,
    SUniv,
)
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
    (SRef, ("x",), "SRef(name='x')", ("name", "span")),
    (SUniv, (), "SUniv()", ("span",)),
    (SApp, (SRef("f"), (SUniv(),)), "SApp(head=SRef(name='f'), args=(SUniv(),))",
     ("head", "args", "span")),
    (SArrow, (SUniv(), SUniv()), "SArrow(domain=SUniv(), codomain=SUniv())",
     ("domain", "codomain", "span")),
    (SPi, ("x", SUniv(), SRef("x")), "SPi(binder='x', domain=SUniv(), codomain=SRef(name='x'))",
     ("binder", "domain", "codomain", "span")),
    (SFn, ("x", SRef("x")), "SFn(binder='x', body=SRef(name='x'))", ("binder", "body", "span")),
    (SPatApp, ("c", (SPatImpossible(),)), "SPatApp(name='c', args=(SPatImpossible(),))",
     ("name", "args", "span")),
    (SPatImpossible, (), "SPatImpossible()", ("span",)),
    (SCtorRow, (None, "c", ((("x",), SUniv()),)),
     "SCtorRow(patterns=None, name='c', tele=((('x',), SUniv()),))",
     ("patterns", "name", "tele", "span")),
    (SClause, ((SPatApp("x"),), SRef("x")),
     "SClause(patterns=(SPatApp(name='x', args=()),), body=SRef(name='x'))",
     ("patterns", "body", "span")),
    (SData, ("D", (), ()), "SData(name='D', tele=(), rows=())", ("name", "tele", "rows", "span")),
    (SDef, ("f", (), SUniv(), ()), "SDef(name='f', tele=(), result=SUniv(), clauses=())",
     ("name", "tele", "result", "clauses", "span")),
]


def _pair(cls, fields):
    """Two nodes with the same fields; their spans differ if they have one."""
    if "span" in cls.__match_args__:
        return cls(*fields, A), cls(*fields, B)
    return cls(*fields), cls(*fields)


@pytest.mark.parametrize(
    "cls, fields, text, match_args", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_node_contract(cls, fields, text, match_args):
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


def test_equality_needs_the_same_class():
    assert FnCall("f", ()) != DataCall("f", ())
    assert SRef("x") != "x"
    assert ConCall("c", (N,)) != ConCall("c", (Univ(),))
