"""Every core node class keeps what `@dataclass(frozen=True)` guaranteed:
no instance dict, no assignment or deletion, `==` and `hash` blind to
`span`, and the same `repr` and `__match_args__`.

Every surface form (the ids that start with "S") is read straight into one
core node of a known class. Its span runs from the form's first token to its
last, and the same text read two lines lower in another file gives the same
node, but for its variables' ids, with its span two lines lower.
"""
from __future__ import annotations

import re

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
from sit.frontend import Resolver, tokenize
from sit.pattern_ops import Matched, Mismatch, Stuck

X = Var("x", 1)
A = SourceSpan("a.sit", 1, 1)
B = SourceSpan("b.sit", 2, 4)
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
    (BindPat, (X,), "BindPat(var=x#1)", ("var", "span")),
    (ConPat, ("c", (BindPat(X),)), "ConPat(name='c', args=(BindPat(var=x#1),))",
     ("name", "args", "span")),
    (ImpossiblePat, (), "ImpossiblePat()", ("span",)),
    (CtorRow, ("c", TELE, None, TELE),
     "CtorRow(name='c', fields=Telescope(entries=((x#1, Univ()),)), patterns=None, "
     "binders=Telescope(entries=((x#1, Univ()),)))",
     ("name", "fields", "patterns", "binders", "span")),
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
data Nat : Type
  | zero
  | suc (n : Nat)
data Fin (n : Nat) : Type
  | suc m => fz
  | suc m => fs (i : Fin m)
def f (n : Nat) : Nat -> Nat
  | suc (m) => fn x => x
  | zero, impossible
  | zero => (x : Type) -> f x
"""

# Id, the path to the node in the declarations of SRC (an attribute name or
# an index per step), its class, and the index and text of the first token
# of its form.
SYNTAX_CASES = [
    ("SRef", (2, "clauses", 0, "body", "body"), VarCall, (58, "x")),
    ("SUniv", (2, "clauses", 2, "body", "domain"), Univ, (69, "Type")),
    ("SApp", (2, "clauses", 2, "body", "codomain"), FnCall, (72, "f")),
    ("SArrow", (2, "result"), Pi, (46, "Nat")),
    ("SPi", (2, "clauses", 2, "body"), Pi, (66, "(")),
    ("SFn", (2, "clauses", 0, "body"), Lam, (55, "fn")),
    ("SPatApp", (2, "clauses", 0, "patterns", 0), ConPat, (50, "suc")),
    ("SPatImpossible", (2, "clauses", 1, "patterns", 1), ImpossiblePat, (62, "impossible")),
    ("SCtorRow", (1, "ctors", 1), CtorRow, (27, "|")),
    ("SClause", (2, "clauses", 1), Clause, (59, "|")),
    ("SData", (1,), DataDecl, (13, "data")),
    ("SDef", (2,), FuncDecl, (38, "def")),
]


def _at(decls, path):
    node = decls
    for step in path:
        node = getattr(node, step) if type(step) is str else node[step]
    return node


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


def _syntax_contract(path, cls, first):
    tokens = tokenize(SRC, "a.sit")
    moved = tokenize("\n\n  " + SRC, "b.sit")
    node, other = _at(Resolver().run(tokens), path), _at(Resolver().run(moved), path)
    assert type(node) is cls and type(other) is cls
    first, first_text = first
    assert tokens.texts[first] == first_text
    start = tokens[first]
    assert node.span == SourceSpan("a.sit", start.line, start.col)
    assert re.sub(r"#\d+", "", repr(other)) == re.sub(r"#\d+", "", repr(node))
    assert (other.span.file, other.span.start_line) == ("b.sit", start.line + 2)


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
