"""Shared test machinery: corpus loading, term builders, enumerators for
closed well-typed terms, a random pattern-row generator, a wide random
pattern matrix, a wall-clock deadline, and a brute-force first-order
unification oracle kept independent of the matcher it checks."""
from __future__ import annotations

import itertools
import random
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from sit.core import (
    BindPat,
    ConCall,
    ConPat,
    DataCall,
    DataDecl,
    FnCall,
    Pattern,
    Signature,
    Telescope,
    Term,
    Univ,
    Var,
    VarCall,
    subst,
)
from sit.coverage import Undecidable, available_ctors
from sit.evaluator import Fuel, index_normal_form
from sit.pattern_ops import to_term
from sit.typecheck import load

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


# Programs whose check evaluates its indices, in the shapes of the benchmark's
# `indexed` probes: constructor rows are selected at `plus`/`mul` indices, and
# each pattern nests one constructor per level. Each has a variant that fails
# at a computed index.
_NAT_PLUS = """\
data Nat : Type
  | zero
  | suc (n : Nat)

def plus (a : Nat) (b : Nat) : Nat
  | zero, b => b
  | suc a, b => suc (plus a b)
"""
_FIN = """
data Fin (n : Nat) : Type
  | suc m => fzero
  | suc m => fsuc (x : Fin m)
"""
_SUM = """
def mul (a : Nat) (b : Nat) : Nat
  | zero, b => zero
  | suc a, b => plus b (mul a b)

data Vec (A : Type) (n : Nat) : Type
  | A, zero => vnil
  | A, suc m => vcons (x : A) (xs : Vec A m)

def sum (xs : Vec Nat (mul (suc zero) (suc (suc zero)))) : Nat
"""
COMPUTED_INDEX_PROGRAMS = {
    "pick": _NAT_PLUS + _FIN + """
def pick (x : Fin (plus (suc zero) (suc zero))) : Nat
  | fzero => zero
  | fsuc fzero => suc zero
  | fsuc (fsuc impossible)
""",
    # fsuc's field is at Fin (plus n n), where fzero's row is stuck.
    "pick_E306": _NAT_PLUS + _FIN + """
def pick (n : Nat) (x : Fin (plus (suc zero) (plus n n))) : Nat
  | n, fzero => zero
  | n, fsuc fzero => suc zero
""",
    "sum": _NAT_PLUS + _SUM + "  | vcons x0 (vcons x1 vnil) => plus x0 (plus x1 zero)\n",
    # One element short: vnil is not available at Vec Nat (suc zero).
    "sum_E305": _NAT_PLUS + _SUM + "  | vcons x0 vnil => x0\n",
}


# Functions that take functions: `h` expects one from Bool, so `h suc` and
# `h (plus zero)` apply an eta-expanded head at the wrong domain, and `T`
# computes a type.
HIGHER_ORDER = """\
data Bool : Type
  | true
  | false

data Nat : Type
  | zero
  | suc (n : Nat)

def plus (a : Nat) (b : Nat) : Nat
  | zero, b => b
  | suc a, b => suc (plus a b)

def app (f : Nat -> Nat) (n : Nat) : Nat
  | f, n => f n

def twice (f : Nat -> Nat) (n : Nat) : Nat
  | f, n => f (f n)

def h (f : Bool -> Nat) : Nat
  | f => f true

def T (b : Bool) : Type
  | true => Nat
  | false => Bool
"""


def load_corpus(name: str) -> Signature:
    path = CORPUS / f"{name}.sit"
    return load(path.read_text(encoding="utf-8"), str(path)).sig


def check_source(text: str, coverage: bool = True) -> Signature:
    """Read and check a program given as a string."""
    return load(text, "<test>", coverage=coverage).sig


# Term builders.


def con(name: str, *args: Term) -> Term:
    return ConCall(name, tuple(args))


def dat(name: str, *args: Term) -> Term:
    return DataCall(name, tuple(args))


def fn(name: str, *args: Term) -> Term:
    return FnCall(name, tuple(args))


def ref(v: Var, *args: Term) -> Term:
    return VarCall(v, tuple(args))


def nat_lit(n: int) -> Term:
    t = con("zero")
    for _ in range(n):
        t = con("suc", t)
    return t


# ---------------------------------------------------------------------------
# Enumeration of closed well-typed terms


def enumerate_terms(sig: Signature, ty: Term, depth: int) -> Iterator[Term]:
    """All closed constructor terms of `ty` whose nesting height is <= depth.

    Type-valued positions enumerate the signature's unparameterized data
    types; function types and neutral types have no closed enumeration.
    """
    if depth <= 0:
        return
    fuel = Fuel()
    ty = index_normal_form(sig, ty, fuel)
    match ty:
        case Univ():
            for decl in sig.decls:
                if isinstance(decl, DataDecl) and not decl.telescope:
                    yield DataCall(decl.name, ())
        case DataCall(name, args):
            cases = available_ctors(sig, name, args, fuel)
            if isinstance(cases, Undecidable):
                return
            for ctor, fields in cases.items():
                for tup in enumerate_tuples(sig, fields, depth - 1):
                    yield ConCall(ctor, tup)
        case _:
            return


def enumerate_tuples(
    sig: Signature, tele: Telescope, depth: int
) -> Iterator[tuple[Term, ...]]:
    """All closed instantiations of a telescope, entry types refined left to
    right by the choices already made."""
    if not tele:
        yield ()
        return
    (x, ty), rest = tele.entries[0], Telescope(tele.entries[1:])
    for t in enumerate_terms(sig, ty, depth):
        refined = Telescope(tuple((y, subst(yty, {x: t})) for y, yty in rest))
        for more in enumerate_tuples(sig, refined, depth):
            yield (t,) + more


def index_tuples_with_one_var(
    sig: Signature, tele: Telescope, depth: int
) -> Iterator[tuple[Term, ...]]:
    """Closed telescope instantiations with one subterm replaced by a fresh
    free variable, at the top level or one constructor layer down."""
    for tup in enumerate_tuples(sig, tele, depth):
        for i, t in enumerate(tup):
            hole = VarCall(Var.fresh("k"))
            yield tup[:i] + (hole,) + tup[i + 1 :]
            if isinstance(t, ConCall):
                for j in range(len(t.args)):
                    poked = ConCall(
                        t.name, t.args[:j] + (hole,) + t.args[j + 1 :]
                    )
                    yield tup[:i] + (poked,) + tup[i + 1 :]


# ---------------------------------------------------------------------------
# Random pattern rows


class RowGen:
    """Generates well-typed pattern rows against telescopes of a signature."""

    def __init__(self, sig: Signature, rng: random.Random, con_prob: float = 0.6):
        self.sig = sig
        self.rng = rng
        self.con_prob = con_prob
        self._counter = itertools.count()

    def _fresh_name(self) -> str:
        return f"v{next(self._counter)}"

    def row(self, tele: Telescope, depth: int = 3) -> list[Pattern]:
        acc: dict[Var, Term] = {}
        pats: list[Pattern] = []
        for x, ty in tele:
            p = self.pattern(subst(ty, acc), depth)
            pats.append(p)
            acc[x] = to_term(p)
        return pats

    def pattern(self, ty: Term, depth: int) -> Pattern:
        fuel = Fuel()
        ty = index_normal_form(self.sig, ty, fuel)
        if depth > 0 and isinstance(ty, DataCall) and self.rng.random() < self.con_prob:
            cases = available_ctors(self.sig, ty.name, ty.args, fuel)
            if not isinstance(cases, Undecidable) and cases:
                ctor = self.rng.choice(sorted(cases))
                fields = cases[ctor]
                acc: dict[Var, Term] = {}
                args: list[Pattern] = []
                for w, fty in fields:
                    q = self.pattern(subst(fty, acc), depth - 1)
                    args.append(q)
                    acc[w] = to_term(q)
                return ConPat(ctor, tuple(args))
        return BindPat(Var.fresh(self._fresh_name()))


def wide_matrix(as_data: bool, columns: int = 20, rows: int = 60, seed: int = 1) -> str:
    """A program with one pattern matrix over `columns` `Bool` columns: `rows`
    rows that each fix 3 random columns, then a row of catch-alls. It is the
    clauses of a function `f`, or, `as_data`, the rows of one constructor `c`
    of a data type `M`, whose last row has a field."""
    rng = random.Random(seed)
    tele = " ".join(f"(x{j} : Bool)" for j in range(columns))
    lines = ["data Bool : Type", "  | true", "  | false",
             f"data M {tele} : Type" if as_data else f"def f {tele} : Bool"]
    for _ in range(rows):
        fixed = {j: rng.choice(("true", "false")) for j in rng.sample(range(columns), 3)}
        pats = ", ".join(fixed.get(j, f"a{j}") for j in range(columns))
        lines.append(f"  | {pats} => " + ("c" if as_data else "true"))
    pats = ", ".join(f"a{j}" for j in range(columns))
    lines.append(f"  | {pats} => " + ("c (y : Bool)" if as_data else "false"))
    return "\n".join(lines) + "\n"


@contextmanager
def deadline(seconds: float, what: str):
    """Raise TimeoutError in the block once `seconds` of wall time have
    passed, so a run that hangs fails its test."""

    def expire(*_):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def corpus_telescopes(sig: Signature) -> list[Telescope]:
    """Every nonempty telescope declared in the signature."""
    return [d.telescope for d in sig.decls if d.telescope]


# ---------------------------------------------------------------------------
# First-order unification oracle (used only by tests)


def oracle_unify(
    scrutinee: list[Term], pattern_terms: list[Term], flexible: set[Var]
) -> tuple:
    """Unify scrutinee terms against pattern terms, solving only for the
    pattern's variables.

    Processed as an equation worklist: a rigid head clash anywhere refutes
    the whole problem even if another equation is undecided; a constructor
    equated with any non-constructor rigid term (a variable of the
    scrutinee, a stuck call, a lambda, ...) is undecided. Returns
    ("unifies", solution), ("clash",), or ("undecided",).
    """
    eqs: list[tuple[Term, Term]] = list(zip(pattern_terms, scrutinee))
    solution: dict[Var, Term] = {}
    undecided = False
    while eqs:
        p, u = eqs.pop(0)
        if isinstance(p, VarCall) and not p.args and p.var in flexible:
            assert p.var not in solution, "patterns are linear"
            solution[p.var] = u
            continue
        if isinstance(p, ConCall):
            if isinstance(u, ConCall):
                if u.name != p.name:
                    return ("clash",)
                assert len(u.args) == len(p.args)
                eqs.extend(zip(p.args, u.args))
            else:
                undecided = True
            continue
        raise AssertionError(f"unexpected pattern-side term {p!r}")
    if undecided:
        return ("undecided",)
    return ("unifies", solution)
