"""Seeded inputs and their expected outcomes for the three workloads.

sit receives only the generated text. Every expected outcome is worked out
here, in plain Python and without importing sit:

- `eval` values are Python ints, bools and lists, rendered to the text that
  `sit eval` prints;
- a file's verdict is the error the generator injected (its code and the
  lines of the injected declaration), or acceptance;
- an accepted file's GADT text is rendered from the generator's own record of
  each data declaration.

Sizes sit on a log grid: each block of ops takes, for every op kind, one
size from the middle of each equal log-slice of the size range. Every block
therefore has the same mix of small and large inputs, whatever the seed. The
seed draws the rest (operands near fixed split points, list contents, tree
shapes, declaration mixes, which files carry which error), chosen so that an
op's cost is set by its size and kind rather than by the draw.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Union


@dataclass(frozen=True)
class Accept:
    """The file checks; `gadt` is what `sit translate` prints for it."""

    gadt: str


@dataclass(frozen=True)
class Reject:
    """The file fails with `code`, reported inside lines first..last."""

    code: str
    first: int
    last: int


@dataclass(frozen=True)
class Value:
    """`sit eval` prints `value`: a Python int (a Nat), bool or list of ints
    (a Vec of Nats)."""

    value: object

    @property
    def text(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, int):
            return nat(self.value)
        return vec_text(self.value)


Expect = Union[Accept, Reject, Value]


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    size: int  # declarations (files), index size (indexed), value size (eval)
    units: int  # declarations in the file; 1 for an eval expression
    text: str
    expect: Expect
    # The input is past the depth where today's recursive walks raise
    # RecursionError (ROADMAP item 2): that error counts as a failed op but
    # is the one failure that leaves a run correct.
    past_depth: bool = False


def log_grid(lo: float, hi: float, k: int) -> list[int]:
    """The midpoints of k equal log-slices of [lo, hi]."""
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (i + 0.5) / k)) for i in range(k)]


def _half(rng: random.Random, s: int) -> int:
    """About half of s: operand splits that keep an op's cost set by s."""
    return min(s, max(0, s // 2 + rng.randint(-2, 2)))


# ---------------------------------------------------------------------------
# Rendering shared by the generators and the oracle


def nat(n: int) -> str:
    """A Nat literal as sit prints it: zero, suc zero, suc (suc zero), ..."""
    if n == 0:
        return "zero"
    return "suc (" * (n - 1) + "suc zero" + ")" * (n - 1)


def atom(s: str) -> str:
    return s if " " not in s else f"({s})"


def chain(ctor: str, n: int, tail: str) -> str:
    """ctor (ctor (... tail)) with n constructors; the pattern form too."""
    if n == 0:
        return tail
    return f"{ctor} (" * (n - 1) + f"{ctor} {atom(tail)}" + ")" * (n - 1)


def vec_text(xs: list[int]) -> str:
    out = "vnil"
    for x in reversed(xs):
        out = f"vcons {atom(nat(x))} {atom(out)}"
    return out


NAT_DATA = "data Nat : Type\n  | zero\n  | suc (n : Nat)"
NAT_GADT = "data Nat : Type where\n  zero : Nat\n  suc : (n : Nat) → Nat\n"
PLUS_DEF = (
    "def plus (a : Nat) (b : Nat) : Nat\n"
    "  | zero, b => b\n"
    "  | suc a, b => suc (plus a b)"
)
MUL_DEF = (
    "def mul (a : Nat) (b : Nat) : Nat\n"
    "  | zero, b => zero\n"
    "  | suc a, b => plus b (mul a b)"
)


def fin_data(name: str, z: str, s: str) -> tuple[str, str]:
    text = (
        f"data {name} (n : Nat) : Type\n"
        f"  | suc m => {z}\n"
        f"  | suc m => {s} (x : {name} m)"
    )
    gadt = (
        f"data {name} : (n : Nat) → Type where\n"
        f"  {z} : (m : Nat) → {name} (suc m)\n"
        f"  {s} : (m : Nat) (x : {name} m) → {name} (suc m)\n"
    )
    return text, gadt


def vec_data(name: str, nil: str, cons: str) -> tuple[str, str]:
    text = (
        f"data {name} (A : Type) (n : Nat) : Type\n"
        f"  | A, zero => {nil}\n"
        f"  | A, suc m => {cons} (x : A) (xs : {name} A m)"
    )
    gadt = (
        f"data {name} : (A : Type) (n : Nat) → Type where\n"
        f"  {nil} : (A : Type) → {name} A zero\n"
        f"  {cons} : (A : Type) (m : Nat) (x : A) (xs : {name} A m) → {name} A (suc m)\n"
    )
    return text, gadt


def append_def(name: str, vec: str, nil: str, cons: str) -> str:
    return (
        f"def {name} (A : Type) (n : Nat) (m : Nat) (xs : {vec} A n) (ys : {vec} A m)"
        f" : {vec} A (plus n m)\n"
        f"  | A, zero, m, {nil}, ys => ys\n"
        f"  | A, suc n, m, {cons} x xs, ys => {cons} x ({name} A n m xs ys)"
    )


class _File:
    """Declarations joined by blank lines, tracking each one's line range."""

    def __init__(self) -> None:
        self.decls: list[str] = []
        self.gadt: list[str] = []
        self.next_line = 1

    def add(self, text: str, gadt: str | None = None) -> tuple[int, int]:
        first = self.next_line
        last = first + text.count("\n")
        self.decls.append(text)
        if gadt is not None:
            self.gadt.append(gadt)
        self.next_line = last + 2
        return first, last

    def text(self) -> str:
        return "\n\n".join(self.decls) + "\n"

    def translation(self) -> str:
        return "\n".join(self.gadt)


# ---------------------------------------------------------------------------
# files: generated .sit files of tens to about 1000 declarations

FILES_MIN_DECLS = 12
FILES_MAX_DECLS = 1000
# One file per size slice. With 15 slices, p50 and p90 (7.5 and 13.5 slices
# up) each fall in the middle of one slice's files, not between two slices.
FILES_PER_BLOCK = 15
# Slices whose file carries one injected error, in even and in odd blocks:
# 1 file in 6, from small to large, away from the p50 and p90 slices (7 and
# 13), since a rejected file (E201 stops at resolution) costs far less than
# an accepted one of its size.
FILE_ERROR_SLICES = ((1, 5, 11), (3, 9))
FILE_ERROR_CODES = ("E201", "E303", "E305", "E306", "E401")


class _FilesGen:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.f = _File()
        self.fins: list[int] = []
        self.vecs: list[int] = []
        self.uid = 0
        self.deck: list[str | int] = []

    def fresh(self) -> int:
        self.uid += 1
        return self.uid

    def add_fin(self) -> None:
        i = self.fresh()
        text, gadt = fin_data(f"Fin{i}", f"fz{i}", f"fs{i}")
        self.f.add(text, gadt)
        self.f.add(
            f"def toNat{i} (n : Nat) (x : Fin{i} n) : Nat\n"
            f"  | suc m, fz{i} => zero\n"
            f"  | suc m, fs{i} y => suc (toNat{i} m y)"
        )
        self.fins.append(i)

    def add_vec(self) -> None:
        i = self.fresh()
        text, gadt = vec_data(f"Vec{i}", f"vnil{i}", f"vcons{i}")
        self.f.add(text, gadt)
        self.f.add(append_def(f"append{i}", f"Vec{i}", f"vnil{i}", f"vcons{i}"))
        self.vecs.append(i)

    def draw(self) -> str | int:
        """The next declaration kind: each run of eight draws is a shuffled
        deck of a new Fin type, a new Vec type and the six function kinds, so
        every file mixes them in the same proportions."""
        if not self.deck:
            self.deck = ["fin", "vec", 0, 1, 2, 3, 4, 5]
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def add_function(self, kind: int) -> None:
        rng, j = self.rng, self.fresh()
        i = rng.choice(self.fins)
        v = rng.choice(self.vecs)
        match kind:
            case 0:
                self.f.add(
                    f"def emb{j} (n : Nat) (x : Fin{i} n) : Fin{i} (suc n)\n"
                    f"  | suc m, fz{i} => fz{i}\n"
                    f"  | suc m, fs{i} y => fs{i} (emb{j} m y)"
                )
            case 1:
                self.f.add(
                    f"def len{j} (A : Type) (n : Nat) (xs : Vec{v} A n) : Nat\n"
                    f"  | A, zero, vnil{v} => zero\n"
                    f"  | A, suc n, vcons{v} x xs => suc (len{j} A n xs)"
                )
            case 2:
                self.f.add(
                    f"def rep{j} (A : Type) (x : A) (n : Nat) : Vec{v} A n\n"
                    f"  | A, x, zero => vnil{v}\n"
                    f"  | A, x, suc n => vcons{v} x (rep{j} A x n)"
                )
            case 3:
                self.f.add(
                    f"def dbl{j} (n : Nat) : Nat\n"
                    f"  | zero => zero\n"
                    f"  | suc n => plus (suc (suc zero)) (dbl{j} n)"
                )
            case 4:
                self.f.add(
                    f"def twice{j} (A : Type) (n : Nat) (xs : Vec{v} A n)"
                    f" : Vec{v} A (plus n n)\n"
                    f"  | A, n, xs => append{v} A n n xs xs"
                )
            case 5:
                self.f.add(
                    f"def top{j} (n : Nat) : Fin{i} (suc (plus n n))\n"
                    f"  | n => fz{i}"
                )

    def add_error(self, code: str) -> Reject:
        j = self.fresh()
        i = self.rng.choice(self.fins)
        v = self.rng.choice(self.vecs)
        text = {
            "E201": f"def bad{j} (n : Nat) : Nat\n  | n => frob{j} n",
            "E303": f"def bad{j} (n : Nat) (v : Vec{v} Nat n) : Vec{v} Nat (suc n)\n"
            f"  | n, v => v",
            "E305": f"def bad{j} (n : Nat) : Vec{v} Nat (suc n)\n  | n => vnil{v}",
            "E306": f"def bad{j} (n : Nat) : Fin{i} (plus n (suc zero))\n  | n => fz{i}",
            "E401": f"def bad{j} (n : Nat) (x : Fin{i} n) : Nat\n  | suc m, fz{i} => zero",
        }[code]
        first, last = self.f.add(text)
        return Reject(code, first, last)

    def build(self, decls: int, error: str | None) -> tuple[str, Expect, int]:
        self.f.add(NAT_DATA, NAT_GADT)
        self.f.add(PLUS_DEF)
        self.add_fin()
        self.add_vec()
        # The error sits in the last tenth of the file, so a rejected file
        # costs about what an accepted one of its size does.
        first = max(len(self.f.decls), decls - max(1, decls // 10))
        inject_at = self.rng.randrange(first, decls) if error else None
        verdict: Expect | None = None
        while (n := len(self.f.decls)) < decls:
            pending = error is not None and verdict is None
            if pending and n >= inject_at:
                verdict = self.add_error(error)
                continue
            kind = self.draw()
            if kind == "fin" or kind == "vec":
                if n + 2 > (inject_at if pending else decls):
                    kind = self.rng.randrange(6)  # no room for a pair here
                else:
                    self.add_fin() if kind == "fin" else self.add_vec()
                    continue
            self.add_function(kind)
        if verdict is None:
            verdict = Accept(self.f.translation())
        return self.f.text(), verdict, len(self.f.decls)


def files_blocks(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"files/{seed}")
    index = 0
    codes = list(FILE_ERROR_CODES)
    rng.shuffle(codes)
    n_errors = 0
    grid = log_grid(FILES_MIN_DECLS, FILES_MAX_DECLS, FILES_PER_BLOCK)
    for number in itertools.count():
        specs = []
        for i, size in enumerate(grid):
            error = None
            if i in FILE_ERROR_SLICES[number % 2]:
                # Shift by one code every two blocks, so each code visits
                # every error slice.
                error = codes[(n_errors + number // 2) % len(codes)]
                n_errors += 1
            specs.append((size, error))
        rng.shuffle(specs)
        block = []
        for size, error in specs:
            text, expect, units = _FilesGen(rng).build(size, error)
            block.append(Op(index, error or "ok", units, units, text, expect))
            index += 1
        yield block


# ---------------------------------------------------------------------------
# indexed: small programs whose few declarations make the checker compute

INDEXED_HEADER = "\n\n".join(
    [
        NAT_DATA,
        PLUS_DEF,
        MUL_DEF,
        fin_data("Fin", "fzero", "fsuc")[0],
        vec_data("Vec", "vnil", "vcons")[0],
        append_def("append", "Vec", "vnil", "vcons"),
        "data Mix (n : Nat) : Type\n  | m => any\n  | suc m => pos (x : Nat)",
    ]
)
INDEXED_GADT = "\n".join(
    [
        NAT_GADT,
        fin_data("Fin", "fzero", "fsuc")[1],
        vec_data("Vec", "vnil", "vcons")[1],
        "data Mix : (n : Nat) → Type where\n"
        "  any : (m : Nat) → Mix m\n"
        "  pos : (m : Nat) (x : Nat) → Mix (suc m)\n",
    ]
)
INDEXED_DECLS = 7
INDEXED_MIN_K = 1
INDEXED_MAX_K = 24
INDEXED_SLICES = 6
INDEXED_KINDS = ("fin_plus", "fin_mul", "vec_split", "vec_build", "shift")
INDEXED_ERROR_KINDS = ("E306", "E402", "E305", "E401")


def _index_expr(rng: random.Random, k: int, op: str) -> str:
    """A closed Nat expression through plus or mul whose value is k. Both
    recurse on their first operand, so it is kept near half of k (plus) or
    at the largest divisor up to the square root of k (mul): the
    evaluation's cost is set by k, not by the draw."""
    if op == "plus":
        a = _half(rng, k)
        return f"plus {atom(nat(a))} {atom(nat(k - a))}"
    a = max(d for d in range(1, math.isqrt(k) + 1) if k % d == 0)
    return f"mul {atom(nat(a))} {atom(nat(k // a))}"


def _fin_split(rng, j: int, k: int, op: str, drop: int | None) -> str:
    lines = [f"def pick{j} (x : Fin ({_index_expr(rng, k, op)})) : Nat"]
    for r in range(k):
        if r != drop:
            lines.append(f"  | {chain('fsuc', r, 'fzero')} => {nat(r % 3)}")
    lines.append(f"  | {chain('fsuc', k, 'impossible')}")
    return "\n".join(lines)


def _vec_build(rng, j: int, k: int, length: int) -> str:
    body = chain("vcons x", length, "vnil")
    return (
        f"def rep{j} (x : Nat) : Vec Nat ({_index_expr(rng, k, 'plus')})\n"
        f"  | x => {body}"
    )


def _indexed_probe(rng: random.Random, kind: str, k: int) -> tuple[str, bool]:
    """The probe declaration and whether the program should check."""
    j = rng.randrange(1000)
    match kind:
        case "fin_plus" | "fin_mul":
            return _fin_split(rng, j, k, kind[4:], None), True
        case "vec_split":
            xs = [f"x{r}" for r in range(k)]
            pat = "vnil"
            for x in reversed(xs):
                pat = f"vcons {x} {atom(pat)}"
            body = "zero"
            for x in reversed(xs):
                body = f"plus {x} {atom(body)}"
            idx = _index_expr(rng, k, "mul")
            return f"def sum{j} (xs : Vec Nat ({idx})) : Nat\n  | {pat} => {body}", True
        case "vec_build":
            return _vec_build(rng, j, k, k), True
        case "shift":
            return (
                f"def shift{j} (n : Nat) (x : Fin n) : Fin (plus {atom(nat(k))} n)\n"
                f"  | suc m, fzero => fzero\n"
                f"  | suc m, fsuc y => fsuc (shift{j} m y)"
            ), True
        case "E306":
            idx = _index_expr(rng, k, "mul")
            return f"def stuck{j} (n : Nat) : Fin (plus n ({idx}))\n  | n => fzero", False
        case "E402":
            idx = _index_expr(rng, k, "plus")
            return f"def split{j} (n : Nat) (x : Mix (plus n ({idx}))) : Nat\n  | n, any => zero", False
        case "E305":
            return _vec_build(rng, j, k, k + rng.choice([-1, 1])), False
        case "E401":
            return _fin_split(rng, j, k, "plus", rng.randrange(k)), False
    raise ValueError(f"unknown indexed probe {kind}")


def indexed_blocks(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"indexed/{seed}")
    header_lines = INDEXED_HEADER.count("\n") + 1
    grid = log_grid(INDEXED_MIN_K, INDEXED_MAX_K, INDEXED_SLICES)
    errors = INDEXED_ERROR_KINDS
    index = 0
    for b in itertools.count():
        specs = []
        for i, k in enumerate(grid):
            specs += [(kind, k) for kind in INDEXED_KINDS]
            # Each index size meets every error kind once in len(errors) blocks.
            specs.append((errors[(b + i) % len(errors)], k))
        rng.shuffle(specs)
        block = []
        for kind, k in specs:
            probe, ok = _indexed_probe(rng, kind, k)
            if ok:
                expect: Expect = Accept(INDEXED_GADT)
            else:
                first = header_lines + 2
                expect = Reject(kind, first, first + probe.count("\n"))
            text = INDEXED_HEADER + "\n\n" + probe + "\n"
            block.append(Op(index, kind, k, INDEXED_DECLS + 1, text, expect))
            index += 1
        yield block


# ---------------------------------------------------------------------------
# eval: closed expressions over a checked prelude

EVAL_PRELUDE_EXTRA = "\n\n".join(
    [
        PLUS_DEF,
        MUL_DEF,
        "def le (a : Nat) (b : Nat) : Bool\n"
        "  | zero, b => true\n"
        "  | suc a, zero => false\n"
        "  | suc a, suc b => le a b",
        fin_data("Fin", "fzero", "fsuc")[0],
        "def toNat (n : Nat) (x : Fin n) : Nat\n"
        "  | suc m, fzero => zero\n"
        "  | suc m, fsuc y => suc (toNat m y)",
        vec_data("Vec", "vnil", "vcons")[0],
        append_def("append", "Vec", "vnil", "vcons"),
    ]
)
# The top slice's size (348) is past the depth where today's recursive walks
# raise RecursionError (about 248 for a printed value, about 325 for a parsed
# operand); the next one (238) is below it. So about 1 op in 16 fails today,
# and p90 stays among successes.
EVAL_MAX_SIZE = 420
EVAL_SLICES = 16
EVAL_KINDS = ("plus", "mul", "le", "toNat", "append", "normalize")


def eval_prelude(corpus_normalize: str) -> str:
    """corpus/normalize.sit (Nat, Bool, the Term normalizer) plus arithmetic,
    a Bool comparison, Fin and Vec."""
    return corpus_normalize.rstrip() + "\n\n" + EVAL_PRELUDE_EXTRA + "\n"


def _bool_term(rng: random.Random, value: bool) -> str:
    """A Term boolT tree that normalizes to `value`."""
    if rng.random() < 0.5:
        return f"bool {'true' if value else 'false'}"
    return f"inv ({_bool_term(rng, not value)})"


def _nat_term(rng: random.Random, v: int) -> str:
    """A Term natT tree whose value is v: a succ chain around a case split."""
    c = _half(rng, v)
    picked = rng.random() < 0.5
    cond = _bool_term(rng, picked)
    hit = f"nat {atom(nat(v - c))}"
    other = f"nat {atom(nat(rng.randint(0, 3)))}"
    x, y = (hit, other) if picked else (other, hit)
    return chain("succ", c, f"case ({cond}) ({x}) ({y})")


def _eval_op(rng: random.Random, kind: str, s: int) -> tuple[str, object, int]:
    """(expression, its Python value, value size) of one op."""
    match kind:
        case "plus":
            a = _half(rng, s)
            return f"plus {atom(nat(a))} {atom(nat(s - a))}", s, s
        case "mul":
            a = max(1, math.isqrt(s) + rng.randint(-1, 1))
            b = max(1, round(s / a))
            return f"mul {atom(nat(a))} {atom(nat(b))}", a * b, a * b
        case "le":
            a, b = s, max(0, s + rng.randint(-2, 2))
            return f"le {atom(nat(a))} {atom(nat(b))}", a <= b, s
        case "toNat":
            k = s - 1
            n = k + 1 + rng.randint(0, 2)
            return f"toNat {atom(nat(n))} ({chain('fsuc', k, 'fzero')})", k, s
        case "append":
            p = _half(rng, s)
            xs = [rng.randint(0, 2) for _ in range(p)]
            ys = [rng.randint(0, 2) for _ in range(s - p)]
            expr = (
                f"append Nat {atom(nat(len(xs)))} {atom(nat(len(ys)))}"
                f" {atom(vec_text(xs))} {atom(vec_text(ys))}"
            )
            return expr, xs + ys, s
        case "normalize":
            return f"normalize natT ({_nat_term(rng, s)})", s, s
    raise ValueError(f"unknown eval kind {kind}")


def eval_blocks(seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"eval/{seed}")
    index = 0
    grid = log_grid(1, EVAL_MAX_SIZE, EVAL_SLICES)
    while True:
        specs = [(kind, s) for kind in EVAL_KINDS for s in grid]
        rng.shuffle(specs)
        block = []
        for kind, s in specs:
            expr, value, size = _eval_op(rng, kind, s)
            block.append(Op(index, kind, size, 1, expr, Value(value), s == grid[-1]))
            index += 1
        yield block


BLOCKS = {"files": files_blocks, "eval": eval_blocks, "indexed": indexed_blocks}
