"""The span of every resolved core node, pinned.

`spans_pinned.json` holds, for each corpus file and for each expression of
`EXPRESSIONS` resolved after `corpus/nat.sit`, the class and the span of
every core node that has a span, in pre-order; an expression the resolver
rejects pins its diagnostic's code and span instead. A change meant to keep
every span as it is passes this test unchanged. A change meant to alter one
rewrites the file and shows the difference in review:

    PYTHONPATH=src python tests/test_spans_pinned.py
"""
from __future__ import annotations

import json
from pathlib import Path

from sit.core import Node
from sit.diagnostics import SitError
from sit.frontend import Resolver, tokenize

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "spans_pinned.json"

EXPRESSIONS = [
    "zero",
    "(zero)",
    "((zero))",
    "fn x => (x)",
    "fn x => ((x))",
    "(suc) zero",
    "((suc)) (zero)",
    "(plus zero) zero",
    "((plus zero)) (suc zero)",
    "Nat -> Nat",
    "(Nat -> Nat)",
    "Nat -> (Nat -> Nat) -> Nat",
    "(n : Nat) -> Nat",
    "((n : Nat) -> Nat)",
    "(A : Type) -> (x : A) -> A",
    "fn x => suc x",
    "(fn x => suc (x))",
    "fn x => fn y => plus x y",
    "(fn x => x) zero",
    "((fn x => x)) (zero)",
    "suc",
    "(suc)",
    "plus",
    "plus zero",
    "(plus zero)",
    "Type",
    "(Type)",
    "Type -> Type",
    "fn f => f zero",
    "fn f => (f) zero",
    "fn f => (f zero) zero",
    "plus (suc zero) (suc (suc zero))",
    "plus\n  (suc zero)\n    zero",
    # rejected
    "foo",
    "(foo)",
    "(foo) zero",
    "suc foo",
    "Type zero",
    "(Type) zero",
    "(Nat -> Nat) zero",
    "suc zero zero",
    "(zero) zero",
    "plus zero zero zero",
    "fn zero => zero",
    "(zero : Nat) -> Nat",
]


def _spans(node, out: list) -> None:
    """Append the class and span of `node` and of every node below it, in
    pre-order, skipping nodes without a span."""
    if isinstance(node, Node):
        span = getattr(node, "span", None)
        if span is not None:
            out.append([type(node).__name__, list(span)])
        for field in node.__match_args__:
            if field != "span":
                _spans(getattr(node, field), out)
    elif isinstance(node, tuple):
        for item in node:
            _spans(item, out)


def _observed() -> dict[str, list]:
    observed: dict[str, list] = {}
    for path in sorted((ROOT / "corpus").glob("*.sit")):
        name = path.relative_to(ROOT).as_posix()
        spans: list = []
        _spans(tuple(Resolver().run(tokenize(path.read_text(encoding="utf-8"), name))), spans)
        observed[name] = spans
    prelude = (ROOT / "corpus" / "nat.sit").read_text(encoding="utf-8")
    for text in EXPRESSIONS:
        resolver = Resolver()
        resolver.run(tokenize(prelude, "nat.sit"))
        spans = []
        try:
            _spans(resolver.resolve_expression(tokenize(text, "<expr>")), spans)
        except SitError as err:
            spans = [err.code, list(err.span)]
        observed[f"-e {text}"] = spans
    return observed


def test_core_spans_are_pinned():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    observed = _observed()
    assert sorted(observed) == sorted(pinned), "regenerate the pinned file"
    for key, want in pinned.items():
        assert observed[key] == want, key


if __name__ == "__main__":
    # One node per line, so a review diff shows each span that moved.
    entries = []
    for key, spans in _observed().items():
        if spans and isinstance(spans[0], str):
            entries.append(f" {json.dumps(key)}: {json.dumps(spans)}")
        else:
            rows = ",\n".join(f"  {json.dumps(s)}" for s in spans)
            entries.append(f" {json.dumps(key)}: [\n{rows}\n ]")
    PINNED.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
