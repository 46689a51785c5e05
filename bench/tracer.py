"""Spans around sit's public functions, from outside the program.

`Tracer.install` rebinds every public module-level function of every
`sit.*` module, in each module that holds it (so names copied by
`from .x import f`, such as `sit.typecheck.whnf`, are wrapped too), plus the
public methods of the pipeline's stateful classes: `TypeChecker`,
`Resolver` and `Signature.extended`. Signature, Context, Telescope and Fuel
lookups are O(1) accessors and are left unwrapped; a span around each would
cost more than the work it measures.

Each span (name, start, end, parent, op) is kept in memory and written out
when the run ends. Self time, a span's duration minus the time its child
spans cover, is summed per name as spans close; `rescale` scales what a
stretch of the run added, so the caller can scale each block's self times
by the host's speed during it. Match outcomes are classified
from `match_terms`'s return value.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from array import array
from types import ModuleType

LAYERS = ("frontend", "core", "pattern_ops", "evaluator", "typecheck", "coverage", "translate")
METHODS = {
    "typecheck": {"TypeChecker": None},  # None: every public method
    "frontend": {"Resolver": None},
    "core": {"Signature": ("extended",)},
}
MAX_KEPT_SPANS = 200_000  # spans written out; self times count every span


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []
        # Kept spans, five numbers each: name, parent, op, start, end. One
        # extend per span, so a RecursionError cannot leave a half record.
        self.kept = array("d")
        self.spans = 0
        self.op = -1
        self.op_layer_s = [0.0] * len(LAYERS)
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._make_wrappers()
        self._root = self._name("bench.op")

    # -- wrapping -----------------------------------------------------------

    def _name(self, name: str) -> int:
        self.names.append(name)
        layer = name.split(".")[0]
        self.layer_of.append(LAYERS.index(layer) if layer in LAYERS else -1)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def _modules(self) -> list[ModuleType]:
        return [m for k, m in sorted(sys.modules.items())
                if k == "sit" or k.startswith("sit.")]

    def _make_wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced function."""
        out = {}
        for module in self._modules():
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    out[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
            for cls_name, wanted in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for attr, obj in vars(cls).items():
                    if inspect.isfunction(obj) and not attr.startswith("_") and (
                            wanted is None or attr in wanted):
                        out[id(obj)] = (obj, self._wrap(obj, f"{short}.{cls_name}.{attr}"))
        return out

    def _wrap(self, fn, name: str):
        nid = self._name(name)
        pre = _PRE.get(name.partition(".")[2])
        post = _POST.get(name.partition(".")[2])
        clock, stack, close = time.perf_counter, self.stack, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            parent = stack[-1] if stack else None
            frame = [nid, 0.0, 0.0, self._open(nid, parent)]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, clock())
            if post is not None:
                post(self, args, result, parent)
            return result

        return traced

    def install(self) -> None:
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
            for cls_name in METHODS.get(module.__name__.rpartition(".")[2], {}):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    hit = self._wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patches.append((cls, attr, obj))
                        setattr(cls, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int, parent) -> int:
        """The new span's index into the kept spans, or -1 past the cap."""
        self.spans += 1
        index = len(self.kept) // 5
        if index >= MAX_KEPT_SPANS:
            return -1
        self.kept.extend((nid, parent[3] if parent else -1, self.op, 0.0, 0.0))
        return index

    def _close(self, frame: list, end: float) -> None:
        stack = self.stack
        # A RecursionError can unwind past a frame before it closes; drop
        # such frames so the stack stays consistent.
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        nid, start, child, index = frame
        duration = end - start
        own = duration - child
        self.self_s[nid] += own
        self.calls[nid] += 1
        layer = self.layer_of[nid]
        if layer >= 0:
            self.op_layer_s[layer] += own
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            self.kept[5 * index + 3] = start
            self.kept[5 * index + 4] = end

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_layer_s = [0.0] * len(LAYERS)
        self.stack.clear()
        frame = [self._root, 0.0, 0.0, self._open(self._root, None)]
        self.stack.append(frame)
        frame[1] = time.perf_counter()

    def end_op(self) -> list[float]:
        """Close the op's root span; returns the op's self seconds per layer."""
        end = time.perf_counter()
        root = self.stack[0] if self.stack else None
        if root is not None:
            self.stack[1:] = []
            self._close(root, end)
        return self.op_layer_s

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def snapshot(self) -> list[float]:
        return list(self.self_s)

    def rescale(self, snapshot: list[float], factor: float) -> None:
        """Multiply the self time added since `snapshot` by `factor`."""
        self.self_s[:] = [s0 + (s - s0) * factor for s0, s in zip(snapshot, self.self_s)]

    # -- results ------------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        return 1000 * sum(self.self_s[i] for i, n in enumerate(self.names) if n in names)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[i] for i, n in enumerate(self.names) if n in names)

    def layer_ms(self, layer: str) -> float:
        idx = LAYERS.index(layer)
        return 1000 * sum(s for s, l in zip(self.self_s, self.layer_of) if l == idx)

    def write(self, path, meta: dict) -> None:
        body = {
            **meta,
            "spans_total": self.spans,
            "spans_kept": len(self.kept) // 5,
            "names": self.names,
            "self_ms": {n: 1000 * s for n, s in zip(self.names, self.self_s) if s},
            "calls": {n: c for n, c in zip(self.names, self.calls) if c},
            "span_fields": ["name", "parent", "op", "start", "end"],
            "spans": self.kept.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(body, fh)


def _post_match(tracer: Tracer, args, result, parent) -> None:
    outcome = type(result).__name__.lower()  # matched, mismatch or stuck
    tracer.count(f"match.{outcome}")
    if parent is not None and tracer.names[parent[0]] == "evaluator.whnf":
        tracer.count("whnf.match")
        if outcome == "matched":
            tracer.count("whnf.fired")


def _post_tokenize(tracer: Tracer, args, result, parent) -> None:
    tracer.count("tokens", len(result))


def _post_extended(tracer: Tracer, args, result, parent) -> None:
    tracer.count("signature.entries_indexed", len(result.decls))


def _post_available(tracer: Tracer, args, result, parent) -> None:
    if type(result).__name__ == "Undecidable":
        tracer.count("available_ctors.undecidable")


def _pre_check_signature(tracer: Tracer, args) -> None:
    tracer.count("typecheck.decls", len(args[1]))


_PRE = {"TypeChecker.check_signature": _pre_check_signature}
_POST = {
    "match_terms": _post_match,
    "tokenize": _post_tokenize,
    "Signature.extended": _post_extended,
    "available_ctors": _post_available,
}


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 without spread."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
