"""A fixed pure-Python reference computation that measures the host's speed.

The machines this benchmark runs on share their cores: the same sit op on
the same input has been measured to take anywhere from 1x to 2x its fastest
time within one minute, and the swings last from seconds to minutes. Timing
this reference between blocks and scaling op times by REFERENCE_MS / its
time cancels those swings, so every time the benchmark reports reads as
wall time on a host where the reference takes REFERENCE_MS. The reference
never calls sit, so a change to sit moves the reported times in full.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# The reference's time on the host that recorded series/BENCH_0001.json,
# in its faster periods; a constant, so reported times are comparable.
REFERENCE_MS = 10.0


@dataclass(frozen=True)
class _Node:
    tag: str
    args: tuple


_ZERO = _Node("zero", ())


def _num(n: int) -> _Node:
    t = _ZERO
    for _ in range(n):
        t = _Node("suc", (t,))
    return t


def _plus(a: _Node, b: _Node) -> _Node:
    match a:
        case _Node("zero", ()):
            return b
        case _Node("suc", (x,)):
            return _Node("suc", (_plus(x, b),))
    raise ValueError(a)


def _size(t: _Node) -> int:
    n = 0
    while t.args:
        t, n = t.args[0], n + 1
    return n


def reference() -> int:
    """Frozen-dataclass terms, structural matching and short recursion, the
    kind of work sit's evaluator does; deterministic."""
    total = 0
    env: dict[int, _Node] = {}
    for i in range(300):
        env[i] = _plus(_num(i % 30), _num(i % 7))
        total += _size(env[i])
    return total


def host_ms(repeats: int = 3) -> float:
    """Median time of `repeats` runs of the reference, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)
