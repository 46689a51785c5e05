"""Benchmark of the sit pipeline: one workload, one seed, one process.

    python3 bench/run.py --workload files|eval|indexed --seed N --seconds S --trace 0|1

Run from the root of a checkout; sit is imported from ./src. The run is a
closed loop: one op at a time, no threads, each op checked against the
oracle in workloads.py. Ops come in blocks that each hold the same mix of
sizes and kinds, and a run measures whole blocks until --seconds have passed
(and at least MIN_OPS ops ran, within HARD_STOP_S).

--trace 0 prints the end-to-end metrics. --trace 1 runs every block twice,
untraced and then traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to bench/out/spans-WORKLOAD.json.gz.

Every reported time is scaled to a reference host (calibrate.py): the
reference computation is timed every CALIBRATE_EVERY_S and after each block
and each set-up (traced runs: on either side of each block's traced pass),
and a time t measured while it took r ms (the mean of the timings on either
side) is reported as t * REFERENCE_MS / r. The unscaled wall-clock figures
of --trace 0 are printed on stderr.

Every failed op is listed on stderr by workload, seed and index. The last
line of stdout is one JSON object: correct, attempted, failed (ops whose
outcome differs from the oracle, exceptions included) and metrics. A run is
correct when every op agrees with the oracle, except that an `eval` op whose
input is past today's recursion depth may raise RecursionError (see
pipeline.known_failure); any other exception or wrong answer makes it
incorrect.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from calibrate import REFERENCE_MS, host_ms
from pipeline import ERROR, OK, WRONG, Pipeline, known_failure
from tracer import LAYERS, Tracer, slope
from workloads import BLOCKS, Value, eval_prelude

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
WARMUP_OPS = 3
MIN_OPS = 100  # so that at least 10 ops lie beyond p90
CALIBRATE_EVERY_S = 0.5  # time the reference at least this often, and after each block
HARD_STOP_S = 150.0


def import_sit():
    """Import sit afresh from ./src, as a new process would."""
    for name in [m for m in sys.modules if m == "sit" or m.startswith("sit.")]:
        del sys.modules[name]
    return importlib.import_module("sit")


def set_up(workload: str, seed: int):
    """Import sit, generate the first block of inputs (the rest are made as
    the run reaches them, between blocks), check the prelude and warm up on
    the first block's smallest ops."""
    start = time.perf_counter()
    sit = import_sit()
    blocks = BLOCKS[workload](seed)
    first = next(blocks)
    prelude = None
    if workload == "eval":
        corpus = (ROOT / "corpus" / "normalize.sit").read_text(encoding="utf-8")
        prelude = eval_prelude(corpus)
    pipeline = Pipeline(sit, prelude)
    for op in sorted(first, key=lambda op: op.size)[:WARMUP_OPS]:
        pipeline.run(op)
    return time.perf_counter() - start, pipeline, itertools.chain([first], blocks)


def measure(pipeline, blocks, seconds: float, t0: float):
    """Untraced closed loop over whole blocks; returns [(op, result)] with
    scaled op times, and the same with wall-clock times."""
    scaled, wall, pending = [], [], []
    before = host_ms()
    calibrated = start = time.perf_counter()
    for block in blocks:
        for i, op in enumerate(block):
            # The op's text is dropped once it has run, so a run holds one
            # block's inputs at a time, as a `sit` process holds one file.
            pending.append((replace(op, text=""), pipeline.run(op)))
            if i + 1 < len(block) and time.perf_counter() - calibrated < CALIBRATE_EVERY_S:
                continue
            if i + 1 == len(block):
                gc.collect()
            after = host_ms()
            scale = REFERENCE_MS / ((before + after) / 2)
            scaled += [(o, replace(r, seconds=r.seconds * scale)) for o, r in pending]
            wall += pending
            pending, before, calibrated = [], after, time.perf_counter()
        now = time.perf_counter()
        if now - start >= seconds and len(wall) >= MIN_OPS or now - t0 >= HARD_STOP_S:
            return scaled, wall


def measure_traced(pipeline, blocks, seconds: float, t0: float):
    """Each block untraced, then traced; returns the tracer and per-op rows.
    The self times of each block's traced pass are scaled by the reference
    timed on either side of that pass."""
    tracer = Tracer()
    rows = []  # (op, untraced result, traced result, per-layer self seconds)
    start = time.perf_counter()
    for block in blocks:
        plain = [pipeline.run(op) for op in block]
        gc.collect()
        before, unscaled = host_ms(), tracer.snapshot()
        traced = []
        tracer.install()
        try:
            for op, base in zip(block, plain):
                tracer.begin_op(op.index)
                res = pipeline.run(op)
                traced.append((op, base, res, list(tracer.end_op())))
        finally:
            tracer.uninstall()
        gc.collect()
        scale = REFERENCE_MS / ((before + host_ms()) / 2)
        tracer.rescale(unscaled, scale)
        rows += [(op, base, res, [s * scale for s in layers]) for op, base, res, layers in traced]
        now = time.perf_counter()
        if now - start >= seconds or now - t0 >= HARD_STOP_S:
            return tracer, rows


def rank_ms(results, q: float) -> float:
    """Nearest-rank percentile of op time in ms. A failed op ranks slower
    than every success and reads as its own time or the slowest success's,
    whichever is larger, so an op that fails fast cannot lower the tail."""
    ranked = sorted(r.seconds for r in results if r.status == OK)
    slowest = ranked[-1] if ranked else 0.0
    ranked += sorted(max(r.seconds, slowest) for r in results if r.status != OK)
    return 1000 * ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def end_to_end(done, setup_s: float) -> dict:
    results = [r for _, r in done]
    total = sum(r.seconds for r in results)
    good = [(op, r) for op, r in done if r.status == OK]
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (rank_ms(results, 0.50), "ms"),
        "op_ms.p90": (rank_ms(results, 0.90), "ms"),
        "decls_per_s": (sum(op.units for op, _ in good) / total, "1/s"),
        "firings_per_s": (sum(r.firings for _, r in good) / total, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, rows) -> dict:
    """Self times (scaled) and counts per op; slopes over the ops that
    succeeded."""
    n = len(rows)

    def ms(*names):
        return tracer.self_ms(*names) / n, "ms/op"

    def calls(*names):
        return tracer.calls_of(*names) / n, "count/op"

    def count(key):
        return tracer.counts.get(key, 0) / n, "count/op"

    tokenize_s = tracer.self_ms("frontend.tokenize") / 1000
    whnf_match = tracer.counts.get("whnf.match", 0)
    traced = [(op, layers) for op, base, res, layers in rows if base.status == res.status == OK]
    plain_s = sum(base.seconds for _, base, _, _ in rows)
    out = {
        "frontend.tokenize.ms": ms("frontend.tokenize"),
        "frontend.parse.ms": ms("frontend.parse_file", "frontend.parse_expression"),
        "frontend.resolve.ms": ms(
            "frontend.resolve", "frontend.Resolver.run", "frontend.Resolver.resolve_expression"
        ),
        "frontend.tokens_per_s": (
            tracer.counts.get("tokens", 0) / tokenize_s if tokenize_s else 0.0, "1/s"
        ),
        "core.signature.extends": calls("core.Signature.extended"),
        "core.signature.entries_indexed": count("signature.entries_indexed"),
        "core.subst.ms": ms("core.subst"),
        "core.subst.calls": calls("core.subst"),
        "pattern_ops.match.ms": ms("pattern_ops.match_terms"),
        "pattern_ops.match.calls": calls("pattern_ops.match_terms"),
        "pattern_ops.match.matched": count("match.matched"),
        "pattern_ops.match.mismatch": count("match.mismatch"),
        "pattern_ops.match.stuck": count("match.stuck"),
        "evaluator.whnf.ms": ms("evaluator.whnf"),
        "evaluator.whnf.calls": calls("evaluator.whnf"),
        "evaluator.index_normal_form.ms": ms("evaluator.index_normal_form"),
        "evaluator.index_normal_form.calls": calls("evaluator.index_normal_form"),
        "evaluator.normalize.ms": ms("evaluator.normalize"),
        "evaluator.clause_hit_ratio": (
            tracer.counts.get("whnf.fired", 0) / whnf_match if whnf_match else 0.0, "ratio"
        ),
        "evaluator.convertible.ms": ms("evaluator.convertible"),
        "evaluator.convertible.calls": calls("evaluator.convertible"),
        "typecheck.decls": count("typecheck.decls"),
        "coverage.check_coverage.ms": ms("coverage.check_coverage"),
        "coverage.check_coverage.calls": calls("coverage.check_coverage"),
        "coverage.available_ctors.calls": calls("coverage.available_ctors"),
        "coverage.available_ctors.undecidable": count("available_ctors.undecidable"),
        "translate.to_general.ms": ms("translate.to_general"),
        "translate.emit_general.ms": ms("translate.emit_general"),
    }
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_ms"] = (tracer.layer_ms(layer) / n, "ms/op")
        points = [(op.size, layers[i]) for op, layers in traced]
        out[f"{layer}.size_exponent"] = (slope(points), "slope")
    traced_s = sum(res.seconds for _, _, res, _ in rows)
    out["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return out


def report_failures(workload: str, seed: int, pairs) -> None:
    for op, res in pairs:
        if res.status != OK:
            print(
                f"FAIL {workload} seed={seed} op={op.index} kind={op.kind} size={op.size} "
                f"{res.status}: {res.detail}",
                file=sys.stderr,
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    if not (ROOT / "src" / "sit" / "__init__.py").is_file():
        print(f"bench: no sit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setups = []
    for _ in range(SETUP_REPEATS):
        pipeline = blocks = None  # free the previous set-up first
        gc.collect()
        seconds, pipeline, blocks = set_up(args.workload, args.seed)
        setups.append((seconds, seconds * REFERENCE_MS / host_ms()))
    # Keep the benchmark's own objects (the generated inputs) out of sit's
    # garbage collections, as in a `sit` process that holds only sit's data.
    gc.collect()
    gc.freeze()

    if args.trace:
        tracer, rows = measure_traced(pipeline, blocks, args.seconds, t0)
        pairs = [(op, res) for op, _, res, _ in rows]
        # The wrapper frames deepen the stack, so a traced eval op may raise
        # RecursionError where its untraced run did not; the untraced run of
        # every op is held to the rule of --trace 0.
        correct = all(
            (base.status == OK or known_failure(op, base)) and (
                res.status == OK or res.detail.startswith("RecursionError")
                and isinstance(op.expect, Value))
            for op, base, res, _ in rows
        )
        metrics = per_layer(tracer, rows)
        tracer.write(
            BENCH / "out" / f"spans-{args.workload}.json.gz",
            {"workload": args.workload, "seed": args.seed, "ops": len(rows)},
        )
    else:
        pairs, wall = measure(pipeline, blocks, args.seconds, t0)
        correct = all(res.status == OK or known_failure(op, res) for op, res in pairs)
        metrics = end_to_end(pairs, statistics.median(scaled for _, scaled in setups))
        unscaled = end_to_end(wall, statistics.median(raw for raw, _ in setups))
        print("wall clock, unscaled: " + ", ".join(
            f"{k}={v:.4g} {u}" for k, (v, u) in unscaled.items() if k != "peak_rss_mb"
        ), file=sys.stderr)

    report_failures(args.workload, args.seed, pairs)
    statuses = [res.status for _, res in pairs]
    failed = sum(s != OK for s in statuses)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(pairs)} ops, "
        f"{failed} failed ({statuses.count(ERROR)} raised, {statuses.count(WRONG)} wrong), "
        f"fail_share={failed / len(pairs):.4f}",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
