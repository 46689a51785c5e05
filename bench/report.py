"""Run every workload over several seeds and print one row per workload.

    python3 bench/report.py --label "commit abc1234" --out bench/series/BENCH_0002.json

Each run is a separate `bench/run.py` process, one after another, on every
workload of BENCHMARK.json and for its run_seconds, so every entry of the
series measures the same thing. By default seeds 1-10 run untraced and
seeds 1-5 traced. Each
workload's row shows the median of every metric with its unit, its spread
(distance between the first and third quartile over the runs, as a share of
the median) and fail_share with its counts. Every failed op is listed by
workload, seed and index. With --out, the medians and quartiles of
every end-to-end and per-layer metric are written as the next entry of the
BENCH_*.json series.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    fails = [line for line in proc.stderr.splitlines() if line.startswith("FAIL ")]
    return json.loads(proc.stdout.strip().splitlines()[-1]), fails


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="untraced runs, e.g. 1-10")
    ap.add_argument("--trace-seeds", default="1-5", help="traced runs, e.g. 1-5")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    ap.add_argument("--out", help="write the series entry to this file")
    args = ap.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]

    entry = {"label": args.label, "python": platform.python_version(),
             "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
             "seconds": seconds, "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    failures: list[str] = []
    for workload in (w["name"] for w in config["workloads"]):
        row = entry["workloads"][workload] = {}
        for trace, seeds in ((0, seed_range(args.seeds)), (1, seed_range(args.trace_seeds))):
            if not seeds:
                continue
            results = []
            for seed in seeds:
                result, fails = run_one(workload, seed, seconds, trace)
                results.append(result)
                failures += [f"{line} (trace={trace})" for line in fails]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            row["traced" if trace else "untraced"] = {
                "seeds": seeds,
                "attempted": attempted,
                "failed": failed,
                "fail_share": failed / attempted,
                "all_correct": all(r["correct"] for r in results),
                "metrics": summarize(results),
            }

    for kind in ("untraced", "traced"):
        rows = [(w, r[kind]) for w, r in entry["workloads"].items() if kind in r]
        if rows:
            print(f"\n{kind} runs, median [spread] of each metric over seeds {rows[0][1]['seeds']}:")
        for workload, r in rows:
            cells = [
                f"{name}={m['median']:.4g} {m['unit']} [{m['spread']:.3f}]"
                for name, m in r["metrics"].items()
            ]
            cells.append(f"fail_share={r['fail_share']:.4f} ({r['failed']}/{r['attempted']} ops)")
            if not r["all_correct"]:
                cells.append("INCORRECT RUNS")
            print(f"{workload}: " + "  ".join(cells))
    print(f"\n{len(failures)} failed ops")
    for line in failures:
        print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
