#!/usr/bin/env python3
"""Steadiness report: run run.py on several seeds per workload and print
the median and quartiles of every end-to-end metric, the spread (third
minus first quartile, over the median) against the metric's bound, and
the median of trace.overhead_s from traced runs.

    python3 perfbench/steady.py

Run from the repository root.  Every workload in BENCHMARK.json runs on
seeds 1-10 in both modes, each run taking BENCHMARK.json's run_seconds; the report is also written to perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = [run_once(workload, s, seconds, 1) for s in SEEDS]
        rows = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]}
        rows["ops_failed_frac"] = summary(
            [r["failed"] / r["attempted"] for r in runs])
        rows["trace.overhead_s"] = summary(
            [r["metrics"]["trace.overhead_s"]["value"] for r in traced])
        report[workload] = rows
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print(f"{workload}: seeds {SEEDS.start}-{SEEDS.stop - 1}, both modes")
        for name, row in rows.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound:.2f}  " + ("ok" if row["spread"] < bound / 3
                                          else "WIDE (over a third of the bound)"))
            print(f"  {name:18s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}  {verdict}")
        sys.stdout.flush()
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
