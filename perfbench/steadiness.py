#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --out steady.json

Runs every workload of BENCHMARK.json --runs times (seeds 1, 2, ...) through
run.py for its run_seconds, in two blocks, the second started when the first
ends. Workloads alternate inside each round (the order rotates by one every
round), so host drift over minutes spreads across all of them instead of
landing on one; the second block shows the drift between two sets of runs.

For each workload and metric the record holds every value in run order,
the median and quartiles (Python's statistics.quantiles, n=4) and the
spread (q3 - q1) / median, over all runs and per block. Each metric's
bound_needed is the largest of 0.02, three times the largest per-block
spread any workload shows, and the largest amount by which a workload's
second block is worse than its first; it is not capped, and a metric whose
need exceeds 0.25, the largest bound BENCHMARK.json may set, is marked
unresolved.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BLOCKS = 2
FIRST_SEED = 1
MIN_BOUND = 0.02
MAX_BOUND = 0.25


def run_once(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_block(workloads, runs, block):
    rows = []
    for r in range(runs):
        k = r % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            seed = FIRST_SEED + r
            started = time.time()
            result = run_once(workload, seed)
            metrics = {name: m["value"]
                       for name, m in result["metrics"].items()}
            rows.append({"block": block, "round": r, "workload": workload,
                         "seed": seed, "started": round(started, 1),
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": metrics})
            print(f"block {block} round {r} {workload} seed {seed}: "
                  + json.dumps(metrics), file=sys.stderr, flush=True)
    return rows


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first, second, better):
    """How much worse the second block's median is, as a share of the
    first's (0 when it is not worse)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return max(0.0, change if better == "lower" else -change)


def summarize(rows):
    summary = {}
    for workload in sorted({r["workload"] for r in rows}):
        mine = [r for r in rows if r["workload"] == workload]
        metrics = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name] for r in mine]
            entry = spread(values)
            entry["values"] = values
            entry["blocks"] = [
                spread([r["metrics"][name] for r in mine if r["block"] == b])
                for b in range(BLOCKS)]
            metrics[name] = entry
        summary[workload] = {
            "all_correct": all(r["correct"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "metrics": metrics}
    # The acceptance check looks at one block of runs at a time: its spread
    # must stay within the bound, and a later block's median must not be
    # worse than an earlier one's by more than the bound.
    bounds = {}
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        entries = [w["metrics"][name] for w in summary.values()]
        worst = max(b["spread"] for e in entries for b in e["blocks"])
        drift = max(worse_by(e["blocks"][0]["median"],
                             e["blocks"][-1]["median"], metric["better"])
                    for e in entries)
        need = max(MIN_BOUND, 3 * worst, drift)
        bounds[name] = {"worst_block_spread": worst,
                        "worst_block_drift": drift,
                        "bound_needed": need,
                        "bound_set": metric["bound"],
                        "resolved": need <= MAX_BOUND}
    return summary, bounds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    rows = []
    for block in range(BLOCKS):
        rows += run_block(workloads, args.runs, block)
    summary, bounds = summarize(rows)
    record = {"about": " ".join(__doc__.split("\n\n", 2)[2].split()),
              "cpus": os.cpu_count(),
              "seconds": BENCHMARK["run_seconds"], "runs": args.runs,
              "blocks": BLOCKS, "bounds": bounds, "workloads": summary,
              "runs_in_order": rows}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for name, b in bounds.items():
        print(f"{name:14s} worst block spread {b['worst_block_spread']:.4f}, "
              f"worse by {b['worst_block_drift']:.4f} -> needs "
              f"{b['bound_needed']:.3f}, set {b['bound_set']}"
              + ("" if b["resolved"] else " (unresolved)"))


if __name__ == "__main__":
    main()
