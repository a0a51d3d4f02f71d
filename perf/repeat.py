#!/usr/bin/env python3
"""Repeatability check: is the benchmark steady enough to judge with?

Runs every workload ``--runs`` times (each with another seed) and does
so ``--sets`` times over.  Per workload × end-to-end metric it prints

* the **spread** within each set — the distance between the first and
  third quartile of the runs (``statistics.quantiles(values, n=4)``) as
  a share of their median — which must stay within the metric's bound
  (``setup_s`` excepted), and should stay under a third of it;
* both sets' medians and how far the second is from the first, better
  or worse (two sets that disagree by more than the bound are not a
  repeatable measurement either way), which must stay within the bound
  for every metric.

Exits non-zero if any of them does not, or if any run was incorrect.
When a metric fails, lengthen the run or raise the repetition count;
do not widen the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Optional

from run import load_contract, run_child


def spread(values: List[float]) -> float:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--json", help="write every value measured here")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]

    #: values[workload][metric][set] -> list over runs
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m["name"]: [[] for __ in range(args.sets)] for m in metrics}
        for w in workloads
    }
    walls: List[float] = []
    #: Per run: what was measured around and under the reported values.
    raw: List[Dict[str, object]] = []
    bad_runs = 0
    for index in range(args.sets):
        for workload in workloads:
            for run in range(args.runs):
                started = time.perf_counter()
                result = run_child(
                    workload, args.seed + run, args.seconds, echo=False
                )
                walls.append(time.perf_counter() - started)
                raw.append({
                    "set": index, "workload": workload, "seed": args.seed + run,
                    "calibration_ops_per_s": result["header"].get("calibration_ops_per_s"),
                    "samples": result["detail"].get("samples"),
                })
                if result["exit_code"] or not result["correct"]:
                    bad_runs += 1
                    continue
                for metric in metrics:
                    values[workload][metric["name"]][index].append(
                        result["metrics"][metric["name"]]["value"]
                    )
            print(f"# set {index + 1}: {workload} done", flush=True)

    failures = bad_runs
    header = f"{'workload':20s} {'metric':24s}"
    for index in range(args.sets):
        header += f" {'median' + str(index + 1):>12s} {'spread':>7s}"
    header += f" {'worse by':>9s} {'bound':>6s}"
    print(header)
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = values[workload][name]
            if any(len(s) < 2 for s in sets):
                continue
            line = f"{workload:20s} {name:24s}"
            flags = ""
            medians = []
            for runs in sets:
                middle = statistics.median(runs)
                medians.append(middle)
                wide = spread(runs)
                line += f" {middle:12.4f} {wide:7.1%}"
                if name != "setup_s":
                    if wide > bound:
                        failures += 1
                        flags += " SPREAD>BOUND"
                    elif wide > bound / 3:
                        flags += " spread>bound/3"
            if len(medians) > 1:
                shift = worse_by(medians[0], medians[-1], metric["better"])
                line += f" {shift:+9.1%}"
                if abs(shift) > bound:
                    failures += 1
                    flags += " SHIFT>BOUND"
            else:
                line += f" {'':9s}"
            print(line + f" {bound:6.0%}" + flags)
    print(f"# {len(walls)} runs, slowest {max(walls):.1f} s, mean "
          f"{statistics.mean(walls):.1f} s; {bad_runs} incorrect; "
          f"{'ok' if failures == 0 else str(failures) + ' FAILURES'}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"values": values, "walls": walls, "runs": raw}, handle)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
