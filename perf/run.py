#!/usr/bin/env python3
"""The canonical benchmark: four workloads, one command.

Driver form (one workload, one JSON object on the last line)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, each in its own child
process of this single-threaded harness::

    python3 perf/run.py [--seed N] [--trace 1] [--smoke] [--json PATH]

``--trace 0`` reports the end-to-end metrics with the span recorder
off; ``--trace 1`` runs the workload with the recorder on, adds the
layer replay and reports the per-layer metrics (without ``--workload``:
after the end-to-end run of each workload).  Metric and workload names,
units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from typing import Any, Dict, List, Optional

from harness import (
    NOISE_LIMIT,
    OUT_DIR,
    ROOT,
    Harness,
    calibrate,
    environment,
    typical,
)

SRC = os.path.join(ROOT, "src")
#: Accounting limit of the traced run: the share of the bulk repetition
#: spans (the roots) their children must cover.
COVERAGE_FLOOR = 0.95


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload --------------------------------------------------------------


def _end_to_end(
    samples: Dict[str, List[float]], declared: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric: the mean of the better quarter of its samples."""
    return {
        m["name"]: {
            "value": typical(samples[m["name"]], m["better"]),
            "samples": len(samples[m["name"]]),
        }
        for m in declared
    }


def run_workload(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Run one workload in this process; print the driver's JSON line."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    traced = args.trace == 1
    declared = contract["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    harness = Harness(args.workload, args.seed, traced, args.smoke)
    header = environment()
    header.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke,
    )
    failed_calls = 0
    report: Dict[str, Dict[str, Any]] = {}
    extra: Dict[str, Any] = {}
    try:
        # A smoke run's timings mean nothing: one short reading each.
        passes = 1 if args.smoke else 3
        before = calibrate(passes=passes)
        if args.workload == "enactment_taskforce":
            from enactment import enactment_layers, run_enactment

            result = run_enactment(harness, args.seconds)
            layers = enactment_layers(harness, result) if traced else {}
        else:
            from replay import stream_layers
            from streams import run_stream

            result = run_stream(harness, args.workload, args.seconds)
            layers = stream_layers(harness, result) if traced else {}
        after = calibrate(passes=passes)
        report = _end_to_end(result["samples"], contract["end_to_end"])
        extra = {
            key: result[key]
            for key in ("rounds", "health", "recovery", "modelled_us_per_event",
                        "model_ratio", "forces", "detail")
            if result.get(key) is not None
        }
        extra["samples"] = {
            m["name"]: result["samples"][m["name"]] for m in contract["end_to_end"]
        }
        if traced:
            coverage = layers["trace.coverage_share"]
            harness.account(
                f"trace: children cover {coverage:.3f} of the repetition "
                f"spans (floor {COVERAGE_FLOOR})",
                coverage >= COVERAGE_FLOOR,
            )
            layers["calibration.ops_per_s"] = (before + after) / 2
            extra["end_to_end"] = {k: v["value"] for k, v in report.items()}
            # Every declared layer metric is reported; a layer this
            # workload's events never cross did no work and cost nothing.
            report = {
                name: {"value": layers.get(name, 0.0), "samples": None}
                for name in units
            }
            undeclared = sorted(set(layers) - set(units))
            if undeclared:
                raise AssertionError(f"undeclared layer metrics: {undeclared}")
        header["calibration_ops_per_s"] = [before, after]
        header["noisy"] = abs(after - before) / before > NOISE_LIMIT
    except Exception:
        # A call into the system raised: the run is over and has failed.
        failed_calls = 1
        harness.problems.append(traceback.format_exc())
    finally:
        trace_path = harness.write_trace({"header": header})
        harness.cleanup()

    attempted = harness.expected + harness.calls
    failed = harness.mismatches + failed_calls
    correct = failed == 0 and not harness.problems
    for name, entry in report.items():
        entry["unit"] = units[name]
    document = {
        "header": header,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / max(1, attempted),
        "problems": harness.problems,
        "warnings": harness.warnings,
        "accounting_failures": harness.accounting_failures,
        "metrics": report,
        "detail": extra,
        "trace_file": trace_path and os.path.relpath(trace_path, ROOT),
    }
    with open(
        os.path.join(OUT_DIR, f"result-{args.workload}-t{args.trace}.json"), "w"
    ) as handle:
        json.dump(document, handle, indent=1, default=str)

    bounds = {m["name"]: m.get("bound") for m in declared}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in header.items()
                     if k in ("nproc", "python", "scratch_fs", "commit", "noisy")))
    for name, entry in report.items():
        samples = entry.get("samples")
        bound = bounds.get(name)
        print(
            f"{name:38s} {entry['value']:16.4f} {entry['unit']:16s}"
            + (f" n={samples}" if samples else "")
            + (f" bound={bound:.0%}" if bound is not None else "")
        )
    for problem in harness.problems:
        print(f"PROBLEM: {problem}")
    for warning in harness.warnings:
        print(f"WARNING: {warning}")
    if set(report) != set(units):
        print("FAILED: the run ended before every metric was measured")
        return 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in report.items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- every workload --------------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    seconds: int,
    trace: int = 0,
    smoke: bool = False,
    echo: bool = True,
) -> Dict[str, Any]:
    """One workload in its own child process; returns its result file."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if echo or completed.returncode:
        sys.stdout.write(completed.stdout)
    path = os.path.join(OUT_DIR, f"result-{workload}-t{trace}.json")
    with open(path) as handle:
        document = json.load(handle)
    document["exit_code"] = completed.returncode
    return document


def run_all(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    traces = [0, 1] if (args.trace or args.smoke) else [0]
    results: List[Dict[str, Any]] = []
    status = 0
    for workload in contract["workloads"]:
        for trace in traces:
            document = run_child(
                workload["name"], args.seed, args.seconds, trace, args.smoke
            )
            if document["header"].get("noisy") and not args.smoke:
                # The machine changed speed under the workload: once more.
                document = run_child(
                    workload["name"], args.seed, args.seconds, trace, args.smoke
                )
                document["header"]["rerun_after_noise"] = True
            document["why"] = workload["why"]
            # The raw samples stay in perf/out/; the summary is for reading.
            document["detail"].pop("samples", None)
            results.append(document)
            # The traced run fails when its books do not balance.
            status = status or document["exit_code"] or (
                1 if document["accounting_failures"] else 0
            )
    summary = {"claim": None, "seed": args.seed, "seconds": args.seconds,
               "smoke": args.smoke, "runs": results}
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"# {len(results)} runs, failed_share = {failed}/{attempted}, "
          f"{'ok' if status == 0 else 'FAILED'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and its per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size, every oracle on, no timing meaning")
    parser.add_argument("--json", help="all workloads: write the full output here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, contract)
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
