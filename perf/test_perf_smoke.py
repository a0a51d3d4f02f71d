"""Smoke test of the benchmark itself (run explicitly: ``pytest perf/``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): it forks
workers and takes ~15 s.  It checks that the harness runs end to end at
reduced size with every oracle on, and that what it prints is what
``BENCHMARK.json`` declares — no timing is asserted.
"""

import json
import os
import re
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, PERF_DIR)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "smoke.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--smoke",
         "--json", str(path)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-4000:]
    with open(path) as handle:
        return json.load(handle)


def test_contract_names_are_well_formed(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert contract["paths"] == ["perf"]
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}


def test_smoke_reports_exactly_the_declared_metrics(contract, smoke):
    declared = {
        0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        1: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    runs = {(r["header"]["workload"], r["header"]["trace"]): r for r in smoke["runs"]}
    assert smoke["claim"] is None
    assert set(runs) == {
        (w["name"], trace) for w in contract["workloads"] for trace in (0, 1)
    }
    for (workload, trace), run in runs.items():
        assert run["correct"] and run["failed"] == 0, (workload, run["problems"])
        assert run["attempted"] >= 1
        assert run["header"]["seed"] == smoke["seed"]
        units = {name: m["unit"] for name, m in run["metrics"].items()}
        assert units == declared[trace], workload
    for workload in (w["name"] for w in contract["workloads"]):
        end_to_end = runs[(workload, 0)]["metrics"]
        assert all(m["value"] > 0 for m in end_to_end.values()), workload


def test_layers_not_crossed_cost_nothing(smoke):
    """The recorded "why" of each workload, borne out by the trace."""
    layers = {
        r["header"]["workload"]: {k: m["value"] for k, m in r["metrics"].items()}
        for r in smoke["runs"]
        if r["header"]["trace"] == 1
    }
    inproc = layers["inproc_stream"]
    assert inproc["codec.encode_us_per_event"] == 0
    assert inproc["durability.append_us_per_event"] == 0
    assert inproc["awareness.pipeline_us_per_event"] > 0
    assert layers["sharded_stream"]["codec.encode_us_per_event"] > 0
    assert layers["sharded_stream"]["durability.append_us_per_event"] == 0
    assert layers["durable_stream"]["durability.append_us_per_event"] > 0
    assert layers["durable_stream"]["durability.compact_ms"] > 0
    assert layers["durable_stream"]["durability.recoveries"] == 5
    enactment = layers["enactment_taskforce"]
    assert enactment["app.change_deadline_us"] > 0
    assert enactment["codec.encode_us_per_event"] == 0


def test_seed_changes_the_stream_but_not_the_expected_counts():
    from enactment import operations
    from harness import Harness
    from streams import SIZES, StreamRun

    for name, sizes in SIZES.items():
        first, second = (
            StreamRun(Harness(name, seed, traced=False, smoke=True), sizes)
            .bulk_workload()
            for seed in (23, 24)
        )
        order = [
            [event["contextName"] for event in workload.events()]
            for workload in (first, second)
        ]
        assert order[0] != order[1], name
        assert sorted(order[0]) == sorted(order[1]), name
        assert first.expected_notifications() == second.expected_notifications()
    assert operations(23, 5) != operations(24, 5)
    assert len(operations(23, 5)) == len(operations(24, 5))
