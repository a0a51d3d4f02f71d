"""The CI smoke expectations, as a test module.

These assertions used to live inline in ``.github/workflows/ci.yml`` as
``python -c`` one-liners with hard-coded magic numbers (16 notifications,
45 deduped operators).  Here each expectation is *derived* from the
workload parameters the command is invoked with, so changing a default
breaks a named test with a readable diff instead of a YAML step.

Every command runs in-process through ``repro.cli.main(argv)``.
"""

import json
import multiprocessing
import re

import pytest

from repro.cli import _FLEET_SPEC_TEMPLATE, main
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

#: Parameters of the `repro shards` CI smoke invocation.
SHARDS = 2
FORCES = 4
WINDOWS_PER_FORCE = 2
EVENTS_PER_FORCE = 40

#: Parameters of the `repro plans` CI smoke invocation (the CLI default).
PLAN_WINDOWS = 16


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def operators_per_window():
    """Operator definitions in the fleet template (one plan node each)."""
    return sum(
        1
        for line in _FLEET_SPEC_TEMPLATE.splitlines()
        if re.match(r"\s*\w+\s*=", line)
    )


class TestHealthSmoke:
    def test_health_reports_and_parses(self, capsys):
        # The stock demonstration never drains participant queues, so the
        # backlog rules honestly report degraded (exit 1); only 2+
        # (failing) or a crash is a smoke failure.
        code, out = run_cli(capsys, "health", "--json")
        assert code <= 1, f"health exited {code}"
        payload = json.loads(out)
        assert payload["federation"]
        assert payload["systems"] and payload["systems"][0]["rules"]


class TestPlanCacheSmoke:
    def test_fleet_deploy_shares_the_template_plan(self, capsys):
        code, out = run_cli(
            capsys, "plans", "--windows", str(PLAN_WINDOWS), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        stats = payload["stats"]
        nodes = operators_per_window()
        assert stats["windows_deployed"] == PLAN_WINDOWS
        # One live node per template operator; every later window shares
        # all of them.
        assert stats["nodes_live"] == nodes
        assert stats["operators_resolved"] == nodes * PLAN_WINDOWS
        assert stats["operators_deduped"] == nodes * (PLAN_WINDOWS - 1)
        assert len(payload["nodes"]) == nodes
        # The fleet's Filter -> Count -> Compare1 chain runs as one
        # generated segment, rooted at the filter.
        assert [row["family"] for row in payload["nodes"]] == [
            "Filter_context",
            "Count",
            "Compare1",
        ]
        root = payload["nodes"][0]["node_id"]
        assert [row["segment"] for row in payload["nodes"]] == [root] * nodes

    def test_plans_table_shows_the_segment_column(self, capsys):
        code, out = run_cli(capsys, "plans", "--windows", "2")
        assert code == 0
        assert "segment" in out.splitlines()[2]


class TestFederatedObservabilitySmoke:
    def test_export_emits_shard_labelled_prometheus_text(self, capsys):
        code, out = run_cli(capsys, "export", "--shards", str(SHARDS))
        assert code == 0
        assert "# TYPE bus_published_total counter" in out
        for shard in range(SHARDS):
            assert f'{{shard="{shard}"' in out
        # The facade's own registry rides along under its own label.
        assert 'shard="facade"' in out

    def test_export_without_shards_renders_the_demonstration(self, capsys):
        code, out = run_cli(capsys, "export")
        assert code == 0
        assert "# TYPE notifications_delivered_total counter" in out

    def test_trace_shards_assembles_cross_shard_traces(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--shards", str(SHARDS), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["traces"], "every wave is sampled in this mode"
        multi = [
            trace for trace in payload["traces"] if len(trace["shards"]) >= 2
        ]
        assert multi, "a full ingest wave must touch both shards"
        for trace in payload["traces"]:
            for entry in trace["spans"]:
                assert entry["span"]["name"] == "shard.ingest"
        assert payload["orphaned"] == 0
        assert payload["stage_p95_us"]

    def test_health_shards_exit_code_tracks_worker_breach(self, capsys):
        # Relaxed limits + drained queues: ok.
        code, out = run_cli(
            capsys, "health", "--shards", str(SHARDS), "--json"
        )
        payload = json.loads(out)
        assert code in (0, 1)
        assert payload["status"] in ("ok", "degraded")
        assert payload["federation"]["stats"]["shards_alive"] == SHARDS
        # Undrained queues + a 1-notification limit: a worker-side SLO
        # breach must surface as the documented exit code.
        code, out = run_cli(
            capsys,
            "health",
            "--shards",
            str(SHARDS),
            "--no-drain",
            "--limit",
            "queue-depth=1",
            "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["status"] == "degraded"
        assert payload["rules"]["queue-depth"]["firing"]
        assert payload["federation"]["stats"]["shards_alive"] == SHARDS


class TestShardingSmoke:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process backend requires the fork start method",
    )
    def test_forked_workers_merge_the_full_stream(self, capsys):
        code, out = run_cli(
            capsys,
            "shards",
            "--shards",
            str(SHARDS),
            "--backend",
            "process",
            "--forces",
            str(FORCES),
            "--windows",
            str(WINDOWS_PER_FORCE),
            "--events",
            str(EVENTS_PER_FORCE),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        expected = ShardStreamWorkload(
            ShardStreamConfig(
                forces=FORCES,
                windows_per_force=WINDOWS_PER_FORCE,
                events_per_force=EVENTS_PER_FORCE,
            )
        ).expected_notifications()
        totals = payload["totals"]
        assert totals["shards_alive"] == SHARDS
        assert payload["notifications_merged"] == expected
        assert all(row["alive"] for row in payload["shards"])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process backend requires the fork start method",
    )
    def test_shards_and_top_print_one_table_with_stalls(self, capsys, tmp_path):
        # One renderer: the process backend's table shows the pipe's
        # stall count and no credit-window columns, and the dashboard's
        # durable shard block prints the same header row.
        def header(out):
            return next(line for line in out.splitlines() if line.startswith("shard "))

        code, out = run_cli(
            capsys, "shards", "--shards", "2", "--backend", "process",
            "--forces", "4", "--events", "30",
            "--durable", str(tmp_path / "shards"),
        )
        assert code == 0
        columns = header(out).split(" | ")
        assert columns[-3:] == ["stalls", "journal", "recovered"]
        assert "credits" not in out and "inflight" not in out
        code, out = run_cli(
            capsys, "top", "--shards", "2", "--durable", str(tmp_path / "top"),
            "--iterations", "1", "--refresh", "0", "--no-clear",
        )
        assert code == 0
        assert header(out).split(" | ") == columns

    def test_serial_backend_agrees_with_the_workload_math(self, capsys):
        code, out = run_cli(
            capsys,
            "shards",
            "--shards",
            str(SHARDS),
            "--forces",
            str(FORCES),
            "--windows",
            str(WINDOWS_PER_FORCE),
            "--events",
            str(EVENTS_PER_FORCE),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        expected = ShardStreamWorkload(
            ShardStreamConfig(
                forces=FORCES,
                windows_per_force=WINDOWS_PER_FORCE,
                events_per_force=EVENTS_PER_FORCE,
            )
        ).expected_notifications()
        assert payload["notifications_merged"] == expected


class TestJournalSmoke:
    def test_dump_renders_runs_frozensets_and_provenance_as_json(
        self, capsys, tmp_path
    ):
        from repro.durability.log import FrameLog
        from repro.observability.provenance import ProvenanceNode
        from repro.parallel.codec import ROWS_MIN, events_frame

        events = ShardStreamWorkload(
            ShardStreamConfig(forces=1, events_per_force=ROWS_MIN)
        ).events()[:ROWS_MIN]  # one uniform T_context run
        leaf = ProvenanceNode(
            event_id=1,
            node="source:E_context",
            kind="primitive",
            event_type="T_context",
            logical_time=1,
            summary=("context", "Ctx", "Deadline", 20),
        )
        chained = events[0].derive(time=99)
        chained.provenance = ProvenanceNode(
            event_id=2,
            node="Count:c",
            kind="composite",
            event_type="C[P]",
            logical_time=99,
            summary="count=1",
            inputs=(leaf,),
        )
        frame = dict(
            events_frame(events + [chained]),
            extra=(1, frozenset({"b", "a"})),
            slots={0: "int key"},
        )
        path = str(tmp_path / "journal.log")
        with FrameLog(path) as log:
            log.append(frame)

        code, out = run_cli(capsys, "journal", path, "--json", "--dump")
        assert code == 0
        (report,) = json.loads(out)["journals"]
        assert "codec" not in report
        (shown,) = report["frame_list"]
        json.dumps(shown)  # plain JSON all the way down
        first = shown["events"][0]
        assert first["type"] == "T_context"
        associations = first["params"]["processAssociations"]
        assert associations == sorted(associations, key=repr)
        assert all(isinstance(pair, list) for pair in associations)
        last = shown["events"][-1]
        assert last["params"]["time"] == 99
        assert last["provenance"]["node"] == "Count:c"
        assert last["provenance"]["inputs"][0]["summary"] == [
            "context", "Ctx", "Deadline", 20,
        ]
        assert shown["extra"] == [1, ["a", "b"]]
        assert shown["slots"] == {"0": "int key"}

        code, out = run_cli(capsys, "journal", path)
        assert code == 0
        header = out.splitlines()[1]
        assert "frames" in header and "codec" not in header
