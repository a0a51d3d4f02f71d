"""QE14 — the binary wire codec vs the JSON framing it replaced.

The shard channels and the write-ahead journal write one encoding, the
interning binary codec (:mod:`repro.parallel.codec`); the JSON framing
it replaced survives only as a read path for old journals.  Three
measurements:

* **Codec microbench** — encode+decode of the seeded mixed event corpus
  (the interleaved multi-force stream the shard channels actually
  carry), the JSON path (``event_to_wire`` → ``json.dumps`` →
  ``json.loads`` → ``event_from_wire``, spelled out here — no runtime
  mode takes it any more) vs the binary codec with warm intern tables.
  The binary codec must be >= 3x faster.  Rounds interleave the two
  paths and the ratio is taken best-vs-best, so a noise spike that lands
  on one path's consecutive runs cannot fake (or mask) a regression.
* **Differential equivalence** — the serial backend (no encoding at all)
  and the process backend (everything crosses the codec) must produce
  identical per-instance notification order and identical multisets of
  delivery provenance signatures.
* **JSON-era journal upgrade** — a durable run whose journals are
  rewritten in the pre-binary framing is resumed by a federation, which
  upgrades the journals in place without losing a frame.

``REPRO_QE14_SMOKE=1`` shrinks the corpus (the microbench ratio is still
asserted — it is a pure-CPU property, not a scaling one).
"""

import json
import multiprocessing
import os
import statistics
import tempfile
import time

import pytest

from repro.durability.log import detect_codec
from repro.metrics.report import render_table
from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.codec import BinaryDecoder, BinaryEncoder
from repro.parallel.wire import event_from_wire, event_to_wire
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

from tests.durability.json_era import downgrade_to_json

SMOKE = bool(os.environ.get("REPRO_QE14_SMOKE"))

FORCES = 8 if SMOKE else 16
WINDOWS_PER_FORCE = 3 if SMOKE else 6
EVENTS_PER_FORCE = 120 if SMOKE else 400
WAVE = 128
ROUNDS = 7 if SMOKE else 11
MICRO_SPEEDUP_FLOOR = 3.0

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)


def make_workload():
    return ShardStreamWorkload(
        ShardStreamConfig(
            forces=FORCES,
            windows_per_force=WINDOWS_PER_FORCE,
            events_per_force=EVENTS_PER_FORCE,
        )
    )


# ---------------------------------------------------------------------------
# Codec microbench
# ---------------------------------------------------------------------------


def json_pass(waves):
    """The JSON path as it was: wire dicts + compact dumps, both ways."""
    for wave in waves:
        frame = {
            "kind": "events",
            "events": [event_to_wire(event) for event in wave],
        }
        data = json.dumps(frame, separators=(",", ":")).encode("utf-8")
        decoded = json.loads(data)
        events = [event_from_wire(entry) for entry in decoded["events"]]
        assert len(events) == len(wave)


def binary_pass(waves, encoder, decoder):
    """The binary path: raw events straight through one channel pair."""
    for wave in waves:
        data = encoder.encode_frame({"kind": "events", "events": list(wave)})
        # Production readers hand the decoder ``bytes`` (the payload the
        # pipe read returned); mirror that, header stripped.
        decoded = decoder.decode_payload(bytes(data[4:]))
        assert len(decoded["events"]) == len(wave)


def test_qe14_codec_microbench(benchmark, record_table):
    events = make_workload().events()
    waves = [events[i : i + WAVE] for i in range(0, len(events), WAVE)]
    encoder, decoder = BinaryEncoder(), BinaryDecoder()

    # Warm-up: steady-state intern tables, warm caches for both paths.
    json_pass(waves)
    binary_pass(waves, encoder, decoder)

    json_times, binary_times, ratios = [], [], []
    for __ in range(ROUNDS):
        started = time.perf_counter()
        json_pass(waves)
        json_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        binary_pass(waves, encoder, decoder)
        binary_times.append(time.perf_counter() - started)
        ratios.append(json_times[-1] / binary_times[-1])

    # Best-vs-best over interleaved rounds is the quiet-machine ratio;
    # the per-round median is kept as a cross-check in the table.
    speedup = min(json_times) / min(binary_times)
    benchmark(binary_pass, waves, encoder, decoder)

    json_bytes = sum(
        len(
            json.dumps(
                {
                    "kind": "events",
                    "events": [event_to_wire(event) for event in wave],
                },
                separators=(",", ":"),
            ).encode("utf-8")
        )
        for wave in waves
    )
    binary_bytes = sum(
        len(encoder.encode_frame({"kind": "events", "events": list(wave)}))
        for wave in waves
    )

    record_table(
        render_table(
            ("codec", "best round", "bytes", "speedup"),
            [
                ("json", f"{min(json_times) * 1e3:.2f}ms", json_bytes, "1.00x"),
                (
                    "binary",
                    f"{min(binary_times) * 1e3:.2f}ms",
                    binary_bytes,
                    f"{speedup:.2f}x "
                    f"(median {statistics.median(ratios):.2f}x)",
                ),
            ],
            title=f"QE14 codec microbench ({len(events)} events, "
            f"waves of {WAVE}, {ROUNDS} interleaved rounds)",
        )
    )

    assert speedup >= MICRO_SPEEDUP_FLOOR, (
        f"binary codec speedup {speedup:.2f}x is below the "
        f"{MICRO_SPEEDUP_FLOOR}x floor (json {min(json_times):.4f}s, "
        f"binary {min(binary_times):.4f}s)"
    )


# ---------------------------------------------------------------------------
# End-to-end: differential + JSON-era journal upgrade
# ---------------------------------------------------------------------------


def drive(workload, shards, backend):
    config = ShardConfig(shards=shards, backend=backend, instrument=True)
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(workload.events())
        federation.drain()
        notifications = list(federation.delivered)
    assert len(notifications) == workload.expected_notifications()
    return notifications


def signatures(notifications):
    return sorted(map(repr, (n.signature for n in notifications)))


def per_instance(notifications):
    streams = {}
    for n in notifications:
        streams.setdefault(n.process_instance_id, []).append(n.signature)
    return streams


@needs_fork
def test_qe14_codecs_are_differentially_equivalent(record_table):
    workload = make_workload()
    serial = drive(workload, shards=2, backend="serial")
    process = drive(workload, shards=2, backend="process")

    assert all(n.signature is not None for n in serial)
    # Identical multiset of delivery provenance signatures...
    assert signatures(process) == signatures(serial)
    # ...with identical per-instance notification order.
    assert per_instance(process) == per_instance(serial)

    record_table(
        render_table(
            ("run", "events", "notifications"),
            [
                (name, len(workload.events()), len(notifications))
                for name, notifications in (
                    ("serial (no encoding)", serial),
                    ("process (binary wire)", process),
                )
            ],
            title=f"QE14 codec differential ({FORCES} forces x "
            f"{WINDOWS_PER_FORCE} windows)",
        )
    )


@needs_fork
def test_qe14_preexisting_json_journal_replays(record_table):
    """A federation resumes over JSON-era journals.

    The journals upgrade in place (codec flips, absolute frame numbering
    survives) and the resumed run behaves *identically* to resuming over
    binary-era journals — the era of the pre-existing directory must be
    unobservable.
    """
    workload = make_workload()
    events = workload.events()
    half = len(events) // 2

    def two_phase(json_era):
        with tempfile.TemporaryDirectory(prefix="qe14-replay-") as durable_dir:
            config = ShardConfig(
                shards=2,
                backend="process",
                durable_dir=durable_dir,
                instrument=True,
            )
            with ShardedFederation(workload.blueprint(), config) as federation:
                federation.ingest(events[:half])
                federation.drain()
                collected = list(federation.delivered)
                frames = [
                    shard.journal.frame_count for shard in federation.shards
                ]
                journals = [shard.journal.path for shard in federation.shards]
            if json_era:
                for path in journals:
                    downgrade_to_json(path)
                    assert detect_codec(path) == "json"
            with ShardedFederation(workload.blueprint(), config) as federation:
                for shard, count in zip(federation.shards, frames):
                    # Upgraded journal, absolute numbering preserved.
                    assert detect_codec(shard.journal.path) == "binary"
                    assert shard.journal.frame_count == count
                federation.ingest(events[half:])
                federation.drain()
                collected += list(federation.delivered)
        return collected

    upgraded = two_phase(json_era=True)
    reference = two_phase(json_era=False)
    assert sorted(map(repr, (n.signature for n in upgraded))) == sorted(
        map(repr, (n.signature for n in reference))
    )

    record_table(
        render_table(
            ("journal history", "notifications"),
            [
                ("json first half, binary resume", len(upgraded)),
                ("binary throughout", len(reference)),
            ],
            title="QE14 pre-existing JSON journal replay",
        )
    )
