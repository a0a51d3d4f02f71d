"""QE14 — the binary wire codec: timing and differential equivalence.

The shard channels, the write-ahead journal and shard snapshots write
one encoding, the interning binary codec (:mod:`repro.parallel.codec`).
Two measurements:

* **Codec microbench** — encode+decode of the seeded mixed event corpus
  (the interleaved multi-force stream the shard channels actually
  carry) through one channel pair with warm intern tables, timed by
  ``pytest-benchmark`` so ``benchmarks/baselines/BENCH_qe14.json``
  gates its median.  No ratio is asserted: the JSON framing it was once
  compared with is gone.
* **Differential equivalence** — the serial backend (no encoding at all)
  and the process backend (everything crosses the codec) must produce
  identical per-instance notification order and identical multisets of
  delivery provenance signatures.

``REPRO_QE14_SMOKE=1`` shrinks the corpus.
"""

import multiprocessing
import os

import pytest

from repro.metrics.report import render_table
from repro.parallel import ShardConfig, ShardedFederation
from repro.parallel.codec import BinaryDecoder, BinaryEncoder
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

SMOKE = bool(os.environ.get("REPRO_QE14_SMOKE"))

FORCES = 8 if SMOKE else 16
WINDOWS_PER_FORCE = 3 if SMOKE else 6
EVENTS_PER_FORCE = 120 if SMOKE else 400
WAVE = 128

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

    # Warm-up: steady-state intern tables.
    binary_pass(waves, encoder, decoder)
    benchmark(binary_pass, waves, encoder, decoder)

    binary_bytes = sum(
        len(encoder.encode_frame({"kind": "events", "events": list(wave)}))
        for wave in waves
    )
    record_table(
        render_table(
            ("codec", "bytes", "bytes/event"),
            [("binary", binary_bytes, f"{binary_bytes / len(events):.2f}")],
            title=f"QE14 codec microbench ({len(events)} events, "
            f"waves of {WAVE})",
        )
    )


# ---------------------------------------------------------------------------
# End-to-end: differential
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
