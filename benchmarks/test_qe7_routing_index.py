"""QE7 — predicate-indexed event routing vs linear-scan dispatch.

The event substrate routes each primitive event only to the operators
whose static parameters can match it: filter operators expose their match
key via ``EventOperator.routing_keys`` and the producers index consumers
by that key, so per-event dispatch cost is O(matching operators) instead
of O(deployed operators).  This benchmark isolates the dispatch path — a
single ``E_context`` producer feeding N ``Filter_context`` operators, each
watching a different field — and drives the identical event stream
through it twice: with every filter registered under its routing key, and
with the same filters registered unkeyed (``keys=None``), which is the
linear scan — the baseline is built here, not selected on the producer.

Expected shape: linear-scan cost grows with N (every filter inspects every
event and all but one reject it); indexed cost is flat (exactly one filter
is visited per event).  Recognition counts must be identical either way —
the index is a pure routing optimization.
"""

import time

from repro.awareness.operators.filters import ContextFilter
from repro.core.context import ContextChange
from repro.events.producers import ContextEventProducer
from repro.metrics.report import render_table

N_FIELDS = 32
EVENTS_PER_FIELD = 40
SWEEP = (1, 4, 16, 32)
REPS = 3


def build_pipeline(n_filters: int, indexed: bool):
    producer = ContextEventProducer()
    filters = []
    for index in range(n_filters):
        flt = ContextFilter("P-X", "Ctx", f"field{index}")
        producer.add_consumer(
            lambda event, f=flt: f.consume(0, event),
            keys=flt.routing_keys(0) if indexed else None,
        )
        filters.append(flt)
    return producer, filters


def make_changes():
    return [
        ContextChange(
            time=round_index,
            context_id="ctx-1",
            context_name="Ctx",
            associations=frozenset({("P-X", "proc-1")}),
            field_name=f"field{field_index}",
            old_value=round_index,
            new_value=round_index + 1,
        )
        for round_index in range(EVENTS_PER_FIELD)
        for field_index in range(N_FIELDS)
    ]


def drive(n_filters: int, indexed: bool) -> dict:
    changes = make_changes()
    best = None
    recognized = None
    for __ in range(REPS):
        producer, filters = build_pipeline(n_filters, indexed)
        started = time.perf_counter()
        producer.produce_batch(changes)
        elapsed = time.perf_counter() - started
        recognized = sum(f.produced for f in filters)
        per_event = elapsed / len(changes) * 1e6
        best = per_event if best is None else min(best, per_event)
    return {
        "filters": n_filters,
        "recognized": recognized,
        "us_per_event": best,
    }


def test_qe7_routing_index(benchmark, record_table):
    drive(1, indexed=True)  # warmup
    rows = []
    for n in SWEEP:
        linear = drive(n, indexed=False)
        if n == SWEEP[-1]:
            indexed = benchmark(drive, n, True)
        else:
            indexed = drive(n, indexed=True)
        # Behavior-preserving: keyed or not, the same events are recognized.
        expected = n * EVENTS_PER_FIELD
        assert linear["recognized"] == expected
        assert indexed["recognized"] == expected
        rows.append(
            {
                "filters": n,
                "recognized": expected,
                "linear_us": linear["us_per_event"],
                "indexed_us": indexed["us_per_event"],
                "speedup": linear["us_per_event"] / indexed["us_per_event"],
            }
        )

    # The tentpole claim: at 32 deployed filters, indexed dispatch beats
    # the linear scan by at least 4x (each event visits 1 filter, not 32).
    assert rows[-1]["speedup"] >= 4.0

    record_table(
        render_table(
            (
                "deployed filters",
                "recognized",
                "us/event linear",
                "us/event indexed",
                "speedup",
            ),
            [
                (
                    row["filters"],
                    row["recognized"],
                    f"{row['linear_us']:.2f}",
                    f"{row['indexed_us']:.2f}",
                    f"{row['speedup']:.1f}x",
                )
                for row in rows
            ],
            title=(
                "QE7 — per-event dispatch cost: predicate-indexed routing "
                "vs linear scan"
            ),
        )
    )
