"""`docs/instruments.md` names every instrument the system registers.

The catalogue is hand-written (each row names its readers, which no
code can derive), so this test holds its name column to the code: an
`EnactmentSystem` with self-awareness attached, plus a one-shard durable
process federation for the facade's and the supervisor's instruments in
the process-wide default registry.
"""

import multiprocessing
import re
from pathlib import Path

import pytest

from repro import EnactmentSystem
from repro.observability import default_registry
from repro.observability.selfawareness import SelfAwareness
from repro.parallel import ShardConfig, ShardedFederation
from repro.workloads.generator import ShardStreamConfig, ShardStreamWorkload

CATALOGUE = Path(__file__).resolve().parents[2] / "docs" / "instruments.md"

ROW = re.compile(r"^\| `([a-z0-9_]+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \| ([^|]+) \|$")


def catalogued():
    rows = {}
    for line in CATALOGUE.read_text().splitlines():
        match = ROW.match(line)
        if match:
            name, kind, labels, module, readers = match.groups()
            assert name not in rows, f"{name} is catalogued twice"
            rows[name] = (kind.strip(), labels.strip(), readers.strip())
    return rows


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend requires the fork start method",
)
def test_catalogue_names_every_registered_instrument(tmp_path):
    system = EnactmentSystem()
    SelfAwareness(system)
    workload = ShardStreamWorkload(
        ShardStreamConfig(forces=2, windows_per_force=1, events_per_force=10)
    )
    config = ShardConfig(
        shards=1, backend="process", durable_dir=str(tmp_path)
    )
    with ShardedFederation(workload.blueprint(), config) as federation:
        federation.ingest(workload.events())
        federation.drain()
    registered = set(system.metrics.names()) | set(default_registry().names())
    rows = catalogued()
    assert set(rows) == registered
    for name, (kind, labels, readers) in rows.items():
        instrument = system.metrics.get(name) or default_registry().get(name)
        assert kind.split()[0] == instrument.kind, name
        declared = tuple(re.findall(r"`([a-z_]+)`", labels))
        assert declared == instrument.label_names, name
        assert readers, f"{name} names no reader"
        # A snapshot ships label tuples as they are; merge coerces none.
        series = (
            instrument.series_labels()
            if kind == "histogram"
            else tuple(instrument.series())
        )
        for labels in series:
            assert all(type(value) is str for value in labels), (name, labels)
