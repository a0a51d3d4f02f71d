"""The audit journal and the shard WAL share one on-disk format.

``Journal.save`` writes the CORE audit trail as a durability frame log —
the same length-prefixed, torn-tail-tolerant format the shard supervisors
journal into — and ``Journal.load`` reads it back for replay through
``recover_core``.  It is the journal's only file format: a JSON-lines
file of earlier builds is refused.
"""

import json

import pytest

from repro.durability.log import CONTROL_COMPACTED, FrameLog, load_journal
from repro.federation.journal import Journal, RecoveryError, recover_core

from tests.federation.test_journal import run_scenario, snapshot


class TestFrameFormatUnification:
    def test_frame_round_trip_recovers_exactly(self, tmp_path):
        system, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save(path)
        reloaded = Journal.load(path)
        assert len(reloaded) == len(journal)
        assert reloaded.records() == journal.records()
        recovered = recover_core(reloaded)
        assert snapshot(recovered) == snapshot(system.core)

    def test_frame_file_is_a_valid_wal(self, tmp_path):
        __, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save(path)
        loaded = load_journal(path)
        assert len(loaded.frames) == len(journal)
        assert not loaded.torn

    def test_load_skips_control_frames(self, tmp_path):
        __, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save(path)
        with FrameLog(path, fsync_every=0) as log:
            log.compact(2)
        reloaded = Journal.load(path)
        assert len(reloaded) == len(journal) - 2
        assert all(
            record.get("kind") != CONTROL_COMPACTED
            for record in reloaded.records()
        )

    def test_save_overwrites_a_previous_file(self, tmp_path):
        __, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save(path)
        journal.save(path)  # idempotent, not append-doubling
        assert len(Journal.load(path)) == len(journal)

    def test_a_json_lines_file_is_refused(self, tmp_path):
        __, journal = run_scenario()
        path = tmp_path / "audit.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in journal.records())
        )
        with pytest.raises(RecoveryError, match="JSON-lines.*1f2fb7c"):
            Journal.load(str(path))
