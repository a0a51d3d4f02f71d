"""The audit journal and the shard WAL share one on-disk format.

``Journal.save_frames`` writes the CORE audit trail as a durability
frame log — the same length-prefixed, torn-tail-tolerant format the
shard supervisors journal into — and ``Journal.load_frames`` reads it
back for replay through ``recover_core``.
"""

from repro.durability.log import CONTROL_COMPACTED, FrameLog, load_journal
from repro.federation.journal import Journal, recover_core

from tests.federation.test_journal import run_scenario, snapshot


class TestFrameFormatUnification:
    def test_frame_round_trip_recovers_exactly(self, tmp_path):
        system, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save_frames(path)
        reloaded = Journal.load_frames(path)
        assert len(reloaded) == len(journal)
        assert reloaded.records() == journal.records()
        recovered = recover_core(reloaded)
        assert snapshot(recovered) == snapshot(system.core)

    def test_frame_file_is_a_valid_wal(self, tmp_path):
        __, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save_frames(path)
        loaded = load_journal(path)
        assert len(loaded.frames) == len(journal)
        assert not loaded.torn

    def test_load_skips_control_frames(self, tmp_path):
        __, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save_frames(path)
        with FrameLog(path, fsync_every=0) as log:
            log.compact(2)
        reloaded = Journal.load_frames(path)
        assert len(reloaded) == len(journal) - 2
        assert all(
            record.get("kind") != CONTROL_COMPACTED
            for record in reloaded.records()
        )

    def test_save_frames_overwrites_a_previous_file(self, tmp_path):
        __, journal = run_scenario()
        path = str(tmp_path / "audit.log")
        journal.save_frames(path)
        journal.save_frames(path)  # idempotent, not append-doubling
        assert len(Journal.load_frames(path)) == len(journal)
