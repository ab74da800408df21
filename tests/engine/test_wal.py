"""The durable, hash-chained write-ahead log: format, rotation, retention."""

import os

import pytest

from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT
from repro.engine.wal import (
    CHAIN_ROOT,
    HEADER_SIZE,
    RECORD_HEADER_SIZE,
    WriteAheadLog,
    verify_directory,
)
from repro.errors import WalCorruptionError, WalError


@pytest.fixture
def schema():
    return DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])])


@pytest.fixture
def db(schema):
    database = Database(schema)
    database.load("r", [(1, 1), (2, 2)])
    return database


def _commit_n(database, n, start=10):
    session = Session(database)
    for value in range(start, start + n):
        result = session.execute(f"begin insert(r, ({value}, 0)); end")
        assert result.committed


class TestAppendScan:
    def test_round_trip(self, db, tmp_path):
        wal = WriteAheadLog(tmp_path)
        db.attach_wal(wal)
        _commit_n(db, 3)
        records = list(wal.scan())
        assert [r.sequence for r in records] == [0, 1, 2]
        plus, minus = records[0].differentials["r"]
        assert plus.to_set() == {(10, 0)}
        assert minus is None
        db.detach_wal()

    def test_chain_hashes_link(self, db, tmp_path):
        wal = WriteAheadLog(tmp_path)
        db.attach_wal(wal)
        _commit_n(db, 2)
        first, second = list(wal.scan(decode=False))
        # Each blob stores its predecessor's chain hash; the first roots
        # at the segment header (CHAIN_ROOT for the very first segment).
        path = tmp_path / first.segment
        data = path.read_bytes()
        blob1 = data[first.offset + RECORD_HEADER_SIZE : first.offset + first.length]
        blob2 = data[second.offset + RECORD_HEADER_SIZE : second.offset + second.length]
        assert blob1[:32] == CHAIN_ROOT
        assert blob2[:32] == first.chain_hash
        db.detach_wal()

    def test_scan_window(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 5)
        assert [r.sequence for r in db.wal.scan(start_sequence=2, upto=3)] == [2, 3]
        db.detach_wal()

    def test_reopen_resumes_chain(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 2)
        db.detach_wal()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.next_sequence == 2
        db.attach_wal(reopened, checkpoint=False)
        _commit_n(db, 1, start=50)
        verification = verify_directory(tmp_path)
        assert verification.ok and verification.records == 3
        db.detach_wal()

    def test_sync_policies_accepted(self, db, tmp_path):
        for policy in ("commit", "interval", "none"):
            directory = tmp_path / policy
            database = Database(db.schema)
            database.attach_wal(WriteAheadLog(directory, sync=policy))
            _commit_n(database, 2)
            database.wal.sync()
            assert database.wal.durable_through == 1
            database.detach_wal()
            assert verify_directory(directory).ok

    def test_unknown_sync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, sync="eventually")


class TestRotation:
    def test_byte_rotation_creates_segments(self, db, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        db.attach_wal(wal)
        _commit_n(db, 8)
        assert len(wal.segments()) > 1
        assert [r.sequence for r in wal.scan()] == list(range(8))
        assert verify_directory(tmp_path).ok
        db.detach_wal()

    def test_purge_respects_consumers_and_checkpoints(self, db, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        db.attach_wal(wal)
        _commit_n(db, 8)
        wal.advance_consumer("lagging", 0)
        wal.write_checkpoint(db)
        assert wal.purge() == []  # the lagging consumer pins everything
        wal.advance_consumer("lagging", 8)
        removed = wal.purge()
        assert removed  # checkpoint at #8 + consumer at #8: old segments go
        assert [r.sequence for r in wal.scan()] != []  # tail survives
        # Checkpoint #0 lost its records with those segments; the newest
        # checkpoint always stays.
        assert [seq for seq, _ in wal.checkpoints()] == [8]
        db.detach_wal()

    def test_purge_keeps_superseded_checkpoint_while_its_records_survive(
        self, db, tmp_path
    ):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        db.attach_wal(wal)
        _commit_n(db, 3)
        at_three = db.relation("r").to_set()
        _commit_n(db, 5, start=50)
        wal.advance_consumer("lagging", 0)
        wal.write_checkpoint(db)
        assert wal.purge() == []
        # Records #0..#7 all survive, so checkpoint #0 still anchors a
        # point-in-time restore below the newest checkpoint.
        assert [seq for seq, _ in wal.checkpoints()] == [0, 8]
        db.detach_wal()
        from repro.engine.recovery import replay_to

        restored, report = replay_to(tmp_path, 2)
        assert report.checkpoint_sequence == 0
        assert restored.relation("r").to_set() == at_three

    def test_purge_without_checkpoint_keeps_everything(self, db, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=256)
        db.attach_wal(wal, checkpoint=False)
        _commit_n(db, 8)
        assert wal.purge() == []
        db.detach_wal()

    def test_consumer_watermarks_persist(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.advance_consumer("audit", 3)
        wal.advance_consumer("audit", 5)
        wal.advance_consumer("audit", 4)  # monotonic: no rewind
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.consumers == {"audit": 5}
        assert reopened.retention_floor() == 5
        reopened.release_consumer("audit")
        assert reopened.retention_floor() is None
        reopened.close()


class TestTornTail:
    def _populate(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 3)
        db.detach_wal()
        [segment] = [p for p in tmp_path.iterdir() if p.suffix == ".wal"]
        return segment

    def test_truncated_tail_repairs_to_prefix(self, db, tmp_path):
        segment = self._populate(db, tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-5])  # tear the last record's bytes
        verification = verify_directory(tmp_path)
        assert verification.ok and verification.torn_tail is not None
        wal = WriteAheadLog(tmp_path)
        assert wal.tail_repair is not None
        assert [r.sequence for r in wal.scan()] == [0, 1]
        assert wal.next_sequence == 2
        wal.close()

    def test_tail_crc_damage_is_torn_not_corrupt(self, db, tmp_path):
        segment = self._populate(db, tmp_path)
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0x40  # flip a bit inside the last record's body
        segment.write_bytes(bytes(data))
        verification = verify_directory(tmp_path)
        assert verification.ok
        assert verification.torn_tail[2] == "record CRC mismatch"
        wal = WriteAheadLog(tmp_path)
        assert [r.sequence for r in wal.scan()] == [0, 1]
        wal.close()

    def test_append_after_repair_continues_chain(self, db, tmp_path):
        segment = self._populate(db, tmp_path)
        segment.write_bytes(segment.read_bytes()[:-5])
        database = Database.recover(tmp_path)
        assert database.last_recovery.torn_tail is not None
        _commit_n(database, 1, start=90)
        database.detach_wal()
        verification = verify_directory(tmp_path)
        assert verification.ok and verification.torn_tail is None
        assert verification.last_sequence == 2  # repaired #2 slot reused


class TestCorruption:
    def _populate(self, db, tmp_path, segment_bytes=1 << 20):
        db.attach_wal(WriteAheadLog(tmp_path, segment_bytes=segment_bytes))
        _commit_n(db, 4)
        db.detach_wal()
        return sorted(p for p in tmp_path.iterdir() if p.suffix == ".wal")

    def test_mid_segment_bitflip_breaks_verification_or_prefixes(self, db, tmp_path):
        [segment] = self._populate(db, tmp_path)
        wal = WriteAheadLog(tmp_path)
        first = next(iter(wal.scan(decode=False)))
        wal.close()
        data = bytearray(segment.read_bytes())
        # Flip a bit inside the *first* record's stored chain hash: the CRC
        # fails, so scanning stops there — records after it are dropped,
        # but what survives is still an exact commit-boundary prefix.
        data[first.offset + RECORD_HEADER_SIZE + 4] ^= 0x01
        segment.write_bytes(bytes(data))
        verification = verify_directory(tmp_path)
        assert verification.records == 0
        assert verification.torn_tail is not None

    def test_sealed_segment_damage_is_corruption(self, db, tmp_path):
        segments = self._populate(db, tmp_path, segment_bytes=200)
        assert len(segments) > 1
        sealed = segments[0]
        data = bytearray(sealed.read_bytes())
        data[-3] ^= 0x40
        sealed.write_bytes(bytes(data))
        verification = verify_directory(tmp_path)
        assert not verification.ok
        assert verification.broken[0] == sealed.name
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog(tmp_path).scan())

    def test_forged_record_breaks_chain(self, db, tmp_path):
        # Rewrite a record body *and* its CRC (a deliberate tamper): the
        # CRC verifies, but the successor's stored hash no longer matches.
        import struct
        from zlib import crc32

        [segment] = self._populate(db, tmp_path)
        wal = WriteAheadLog(tmp_path)
        records = list(wal.scan(decode=False))
        wal.close()
        victim = records[1]
        data = bytearray(segment.read_bytes())
        blob_start = victim.offset + RECORD_HEADER_SIZE
        blob = bytearray(data[blob_start : victim.offset + victim.length])
        blob[-1] ^= 0xFF  # tamper with the pickled payload
        data[victim.offset : blob_start] = struct.pack(
            "<II", len(blob), crc32(bytes(blob))
        )
        data[blob_start : victim.offset + victim.length] = blob
        segment.write_bytes(bytes(data))
        verification = verify_directory(tmp_path)
        assert not verification.ok
        assert verification.broken[2] in (
            "undecodable record payload",
            "record breaks the hash chain "
            "(stored predecessor hash mismatch)",
        )

    def test_damaged_header_is_corruption(self, db, tmp_path):
        [segment] = self._populate(db, tmp_path)
        data = bytearray(segment.read_bytes())
        data[1] ^= 0xFF  # inside the magic
        segment.write_bytes(bytes(data))
        verification = verify_directory(tmp_path)
        assert not verification.ok
        assert verification.broken == (segment.name, 0, "damaged segment header")


class TestCheckpoints:
    def test_attach_writes_anchor_checkpoint(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        assert db.wal.latest_checkpoint() is not None
        db.detach_wal()

    def test_point_in_time_uses_applicable_checkpoint(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 3)
        db.wal.write_checkpoint(db)  # checkpoint at #3
        _commit_n(db, 2, start=50)
        wal = db.wal
        assert wal.latest_checkpoint()[0] == 3
        # Restoring to #1 must not use the #3 checkpoint (too new).
        assert wal.latest_checkpoint(before=1)[0] == 0
        assert wal.latest_checkpoint(before=2)[0] == 3
        db.detach_wal()

    def test_missing_checkpoint_fails_loud(self, tmp_path):
        WriteAheadLog(tmp_path).close()
        with pytest.raises(WalError):
            Database.recover(tmp_path)

    def test_database_checkpoint_api(self, db, tmp_path):
        with pytest.raises(WalError):
            db.checkpoint()
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 2)
        path = db.checkpoint()
        assert path.name.endswith(".ckpt")
        assert db.wal.latest_checkpoint() == (2, path)
        db.detach_wal()

    def test_checkpoint_without_new_commits_rewrites_the_same_file(
        self, db, tmp_path
    ):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 2)
        first = db.checkpoint()
        again = db.checkpoint()
        assert again == first
        assert [seq for seq, _ in db.wal.checkpoints()] == [0, 2]
        assert not list(tmp_path.glob("*.tmp"))
        db.detach_wal()

    def test_checkpoints_listed_in_sequence_order(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 2)
        db.checkpoint()
        _commit_n(db, 9, start=50)
        db.checkpoint()
        # Other suffixes under the checkpoint prefix are not checkpoints.
        (tmp_path / "checkpoint-0000000000000005.dckpt").write_bytes(b"x")
        (tmp_path / "checkpoint-notanumber.ckpt").write_bytes(b"x")
        listed = db.wal.checkpoints()
        assert [seq for seq, _ in listed] == [0, 2, 11]
        assert {path.suffix for _, path in listed} == {".ckpt"}
        db.detach_wal()

    def test_torn_newest_checkpoint_is_skipped_and_reported(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 3)
        db.checkpoint()
        _commit_n(db, 3, start=50)
        newest = db.checkpoint()
        expected = db.relation("r").to_set()
        db.detach_wal()
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        wal = WriteAheadLog(tmp_path)
        anchor, skipped = wal.load_newest_checkpoint()
        assert anchor[0] == 3
        assert [name for name, _error in skipped] == [newest.name]
        wal.close()
        from repro.engine.recovery import recover

        recovered, report = recover(tmp_path, attach=False)
        assert recovered.relation("r").to_set() == expected
        assert report.checkpoint_sequence == 3
        assert [name for name, _error in report.skipped] == [newest.name]
        assert f"skipped {newest.name}" in repr(report)

    def test_unloadable_checkpoints_fail_loud_naming_each(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 2)
        db.detach_wal()
        for _seq, path in WriteAheadLog(tmp_path).checkpoints():
            path.write_bytes(b"garbage")
        with pytest.raises(WalError, match=r"skipped checkpoint-0+\.ckpt"):
            Database.recover(tmp_path)

    def test_stray_tmp_files_are_ignored(self, db, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        _commit_n(db, 2)
        (tmp_path / "checkpoint-0000000000000002.tmp").write_bytes(b"partial")
        assert [s for s, _ in db.wal.checkpoints()] == [0]
        anchor, skipped = db.wal.load_newest_checkpoint()
        assert anchor[0] == 0 and skipped == []
        db.detach_wal()
