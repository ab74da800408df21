"""Crashes in the checkpoint pipeline: a torn checkpoint never loses commits.

Checkpoints are written atomically (temp file + ``os.replace``), so a
crash at any point of a second checkpoint leaves one of three artifacts:
no new file, a stray ``.tmp``, or a whole checkpoint.  Bytes torn some
other way (a copy cut short) make a checkpoint that does not load.  In
every case the WAL still holds all committed records, so recovery must
produce exactly the live pre-crash state — the checkpoint only changes
*where replay starts*, never what it reaches — and a checkpoint it had to
skip is named in the report.
"""

from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.recovery import recover
from repro.engine.types import INT
from repro.engine.wal import WriteAheadLog


def _schema():
    return DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])])


def _state(database):
    return dict(database.relation("r").items())


def _run(directory):
    """Checkpoint, commits, second checkpoint, one tail commit.

    Returns the live state and the second checkpoint's path.
    """
    database = Database(_schema())
    database.load("r", [(1, 1)])
    database.attach_wal(WriteAheadLog(directory, sync="commit"))
    session = Session(database)
    for i in range(3):
        assert session.execute(f"begin insert(r, ({10 + i}, 0)); end").committed
    database.checkpoint()  # at #3
    for i in range(3):
        assert session.execute(f"begin insert(r, ({20 + i}, 0)); end").committed
    second = database.checkpoint()  # at #6
    assert session.execute("begin insert(r, (30, 0)); end").committed
    live = _state(database)
    database.detach_wal()
    return live, second


class TestCheckpointCrashes:
    def test_crash_before_second_checkpoint_lands(self, tmp_path):
        """The second checkpoint never made it to disk: replay from the first."""
        live, second = _run(tmp_path)
        second.unlink()
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert report.checkpoint_sequence == 3
        assert report.replayed == 4
        assert report.skipped == []

    def test_crash_mid_checkpoint_write_leaves_tmp(self, tmp_path):
        """A torn atomic write leaves only a ``.tmp`` — invisible to
        recovery, which anchors at the checkpoint before it."""
        live, second = _run(tmp_path)
        torn = second.read_bytes()[: max(4, second.stat().st_size // 2)]
        second.with_suffix(".tmp").write_bytes(torn)
        second.unlink()
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert report.checkpoint_sequence == 3
        assert report.skipped == []

    def test_crash_after_checkpoint_replays_tail_only(self, tmp_path):
        """The second checkpoint landed whole: only the tail commit replays."""
        live, _second = _run(tmp_path)
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert report.checkpoint_sequence == 6
        assert report.replayed == 1

    def test_torn_checkpoint_bytes_fall_back_and_are_reported(self, tmp_path):
        """A half-written ``.ckpt`` (no atomic rename, e.g. copied by an
        operator) is skipped and reported: the older checkpoint recovers
        the exact same state."""
        live, second = _run(tmp_path)
        second.write_bytes(second.read_bytes()[: second.stat().st_size // 2])
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert report.checkpoint_sequence == 3
        assert [name for name, _error in report.skipped] == [second.name]
        assert f"skipped {second.name}" in repr(report)

    def test_crash_between_repeated_checkpoints(self, tmp_path):
        """Checkpoints #1, #2, (torn) #3: the newest intact one anchors."""
        database = Database(_schema())
        database.attach_wal(WriteAheadLog(tmp_path, sync="commit"))
        session = Session(database)
        assert session.execute("begin insert(r, (1, 0)); end").committed
        database.checkpoint()  # at #1
        assert session.execute("begin insert(r, (2, 0)); end").committed
        first = database.checkpoint()  # at #2
        assert session.execute("begin insert(r, (3, 0)); end").committed
        second = database.checkpoint()  # at #3
        live = _state(database)
        database.detach_wal()
        assert first != second
        second.write_bytes(second.read_bytes()[:8])
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert report.checkpoint_sequence == 2
        assert report.replayed == 1
        assert [name for name, _error in report.skipped] == [second.name]
