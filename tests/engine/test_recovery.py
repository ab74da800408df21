"""Crash recovery: checkpoint + replay through the live delta path."""

import copy

import pytest

from repro.engine import (
    Database,
    DatabaseSchema,
    RelationSchema,
    Session,
    recover,
    replay_to,
)
from repro.engine.types import INT, STRING
from repro.engine.wal import WriteAheadLog


@pytest.fixture
def schema():
    return DatabaseSchema(
        [
            RelationSchema("emp", [("id", INT), ("dept", STRING)]),
            RelationSchema("dept", [("name", STRING)]),
        ]
    )


def _state(database):
    return {
        name.name: dict(database.relation(name.name).items())
        for name in database.schema
    }


def _run_workload(database):
    session = Session(database)
    for i in range(5):
        assert session.execute(
            f"begin insert(emp, ({i}, 'd{i % 2}')); end"
        ).committed
    assert session.execute("begin delete(emp, (0, 'd0')); end").committed
    assert session.execute(
        "begin insert(dept, ('d0')); insert(dept, ('d1')); end"
    ).committed


class TestRecover:
    def test_recovered_state_equals_live_state(self, schema, tmp_path):
        database = Database(schema)
        database.load("dept", [("seed",)])
        database.attach_wal(WriteAheadLog(tmp_path))
        _run_workload(database)
        live = _state(database)
        live_time = database.logical_time
        database.detach_wal()

        recovered, report = recover(tmp_path)
        assert _state(recovered) == live
        assert recovered.logical_time == live_time
        assert report.replayed == 7
        assert recovered.wal is not None  # full recovery re-attaches
        recovered.detach_wal()

    def test_recovered_equals_in_memory_replay(self, schema, tmp_path):
        # The acceptance criterion: replaying the durable log produces the
        # same state as replaying the in-memory commit log.
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        reference = copy.deepcopy(database)
        _run_workload(database)
        for record in database.commit_log.since(0)[0]:
            reference.apply_deltas(record.differentials, record=False)
        database.detach_wal()
        recovered, _report = recover(tmp_path, attach=False)
        assert _state(recovered) == _state(reference)

    def test_recovery_continues_committing(self, schema, tmp_path):
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        _run_workload(database)
        database.detach_wal()

        recovered, _ = recover(tmp_path)
        next_before = recovered.commit_log.next_sequence
        Session(recovered).execute("begin insert(emp, (99, 'x')); end")
        assert recovered.commit_log.next_sequence == next_before + 1
        recovered.detach_wal()
        # The appended commit is durable and chained onto the old history.
        final, report = recover(tmp_path, attach=False)
        assert (99, "x") in final.relation("emp")
        assert report.last_sequence == next_before

    def test_recovery_from_late_checkpoint_replays_suffix_only(
        self, schema, tmp_path
    ):
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        _run_workload(database)
        database.wal.write_checkpoint(database)  # checkpoint at #7
        session = Session(database)
        assert session.execute("begin insert(emp, (50, 'z')); end").committed
        live = _state(database)
        database.detach_wal()
        recovered, report = recover(tmp_path, attach=False)
        assert report.checkpoint_sequence == 7
        assert report.replayed == 1
        assert _state(recovered) == live

    def test_replay_preserves_sequences(self, schema, tmp_path):
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        _run_workload(database)
        database.detach_wal()
        recovered, _ = recover(tmp_path, attach=False)
        records, lost = recovered.commit_log.since(0)
        assert lost == 0
        assert [r.sequence for r in records] == list(range(7))


class TestReplayTo:
    def test_point_in_time_prefix(self, schema, tmp_path):
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        session = Session(database)
        states = []
        for i in range(4):
            assert session.execute(
                f"begin insert(emp, ({i}, 'd')); end"
            ).committed
            states.append(_state(database))
        database.detach_wal()
        for sequence, expected in enumerate(states):
            restored, report = replay_to(tmp_path, sequence)
            assert _state(restored) == expected
            assert report.upto == sequence
            assert restored.wal is None  # always detached

    def test_replay_to_minus_one_is_checkpoint_state(self, schema, tmp_path):
        database = Database(schema)
        database.load("dept", [("seed",)])
        database.attach_wal(WriteAheadLog(tmp_path))
        _run_workload(database)
        database.detach_wal()
        restored, report = replay_to(tmp_path, -1)
        assert report.replayed == 0
        assert _state(restored)["dept"] == {("seed",): 1}
        assert _state(restored)["emp"] == {}


class TestLateCheckpointRecovery:
    def _late_checkpoint_run(self, schema, tmp_path):
        """checkpoint@0 -> checkpoint@3 -> checkpoint@7 -> one tail commit;
        returns the live state and the next sequence."""
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        session = Session(database)
        for i in range(3):
            assert session.execute(f"begin insert(emp, ({i}, 'a')); end").committed
        database.checkpoint()
        for i in range(3, 6):
            assert session.execute(f"begin insert(emp, ({i}, 'b')); end").committed
        assert session.execute("begin delete(emp, (0, 'a')); end").committed
        database.checkpoint()
        assert session.execute("begin insert(dept, ('tail')); end").committed
        live = _state(database)
        next_sequence = database.commit_log.next_sequence
        database.detach_wal()
        return live, next_sequence

    def test_late_checkpoint_recovery_equals_live_state(self, schema, tmp_path):
        live, next_sequence = self._late_checkpoint_run(schema, tmp_path)
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert recovered.commit_log.next_sequence == next_sequence
        # The anchor is the newest checkpoint: only the tail replays.
        assert report.checkpoint_sequence == 7
        assert report.replayed == 1
        assert report.skipped == []

    def test_recovered_from_late_checkpoint_keeps_committing(self, schema, tmp_path):
        self._late_checkpoint_run(schema, tmp_path)
        recovered, _ = recover(tmp_path)
        session = Session(recovered)
        assert session.execute("begin insert(emp, (99, 'post')); end").committed
        recovered.detach_wal()
        again, _ = recover(tmp_path, attach=False)
        assert (99, "post") in again.relation("emp")

    def test_deleted_newest_checkpoint_falls_back_to_older_anchor(
        self, schema, tmp_path
    ):
        live, next_sequence = self._late_checkpoint_run(schema, tmp_path)
        newest = WriteAheadLog(tmp_path).checkpoints()[-1][1]
        newest.unlink()
        recovered, report = recover(tmp_path, attach=False)
        assert _state(recovered) == live
        assert recovered.commit_log.next_sequence == next_sequence
        # A checkpoint that is gone is not a skipped one: the older anchor
        # at #3 is simply the newest left, and the log after it replays.
        assert report.checkpoint_sequence == 3
        assert report.replayed == 5
        assert report.skipped == []

    def test_point_in_time_respects_checkpoint_anchors(self, schema, tmp_path):
        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path))
        session = Session(database)
        states = []
        for i in range(6):
            assert session.execute(f"begin insert(emp, ({i}, 'd')); end").committed
            states.append(_state(database))
            if i == 2:
                database.checkpoint()
        database.detach_wal()
        for sequence, expected in enumerate(states):
            restored, _ = replay_to(tmp_path, sequence)
            assert _state(restored) == expected, f"sequence {sequence}"


class TestReplayGap:
    def test_replay_gap_fails_loud(self, schema, tmp_path):
        """Replay never steps over a missing record, in full recovery and
        in point-in-time restore alike.

        Checkpoint #0, six commits, checkpoint #6, six more commits on
        tiny segments: rotation purges the segments below #6 and, with
        them, checkpoint #0.  Putting a saved copy of #0 back (a purge cut
        short between unlinking segments and unlinking checkpoints) and
        tearing #6 leaves recovery an anchor at #0 whose records #0..#5
        are gone.
        """
        from repro.errors import WalError

        database = Database(schema)
        database.attach_wal(WriteAheadLog(tmp_path, segment_bytes=256))
        first = database.wal.latest_checkpoint()[1]
        saved = first.read_bytes()
        session = Session(database)
        for i in range(12):
            if i == 6:
                second = database.checkpoint()
            assert session.execute(f"begin insert(emp, ({i}, 'a')); end").committed
        database.detach_wal()
        assert not first.exists()  # purged with the segments it anchored
        assert next(WriteAheadLog(tmp_path).scan(decode=False)).sequence == 6
        first.write_bytes(saved)
        second.write_bytes(second.read_bytes()[: second.stat().st_size // 2])
        with pytest.raises(WalError, match=r"#0\.\.#5 after checkpoint #0"):
            recover(tmp_path, attach=False)
        with pytest.raises(WalError, match=r"#0\.\.#5 after checkpoint #0"):
            replay_to(tmp_path, 10)
