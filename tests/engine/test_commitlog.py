"""The commit stream, delta coalescing, and delta-based restore."""

import copy

import pytest

from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.commitlog import coalesce_differentials, take_batches
from repro.engine.database import DatabaseSnapshot
from repro.engine.types import INT
from repro.errors import EpochUnavailableError, ForeignSnapshotError


@pytest.fixture
def schema():
    return DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])])


@pytest.fixture
def db(schema):
    database = Database(schema)
    database.load("r", [(1, 1), (2, 2), (3, 3)])
    return database


def _relation(schema, rows, bag=False):
    return Relation(schema.relation("r"), rows, bag=bag)


def _commit(session, text):
    result = session.execute(text)
    assert result.committed
    return result


class TestCommitLog:
    def test_apply_deltas_appends(self, db, schema):
        plus = _relation(schema, [(9, 9)])
        db.apply_deltas({"r": (plus, None)})
        assert len(db.commit_log) == 1
        [record] = list(db.commit_log)
        assert record.sequence == 0
        assert record.pre_time == 0 and record.post_time == 1
        assert record.sizes() == {"r": (1, 0)}

    def test_empty_sides_normalized(self, db, schema):
        empty = _relation(schema, [])
        plus = _relation(schema, [(9, 9)])
        db.apply_deltas({"r": (plus, empty)})
        [record] = list(db.commit_log)
        assert record.differentials["r"] == (plus, None)

    def test_untouched_relation_dropped(self, db, schema):
        empty = _relation(schema, [])
        db.apply_deltas({"r": (empty, None)})
        [record] = list(db.commit_log)
        assert record.is_empty

    def test_transaction_commits_are_recorded(self, db):
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        _commit(session, "begin delete(r, (1, 1)); end")
        records = list(db.commit_log)
        assert [r.sequence for r in records] == [0, 1]
        assert records[0].sizes() == {"r": (1, 0)}
        assert records[1].sizes() == {"r": (0, 1)}

    def test_aborted_transactions_leave_no_record(self, db):
        session = Session(db)
        session.execute("begin insert(r, (7, 7)); abort; end")
        assert len(db.commit_log) == 0

    def test_capacity_eviction_and_lost_count(self, schema):
        database = Database(schema)
        database.epochs.retain = 2
        session = Session(database)
        for value in range(4):
            _commit(session, f"begin insert(r, ({value}, {value})); end")
        log = database.commit_log
        assert len(log) == 2
        assert log.first_sequence == 2
        records, lost = log.since(0)
        assert [r.sequence for r in records] == [2, 3]
        assert lost == 2
        records, lost = log.since(3)
        assert [r.sequence for r in records] == [3]
        assert lost == 0

    def test_since_negative_cursor(self, db):
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        # A cursor below the log's first sequence counts nothing as lost
        # while the log still holds everything from sequence 0.
        records, lost = db.commit_log.since(-5)
        assert [r.sequence for r in records] == [0]
        assert lost == 0

    def test_since_cursor_past_next_sequence(self, db):
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        records, lost = db.commit_log.since(db.commit_log.next_sequence + 10)
        assert records == []
        assert lost == 0

    def test_since_cursor_exactly_on_evicted_boundary(self, schema):
        database = Database(schema)
        database.epochs.retain = 2
        session = Session(database)
        for value in range(4):  # sequences 0..3; 0 and 1 evicted
            _commit(session, f"begin insert(r, ({value}, {value})); end")
        log = database.commit_log
        # Cursor exactly at the first surviving record: nothing lost.
        records, lost = log.since(2)
        assert [r.sequence for r in records] == [2, 3]
        assert lost == 0
        # Cursor on the newest evicted record: exactly one commit lost.
        records, lost = log.since(1)
        assert [r.sequence for r in records] == [2, 3]
        assert lost == 1

    def test_replay_keeps_the_original_sequence(self, db, schema):
        plus = _relation(schema, [(9, 9)])
        db.replay_record(7, 7, 8, {"r": (plus, None)})
        [record] = list(db.commit_log)
        assert (record.sequence, record.pre_time, record.post_time) == (7, 7, 8)
        assert db.commit_log.next_sequence == 8 and db.logical_time == 8
        # Replay cannot rewind below what the log has already assigned.
        with pytest.raises(ValueError):
            db.replay_record(3, 3, 4, {"r": (_relation(schema, [(5, 5)]), None)})
        assert (5, 5) not in db.relation("r")

    def test_between_slices_every_batch_or_raises_for_a_trimmed_one(self, db):
        """Loads and commits alike, by version; a trimmed one is an error,
        never a silent hole (what a process replica would apply)."""
        db.epochs.retain = 1
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        db.load("r", [(8, 8)])
        db.load("r", [(9, 9)])
        version = db.commit_log.version
        assert [r.version for r in db.commit_log.between(version - 1, version)] == [
            version
        ]
        assert db.commit_log.between(version, version) == []
        with pytest.raises(EpochUnavailableError):
            db.commit_log.between(version - 3, version)

    def test_deepcopy_survives_lock(self, db):
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        clone = copy.deepcopy(db)
        assert len(clone.commit_log) == 1

    def test_restore_replay_not_recorded(self, db):
        snapshot = db.snapshot()
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        assert len(db.commit_log) == 1
        db.restore(snapshot)
        # The inverse replay is not a commit: no new record, no delta stat.
        assert len(db.commit_log) == 1


class TestCoalesce:
    def test_consecutive_inserts_merge(self, db):
        session = Session(db)
        first = _commit(session, "begin insert(r, (7, 7)); end")
        second = _commit(session, "begin insert(r, (8, 8)); end")
        merged = coalesce_differentials(
            [first.differentials, second.differentials], db
        )
        plus, minus = merged["r"]
        assert plus.to_set() == {(7, 7), (8, 8)}
        assert minus is None

    def test_insert_then_delete_cancels(self, db):
        session = Session(db)
        first = _commit(session, "begin insert(r, (7, 7)); end")
        second = _commit(session, "begin delete(r, (7, 7)); end")
        merged = coalesce_differentials(
            [first.differentials, second.differentials], db
        )
        assert merged == {}

    def test_delete_then_reinsert_cancels(self, db):
        session = Session(db)
        first = _commit(session, "begin delete(r, (1, 1)); end")
        second = _commit(session, "begin insert(r, (1, 1)); end")
        merged = coalesce_differentials(
            [first.differentials, second.differentials], db
        )
        assert merged == {}

    def test_bag_multiplicities_sum(self, schema):
        database = Database(schema, bag=True)
        plus_a = _relation(schema, [(5, 5), (5, 5)], bag=True)
        plus_b = _relation(schema, [(5, 5)], bag=True)
        merged = coalesce_differentials(
            [{"r": (plus_a, None)}, {"r": (plus_b, None)}], database
        )
        plus, minus = merged["r"]
        assert plus.multiplicity((5, 5)) == 3
        assert minus is None

    def test_bag_coalesce_is_linear_in_distinct_rows(self, schema, monkeypatch):
        # One kernel call per side, regardless of multiplicity — not one
        # insert per occurrence.
        database = Database(schema, bag=True)
        plus = _relation(schema, [(5, 5)], bag=True)
        for _ in range(999):
            plus.insert((5, 5))
        minus = _relation(schema, [(6, 6)], bag=True)
        for _ in range(499):
            minus.insert((6, 6))
        calls = {"count": 0}
        original = Relation.insert_counts

        def counting_insert_counts(self, counts):
            calls["count"] += 1
            return original(self, counts)

        monkeypatch.setattr(Relation, "insert_counts", counting_insert_counts)
        monkeypatch.setattr(
            Relation,
            "insert",
            lambda self, row: pytest.fail("per-occurrence insert in coalesce"),
        )
        merged = coalesce_differentials(
            [{"r": (plus, None)}, {"r": (None, minus)}], database
        )
        assert calls["count"] == 2
        merged_plus, merged_minus = merged["r"]
        assert merged_plus.multiplicity((5, 5)) == 1000
        assert merged_minus.multiplicity((6, 6)) == 500

    def test_take_batches(self, db):
        session = Session(db)
        for value in range(3):
            _commit(session, f"begin insert(r, ({value + 10}, 0)); end")
        records, _ = db.commit_log.since(0)
        assert len(take_batches(records, coalesce=True)) == 1
        assert len(take_batches(records, coalesce=False)) == 3


class TestSnapshotRestore:
    def test_restore_preserves_relation_objects(self, db):
        live = db.relation("r")
        snapshot = db.snapshot()
        Session(db).execute("begin insert(r, (7, 7)); delete(r, (1, 1)); end")
        db.restore(snapshot)
        # In-place frozen delta application: same object, original rows.
        assert db.relation("r") is live
        assert live.to_set() == {(1, 1), (2, 2), (3, 3)}

    def test_restore_resets_logical_time(self, db):
        snapshot = db.snapshot()
        Session(db).execute("begin insert(r, (7, 7)); end")
        assert db.logical_time == 1
        db.restore(snapshot)
        assert db.logical_time == 0

    def test_restore_maintains_built_indexes(self, db):
        db.create_index("r", ["a"])
        snapshot = db.snapshot()
        Session(db).execute("begin insert(r, (7, 7)); end")
        db.restore(snapshot)
        index = db.relation("r").built_index((0,))
        assert index is not None
        assert index.lookup(7) == ()
        assert index.lookup(2) == ((2, 2),)

    def test_snapshot_is_mapping_compatible(self, db):
        snapshot = db.snapshot()
        assert isinstance(snapshot, DatabaseSnapshot)
        assert set(snapshot) == {"r"}
        assert snapshot["r"].to_set() == {(1, 1), (2, 2), (3, 3)}
        assert dict(snapshot) == {"r": snapshot["r"]}

    def test_restore_takes_only_its_own_retained_snapshot(self, db, schema):
        """Restore inverts the batches since the pin, so there is nothing to
        restore from a plain mapping, another database's snapshot, or a pin
        whose batches were reclaimed: each raises a typed error, and the
        state is left as it was."""
        with pytest.raises(ForeignSnapshotError):
            db.restore({"r": _relation(schema, [(9, 9)])})
        other = Database(schema)
        with pytest.raises(ForeignSnapshotError):
            db.restore(other.snapshot())
        snapshot = db.snapshot()
        snapshot.release()
        db.epochs.retain = 1
        session = Session(db)
        _commit(session, "begin insert(r, (7, 7)); end")
        _commit(session, "begin insert(r, (8, 8)); end")
        with pytest.raises(EpochUnavailableError):
            db.restore(snapshot)
        assert db.relation("r").to_set() == {(1, 1), (2, 2), (3, 3), (7, 7), (8, 8)}
        assert db.logical_time == 2

    def test_restore_bag_multiplicities(self, schema):
        database = Database(schema, bag=True)
        database.load("r", [(1, 1), (1, 1), (2, 2)])
        snapshot = database.snapshot()
        database.apply_deltas(
            {"r": (_relation(schema, [(1, 1)], bag=True), _relation(schema, [(2, 2)], bag=True))}
        )
        database.restore(snapshot)
        assert database.relation("r").multiplicity((1, 1)) == 2
        assert database.relation("r").multiplicity((2, 2)) == 1
