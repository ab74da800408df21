"""Epoch-based MVCC: pins, O(Δ) snapshots, reclamation, the one write path."""

import pickle
import threading
from collections import Counter

import pytest

from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.epochs import DEFAULT_RETAIN, EpochManager, fold_inverse
from repro.engine.overlay import OverlayRelation
from repro.engine.types import INT
from repro.errors import EpochUnavailableError, OutOfBandMutationError


@pytest.fixture
def rs_schema():
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )


@pytest.fixture
def rdb(rs_schema):
    database = Database(rs_schema)
    database.load("r", [(1, 1), (2, 2), (3, 3)])
    database.load("s", [(1, 10)])
    return database


def commit(database, name, plus=None, minus=None):
    schema = database.relation_schema(name)
    bag = database.bag
    differentials = {
        name: (
            Relation(schema, plus or [], bag=bag) if plus is not None else None,
            Relation(schema, minus or [], bag=bag) if minus is not None else None,
        )
    }
    return database.apply_deltas(differentials)


class TestFoldInverse:
    def test_inverse_composition_cancels(self, rs_schema):
        schema = rs_schema.relation("r")
        plus = Relation(schema, bag=True)
        minus = Relation(schema, bag=True)
        # Commit 1 inserts (1,1); its inverse deletes it.
        fold_inverse(plus, minus, (Relation(schema, [(1, 1)], bag=True), None))
        assert minus.multiplicity((1, 1)) == 1 and len(plus) == 0
        # Commit 2 deletes (1,1); the two inverses cancel exactly.
        fold_inverse(plus, minus, (None, Relation(schema, [(1, 1)], bag=True)))
        assert len(plus) == 0 and len(minus) == 0

    def test_no_row_on_both_sides(self, rs_schema):
        schema = rs_schema.relation("r")
        plus = Relation(schema, bag=True)
        minus = Relation(schema, bag=True)
        fold_inverse(plus, minus, (None, Relation(schema, [(5, 5)], bag=True)))
        fold_inverse(plus, minus, (Relation(schema, [(5, 5)], bag=True), None))
        assert (5, 5) not in plus or (5, 5) not in minus


    @pytest.mark.parametrize("bag", [False, True])
    def test_a_whole_delta_folds_like_its_rows_one_by_one(self, rs_schema, bag):
        schema = rs_schema.relation("r")

        def relation(rows):
            return Relation(schema, rows, bag=bag)

        deltas = [
            (relation([(1, 1), (2, 2), (2, 2), (3, 3)]), relation([(7, 7), (8, 8)])),
            (relation([(7, 7), (9, 9)]), relation([(1, 1), (2, 2), (6, 6)])),
            (None, relation([(2, 2), (3, 3), (9, 9), (9, 9)])),
            (relation([(6, 6), (6, 6), (8, 8)]), None),
        ]
        plus, minus = relation([]), relation([])
        plus.index_on((0,))
        expected = Counter()  # signed net undo, one row at a time
        for dplus, dminus in deltas:
            fold_inverse(plus, minus, (dplus, dminus))
            for side, sign in ((dminus, 1), (dplus, -1)):
                for row, count in side.items() if side is not None else ():
                    expected[row] += sign * count
            assert dict(plus.items()) == {r: n for r, n in expected.items() if n > 0}
            assert dict(minus.items()) == {r: -n for r, n in expected.items() if n < 0}
            assert set(plus.built_index((0,)).buckets) == {row[0] for row in plus}


class TestEpochPinning:
    def test_pinned_reads_survive_later_commits(self, rdb):
        pin = rdb.epochs.pin()
        before = sorted(pin.relation("r"))
        commit(rdb, "r", plus=[(9, 9)])
        commit(rdb, "r", minus=[(1, 1)])
        assert sorted(pin.relation("r")) == before
        assert sorted(rdb.relation("r")) == [(2, 2), (3, 3), (9, 9)]
        pin.release()

    def test_pin_is_o_delta_not_a_copy(self, rdb):
        pin = rdb.epochs.pin()
        snap = pin.relation("r")
        # Before any commit lands the snapshot holds no private rows at
        # all — its base *is* the live dict, undo sides empty.
        assert snap.base is rdb.relation("r")
        assert len(snap.plus._rows) == 0 and len(snap.minus._rows) == 0
        commit(rdb, "r", plus=[(9, 9)])
        # One commit of one row: the undo delta holds exactly one row.
        assert snap.multiplicity((9, 9)) == 0
        assert len(snap.minus._rows) == 1
        pin.release()

    def test_public_epoch_is_commit_sequence(self, rdb):
        assert rdb.epochs.current_epoch == rdb.commit_log.next_sequence
        pin = rdb.epochs.pin()
        assert pin.epoch == rdb.commit_log.next_sequence
        commit(rdb, "r", plus=[(9, 9)])
        assert rdb.epochs.current_epoch == pin.epoch + 1
        pin.release()

    def test_snapshot_relation_is_read_only(self, rdb):
        with rdb.epochs.pin() as pin:
            snap = pin.relation("r")
            with pytest.raises(TypeError):
                snap.insert((7, 7))
            with pytest.raises(TypeError):
                snap.clear()

    def test_multiplicity_through_pin_in_bag_mode(self, rs_schema):
        database = Database(rs_schema, bag=True)
        database.load("r", [(1, 1), (1, 1)])
        pin = database.epochs.pin()
        commit(database, "r", plus=[(1, 1)])
        assert pin.relation("r").multiplicity((1, 1)) == 2
        assert database.relation("r").multiplicity((1, 1)) == 3
        pin.release()

    def test_release_is_idempotent_and_context_managed(self, rdb):
        pin = rdb.epochs.pin()
        pin.release()
        pin.release()
        with rdb.epochs.pin() as pin2:
            assert pin2.version in rdb.epochs.pinned_versions()
        assert pin2.version not in rdb.epochs.pinned_versions()


class TestReclamation:
    def test_entries_trimmed_once_unpinned(self, rs_schema):
        database = Database(rs_schema)
        database.epochs.retain = 4
        for i in range(20):
            commit(database, "r", plus=[(i, i)])
        assert database.epochs.retained() <= 4 + 1
        assert database.epochs.reclaimed > 0

    def test_pin_holds_back_reclamation(self, rs_schema):
        database = Database(rs_schema)
        database.epochs.retain = 2
        pin = database.epochs.pin()
        for i in range(10):
            commit(database, "r", plus=[(i, i)])
        # All ten entries must survive: the pin still needs them.
        assert database.epochs.retained() == 10
        assert sorted(pin.relation("r")) == []
        pin.release()
        commit(database, "r", plus=[(99, 99)])
        assert database.epochs.retained() <= 3

    def test_a_pinned_older_version_holds_back_reclamation(self, rs_schema):
        database = Database(rs_schema)
        database.epochs.retain = 2
        commit(database, "r", plus=[(0, 0)])
        database.load("s", [(5, 5)])  # a batch with no commit sequence
        head = database.epochs.pin()
        commit(database, "r", plus=[(1, 1)])
        older = database.epochs.pin_version(head.version)
        # The same version and epoch as a pin taken at it.
        assert (older.version, older.epoch) == (head.version, head.epoch) == (2, 1)
        head.release()
        for i in range(10):
            commit(database, "r", plus=[(i + 10, i)])
        assert database.epochs.retained() == 11  # every record after it
        assert sorted(older.relation("r")) == [(0, 0)]
        older.release()
        commit(database, "r", plus=[(99, 99)])
        with pytest.raises(EpochUnavailableError):
            database.epochs.pin_version(head.version)

    def test_a_trimmed_version_is_reported_as_a_version(self, rs_schema):
        # Stream version 1 is the state after the first load and before any
        # commit: public epoch #0.  Only the version is known where it is
        # found trimmed, so nothing may call it an epoch.
        database = Database(rs_schema)
        database.epochs.retain = 2
        database.load("s", [(5, 5)])
        for i in range(3):
            commit(database, "r", plus=[(i, i)])
        for i in range(4):
            database.load("s", [(i + 10, i)])
        version = database.commit_log.version
        for trimmed in (
            lambda: database.commit_log.between(1, version),
            lambda: database.epochs.pin_version(1),
        ):
            with pytest.raises(EpochUnavailableError) as raised:
                trimmed()
            assert (raised.value.version, raised.value.epoch) == (1, None)
            assert str(raised.value) == "stream version 1 is no longer reconstructible"

    def test_fresh_read_after_reclamation_raises(self, rs_schema):
        database = Database(rs_schema)
        database.epochs.retain = 1
        pin = database.epochs.pin()
        pin.release()
        for i in range(5):
            commit(database, "r", plus=[(i, i)])
        with pytest.raises(EpochUnavailableError) as raised:
            pin.relation("r").sorted_rows()
        assert (raised.value.version, raised.value.epoch) == (pin.version, pin.epoch)
        assert f"epoch #{pin.epoch} " in str(raised.value)

    def test_materialized_snapshot_outlives_reclamation(self, rs_schema):
        database = Database(rs_schema)
        database.load("r", [(1, 1)])
        database.epochs.retain = 1
        pin = database.epochs.pin()
        snap = pin.relation("r")
        rows = snap.sorted_rows()  # materializes
        pin.release()
        for i in range(5):
            commit(database, "r", plus=[(i + 10, i)])
        assert snap.sorted_rows() == rows == [(1, 1)]

    def test_default_retain_matches_commit_log_window(self, rs_schema):
        assert EpochManager(Database(rs_schema)).retain == DEFAULT_RETAIN


class TestMaterialization:
    def test_a_reader_one_commit_behind_copies_once(self, rdb, monkeypatch):
        """A reader that pins, lets one commit land and then scans, ten
        times over, copies the relation once: every later scan adopts the
        dead previous snapshot's dict and rolls it forward one commit."""
        copies = []
        merged_rows = OverlayRelation._merged_rows

        def counted(self):
            copies.append(self.schema.name)
            return merged_rows(self)

        monkeypatch.setattr(OverlayRelation, "_merged_rows", counted)
        for i in range(10):
            pin = rdb.epochs.pin()
            pinned = dict(rdb.relation("r")._rows)
            previous = [(99 + i, i - 1)] if i else None
            commit(rdb, "r", plus=[(100 + i, i)], minus=previous)
            assert dict(pin.relation("r").items()) == pinned
            pin.release()
        assert copies == ["r"]

    def test_a_fork_copies_a_pinned_relation_once_and_files_nothing(self, rdb):
        """A checkpoint's fork is not a reader: each relation is merged
        straight into the fork, the snapshot stays unmaterialized, and no
        dict is left filed for recycling."""
        snapshot = rdb.snapshot()
        pinned = snapshot["r"]  # held: the fork copies this very view
        commit(rdb, "r", plus=[(9, 9)])
        fork = rdb.fork(snapshot)
        assert sorted(fork.relation("r")) == [(1, 1), (2, 2), (3, 3)]
        assert fork.relation("s") == rdb.relation("s")
        assert fork.relation("s")._rows is not rdb.relation("s")._rows
        assert pinned._materialized is None
        assert rdb.epochs._mat_cache == {}
        snapshot.release()


def _interleave_at_first_check(target, interleave, monkeypatch):
    """Run ``interleave`` once, right after this thread first finds
    ``target`` unmaterialized, so the read it is starting carries on as
    if another thread had materialized the snapshot under it."""
    slot = OverlayRelation.__dict__["_materialized"]
    reader = threading.get_ident()
    pending = [interleave]

    def get(relation):
        value = slot.__get__(relation, type(relation))
        if value is None and relation is target and pending:
            if threading.get_ident() == reader:
                pending.pop()()
        return value

    monkeypatch.setattr(
        OverlayRelation, "_materialized", property(get, slot.__set__)
    )


class TestMaterializationRaces:
    @pytest.mark.parametrize("other", ["materializes"])
    @pytest.mark.parametrize("read", ["fork", "len", "in", "lookup"])
    def test_a_read_racing_a_materialization_sees_the_pinned_state(
        self, rdb, monkeypatch, read, other
    ):
        """One thread starts a read (or a checkpoint's fork) of a pinned
        relation after a commit; another materializes that snapshot, and
        then one more commit lands.  The read answers from the frozen rows:
        the undo stops syncing once the snapshot materializes, so the live
        base corrected by it is not the pinned state."""
        rdb.create_index("r", ["a"])
        snapshot = rdb.snapshot()
        view = snapshot["r"]
        commit(rdb, "r", plus=[(9, 9)])
        index = view.index_on((0,))

        def interleave():
            thread = threading.Thread(target=lambda: view._rows)
            thread.start()
            thread.join()
            commit(rdb, "r", plus=[(8, 8)])

        _interleave_at_first_check(view, interleave, monkeypatch)
        if read == "fork":
            assert sorted(rdb.fork(snapshot).relation("r")) == [(1, 1), (2, 2), (3, 3)]
        elif read == "len":
            assert len(view) == 3
        elif read == "in":
            assert (8, 8) not in view
        else:
            assert index.lookup(8) == ()
        assert sorted(view) == [(1, 1), (2, 2), (3, 3)]
        assert sorted(rdb.relation("r")) == [(1, 1), (2, 2), (3, 3), (8, 8), (9, 9)]
        snapshot.release()

    def test_a_gated_read_of_a_changed_relation_materializes_outside_it(
        self, rdb, monkeypatch
    ):
        """``rows_and_counts`` of a snapshot whose undo is not empty copies
        the relation, and a copy takes the write gate: a read that lost
        every optimistic round, and so holds the gate, must not copy
        inside its bracket."""
        monkeypatch.setattr("repro.engine.epochs.READ_RETRY_LIMIT", 0)
        pin = rdb.epochs.pin()
        view = pin.relation("r")
        commit(rdb, "r", plus=[(9, 9)])
        result = []
        reader = threading.Thread(
            target=lambda: result.append(view.rows_and_counts()), daemon=True
        )
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "the gated read deadlocked on its own copy"
        rows, counts = result[0]
        assert sorted(rows) == [(1, 1), (2, 2), (3, 3)] and counts is None
        pin.release()


class TestUndoDifferentials:
    def test_restore_is_o_delta(self, rdb):
        epochs = rdb.epochs
        version = epochs.version
        commit(rdb, "r", plus=[(9, 9)], minus=[(1, 1)])
        undo = epochs.undo_differentials(version)
        plus, minus = undo["r"]
        assert sorted(plus) == [(1, 1)] and sorted(minus) == [(9, 9)]

    def test_clean_state_returns_empty(self, rdb):
        assert rdb.epochs.undo_differentials(rdb.epochs.version) == {}

    def test_unavailable_returns_none(self, rs_schema):
        database = Database(rs_schema)
        database.epochs.retain = 1
        version = database.epochs.version
        for i in range(5):
            commit(database, "r", plus=[(i, i)])
        assert database.epochs.undo_differentials(version) is None


class TestEpochSpans:
    def test_span_brackets_pre_and_post_states(self, rdb):
        first = rdb.commit_log.next_sequence
        commit(rdb, "r", plus=[(9, 9)])
        span = rdb.epochs.pin_span(first, first)
        assert span is not None
        assert (9, 9) not in span.pre_relation("r")
        assert (9, 9) in span.post_relation("r")
        # Later commits do not shift the bracketed states.
        commit(rdb, "r", minus=[(9, 9)])
        assert (9, 9) in span.post_relation("r")
        assert (9, 9) not in rdb.relation("r")
        span.release()

    def test_span_covering_a_batch_sees_both_ends(self, rdb):
        first = rdb.commit_log.next_sequence
        commit(rdb, "r", plus=[(9, 9)])
        last = rdb.commit_log.next_sequence
        commit(rdb, "r", plus=[(8, 8)], minus=[(1, 1)])
        span = rdb.epochs.pin_span(first, last)
        assert span is not None
        pre, post = span.pre_relation("r"), span.post_relation("r")
        assert sorted(pre) == [(1, 1), (2, 2), (3, 3)]
        assert sorted(post) == [(2, 2), (3, 3), (8, 8), (9, 9)]
        span.release()

    def test_span_refcounting(self, rdb):
        first = rdb.commit_log.next_sequence
        commit(rdb, "r", plus=[(9, 9)])
        span = rdb.epochs.pin_span(first, first)
        span.retain()
        span.release()
        assert not span.pre._released and not span.post._released
        span.release()
        assert span.pre._released and span.post._released

    def test_span_unavailable_when_reclaimed(self, rs_schema):
        database = Database(rs_schema)
        database.epochs.retain = 1
        first = database.commit_log.next_sequence
        for i in range(6):
            commit(database, "r", plus=[(i, i)])
        assert database.epochs.pin_span(first, first) is None


class TestOneWritePath:
    def test_a_direct_write_raises(self, rdb):
        # Every kind of direct write: tests/test_typed_failures.py.
        pin = rdb.epochs.pin()
        with pytest.raises(OutOfBandMutationError):
            rdb.relation("r").insert((42, 42))
        assert sorted(pin.relation("r")) == sorted(rdb.relation("r"))
        pin.release()

    def test_a_load_under_a_pin_materializes_nothing(self, rdb):
        pin = rdb.epochs.pin()
        snap = pin.relation("s")
        sequence = rdb.commit_log.next_sequence
        assert rdb.load("s", [(1, 10), (7, 70), (8, 80)]) == 2
        assert len(snap) == 1 and (7, 70) not in snap
        assert snap._materialized is None  # read through the undo
        assert sorted(snap) == [(1, 10)]
        assert len(rdb.relation("s")) == 3
        # Unrecorded: no sequence number, no logical time.
        assert rdb.commit_log.next_sequence == sequence and rdb.logical_time == 0
        pin.release()


class TestSnapshotIndexes:
    def test_probe_through_built_base_index(self, rdb):
        live = rdb.relation("r")
        live.declare_index((0,))
        live.index_on((0,))  # build on the live relation
        pin = rdb.epochs.pin()
        snap = pin.relation("r")
        commit(rdb, "r", plus=[(1, 100)], minus=[(2, 2)])
        index = snap.built_index((0,))
        assert index is not None
        assert sorted(index.lookup(1)) == [(1, 1)]  # (1,100) hidden
        assert sorted(index.lookup(2)) == [(2, 2)]  # deletion undone
        pin.release()

    def test_the_bucket_count_at_the_pin_is_one_bracket_and_builds_nothing(
        self, rdb, monkeypatch
    ):
        live = rdb.relation("r")
        live.index_on((0,))
        pin = rdb.epochs.pin()
        snap = pin.relation("r")
        index = snap.built_index((0,))
        assert len(index.buckets) == 3  # empty undo: the live count
        commit(rdb, "r", plus=[(8, 8), (9, 9)], minus=[(2, 2)])
        assert len(live.built_index((0,)).buckets) == 4  # 1, 3, 8, 9
        brackets = []
        read_begin = rdb.epochs.read_begin
        monkeypatch.setattr(
            rdb.epochs, "read_begin", lambda: brackets.append(1) or read_begin()
        )
        assert len(index.buckets) == 3  # 8 and 9 hidden, 2 re-added
        assert len(brackets) == 1, "one bracket"
        assert snap._materialized is None and snap._indexes is None
        # Iterating the buckets reads the rows: the snapshot materializes
        # and its local index answers from here on.
        assert sorted(index.buckets) == [1, 2, 3]
        assert snap._materialized is not None
        assert len(index.buckets) == 3
        pin.release()

    def test_deleted_row_still_probed_at_pin(self, rdb):
        live = rdb.relation("r")
        live.declare_index((0,))
        live.index_on((0,))
        pin = rdb.epochs.pin()
        snap = pin.relation("r")
        commit(rdb, "r", minus=[(2, 2)])
        index = snap.index_on((0,))
        assert sorted(index.lookup(2)) == [(2, 2)]
        assert live.built_index((0,)).lookup(2) == ()
        pin.release()


class TestDatabaseSnapshotIntegration:
    def test_snapshot_mapping_compatibility(self, rdb):
        snapshot = rdb.snapshot()
        assert set(snapshot.keys()) == {"r", "s"}
        assert "r" in snapshot and "ghost" not in snapshot
        assert len(snapshot) == 2
        assert sorted(snapshot["r"]) == [(1, 1), (2, 2), (3, 3)]
        assert snapshot.epoch == rdb.commit_log.next_sequence

    def test_restore_reverts_committed_deltas(self, rdb):
        snapshot = rdb.snapshot()
        commit(rdb, "r", plus=[(9, 9)], minus=[(1, 1)])
        commit(rdb, "s", plus=[(2, 20)])
        rdb.restore(snapshot)
        assert sorted(rdb.relation("r")) == [(1, 1), (2, 2), (3, 3)]
        assert sorted(rdb.relation("s")) == [(1, 10)]

    def test_restore_preserves_bag_multiplicities(self, rs_schema):
        database = Database(rs_schema, bag=True)
        database.load("r", [(1, 1), (1, 1)])
        snapshot = database.snapshot()
        commit(database, "r", plus=[(1, 1)])
        database.restore(snapshot)
        assert database.relation("r").multiplicity((1, 1)) == 2

    def test_pickle_roundtrip_recreates_epochs(self, rdb):
        pin = rdb.epochs.pin()
        clone = pickle.loads(pickle.dumps(rdb))
        assert isinstance(clone.epochs, EpochManager)
        assert clone.relation("r")._observer is clone.epochs
        # The clone's manager is independent: committing there does not
        # disturb the original's pin.
        commit(clone, "r", plus=[(9, 9)])
        assert sorted(pin.relation("r")) == [(1, 1), (2, 2), (3, 3)]
        pin.release()

    def test_fork_cuts_at_pinned_epoch(self, rdb):
        commit(rdb, "r", plus=[(9, 9)])
        snapshot = rdb.snapshot()
        commit(rdb, "r", plus=[(10, 10)])
        fork = rdb.fork(snapshot)
        assert sorted(fork.relation("r")) == [(1, 1), (2, 2), (3, 3), (9, 9)]
        assert fork.commit_log.next_sequence == snapshot.epoch
        snapshot.release()


class TestConcurrentReaders:
    def test_pinned_iteration_is_stable_under_commits(self, rs_schema):
        """Regression: iterating a pinned view while commits land must
        neither raise (dict changed size during iteration) nor observe a
        torn state."""
        database = Database(rs_schema)
        database.load("r", [(i, i) for i in range(200)])
        session = Session(database)
        stop = threading.Event()
        failures = []

        def reader():
            try:
                while not stop.is_set():
                    result = session.query("r")
                    seen = {row for row in result}  # iterate the pinned view
                    count = len(seen)
                    assert count >= 200, f"torn read: {count} rows"
            except Exception as exc:  # pragma: no cover - failure capture
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(300):
                commit(database, "r", plus=[(1000 + i, i)])
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, failures[0]

    def test_pinned_key_views_under_a_committing_writer(self, rs_schema):
        """The writer moves keys 0..199 to 1000..1199 one commit at a time
        (emptying one bucket, creating another) and then back, over and
        over: a pinned projection onto the indexed column sees exactly the
        commits before its pin, however many land while it reads — never a
        later state, never a torn index."""
        import sys
        import time

        from repro.algebra.parser import parse_expression
        from repro.algebra.planner import evaluate
        from repro.engine.session import DatabaseView

        keys_moved = 200
        database = Database(rs_schema)
        database.load("r", [(i, i) for i in range(keys_moved)])
        database.create_index("r", ["a"])
        projection = parse_expression("project(r, [a])")
        stop = threading.Event()
        failures, reads = [], []

        def keys_at(epoch: int) -> set:
            sweep, moved = divmod(epoch, keys_moved)
            low, high = set(range(keys_moved)), set(range(1000, 1000 + keys_moved))
            if sweep % 2:  # moving back
                return set(range(moved)) | (high - set(range(1000, 1000 + moved)))
            return set(range(1000, 1000 + moved)) | (low - set(range(moved)))

        def reader():
            try:
                while not stop.is_set():
                    with database.epochs.pin() as pin:
                        view = DatabaseView(database, pin=pin)
                        expected = keys_at(pin.epoch)  # recorded commits so far
                        for _ in range(2):
                            keys = {row[0] for row in evaluate(projection, view)}
                            assert keys == expected, (pin.epoch, sorted(keys ^ expected))
                    reads.append(pin.epoch)
            except Exception as exc:  # pragma: no cover - failure capture
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 0.5
            epoch = 0
            while time.monotonic() < deadline and not failures:
                sweep, i = divmod(epoch, keys_moved)
                here, there = ((1000 + i, i), (i, i)) if sweep % 2 else ((i, i), (1000 + i, i))
                commit(database, "r", plus=[there], minus=[here])
                epoch += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        assert reads and epoch > keys_moved
        # The readers' releases trimmed the entry list while the writer
        # appended to it: no entry was lost between the two.
        versions = [record.version for record in database.commit_log._records]
        assert versions == list(range(versions[0], versions[0] + len(versions)))
        assert versions[-1] == database.epochs.version

    def test_an_entry_appended_while_a_reader_trims_is_not_lost(self, rdb):
        """A reader thread releasing its pin trims the entry list by
        swapping it; the writer's append must not land in the list being
        swapped out.  The interleaving is forced: the release runs from
        inside the writer's append (and has to wait for it)."""
        manager = rdb.epochs
        manager.retain = 1
        pin = manager.pin()
        for i in range(3):  # retained only because of the pin
            commit(rdb, "r", plus=[(10 + i, i)])
        assert manager.retained() == 3

        class RacingEntries(list):
            racer = None

            def append(self, entry):
                self.racer = threading.Thread(target=pin.release)
                self.racer.start()
                self.racer.join(timeout=0.2)  # returns early only if it got in
                super().append(entry)

        racing = rdb.commit_log._records = RacingEntries(rdb.commit_log._records)
        commit(rdb, "r", plus=[(50, 50)])
        racing.racer.join(timeout=30)
        assert not racing.racer.is_alive() and manager.pinned_versions() == ()
        versions = [record.version for record in rdb.commit_log._records]
        assert versions and versions[-1] == manager.version
        assert versions == list(range(versions[0], versions[0] + len(versions)))

    def test_a_pin_finalized_in_the_middle_of_a_trim_does_not_break_it(self, rdb):
        """The collector runs a dropped pin's finalizer at any allocation,
        on this thread and under the manager's re-entrant lock — so the
        last pin can go while a trim is reading the pins.  Forced here: the
        release happens as the trim starts to read them."""
        manager = rdb.epochs
        pin = manager.pin()

        class FinalizedWhenRead(dict):
            def __iter__(self):
                pin.release()
                return super().__iter__()

        manager._pins = FinalizedWhenRead(manager._pins)
        commit(rdb, "r", plus=[(9, 9)])  # its end_write trims
        assert manager.pinned_versions() == ()
        assert (9, 9) in rdb.relation("r")

    def test_bare_name_query_is_pinned_by_default(self, rs_schema):
        database = Database(rs_schema)
        database.load("r", [(1, 1), (2, 2)])
        session = Session(database)
        result = session.query("r")
        iterator = iter(result.sorted_rows())
        first = next(iterator)
        commit(database, "r", plus=[(0, 0)])
        rest = list(iterator)
        assert [first] + rest == [(1, 1), (2, 2)]
        # Opting out returns the live relation itself.
        live = session.query("r", pinned=False)
        assert live is database.relation("r")
