"""The hash index manager: building, maintenance, commit migration."""

from __future__ import annotations

import pytest

from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.indexes import HashIndex, IndexSet
from repro.engine.types import INT, STRING


@pytest.fixture
def db() -> Database:
    schema = DatabaseSchema(
        [
            RelationSchema("pk", [("key", INT), ("payload", STRING)]),
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
        ]
    )
    database = Database(schema)
    database.load("pk", [(k, f"p{k}") for k in range(5)])
    database.load("fk", [(i, i % 5) for i in range(20)])
    return database


class TestHashIndex:
    def test_single_key_is_unwrapped(self):
        index = HashIndex((1,))
        index.build([(1, 10), (2, 10), (3, 20)])
        assert 10 in index
        assert sorted(index.lookup(10)) == [(1, 10), (2, 10)]
        assert index.lookup(99) == ()

    def test_composite_key(self):
        index = HashIndex((0, 1))
        index.build([(1, 10), (1, 20)])
        assert (1, 10) in index
        assert index.lookup((1, 20)) == ((1, 20),)

    def test_add_remove(self):
        index = HashIndex((0,))
        index.build([])
        index.add((1, "a"))
        index.add((1, "b"))
        assert sorted(index.lookup(1)) == [(1, "a"), (1, "b")]
        index.remove((1, "a"))
        assert index.lookup(1) == ((1, "b"),)
        index.remove((1, "b"))
        assert 1 not in index
        assert index.buckets == {}

    def test_build_publishes_the_buckets_whole(self):
        # A pinned reader may build a live index while other readers probe
        # it: until the last row is filed, the index must read as unbuilt,
        # its old buckets untouched.
        index = HashIndex((1,))
        old = index.buckets
        seen = []

        def rows():
            for row in [(1, 10), (2, 10), (3, 20)]:
                seen.append((index.built, index.buckets is old, dict(old)))
                yield row

        index.build(rows())
        assert seen == [(False, True, {})] * 3
        assert index.built and index.buckets is not old and old == {}
        assert sorted(index.lookup(10)) == [(1, 10), (2, 10)]


class TestRelationIndexes:
    def test_index_on_builds_once_and_maintains(self, db):
        fk = db.relation("fk")
        index = fk.index_on((1,))
        assert index.built
        assert len(index.lookup(0)) == 4
        db.load("fk", [(100, 0)])
        assert len(index.lookup(0)) == 5
        db.apply_deltas({"fk": (None, Relation(fk.schema, [(100, 0)]))})
        assert len(index.lookup(0)) == 4
        # Same positions -> same index object (no rebuild).
        assert fk.index_on((1,)) is index

    def test_bag_mode_tracks_distinct_rows(self):
        schema = RelationSchema("t", [("x", INT)])
        relation = Relation(schema, bag=True)
        index = relation.index_on((0,))
        relation.insert((1,))
        relation.insert((1,))
        assert index.lookup(1) == ((1,),)
        relation.delete((1,))
        assert index.lookup(1) == ((1,),)  # one occurrence left
        relation.delete((1,))
        assert 1 not in index

    def test_copy_carries_declarations_not_contents(self, db):
        fk = db.relation("fk")
        fk.index_on((1,))
        clone = fk.copy()
        assert clone.built_index((1,)) is None
        assert clone.indexes.get((1,)) is not None  # declared
        assert clone.index_on((1,)).built

    def test_clear_invalidates(self, db):
        fk = db.relation("fk").copy()  # a database's own relation raises
        index = fk.index_on((1,))
        fk.clear()
        assert not index.built
        assert fk.built_index((1,)) is None


class TestDatabaseIndexes:
    def test_create_index_resolves_names_and_positions(self, db):
        db.create_index("fk", ["ref"])
        assert db.relation("fk").built_index((1,)) is not None
        db.create_index("pk", [1])
        assert db.relation("pk").built_index((0,)) is not None
        assert (1,) in db.indexed_positions("fk")

    def test_index_survives_commit_incrementally(self, db):
        db.create_index("fk", ["ref"])
        session = Session(db)
        result = session.execute("begin insert(fk, (500, 0)); end")
        assert result.committed
        index = db.relation("fk").built_index((1,))
        assert index is not None and index.built
        assert (500, 0) in index.lookup(0)

    def test_index_correct_after_delete_commit(self, db):
        db.create_index("fk", ["ref"])
        session = Session(db)
        result = session.execute(
            "begin delete(fk, (0, 0)); insert(fk, (600, 4)); end"
        )
        assert result.committed
        index = db.relation("fk").built_index((1,))
        assert (0, 0) not in index.lookup(0)
        assert (600, 4) in index.lookup(4)
        # Full consistency check against a rebuild.
        fresh = HashIndex((1,)).build(db.relation("fk").rows())
        assert {k: set(v) for k, v in fresh.buckets.items()} == {
            k: set(v) for k, v in index.buckets.items()
        }

    def test_aborted_transaction_leaves_index_untouched(self, db):
        db.create_index("fk", ["ref"])
        before = dict(db.relation("fk").built_index((1,)).buckets)
        session = Session(db)
        result = session.execute(
            "begin insert(fk, (700, 1)); abort; end"
        )
        assert result.aborted
        index = db.relation("fk").built_index((1,))
        assert index.buckets == before


class TestIndexSet:
    def test_declare_is_lazy(self):
        indexes = IndexSet()
        index = indexes.declare((0,))
        assert not index.built
        assert indexes.get_built((0,)) is None
        indexes.ensure_built((0,), [(1,), (2,)])
        assert indexes.get_built((0,)) is index

    def test_row_hooks_only_touch_built(self):
        indexes = IndexSet()
        declared = indexes.declare((0,))
        built = indexes.ensure_built((1,), [(1, 2)])
        indexes.row_added((5, 6))
        assert declared.buckets == {}
        assert 6 in built
