"""Database states, snapshots, transitions (Defs 2.2-2.3)."""

import pytest

from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.types import INT
from repro.engine import naming
from repro.errors import UnknownRelationError


class TestDatabase:
    def test_load_and_cardinalities(self, db):
        assert db.cardinalities() == {"beer": 3, "brewery": 3}
        assert db.total_tuples() == 6

    def test_relation_lookup(self, db):
        assert db.relation("beer").schema.name == "beer"
        with pytest.raises(UnknownRelationError):
            db.relation("ghost")

    def test_contains_and_names(self, db):
        assert "beer" in db and "ghost" not in db
        assert db.relation_names == ("beer", "brewery")

    def test_snapshot_restore(self, db):
        snapshot = db.snapshot()
        db.apply_deltas({"beer": (None, db.relation("beer").copy())})
        assert len(db.relation("beer")) == 0
        db.restore(snapshot)
        assert len(db.relation("beer")) == 3

    def test_snapshot_is_independent(self, db):
        snapshot = db.snapshot()
        db.load("beer", [("n", "ale", "heineken", 3.0)])
        assert len(snapshot["beer"]) == 3

    def test_a_commit_advances_time(self, db):
        db.apply_deltas({"beer": (None, db.relation("beer").copy())})
        assert db.logical_time == 1
        assert len(db.relation("beer")) == 0

    def test_a_commit_to_an_unknown_relation(self, db):
        with pytest.raises(UnknownRelationError):
            db.apply_deltas({"ghost": (db.relation("beer").copy(), None)})
        assert db.logical_time == 0

    def test_add_relation(self, db):
        new_schema = RelationSchema("stock", [("qty", INT)])
        db.add_relation(new_schema, [(5,)])
        assert len(db.relation("stock")) == 1
        assert "stock" in db.schema

    def test_load_returns_inserted_count(self, db):
        inserted = db.load("beer", [("pils", "lager", "heineken", 5.0), ("n", "ale", "heineken", 3.0)])
        assert inserted == 1  # the first row already existed


class TestAuxiliaryNaming:
    def test_names(self):
        assert naming.old_name("r") == "r@old"
        assert naming.plus_name("r") == "r@plus"
        assert naming.minus_name("r") == "r@minus"

    def test_split(self):
        assert naming.split_auxiliary("r@old") == ("r", "old")
        assert naming.split_auxiliary("r") == ("r", None)

    def test_split_malformed(self):
        with pytest.raises(ValueError):
            naming.split_auxiliary("r@bogus")
        with pytest.raises(ValueError):
            naming.split_auxiliary("@old")

    def test_base_of(self):
        assert naming.base_of("beer@plus") == "beer"
        assert naming.base_of("beer") == "beer"

    def test_is_auxiliary(self):
        assert naming.is_auxiliary("beer@minus")
        assert not naming.is_auxiliary("beer")


class TestSnapshotCost:
    """``snapshot()`` is O(Δ) — pinning an epoch, not copying relations."""

    def test_snapshot_beats_eager_copy_at_scale(self):
        import time

        schema = DatabaseSchema([RelationSchema("big", [("a", INT), ("b", INT)])])
        database = Database(schema)
        database.load("big", [(i, i % 97) for i in range(100_000)])

        start = time.perf_counter()
        eager = {name: database.relation(name).copy() for name in database.relation_names}
        eager_cost = time.perf_counter() - start
        assert len(eager["big"]) == 100_000

        start = time.perf_counter()
        snapshots = [database.snapshot() for _ in range(10)]
        pinned_cost = (time.perf_counter() - start) / 10

        try:
            assert pinned_cost * 10 < eager_cost, (
                f"epoch-pinned snapshot ({pinned_cost:.6f}s) not >=10x faster "
                f"than eager copy ({eager_cost:.6f}s) at n=100k"
            )
        finally:
            for snapshot in snapshots:
                snapshot.release()

    def test_restore_is_o_delta_after_small_change(self):
        schema = DatabaseSchema([RelationSchema("big", [("a", INT), ("b", INT)])])
        database = Database(schema)
        database.load("big", [(i, i) for i in range(100_000)])
        snapshot = database.snapshot()
        plus = Relation(schema.relation("big"), [(1_000_000, 0)])
        database.apply_deltas({"big": (plus, None)})
        before = database.epochs.reclaimed
        database.restore(snapshot)
        assert len(database.relation("big")) == 100_000
        assert (1_000_000, 0) not in database.relation("big")
        # The restore went through the undo-differential fast path (no
        # full-state diff): only the one-row delta was reverted.
        assert database.epochs.version >= 2
