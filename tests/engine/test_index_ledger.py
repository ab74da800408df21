"""The precise per-use index ledger every built index keeps."""

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.planner import get_plan
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.indexes import HashIndex
from repro.engine.session import DatabaseView
from repro.engine.types import INT


@pytest.fixture
def db():
    database = Database(
        DatabaseSchema(
            [
                RelationSchema("fk", [("id", INT), ("ref", INT)]),
                RelationSchema("pk", [("key", INT)]),
            ]
        )
    )
    database.load("pk", [(k,) for k in range(10)])
    database.load("fk", [(i, i % 10) for i in range(50)])
    return database


class TestLedger:
    def test_lookup_records_one_key(self):
        index = HashIndex((0,))
        index.build([(1, 2), (3, 4)])
        index.lookup(1)
        index.lookup(99)
        assert index.usage.uses == 2
        assert index.usage.keys == 2
        assert index.usage.by_kind == {"lookup": 2}

    def test_bulk_touch_records_exact_key_volume(self):
        index = HashIndex((0,))
        index.build([(k, 0) for k in range(7)])
        index.touch("build", keys=7)
        assert index.usage.uses == 1
        assert index.usage.keys == 7
        index.touch("probe", keys=3)
        assert index.usage.uses == 2
        assert index.usage.keys == 10
        assert index.usage.by_kind == {"build": 7, "probe": 3}

    def test_reset_clears_window(self):
        index = HashIndex((0,))
        index.build([(1,)])
        index.lookup(1)
        index.usage.reset()
        assert index.usage.uses == 0
        assert index.usage.keys == 0


class TestAdvisorEvidence:
    def test_probe_volume_recorded_per_statement(self, db):
        db.create_index("fk", ["ref"])
        db.create_index("pk", ["key"])
        expr = E.AntiJoin(
            E.RelationRef("fk"),
            E.RelationRef("pk"),
            P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        view = DatabaseView(db)
        get_plan(expr).execute(view)
        fk_index = db.relation("fk").built_index((1,))
        pk_index = db.relation("pk").built_index((0,))
        # The probe side probed per distinct fk.ref key, and the build side
        # was asked for one bucket per such key.
        assert fk_index.usage.by_kind == {"probe": 10}
        assert pk_index.usage.by_kind == {"build": 10}

    def test_build_side_records_the_probe_sides_rows_not_its_own_keys(self, db):
        # One left row asks the build side for one bucket, however many
        # keys the build side's index holds.
        db.load("pk", [(k,) for k in range(10, 100)])
        db.create_index("pk", ["key"])
        expr = E.AntiJoin(
            E.Select(
                E.RelationRef("fk"),
                P.Comparison("=", P.ColRef("id"), P.Const(7)),
            ),
            E.RelationRef("pk"),
            P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        assert len(get_plan(expr).execute(DatabaseView(db))) == 0
        pk_index = db.relation("pk").built_index((0,))
        assert len(pk_index.buckets) == 100
        assert pk_index.usage.by_kind == {"build": 1}
