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


class TestProjectionEvidence:
    """An index that only projections read is in use: reading its distinct
    keys is one ``"project"`` use of exactly that many keys, recorded on the
    *base* index whichever view served it."""

    EXPR = E.Project(E.RelationRef("fk"), (E.ProjectItem(P.ColRef("ref")),))

    def test_base_relation(self, db):
        db.create_index("fk", ["ref"])
        result = get_plan(self.EXPR).execute(DatabaseView(db))
        usage = db.relation("fk").built_index((1,)).usage
        assert sorted(result.rows()) == [(k,) for k in range(10)]
        assert (usage.uses, usage.keys, usage.by_kind) == (1, 10, {"project": 10})
        assert "'project': 10" in repr(usage)

    def test_transaction_overlay_forwards_to_the_base_ledger(self, db):
        from repro.engine.transaction import TransactionContext

        db.create_index("fk", ["ref"])
        context = TransactionContext(db)
        context.insert_rows("fk", [(100, 77)])
        context.delete_rows("fk", [(i, 3) for i in range(3, 50, 10)])  # empties key 3
        result = get_plan(self.EXPR).execute(context)
        assert sorted(result.rows()) == [(k,) for k in range(10) if k != 3] + [(77,)]
        usage = db.relation("fk").built_index((1,)).usage
        assert (usage.uses, usage.keys, usage.by_kind) == (1, 10, {"project": 10})
        context.rollback()

    def test_pinned_snapshot_forwards_to_the_base_ledger(self, db):
        from repro.engine import Relation

        db.create_index("fk", ["ref"])
        pin = db.epochs.pin()
        schema = db.relation_schema("fk")
        db.apply_deltas({"fk": (Relation(schema, [(100, 77)]), None)})
        result = get_plan(self.EXPR).execute(DatabaseView(db, pin=pin))
        assert sorted(result.rows()) == [(k,) for k in range(10)]  # 77 came later
        usage = db.relation("fk").built_index((1,)).usage
        assert (usage.uses, usage.keys, usage.by_kind) == (1, 10, {"project": 10})
        pin.release()

    def test_an_index_only_run_reads_the_keys_not_the_rows(self, db):
        scanned = get_plan(self.EXPR).execute(DatabaseView(db))  # reads 50 rows
        assert db.relation("fk").built_index((1,)) is None
        db.create_index("fk", ["ref"])
        read = get_plan(self.EXPR).execute(DatabaseView(db))
        usage = db.relation("fk").built_index((1,)).usage
        # The same 10 rows, read as the index's 10 distinct keys.
        assert read == scanned and len(read) == 10
        assert (usage.uses, usage.keys, usage.by_kind) == (1, 10, {"project": 10})

    def test_an_index_only_projections_read_stays_built(self, db):
        # A projection read is a plan asking for the index, so it zeroes
        # the unread count: under turnover the index projections read stays
        # built while the one nothing reads goes back to declared.
        from repro.engine import Relation

        db.create_index("fk", ["ref"])
        db.create_index("fk", ["id"])  # never read
        fk = db.relation("fk")
        schema = db.relation_schema("fk")
        for step in range(4):  # 20 rows filed a commit against 50 held
            gone = [(i, i % 10) for i in range(step * 10, step * 10 + 10)]
            fresh = [(i, i % 10) for i in range(50 + step * 10, 60 + step * 10)]
            db.apply_deltas(
                {"fk": (Relation(schema, fresh), Relation(schema, gone))}
            )
            get_plan(self.EXPR).execute(DatabaseView(db))
        assert fk.built_index((1,)) is not None
        assert fk.built_index((0,)) is None
        assert fk.indexes.get((0,)) is not None  # declared still
