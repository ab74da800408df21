"""OverlayRelation / OverlayIndex unit behaviour (engine substrate)."""

from __future__ import annotations

import pytest

from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.overlay import OverlayRelation
from repro.engine.transaction import TransactionContext
from repro.engine.types import INT


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )


def _overlay(rows, bag: bool = False):
    database = Database(_schema(), bag=bag)
    database.load("r", rows)
    base = database.relation("r")
    schema = base.schema
    return base, OverlayRelation(
        base,
        plus=Relation(schema, bag=bag),
        minus=Relation(schema, bag=bag),
    )


class TestOverlayReads:
    def test_reads_pass_through_untouched(self):
        base, overlay = _overlay([(1, 1), (2, 2)])
        assert len(overlay) == 2
        assert (1, 1) in overlay and (3, 3) not in overlay
        assert sorted(overlay.rows()) == [(1, 1), (2, 2)]
        assert overlay.distinct_count() == 2
        assert dict(overlay.items()) == {(1, 1): 1, (2, 2): 1}

    def test_writes_touch_only_the_differentials(self):
        base, overlay = _overlay([(1, 1), (2, 2)])
        assert overlay.insert((3, 3))
        assert overlay.delete((1, 1))
        assert len(base) == 2, "the base relation must stay untouched"
        assert dict(overlay.plus.items()) == {(3, 3): 1}
        assert dict(overlay.minus.items()) == {(1, 1): 1}
        assert sorted(overlay.rows()) == [(2, 2), (3, 3)]
        assert len(overlay) == 2

    def test_insert_cancels_pending_delete(self):
        _, overlay = _overlay([(1, 1)])
        overlay.delete((1, 1))
        assert (1, 1) not in overlay
        assert overlay.insert((1, 1))
        assert (1, 1) in overlay
        assert not overlay.plus and not overlay.minus

    def test_duplicate_insert_is_a_noop_in_set_mode(self):
        _, overlay = _overlay([(1, 1)])
        assert not overlay.insert((1, 1))
        assert not overlay.plus

    def test_bag_mode_multiplicities_combine(self):
        _, overlay = _overlay([(1, 1), (1, 1)], bag=True)
        assert overlay.multiplicity((1, 1)) == 2
        overlay.insert((1, 1))
        assert overlay.multiplicity((1, 1)) == 3
        assert len(overlay) == 3
        assert overlay.distinct_count() == 1
        overlay.delete((1, 1))
        overlay.delete((1, 1))
        assert overlay.multiplicity((1, 1)) == 1
        assert (1, 1) in overlay
        assert dict(overlay.items()) == {(1, 1): 1}
        overlay.delete((1, 1))
        assert (1, 1) not in overlay
        assert not list(overlay.rows())

    def test_materialization_caches_and_invalidates(self):
        _, overlay = _overlay([(1, 1)])
        first = overlay._rows
        assert first == {(1, 1): 1}
        assert overlay._rows is first, "repeat access must reuse the cache"
        overlay.insert((2, 2))
        assert overlay._rows == {(1, 1): 1, (2, 2): 1}

    def test_filtered_and_copy_materialize_plain_relations(self):
        _, overlay = _overlay([(1, 1), (2, 2)])
        overlay.insert((3, 3))
        overlay.delete((1, 1))
        kept = overlay.filtered(lambda row: row[0] >= 2)
        assert type(kept) is Relation
        assert sorted(kept.rows()) == [(2, 2), (3, 3)]
        clone = overlay.copy()
        assert type(clone) is Relation
        assert dict(clone.items()) == dict(overlay.items())
        clone.insert((9, 9))
        assert (9, 9) not in overlay

    def test_equality_against_plain_relations(self):
        _, overlay = _overlay([(1, 1)])
        overlay.insert((2, 2))
        expected = Relation(overlay.schema, [(1, 1), (2, 2)])
        assert overlay == expected
        assert expected == overlay

    def test_clear_empties_via_the_differentials(self):
        base, overlay = _overlay([(1, 1), (2, 2)])
        overlay.insert((3, 3))
        overlay.clear()
        assert len(overlay) == 0 and not overlay
        assert len(base) == 2


class TestOverlayIndex:
    def _indexed_overlay(self, bag: bool = False):
        database = Database(_schema(), bag=bag)
        database.load("r", [(i, i % 3) for i in range(10)])
        database.create_index("r", ["a"])
        context = TransactionContext(database)
        return database, context, context._working_copy("r")

    def test_lookup_reflects_delta_corrections(self):
        _, _, overlay = self._indexed_overlay()
        index = overlay.built_index((0,))
        assert index.lookup(3) == ((3, 0),)
        overlay.delete((3, 0))
        assert index.lookup(3) == ()
        overlay.insert((3, 9))
        assert index.lookup(3) == ((3, 9),)
        overlay.insert((77, 7))
        assert index.lookup(77) == ((77, 7),)

    def test_buckets_view_matches_lookup(self):
        _, _, overlay = self._indexed_overlay()
        overlay.delete((3, 0))
        overlay.insert((77, 7))
        index = overlay.built_index((0,))
        assert 3 not in index.buckets
        assert index.buckets.get(3) is None
        assert list(index.buckets.get(77)) == [(77, 7)]
        assert dict(index.buckets.items())[77] == {(77, 7): None}
        assert len(index.buckets) == 10  # 10 base keys − 1 emptied + 1 new
        assert sorted(index.buckets) == sorted(
            {row[0] for row in overlay.rows()}
        )

    def test_keys_are_the_base_keys_corrected_for_the_touched_ones(self):
        database, _, overlay = self._indexed_overlay()
        base_index = database.relation("r").built_index((0,))
        index = overlay.built_index((0,))
        assert list(index.buckets) == list(base_index.buckets)  # empty Δ
        overlay.delete((3, 0))  # empties key 3
        overlay.insert((77, 7))  # a new key
        overlay.delete((4, 1))
        overlay.insert((4, 9))  # key 4 emptied by Δ⁻, re-created by Δ⁺
        assert list(index.buckets) == [0, 1, 2, 4, 5, 6, 7, 8, 9, 77]
        assert len(index.buckets) == 10 and 3 not in index.buckets
        assert 77 in index.buckets
        assert overlay._materialized is None, "never through the merged rows"
        assert list(base_index.buckets) == list(range(10)), "base untouched"
        overlay.insert((3, 0))  # takes the delete back
        assert sorted(index.buckets, key=int) == list(range(10)) + [77]
        assert len(index.buckets) == 11

    def test_keys_of_a_partly_deleted_bag_bucket_stay(self):
        database = Database(_schema(), bag=True)
        database.load("r", [(1, 1), (1, 1), (2, 2)])
        database.create_index("r", ["a"])
        overlay = TransactionContext(database)._working_copy("r")
        overlay.delete((1, 1))
        buckets = overlay.built_index((0,)).buckets
        assert list(buckets) == [1, 2] and len(buckets) == 2
        overlay.delete((1, 1))
        assert list(buckets) == [2] and len(buckets) == 1

    def test_bag_partial_delete_keeps_the_row_visible(self):
        database = Database(_schema(), bag=True)
        database.load("r", [(1, 1), (1, 1), (2, 2)])
        database.create_index("r", ["a"])
        context = TransactionContext(database)
        overlay = context._working_copy("r")
        overlay.delete((1, 1))
        index = overlay.built_index((0,))
        assert index.lookup(1) == ((1, 1),), "one occurrence remains"
        overlay.delete((1, 1))
        assert index.lookup(1) == ()

    def test_usage_accrues_on_the_base_ledger(self):
        database, _, overlay = self._indexed_overlay()
        index = overlay.built_index((0,))
        before = database.relation("r").built_index((0,)).usage.uses
        index.lookup(3)
        index.touch("probe", 1)
        assert database.relation("r").built_index((0,)).usage.uses == before + 2


class TestApplyDeltas:
    def test_commit_applies_in_place_and_maintains_indexes(self):
        database = Database(_schema())
        database.load("r", [(i, 0) for i in range(5)])
        database.create_index("r", ["a"])
        base = database.relation("r")
        context = TransactionContext(database)
        context.insert_rows("r", [(10, 1), (11, 1)])
        context.delete_rows("r", [(0, 0)])
        context.commit()
        assert database.relation("r") is base, "no replacement object"
        assert (10, 1) in base and (0, 0) not in base
        assert base.built_index((0,)).lookup(10) == ((10, 1),)
        assert base.built_index((0,)).lookup(0) == ()
        assert database.logical_time == 1

    def test_bag_mode_multiplicities_apply_exactly(self):
        database = Database(_schema(), bag=True)
        database.load("r", [(1, 1), (1, 1), (1, 1), (2, 2)])
        context = TransactionContext(database)
        context.delete_rows("r", [(1, 1), (1, 1)])
        context.insert_rows("r", [(2, 2)])
        context.commit()
        relation = database.relation("r")
        assert relation.multiplicity((1, 1)) == 1
        assert relation.multiplicity((2, 2)) == 2


def test_an_indexed_transaction_leaves_nothing_for_the_cyclic_collector(tmp_path):
    """An overlay keeps the index views it hands out; a view holds the
    overlay's three relations, not the overlay, so a transaction whose
    checks probe an overlaid index is freed by reference counting, whether
    it commits or aborts (checked on the end-to-end ``full_check`` rules:
    aggregate, transition and compensating)."""
    import gc

    from benchmarks.e2e import workloads as W

    session = W.build_full_check(0, 1, 0, tmp_path).session
    raised = W.transaction_text(["update(emp, id = 7, salary := salary + 100)"])
    cut = W.transaction_text(["update(emp, id = 7, salary := salary - 100)"])
    hired = W.transaction_text(['insert(emp, (9000, "emp_9000", 3, 2500, 4))'])
    texts = (raised, cut, hired)
    outcomes = [session.execute(text).committed for text in texts]
    assert outcomes == [True, False, True]  # compiling the plans may make cycles
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for text in texts:
            for _ in range(20):
                session.execute(text)
            gc.collect()
            assert gc.garbage == [], text
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("path", ["sync", "async thread", "process drain"])
def test_an_audited_commit_leaves_nothing_for_the_cyclic_collector(path):
    """``Session.commit`` through the audit pipeline on the
    ``read_write_mix`` star database, each commit a fresh insert: a sync
    drain, an async drain on the thread executor, and an async drain on the
    process executor (checked on the coordinator's side)."""
    import gc

    from benchmarks.e2e import workloads as W
    from repro.engine import Session

    model = W.StarModel(0)
    database, controller = model.database, model.controller
    executor = "process" if path == "process drain" else "thread"
    controller.audit_scheduler(
        database, workers=1, dispatch_overhead=0.0, executor=executor
    )
    session = Session(database, controller)

    def commit():
        rows = [model.row() for _ in range(3)]
        text = W.transaction_text([f"insert(orders, {row})" for row in rows])
        if path == "sync":
            assert session.commit(text, audit="sync").audit
            return
        assert session.commit(text, audit="async").committed
        outcomes = session.wait_for_audits()
        assert outcomes and {o.executor for o in outcomes} == {executor}

    commit()  # compiling the plans and starting the pool may make cycles
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(20):
            commit()
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        session.close()
