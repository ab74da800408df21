"""The set-at-a-time write kernels, case by case.

The random suite is ``tests/properties/test_prop_bulk_write.py``; these are
the situations a bulk kernel gets wrong first, each pinned by name and
checked against the tuple-at-a-time reference
(``tests/engine/reference_write_path.py``).
"""

import pickle
import tracemalloc

import pytest

from repro.engine import INT, Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.indexes import HashIndex
from repro.engine.transaction import TransactionContext
from tests.engine import reference_write_path as reference

SCHEMA = RelationSchema("t", [("k", INT), ("g", INT)])


def database(rows, bag=False) -> Database:
    db = Database(DatabaseSchema([SCHEMA]), bag=bag)
    db.load("t", rows)
    db.create_index("t", ["g"])
    return db


def buckets(index):
    """The buckets of a built index; None for one back to declared."""
    if index is None:
        return None
    return {key: list(bucket) for key, bucket in index.buckets.items()}


def both_contexts(rows, bag=False):
    """A kernel context and a reference context over equal databases."""
    return TransactionContext(database(rows, bag)), reference.ReferenceContext(
        database(rows, bag)
    )


def assert_same_state(mine: TransactionContext, theirs: TransactionContext) -> None:
    for ours, other in zip(mine.working.values(), theirs.working.values()):
        assert list(ours.plus._rows.items()) == list(other.plus._rows.items())
        assert list(ours.minus._rows.items()) == list(other.minus._rows.items())
        assert dict(ours.items()) == dict(other.items())
    ours, other = mine.database.relation("t"), theirs.database.relation("t")
    assert list(ours._rows.items()) == list(other._rows.items())
    assert buckets(ours.built_index((1,))) == buckets(other.built_index((1,)))


@pytest.mark.parametrize("bag", [False, True])
def test_duplicates_inside_one_batch(bag):
    mine, theirs = both_contexts([(1, 1)], bag)
    batch = [(2, 2), (2, 2), (1, 1), (3, 3), (2, 2)]
    assert mine.insert_rows("t", batch) == theirs.insert_rows("t", batch)
    assert mine.tuples_inserted == (5 if bag else 2)
    assert_same_state(mine, theirs)
    batch = [(2, 2), (9, 9), (2, 2), (2, 2), (2, 2), (1, 1)]
    assert mine.delete_rows("t", batch) == theirs.delete_rows("t", batch)
    assert mine.tuples_deleted == (4 if bag else 2)
    assert_same_state(mine, theirs)
    mine.commit(), theirs.commit()
    assert_same_state(mine, theirs)


@pytest.mark.parametrize("bag", [False, True])
def test_rows_given_as_lists_are_stored_as_tuples(bag):
    mine, theirs = both_contexts([(1, 1)], bag)
    batch = [[2, 2], (3, 3), [1, 1]]
    assert mine.insert_rows("t", batch) == theirs.insert_rows("t", batch)
    assert mine.delete_rows("t", [[3, 3]]) == theirs.delete_rows("t", [[3, 3]]) == 1
    assert all(type(row) is tuple for row in mine.working["t"].plus._rows)
    assert_same_state(mine, theirs)
    mine.commit(), theirs.commit()
    assert all(type(row) is tuple for row in mine.database.relation("t")._rows)
    assert_same_state(mine, theirs)


@pytest.mark.parametrize("bag", [False, True])
def test_an_insert_cancels_a_pending_delete_before_plus_grows(bag):
    base = [(1, 1), (2, 2)] + ([(2, 2)] if bag else [])
    mine, theirs = both_contexts(base, bag)
    for context in (mine, theirs):
        context.delete_rows("t", [(1, 1), (2, 2), (2, 2)])
        # (1, 1) comes back: minus shrinks, plus stays empty.  (2, 2) comes
        # back once more often than it went (bag), (4, 4) is new.
        context.insert_rows("t", [(1, 1), (2, 2), (2, 2), (2, 2), (4, 4)])
    overlay = mine.working["t"]
    assert (1, 1) not in overlay.minus._rows and (1, 1) not in overlay.plus._rows
    assert dict(overlay.minus._rows) == {}
    assert dict(overlay.plus._rows) == ({(2, 2): 1, (4, 4): 1} if bag else {(4, 4): 1})
    assert_same_state(mine, theirs)
    for context in (mine, theirs):
        # ... and a delete takes back the transaction's own insert first.
        context.delete_rows("t", [(4, 4), (1, 1)])
    assert dict(overlay.plus._rows) == ({(2, 2): 1} if bag else {})
    assert dict(overlay.minus._rows) == {(1, 1): 1}
    assert_same_state(mine, theirs)
    mine.commit(), theirs.commit()
    assert_same_state(mine, theirs)


def test_bag_mode_files_a_row_in_the_indexes_once():
    """Three more occurrences of a present row must not touch the index;
    the first occurrence of an absent row must; losing one of several
    occurrences must not unfile the row, losing the last one must."""
    mine, theirs = both_contexts([(1, 1), (1, 1)], bag=True)
    for context in (mine, theirs):
        context.insert_rows("t", [(1, 1)] * 3 + [(5, 1)] * 2)
        context.commit()
    relation = mine.database.relation("t")
    assert relation.multiplicity((1, 1)) == 5 and relation.multiplicity((5, 1)) == 2
    # Asked for by a plan, as a read does: the index has filed nothing
    # unread when the delete below unfiles a row from its two.
    assert buckets(relation.amortized_index((1,))) == {1: [(1, 1), (5, 1)]}
    theirs.database.relation("t").amortized_index((1,))
    assert_same_state(mine, theirs)
    mine, theirs = TransactionContext(mine.database), reference.ReferenceContext(
        theirs.database
    )
    for context in (mine, theirs):
        context.delete_rows("t", [(1, 1)] * 4 + [(5, 1)] * 2)
        context.commit()
    assert relation.multiplicity((1, 1)) == 1
    assert buckets(relation.built_index((1,))) == {1: [(1, 1)]}
    assert_same_state(mine, theirs)


@pytest.mark.parametrize("write", ["insert_many", "delete_many"])
def test_a_bulk_kernel_leaves_a_materialized_snapshot_unchanged(write):
    """A materialized snapshot holds a dict of its own, never the live row
    dict, so a bulk kernel writing the live relation (a load, a commit's
    Δ⁻) leaves it as it was."""
    db = database([(i, i % 3) for i in range(50)])
    relation = db.relation("t")
    snapshot = db.snapshot()
    frozen = snapshot["t"]
    shared = frozen._rows
    assert shared is not relation._rows
    before = dict(shared)
    if write == "insert_many":
        assert db.load("t", [(100, 1), (101, 2)]) == 2
    else:
        db.apply_deltas({"t": (None, Relation(SCHEMA, [(0, 0), (1, 1)]))})
        assert len(relation) == 48
    assert relation._rows is not shared
    assert shared == before and dict(frozen.items()) == before
    assert dict(relation._rows) != before
    snapshot.release()


def test_a_batch_costs_its_own_size_not_the_relation_size():
    """Staging and committing 500 rows against 200,000 must not walk or
    copy the big side (``big.keys() - small.keys()`` builds a set of the
    *big* dict first): what the write path allocates stays far below one
    pointer per base row, and the overlay is never materialized."""
    size, batch = 200_000, 500
    db = Database(DatabaseSchema([SCHEMA]))
    db.load("t", [(i, i % 1000) for i in range(size)])
    inserted = [(size + i, i) for i in range(batch)]
    deleted = [(i, i % 1000) for i in range(0, 50 * batch, 50)] + [(-1, -1)]
    context = TransactionContext(db)
    tracemalloc.start()
    try:
        assert context.insert_rows("t", inserted + inserted[:5]) == batch
        assert context.delete_rows("t", deleted + inserted[:5]) == batch + 5
        assert context.working["t"]._materialized is None
        context.commit()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db.relation("t")) == size - 5
    assert peak < size * 8 / 4, f"write path allocated {peak:,} bytes"


def test_index_kernels_accept_one_shot_iterables_and_composite_keys():
    rows = [(1, 1), (2, 1), (3, 2)]
    single = HashIndex((1,)).build(iter(rows))
    assert buckets(single) == {1: [(1, 1), (2, 1)], 2: [(3, 2)]}
    composite = HashIndex((1, 0)).build(row for row in rows)
    assert buckets(composite) == {(1, 1): [(1, 1)], (1, 2): [(2, 1)], (2, 3): [(3, 2)]}
    composite.remove_many(iter([(2, 1), (9, 9)]))
    composite.add_many(iter([(4, 2)]))
    assert buckets(composite) == {(1, 1): [(1, 1)], (2, 3): [(3, 2)], (2, 4): [(4, 2)]}
    assert composite.key_of((4, 2)) == (2, 4)
    empty = HashIndex(()).build(rows)
    assert buckets(empty) == {(): rows}
    # The key function is built once per index and travels with it
    # (checkpoints pickle relations with their indexes).
    for index in (single, composite, empty):
        clone = pickle.loads(pickle.dumps(index))
        assert buckets(clone) == buckets(index)
        assert clone.key_of((7, 8)) == index.key_of((7, 8))
        clone.add_many([(7, 8)])
        assert (7, 8) in clone.buckets[index.key_of((7, 8))]


def test_a_relation_is_built_through_the_same_kernel():
    rows = [(1, 1), [2, 2], (1, 1)]
    assert dict(Relation(SCHEMA, rows)._rows) == {(1, 1): 1, (2, 2): 1}
    assert dict(Relation(SCHEMA, rows, bag=True)._rows) == {(1, 1): 2, (2, 2): 1}
    assert dict(Relation(SCHEMA, iter(rows))._rows) == {(1, 1): 1, (2, 2): 1}
    assert not Relation(SCHEMA, iter(()))._rows
