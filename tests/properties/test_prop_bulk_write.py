"""Property: the set-at-a-time write path is observationally equivalent to
the tuple-at-a-time path it replaced.

``tests/engine/reference_write_path.py`` is the old path, verbatim: one
``Relation.insert`` / ``delete`` per tuple, one ``HashIndex.add`` /
``remove`` per tuple and index, one ``_shift_aggregates`` per tuple.  Random
transactions run against two databases, one through the kernels
(``insert_many`` → ``insert_counts`` → ``rows_added`` → ``add_many``) and
one through the reference, and after every step everything a later reader
could observe is compared: rows and multiplicities (and, for base
relations, their order), the net differentials, every built index's
buckets and every declared index's state, the maintained aggregate memos,
the answers of delta-side ``OverlayIndex`` views mid-transaction, and what
a pinned snapshot reads across a 500-row commit.  Set and bag mode.

Order *inside a differential* is not part of the contract: every consumer
of a Δ side gets ``{row: count}`` (the kernels, ``coalesce_differentials``,
the commit stream), which has no occurrence order.  A bag-mode batch that
revives a pending delete and adds the same row, or takes back a pending
insert and deletes more, files its rows in a different order than the
per-row reference (the two explicit examples below), so Δ⁺ / Δ⁻ and their
index buckets are compared as count maps.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import (
    FLOAT,
    INT,
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
)
from repro.engine.relation import scan_aggregate_state
from repro.engine.schema import Attribute
from repro.engine.transaction import TransactionContext
from repro.engine.types import NULL
from tests.engine import reference_write_path as reference

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Built single-column, built composite, and declared-but-never-built.
BUILT = ((1,), (0, 1))
DECLARED = (3,)
AGGREGATES = (("SUM", 2), ("MIN", 2), ("MAX", 2), ("SUM", 3), ("MAX", 0))


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema(
                "t",
                [
                    ("k", INT),
                    ("g", INT),
                    Attribute("v", INT, nullable=True),
                    ("f", FLOAT),
                ],
            )
        ]
    )


# Small domains make duplicates inside a batch, re-inserts of deleted rows
# and deletes of just-inserted rows likely.  ``f`` mixes floats with ints
# (coerced on the way in: the batch then takes the per-row validation).
_ROW = st.tuples(
    st.integers(0, 3),
    st.integers(0, 2),
    st.one_of(st.integers(-2, 2), st.just(NULL)),
    st.sampled_from([0.5, 2.25, 1.0, 1, 2]),
)
_BATCH = st.lists(st.one_of(_ROW, _ROW.map(list)), max_size=6)
_STEP = st.tuples(st.sampled_from(["insert", "delete"]), _BATCH)
_TRANSACTION = st.tuples(st.lists(_STEP, min_size=1, max_size=4), st.booleans())


def _database(rows, bag: bool, load) -> Database:
    database = Database(_schema(), bag=bag)
    load(database, rows)
    relation = database.relation("t")
    for positions in BUILT:
        relation.index_on(positions)
    relation.declare_index(DECLARED)
    for kind, position in AGGREGATES:
        relation.aggregate_state(kind, position)
    return database


def _kernel_load(database, rows):
    database.load("t", rows)


def _reference_load(database, rows):
    """A load as the reference applies one: a batch of the rows, committed
    unrecorded one row at a time."""
    plus = Relation(database.relation_schema("t"), bag=database.bag)
    reference.insert_many(plus, rows)
    reference.apply_deltas(database, {"t": (plus, None)}, advance_time=False, record=False)


def _buckets(index, shape=list) -> dict:
    return {key: shape(bucket) for key, bucket in index.buckets.items()}


def _assert_same_relation(mine, theirs, what: str, ordered: bool = True) -> None:
    """Rows, multiplicities and (``ordered``) their order; indexes;
    aggregate memos."""
    shape = list if ordered else dict
    assert shape(mine._rows.items()) == shape(theirs._rows.items()), what
    assert len(mine) == len(theirs), what
    if mine._indexes is None or theirs._indexes is None:
        assert mine._indexes is None and theirs._indexes is None, what
    else:
        assert mine._indexes.specs() == theirs._indexes.specs(), what
        for ours, other in zip(mine._indexes, theirs._indexes):
            assert ours.built == other.built, (what, ours.positions)
            assert _buckets(ours, shape) == _buckets(other, shape), (what, ours.positions)
    assert mine._aggregates == theirs._aggregates, what
    for key, state in (mine._aggregates or {}).items():
        assert state == scan_aggregate_state(key[0], mine, key[1]), (what, key)


def _assert_same_overlay(mine, theirs, what: str) -> None:
    assert dict(mine.items()) == dict(theirs.items()), what
    assert len(mine) == len(theirs), what
    assert mine.distinct_count() == theirs.distinct_count(), what
    _assert_same_relation(mine.plus, theirs.plus, what + " (plus)", ordered=False)
    _assert_same_relation(mine.minus, theirs.minus, what + " (minus)", ordered=False)
    for positions in BUILT:
        ours = mine.index_on(positions)
        other = theirs.index_on(positions)
        assert _buckets(ours, dict) == _buckets(other, dict), (what, positions)
        for key in list(ours.buckets) + [(9, 9), 9]:
            assert ours.lookup(key) == other.lookup(key), (what, positions, key)
    for kind, position in AGGREGATES:
        state = mine.aggregate_state(kind, position)
        assert state == theirs.aggregate_state(kind, position), (what, kind)
        if type(state[0]) is not float:
            assert state == scan_aggregate_state(kind, mine, position), (what, kind)


A, B = (0, 0, NULL, 0.5), (0, 1, NULL, 0.5)
C, D = (0, 0, 0, 2.25), (0, 0, 0, 0.5)
X, Y = (1, 0, 0, 0.5), (2, 0, 0, 0.5)


@_SETTINGS
@given(
    rows=st.lists(_ROW, max_size=10),
    transactions=st.lists(_TRANSACTION, min_size=1, max_size=4),
    bag=st.booleans(),
)
@example(  # the revive of pending deletes files B before D in Δ⁺
    rows=[],
    transactions=[
        ([("insert", [A, B])], True),
        ([("delete", [A, B]), ("insert", [C, B, D, B])], True),
    ],
    bag=True,
)
@example(  # taking back a pending insert files X after Y in Δ⁻
    rows=[],
    transactions=[
        ([("insert", [X, Y])], True),
        ([("insert", [X]), ("delete", [X, Y, X])], True),
    ],
    bag=True,
)
def test_bulk_write_path_matches_reference(rows, transactions, bag):
    mine = _database(rows, bag, _kernel_load)
    theirs = _database(rows, bag, _reference_load)
    _assert_same_relation(mine.relation("t"), theirs.relation("t"), "after load")
    for number, (steps, commit) in enumerate(transactions):
        ours = TransactionContext(mine)
        other = reference.ReferenceContext(theirs)
        for step, (kind, batch) in enumerate(steps):
            what = f"transaction {number} step {step} ({kind} {batch})"
            if kind == "insert":
                changed = ours.insert_rows("t", batch)
                assert changed == other.insert_rows("t", batch), what
            else:
                changed = ours.delete_rows("t", batch)
                assert changed == other.delete_rows("t", batch), what
            assert ours.tuples_inserted == other.tuples_inserted, what
            assert ours.tuples_deleted == other.tuples_deleted, what
            _assert_same_overlay(ours.working["t"], other.working["t"], what)
            assert ours.performed_triggers() == other.performed_triggers(), what
        if commit:
            ours.commit()
            other.commit()
        else:
            ours.rollback()
            other.rollback()
        what = f"after transaction {number} ({'commit' if commit else 'rollback'})"
        _assert_same_relation(mine.relation("t"), theirs.relation("t"), what)
        assert mine.logical_time == theirs.logical_time, what


BULK = 500


@pytest.mark.parametrize("bag", [False, True])
def test_pinned_snapshots_read_their_own_state_across_bulk_commits(bag):
    """A 500-row insert commit and a 500-row delete commit, each under
    three readers: one whose snapshot materialized before the commit (a
    dict of its own, never the live one, so the kernel cannot write into
    it), one pinned but not yet materialized (it reconstructs from the
    retained delta), and a plain late reader."""
    initial = [(i, i % 7, i % 5 - 2, float(i % 3)) for i in range(2_000)]
    fresh = [(10_000 + i, i % 7, NULL, 0.5) for i in range(BULK)]
    for write in ("insert", "delete"):
        outcomes = []
        for context_type, load in (
            (TransactionContext, _kernel_load),
            (reference.ReferenceContext, _reference_load),
        ):
            database = _database(initial, bag, load)
            relation = database.relation("t")
            before = dict(relation._rows)
            sharer = database.snapshot()
            shared = sharer["t"]  # held: the pin caches its views weakly
            shared_rows = shared._rows  # materializes: a copy of its own
            assert shared_rows is not relation._rows
            lazy = database.snapshot()

            context = context_type(database)
            after = dict(before)
            if write == "insert":
                context.insert_rows("t", fresh + fresh[:10])
                for row in fresh:
                    after[row] = 1
                for row in fresh[:10] if bag else ():
                    after[row] += 1
            else:
                context.delete_rows("t", initial[:BULK])
                for row in initial[:BULK]:
                    del after[row]
            context.commit()

            assert dict(relation._rows) == after
            assert relation._rows is not shared_rows
            assert shared_rows == before and dict(shared.items()) == before
            assert dict(lazy["t"].items()) == before
            late = database.snapshot()
            assert dict(late["t"].items()) == after
            for snapshot in (sharer, lazy, late):
                snapshot.release()
            outcomes.append(relation)
        _assert_same_relation(outcomes[0], outcomes[1], f"after the bulk {write}")
