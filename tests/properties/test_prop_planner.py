"""Property: the planned backend is result-equivalent to the naive one.

For random algebra expressions and random database states, compiling to a
physical plan and executing it must produce the exact same relation —
tuples *and* multiplicities — as the reference tree-walk interpreter, in
set mode and in bag mode, with and without hash indexes installed.  When a
backend raises, the other must raise the same error class.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import planner
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Database
from repro.engine.transaction import TransactionContext
from repro.errors import ReproError

from . import strategies as S

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _database(rows_r, rows_s, bag: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    return database


def _run(fn):
    try:
        return fn(), None
    except ReproError as error:
        return None, error


def _assert_backends_agree(expression, database):
    relations = {
        "r": database.relation("r"),
        "s": database.relation("s"),
    }
    context = StandaloneContext(relations)
    naive_result, naive_error = _run(lambda: expression.evaluate(context))
    planned_result, planned_error = _run(
        lambda: planner.get_plan(expression).execute(context)
    )
    if naive_error is not None or planned_error is not None:
        # Ill-typed expressions must fail on both backends, but not
        # necessarily with the same error class: the planner optimizes
        # before lowering, and e.g. a selection pushed through a ragged
        # union hits an unknown-attribute error before the union's arity
        # check.  Transactions treat every ReproError identically (runtime
        # abort), so class-level equality would be stricter than the
        # observable semantics.
        assert naive_error is not None and planned_error is not None, (
            f"error divergence: naive={naive_error!r} planned={planned_error!r}"
        )
        return
    assert naive_result == planned_result, (
        f"result divergence on {expression!r}:\n"
        f"  naive:   {naive_result.sorted_rows()}\n"
        f"  planned: {planned_result.sorted_rows()}"
    )
    assert len(naive_result) == len(planned_result)


@given(
    expression=S.algebra_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_planned_equals_naive(expression, rows_r, rows_s, bag):
    _assert_backends_agree(expression, _database(rows_r, rows_s, bag))


@given(
    expression=S.algebra_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_planned_equals_naive_with_indexes(expression, rows_r, rows_s, bag):
    """Same property with persistent hash indexes on every single column.

    This drives the index-accelerated paths: bucket-lookup equality
    selection, pre-built build sides, and distinct-key semi/antijoin
    probing.
    """
    database = _database(rows_r, rows_s, bag)
    database.create_index("r", ["a"])
    database.create_index("r", ["b"])
    database.create_index("s", ["c"])
    database.create_index("s", ["d"])
    database.create_index("r", ["a", "b"])
    _assert_backends_agree(expression, database)


@given(
    expression=S.algebra_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    deltas=st.lists(
        st.tuples(
            st.sampled_from(["r", "s"]),
            st.booleans(),  # insert (True) or delete
            st.tuples(S.VALUES, S.VALUES),
        ),
        max_size=6,
    ),
    bag=st.booleans(),
)
@_SETTINGS
def test_planned_equals_naive_after_index_maintenance(
    expression, rows_r, rows_s, deltas, bag
):
    """Indexes stay consistent under interleaved inserts and deletes."""
    database = _database(rows_r, rows_s, bag)
    database.create_index("r", ["a"])
    database.create_index("s", ["c"])
    for name, is_insert, row in deltas:
        if is_insert:
            database.load(name, [row])
        else:
            context = TransactionContext(database)
            context.delete_rows(name, [row])
            context.commit()
    _assert_backends_agree(expression, database)
