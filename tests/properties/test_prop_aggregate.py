"""Property: ``relation.aggregate`` ≡ recomputation from the rows.

Relations memoise SUM/AVG/MIN/MAX state and keep it current under
``insert``/``delete`` (the mutators ``apply_deltas`` goes through); an
overlay carries its base's state over the transaction's delta, a pinned
snapshot over its undo delta.  After any interleaving of loads, deletes,
transactions (committed through ``apply_deltas`` or rolled back) and pins,
every aggregate of every view must equal the scan it replaced — exactly,
floats included, because only integer arithmetic is ever carried over.  Set
and bag mode, NULLs, non-integers, and deletes of the current extremum.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.transaction import TransactionContext
from repro.engine.types import FLOAT, INT, NULL

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FUNCS = ("SUM", "AVG", "MIN", "MAX")
_INTS = st.integers(min_value=-3, max_value=6)
# Mostly integers (the maintained path); NULLs are skipped; a float makes
# the column's state inexact until it is deleted again.  Halves add exactly
# in binary, so the expected value does not depend on the scan order.
VALUES = st.one_of(_INTS, _INTS, _INTS, st.just(NULL), st.sampled_from([0.5, 2.5]))
ROWS = st.lists(st.tuples(st.integers(0, 4), VALUES), max_size=4)
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "delete"]), ROWS),
        st.tuples(st.sampled_from(["commit", "rollback"]), ROWS, ROWS),
        st.tuples(st.just("pin")),
    ),
    max_size=10,
)


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [RelationSchema("t", [("k", INT), ("v", FLOAT, True)])]
    )


def _scan(func: str, rows: list, position: int):
    """What AggregateOp computed before relations answered for themselves."""
    values = [row[position] for row in rows if row[position] is not NULL]
    if func == "SUM":
        return sum(values) if values else 0
    if not values:
        return NULL
    if func == "AVG":
        return sum(values) / len(values)
    return min(values) if func == "MIN" else max(values)


def _check(relation, rows=None) -> None:
    rows = list(relation) if rows is None else rows
    for position in (0, 1):
        for func in FUNCS:
            got = relation.aggregate(func, position)
            want = _scan(func, rows, position)
            # Equal as numbers: a delete may spell a FLOAT column's 1.0 as
            # 1 (the same row key), and the carried state keeps that 1.
            assert got == want, (
                f"{func}[{position}] of {relation!r}: {got!r} != {want!r}"
            )


@given(rows=ROWS, ops=OPS, bag=st.booleans())
@_SETTINGS
def test_aggregate_equals_recomputation(rows, ops, bag):
    database = Database(_schema(), bag=bag)
    database.load("t", rows)
    relation = database.relation("t")
    pins = []
    _check(relation)  # memoises: everything below maintains or drops it
    for op in ops:
        if op[0] == "insert":
            database.load("t", op[1])
        elif op[0] == "delete":
            context = TransactionContext(database)
            context.delete_rows("t", op[1])
            context.commit()
        elif op[0] == "pin":
            pins.append((database.epochs.pin(), list(relation)))
        else:
            context = TransactionContext(database)
            context.insert_rows("t", op[1])
            context.delete_rows("t", op[2])
            _check(context.resolve("t"))  # the overlay: base state ⊕ Δ
            if op[0] == "commit":
                context.commit()  # apply_deltas
            else:
                context.rollback()
        _check(relation)
        for pin, pinned_rows in pins:
            _check(pin.relation("t"), pinned_rows)
    for pin, _ in pins:
        pin.release()


@given(
    first=ROWS,
    second=ROWS,
    func=st.sampled_from(FUNCS),
    names=st.lists(
        st.sampled_from(["k", "v", "p", "q"]), min_size=2, max_size=2, unique=True
    ),
    bag=st.booleans(),
)
@_SETTINGS
def test_one_plan_over_two_schemas_answers_for_each(first, second, func, names, bag):
    """An aggregate's, a count's and a multiplicity's plan outputs one
    schema per input schema: the same plan, run over two relations named
    ``x`` with different attribute names, answers for each — the value of
    its rows, under an attribute named after its own second column."""
    from repro.algebra import expressions as E
    from repro.algebra.planner import get_plan
    from repro.engine.session import DatabaseView

    expressions = (
        E.Aggregate(E.RelationRef("x"), func, 2),
        E.Count(E.RelationRef("x")),
        E.Multiplicity(E.RelationRef("x")),
    )
    plans = [get_plan(expression) for expression in expressions]
    for rows, attrs in ((first, ("k", "v")), (second, tuple(names))):
        database = Database(
            DatabaseSchema(
                [RelationSchema("x", [(attrs[0], INT), (attrs[1], FLOAT, True)])]
            ),
            bag=bag,
        )
        database.load("x", rows)
        relation = database.relation("x")
        view = DatabaseView(database)
        for _ in range(2):
            aggregate, count, multiplicity = (
                plan.execute(view) for plan in plans
            )
            assert aggregate.schema.attribute_names == (
                f"{func.lower()}_{attrs[1]}",
            )
            assert list(aggregate) == [(_scan(func, list(relation), 1),)]
            assert count.schema.attribute_names == ("cnt",)
            assert list(count) == [(len(relation),)]
            assert multiplicity.schema.attribute_names == ("mlt",)
            assert list(multiplicity) == [(relation.distinct_count(),)]
