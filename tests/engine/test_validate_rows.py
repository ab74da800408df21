"""``RelationSchema.validate_rows``: batch validation must accept, coerce and
reject exactly what ``validate_tuple`` does row by row — same stored values,
same error texts — and a rejected batch must leave everything untouched."""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.programs import Program
from repro.engine import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    Database,
    DatabaseSchema,
    RelationSchema,
    TransactionManager,
)
from repro.engine.schema import Attribute
from repro.engine.transaction import Transaction, TransactionContext
from repro.engine.types import ANY, NULL, Domain
from repro.errors import TypeMismatchError


class Level(enum.IntEnum):
    LOW = 1


SCHEMA = RelationSchema(
    "t",
    [
        ("a", INT),
        ("f", FLOAT),
        Attribute("s", STRING, nullable=True),
        ("b", BOOL),
    ],
)
LOOSE = RelationSchema("u", [("a", INT), Attribute("x", ANY, nullable=True)])


def outcome(validate):
    try:
        return validate()
    except TypeMismatchError as error:
        return ("TypeMismatchError", str(error))


def row_by_row(schema, rows):
    return [schema.validate_tuple(tuple(row)) for row in rows]


def assert_same_as_row_by_row(schema, rows):
    expected = outcome(lambda: row_by_row(schema, rows))
    actual = outcome(lambda: schema.validate_rows(rows))
    assert actual == expected
    if isinstance(expected, list):
        # Equal is not enough: 1 == 1.0 == True.
        assert [list(map(type, row)) for row in actual] == [
            list(map(type, row)) for row in expected
        ]
        assert all(type(row) is tuple for row in actual)


_VALUE = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0.5, 2.0, True, False, NULL, "x", "", Level.LOW, None]),
)
_ROWS = st.lists(
    st.one_of(
        st.tuples(_VALUE, _VALUE, _VALUE, _VALUE),
        st.tuples(
            st.integers(),
            st.floats(allow_nan=False),
            st.text(max_size=2),
            st.booleans(),
        ),
        st.tuples(_VALUE, _VALUE, _VALUE, _VALUE).map(list),
        st.lists(_VALUE, max_size=5).map(tuple),
    ),
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(rows=_ROWS)
def test_batch_validation_is_row_validation(rows):
    assert_same_as_row_by_row(SCHEMA, rows)
    assert_same_as_row_by_row(LOOSE, [row[:2] for row in rows])


def test_exact_types_follow_from_the_domains_own_data():
    # Accepted by exact type without a look at the value: the listed types,
    # minus those a coercing domain would turn into its coercion's type.
    assert INT.exact_types == {int}
    assert FLOAT.exact_types == {float}
    assert STRING.exact_types == {str}
    assert BOOL.exact_types == {bool}
    assert ANY.exact_types == {object}
    assert Domain("money", (float, int), coerce=float).exact_types == {float}
    assert Domain("code", (str, int)).exact_types == {str, int}


def test_int_into_float_is_still_stored_as_float():
    schema = RelationSchema("p", [("n", INT), ("x", FLOAT)])
    rows = [(i, float(i)) for i in range(499)] + [(1, 1)]
    stored = schema.validate_rows(rows)[-1]
    assert stored == (1, 1.0) and type(stored[1]) is float
    database = Database(DatabaseSchema([schema]))
    database.load("p", rows)
    kept = [row for row in database.relation("p") if row[0] == 1]
    assert [type(row[1]) for row in kept] == [float]


@pytest.mark.parametrize(
    "row, message",
    [
        ((True, 1.0, "s", True), "value True not valid for attribute t.a (int)"),
        ((1, True, "s", True), "value True not valid for attribute t.f (float)"),
        ((1, 1.0, "s", 1), "value 1 not valid for attribute t.b (bool)"),
        ((NULL, 1.0, "s", True), "value NULL not valid for attribute t.a (int)"),
        ((1, NULL, "s", True), "value NULL not valid for attribute t.f (float)"),
        ((1, 1.0, "s"), "tuple of arity 3 does not fit relation 't' of arity 4"),
        (
            (1, 1.0, "s", True, 5),
            "tuple of arity 5 does not fit relation 't' of arity 4",
        ),
    ],
)
@pytest.mark.parametrize("batch", [1, 500])
def test_rejections_keep_their_messages(row, message, batch):
    good = [(i, 0.5, NULL, False) for i in range(batch - 1)]
    rows = good[: batch // 2] + [row] + good[batch // 2 :]
    with pytest.raises(TypeMismatchError) as raised:
        SCHEMA.validate_rows(rows)
    assert str(raised.value) == message


def test_null_fits_exactly_the_nullable_attributes():
    rows = [(1, 1.0, NULL, True)] * 2
    assert SCHEMA.validate_rows(rows) == rows
    rows = [(1, NULL), (2, "anything")]
    assert LOOSE.validate_rows(rows) == rows
    with pytest.raises(TypeMismatchError):
        LOOSE.validate_rows([(1, NULL), (NULL, NULL)])


def _orders() -> Database:
    schema = DatabaseSchema(
        [RelationSchema("orders", [("id", INT), ("customer", INT), ("amount", INT)])]
    )
    database = Database(schema)
    database.load("orders", [(i, i % 10, i) for i in range(100)])
    database.create_index("orders", ["customer"])
    return database


def test_a_bad_row_in_the_middle_of_a_bulk_insert_aborts_cleanly():
    database = _orders()
    relation = database.relation("orders")
    before = dict(relation._rows)
    buckets = {k: list(b) for k, b in relation.built_index((1,)).buckets.items()}
    rows = [(1_000 + i, i % 10, i) for i in range(500)]
    rows[250] = (1_250, "nobody", 250)
    message = "value 'nobody' not valid for attribute orders.customer (int)"

    # The statement path: the transaction aborts with the text it always had.
    manager = TransactionManager(database)
    result = manager.execute(
        Transaction(Program([S.Insert("orders", E.Literal(tuple(rows)))]))
    )
    assert result.aborted and result.reason == f"runtime error: {message}"
    assert database.logical_time == 0 and len(database.commit_log) == 0

    # The overlay under it: nothing of the batch went in.
    context = TransactionContext(database)
    context.insert_rows("orders", rows[:3])
    with pytest.raises(TypeMismatchError) as raised:
        context.insert_rows("orders", rows)
    assert str(raised.value) == message
    overlay = context.working["orders"]
    assert list(overlay.plus._rows) == rows[:3] and not overlay.minus._rows
    assert context.tuples_inserted == 3

    assert dict(relation._rows) == before
    assert {
        k: list(b) for k, b in relation.built_index((1,)).buckets.items()
    } == buckets

    # And the base relation's own bulk insert (Database.load) is all or nothing.
    with pytest.raises(TypeMismatchError):
        database.load("orders", rows)
    assert dict(relation._rows) == before
