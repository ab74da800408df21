"""A projection reads rows: one kernel, on every source it runs over.

Worked examples beside the random property in
``tests/properties/test_prop_projection.py``:

* ``project`` over a base relation, through a transaction's overlay (Δ⁺
  and Δ⁻ both non-empty: a key emptied, a key re-created, a bag row partly
  deleted) and through a pinned snapshot that later commits changed, in set
  and bag mode, for plain, permuted and renamed columns, equals
  ``Expression.evaluate`` — with indexes built on the projected columns,
  which a projection does not read;
* the programs that project give their results: the Δ⁻ of a projection
  mid-transaction and as a post-commit audit, and the paper's R2 repair
  over an ``emp`` whose ``dept_id`` index is built, full-state and
  differential;
* the distinct-key semijoin/antijoin, the one reader left of an overlay's
  whole buckets, still gives the reference's rows, mid-transaction and
  through a pin.
"""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.delta import delta_expression
from repro.algebra.evaluation import StandaloneContext
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.session import DatabaseView, DeltaView
from repro.engine.transaction import TransactionContext
from repro.engine.types import INT, NULL
from repro.workloads.employees import employees_database, employees_schema

R2_REPAIR = """
RULE emp_dept_repair
IF NOT (forall e)(e in emp => (exists d)(d in dept and e.dept_id = d.id))
THEN missing := diff(project(emp, [dept_id]), project(dept, [id]));
     insert(dept, project(missing, [dept_id as id, "unassigned" as name, null as city]))
"""

#: ``(attribute, output name or None)`` per projected column.
COLUMNS = {
    "plain": (("a", None),),
    "permuted": (("b", None), ("a", None)),
    "renamed": (("a", "key"), ("b", "other")),
}

#: Keys 0–3 over ``a``; in bag mode ``(1, 10, 0)`` is there twice.
INITIAL = [(0, 10, 0), (1, 10, 0), (1, 11, 1), (2, 12, 2), (3, 10, 3)]


def _project(source: E.Expression, columns) -> E.Project:
    return E.Project(
        source,
        tuple(E.ProjectItem(P.ColRef(attr), name) for attr, name in columns),
    )


def _r_schema() -> DatabaseSchema:
    return DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT), ("c", INT)])])


def _indexed_database(bag: bool) -> Database:
    database = Database(_r_schema(), bag=bag)
    database.load("r", INITIAL + ([(1, 10, 0)] if bag else []))
    relation = database.relation("r")
    for spec in ((0,), (1, 0), (1,)):
        relation.index_on(spec)
    return database


def _change(context: TransactionContext) -> None:
    """Key 2 emptied, key 1 partly deleted (in a bag, one of its two equal
    rows), key 3 re-created with another row, key 5 new."""
    context.delete_rows("r", [(2, 12, 2), (1, 10, 0), (3, 10, 3)])
    context.insert_rows("r", [(3, 13, 3), (5, 10, 5), (5, 10, 6)])


def _base(database: Database):
    view = DatabaseView(database)
    return view, view, lambda: None


def _overlay(database: Database):
    context = TransactionContext(database)
    _change(context)
    return context, context, context.rollback


def _snapshot(database: Database):
    pin = database.epochs.pin()
    frozen = StandaloneContext({"r": database.relation("r").copy()})
    context = TransactionContext(database)
    _change(context)
    context.commit()
    return DatabaseView(database, pin=pin), frozen, pin.release


SOURCES = {"base": _base, "overlay": _overlay, "snapshot": _snapshot}


@pytest.mark.parametrize("columns", sorted(COLUMNS))
@pytest.mark.parametrize("bag", [False, True], ids=["set", "bag"])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_a_projection_equals_the_reference(source, bag, columns):
    database = _indexed_database(bag)
    context, oracle, close = SOURCES[source](database)
    expression = _project(E.RelationRef("r"), COLUMNS[columns])
    result = planner.evaluate(expression, context)
    reference = expression.evaluate(oracle)
    assert result.bag == reference.bag == bag
    assert dict(result.items()) == dict(reference.items())
    assert [attribute.name for attribute in result.schema.attributes] == [
        name or attr for attr, name in COLUMNS[columns]
    ]
    if bag:  # multiplicities summed over the projected-away columns
        assert max(dict(result.items()).values()) > 1
    close()


def _minus_program() -> E.Expression:
    """Δ⁻π_a(r) with DEL(r) active: π(r@minus) − π(r)."""
    return delta_expression(
        _project(E.RelationRef("r"), (("a", None),)), [("DEL", "r")], E.DELTA_MINUS
    )


def _keyed_database(rows: int = 2_000, keys: int = 40) -> Database:
    database = Database(DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])]))
    database.load("r", [(i % keys, i) for i in range(rows)])
    database.create_index("r", ["a"])
    return database


def test_the_delta_minus_of_a_projection_names_only_the_emptied_keys():
    database = _keyed_database()
    context = TransactionContext(database)
    # Key 7 loses every row, key 8 one of its rows, key 9 one but gets one back.
    context.delete_rows("r", [(7, 7 + 40 * j) for j in range(50)] + [(8, 8), (9, 9)])
    context.insert_rows("r", [(9, 99_999)])
    program = _minus_program()
    result = planner.evaluate(program, context)
    assert sorted(result.rows()) == [(7,)]
    assert result == program.evaluate(context)


def test_the_delta_minus_program_after_commit_reads_the_post_state():
    """The same program as a post-commit audit binds ``r`` to the base."""
    database = _keyed_database()
    schema = database.relation_schema("r")
    minus = Relation(schema, [(7, 7 + 40 * j) for j in range(50)] + [(8, 8)])
    database.apply_deltas({"r": (None, minus)})
    view = DeltaView(database, {"r": (None, minus)})
    program = _minus_program()
    assert sorted(planner.evaluate(program, view).rows()) == [(7,)]
    assert planner.evaluate(program, view) == program.evaluate(view)


@pytest.mark.parametrize("differential", [False, True], ids=["full", "differential"])
def test_the_r2_repair_over_a_built_dept_id_index_adds_the_missing_department(
    differential,
):
    controller = IntegrityController(employees_schema(), differential=differential)
    controller.add_rule(R2_REPAIR)
    database = employees_database(employees=500, departments=20)
    controller.install_indexes(database)
    database.create_index("emp", ["dept_id"])
    database.create_index("emp", ["id"])
    emp = database.relation("emp")
    assert emp.built_index((2,)) is not None
    (old,) = emp.built_index((0,)).lookup(5)
    raised = old[:3] + (old[3] + 100,) + old[4:]
    session = Session(database, controller)
    # A hire into a missing department and a raise (delete + insert).
    outcome = session.execute(
        f"begin insert(emp, (9000, \"new\", 77, 3000, 2)); "
        f"delete(emp, {old!r}); insert(emp, {raised!r}); end".replace("'", '"')
    )
    assert outcome.committed
    added = [row for row in database.relation("dept") if row[0] >= 20]
    assert added == [(77, "unassigned", NULL)]
    assert raised in emp and old not in emp
    assert not controller.violated_constraints(database)


def _semijoin(kind: str) -> E.Expression:
    node = E.SemiJoin if kind == "semijoin" else E.AntiJoin
    return node(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef("a", "left"), P.ColRef("k", "right")),
    )


def _join_database() -> Database:
    database = Database(
        DatabaseSchema(
            [
                RelationSchema("r", [("a", INT), ("b", INT)]),
                RelationSchema("s", [("k", INT)]),
            ]
        )
    )
    database.load("r", [(i % 6, i) for i in range(30)])
    database.load("s", [(0,), (2,), (4,)])
    database.create_index("r", ["a"])
    database.create_index("s", ["k"])
    return database


def _join_change(context: TransactionContext) -> None:
    """r: key 0 emptied, key 7 new; s: key 2 gone, keys 1 and 7 new."""
    context.delete_rows("r", [(0, i) for i in range(0, 30, 6)] + [(1, 1)])
    context.insert_rows("r", [(7, 100), (2, 101)])
    context.delete_rows("s", [(2,)])
    context.insert_rows("s", [(1,), (7,)])


@pytest.mark.parametrize("kind", ["semijoin", "antijoin"])
def test_the_distinct_key_semijoin_reads_an_overlays_buckets(kind):
    database = _join_database()
    context = TransactionContext(database)
    _join_change(context)
    database.relation("r").built_index((0,)).usage.reset()
    expression = _semijoin(kind)
    result = planner.evaluate(expression, context)
    assert dict(result.items()) == dict(expression.evaluate(context).items())
    # Regime 1 ran: one probe per distinct key of the corrected left index.
    assert database.relation("r").built_index((0,)).usage.by_kind == {"probe": 6}
    context.rollback()


@pytest.mark.parametrize("kind", ["semijoin", "antijoin"])
def test_the_distinct_key_semijoin_through_a_pin_reads_the_pinned_state(kind):
    database = _join_database()
    pin = database.epochs.pin()
    frozen = StandaloneContext(
        {name: database.relation(name).copy() for name in ("r", "s")}
    )
    context = TransactionContext(database)
    _join_change(context)
    context.commit()
    expression = _semijoin(kind)
    view = DatabaseView(database, pin=pin)
    result = planner.evaluate(expression, view)
    assert dict(result.items()) == dict(expression.evaluate(frozen).items())
    assert result != expression.evaluate(DatabaseView(database))
    pin.release()
