"""What a read through an epoch pin costs and retains — counted, not timed.

A pinned read is a visibility filter over the live relation, not a
reconstruction of the pinned one.  These tests pin that down in counts a
slow machine cannot move:

* a *fresh* pin's read folds no undo entry and touches O(1) of the retained
  ones, however many are retained;
* it enters the seqlock a constant number of times per operator — the same
  for a 1-row and a 200-row result;
* a pin ``k`` commits behind folds exactly the ``k`` newer entries, once;
* a pinned projection onto indexed columns is one bracket over the index's
  keys: no materialization, no local index, whatever is retained;
* a dropped query result releases its pin by reference count, with the
  cyclic collector switched off.

Everything is counted from the outside (a list subclass for the entry
list, wrappers around ``read_begin`` and ``fold_inverse``); ``src/``
carries no counter for this.
"""

from __future__ import annotations

import gc

import pytest

from repro.algebra.evaluation import evaluate_expression
from repro.algebra.parser import parse_expression
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine import epochs as epochs_module
from repro.engine.epochs import EpochPin, SnapshotRelation
from repro.engine.session import DatabaseView
from repro.engine.types import INT, STRING

POINT = "select(orders, customer = {})"
JOIN = "join(select(orders, customer = {}), customers, left.customer = right.cid)"

ONE_ORDER, MANY_ORDERS, WRITTEN = 1, 2, 3  # customers
MANY = 200


def star_database() -> Database:
    database = Database(
        DatabaseSchema(
            [
                RelationSchema("orders", [("id", INT), ("customer", INT), ("amount", INT)]),
                RelationSchema("customers", [("cid", INT), ("name", STRING)]),
            ]
        )
    )
    database.load("customers", [(c, f"customer_{c}") for c in range(10)])
    database.load(
        "orders",
        [(0, ONE_ORDER, 5)] + [(1 + i, MANY_ORDERS, i) for i in range(MANY)],
    )
    database.create_index("orders", ["customer"])
    database.create_index("customers", ["cid"])
    database.epochs.retain = 4096
    return database


def commit_orders(database: Database, count: int, first_id: int = 10_000) -> None:
    """``count`` one-row commits to ``orders`` (none to a queried customer)."""
    schema = database.relation_schema("orders")
    for i in range(count):
        row = (first_id + i, WRITTEN, i)
        database.apply_deltas({"orders": (Relation(schema, [row]), None)})


class CountedEntries(list):
    """The manager's entry list, counting every entry a reader touches."""

    def __init__(self, entries, tally):
        super().__init__(entries)
        self.tally = tally

    def __iter__(self):
        for entry in super().__iter__():
            self.tally["visited"] += 1
            yield entry

    def __reversed__(self):
        for entry in super().__reversed__():
            self.tally["visited"] += 1
            yield entry

    def __getitem__(self, index):
        got = super().__getitem__(index)
        if isinstance(index, slice):
            self.tally["visited"] += len(got)
            return CountedEntries(got, self.tally)
        self.tally["visited"] += 1
        return got


@pytest.fixture
def counted(monkeypatch):
    """``counted(database)`` starts counting on it and returns the tally."""

    def start(database: Database) -> dict:
        tally = {"brackets": 0, "visited": 0, "folds": 0}
        manager = database.epochs
        manager._entries = CountedEntries(manager._entries, tally)
        read_begin = manager.read_begin
        fold_inverse = epochs_module.fold_inverse

        def counting_read_begin():
            tally["brackets"] += 1
            return read_begin()

        def counting_fold(plus, minus, delta):
            tally["folds"] += 1
            return fold_inverse(plus, minus, delta)

        monkeypatch.setattr(manager, "read_begin", counting_read_begin)
        monkeypatch.setattr(epochs_module, "fold_inverse", counting_fold)
        return tally

    return start


def cost_of(tally: dict, read) -> dict:
    before = dict(tally)
    read()
    return {name: tally[name] - before[name] for name in tally}


def fresh_read_costs(counted, retained: int) -> dict:
    """Costs of fresh pinned reads under a long-lived pin ``retained``
    commits old: ``{(query, rows): cost}``."""
    database = star_database()
    session = Session(database)
    long_lived = database.epochs.pin()
    commit_orders(database, retained)
    assert database.epochs.retained() == retained
    for text in (POINT, JOIN):  # compile the plans outside the count
        for customer in (ONE_ORDER, MANY_ORDERS):
            session.query(text.format(customer), pinned=True)
    tally = counted(database)
    costs = {}
    for text in (POINT, JOIN):
        for customer, rows in ((ONE_ORDER, 1), (MANY_ORDERS, MANY)):
            result = []
            costs[text, rows] = cost_of(
                tally,
                lambda: result.append(session.query(text.format(customer), pinned=True)),
            )
            assert len(result[0]) == rows
    long_lived.release()
    return costs


def test_a_fresh_pinned_read_folds_nothing_and_visits_o1_entries(counted):
    costs = fresh_read_costs(counted, retained=2_000)
    for (text, rows), cost in costs.items():
        assert cost["folds"] == 0, (text, rows, cost)
        # A couple of end-of-list looks per bracket — not the 2,000 entries.
        assert cost["visited"] <= 4 * cost["brackets"], (text, rows, cost)


def test_brackets_do_not_depend_on_result_size_or_retained_entries(counted):
    few = fresh_read_costs(counted, retained=20)
    many = fresh_read_costs(counted, retained=2_000)
    assert few == many  # brackets and entries visited, query by query
    for text, limit in ((POINT, 2), (JOIN, 4)):  # the pin's own bracket included
        assert many[text, 1]["brackets"] == many[text, MANY]["brackets"] <= limit


def test_a_pin_k_commits_behind_folds_k_entries_once(counted):
    database = star_database()
    commit_orders(database, 300)
    pin = database.epochs.pin()
    view = DatabaseView(database, pin=pin)
    point = parse_expression(POINT.format(MANY_ORDERS))
    join = parse_expression(JOIN.format(MANY_ORDERS))
    evaluate_expression(point, view), evaluate_expression(join, view)  # compile
    # Audit tasks of one batch hold the pin's snapshots like this; the pin
    # itself only caches them weakly.
    orders, customers = pin.relation("orders"), pin.relation("customers")
    k = 7
    commit_orders(database, k, first_id=20_000)
    tally = counted(database)
    first = cost_of(tally, lambda: evaluate_expression(join, view))
    assert first["folds"] == k  # every later commit touched orders, none customers
    assert first["visited"] <= 2 * 3 * k  # each of the two snapshots walks them once
    for expression in (point, join, point):
        again = cost_of(tally, lambda: evaluate_expression(expression, view))
        assert again["folds"] == 0
        assert again["visited"] <= 4 * again["brackets"]
    assert len(evaluate_expression(point, view)) == MANY
    assert len(orders) == 1 + MANY + 300 and len(customers) == 10
    pin.release()


PROJECTION = "project(orders, [customer])"


def test_a_pinned_index_only_projection_is_one_bracket_and_builds_nothing(counted):
    database = star_database()
    session = Session(database)
    long_lived = database.epochs.pin()
    commit_orders(database, 2_000)
    session.query(PROJECTION, pinned=True)  # compile outside the count
    tally = counted(database)
    result = []
    fresh = cost_of(tally, lambda: result.append(session.query(PROJECTION, pinned=True)))
    assert sorted(result[0].rows()) == [(ONE_ORDER,), (MANY_ORDERS,), (WRITTEN,)]
    assert fresh["brackets"] <= 2  # the pin's own and the key view's
    assert fresh["folds"] == 0 and fresh["visited"] <= 4 * fresh["brackets"]

    # The long-lived pin is 2,000 commits behind: it folds each once, in the
    # one bracket, and answers without the customer that came later.
    view = DatabaseView(database, pin=long_lived)
    orders = long_lived.relation("orders")
    expression = parse_expression(PROJECTION)
    behind = cost_of(tally, lambda: result.append(evaluate_expression(expression, view)))
    assert sorted(result[1].rows()) == [(ONE_ORDER,), (MANY_ORDERS,)]
    assert behind["brackets"] == 1 and behind["folds"] == 2_000
    again = cost_of(tally, lambda: result.append(evaluate_expression(expression, view)))
    assert result[2] == result[1]
    assert again["brackets"] == 1 and again["folds"] == 0
    assert orders._materialized is None and orders._indexes is None

    # The result is detached: a later commit changes neither it nor what
    # the pin reads next.
    commit_orders(database, 1, first_id=50_000)
    assert sorted(result[1].rows()) == [(ONE_ORDER,), (MANY_ORDERS,)]
    assert evaluate_expression(expression, view) == result[1]
    assert orders._materialized is None
    long_lived.release()


def test_dropped_results_release_their_pins_by_reference_count():
    database = star_database()
    database.epochs.retain = epochs_module.DEFAULT_RETAIN
    session = Session(database)
    manager = database.epochs
    gc.collect()
    gc.disable()
    try:
        for i in range(500):
            commit_orders(database, 1, first_id=30_000 + i)
            session.query(POINT.format(MANY_ORDERS), pinned=True)
            session.query(JOIN.format(ONE_ORDER), pinned=True)
        assert manager.pinned_versions() == ()
        assert manager.retained() <= manager.retain

        # A result that *is* the pinned view keeps its pin, and its epoch.
        held = session.query("orders")
        size = len(database.relation("orders"))
        commit_orders(database, 5, first_id=40_000)
        assert manager.pinned_versions() == (held._pin.version,)
        assert len(held) == size
        assert len(held.built_index((1,)).lookup(WRITTEN)) == 500
        del held
        assert manager.pinned_versions() == ()

        # Nothing was left for the cyclic collector to find.
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [
            found for found in gc.garbage if isinstance(found, (SnapshotRelation, EpochPin))
        ]
        assert leaked == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
