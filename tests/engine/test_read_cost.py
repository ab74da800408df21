"""What a read through an epoch pin costs and retains — counted, not timed.

A pinned read is a visibility filter over the live relation, not a
reconstruction of the pinned one.  These tests pin that down in counts a
slow machine cannot move:

* a *fresh* pin's read folds no undo entry and touches O(1) of the retained
  ones, however many are retained;
* it enters the seqlock a constant number of times per operator — the same
  for a 1-row and a 200-row result;
* a pin ``k`` commits behind folds exactly the ``k`` newer entries, once;
* a dropped query result releases its pin by reference count, with the
  cyclic collector switched off.

And what a read that needs no pin costs: ``Session.query(text,
pinned=True)`` on a *probe-only* plan (an indexed point selection, a join
of one against an indexed relation) takes no pin, makes no ``EpochPin`` and
no ``SnapshotRelation``, enters the seqlock once, and leaves the cyclic
collector nothing — while every other plan, and one that keeps losing the
validation race, still read through exactly one pin, building no live index
on the way.  A probe-only plan whose index is only declared reads through
one pin once: that read builds the live index, and the plan's later reads
take no pin.  The pin-path tests above therefore pin explicitly
(:func:`read_through_a_pin`).

Everything is counted from the outside (a list subclass for the entry
list, wrappers around ``read_begin`` and ``fold_inverse``); ``src/``
carries no counter for this beyond ``EpochManager.pins_taken``.
"""

from __future__ import annotations

import gc

import pytest

from repro.algebra.evaluation import evaluate_expression
from repro.algebra.parser import parse_expression
from repro.algebra.planner import database_plan
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine import epochs as epochs_module
from repro.engine.epochs import EpochPin, SnapshotRelation
from repro.engine.session import DatabaseView
from repro.engine.types import INT, STRING
from repro.errors import EvaluationError

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


def read_through_a_pin(database: Database, text: str) -> Relation:
    """``Session.query(text, pinned=True)`` as it runs when it does pin."""
    view = DatabaseView(database, pin=database.epochs.pin())
    return evaluate_expression(parse_expression(text), view)


def commit_orders(database: Database, count: int, first_id: int = 10_000) -> None:
    """``count`` one-row commits to ``orders`` (none to a queried customer)."""
    schema = database.relation_schema("orders")
    for i in range(count):
        row = (first_id + i, WRITTEN, i)
        database.apply_deltas({"orders": (Relation(schema, [row]), None)})


class CountedEntries(list):
    """The commit stream's record list, counting every record a reader touches."""

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
        log = database.commit_log
        log._records = CountedEntries(log._records, tally)
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


def read_costs(counted, retained: int, read) -> dict:
    """Costs of ``read(database, text)`` under a long-lived pin ``retained``
    commits old: ``{(query, rows): cost}``."""
    database = star_database()
    long_lived = database.epochs.pin()
    commit_orders(database, retained)
    assert database.epochs.retained() == retained + 2  # and the two loads
    for text in (POINT, JOIN):  # compile the plans outside the count
        for customer in (ONE_ORDER, MANY_ORDERS):
            read(database, text.format(customer))
    tally = counted(database)
    costs = {}
    for text in (POINT, JOIN):
        for customer, rows in ((ONE_ORDER, 1), (MANY_ORDERS, MANY)):
            result = []
            costs[text, rows] = cost_of(
                tally, lambda: result.append(read(database, text.format(customer)))
            )
            assert len(result[0]) == rows
    long_lived.release()
    return costs


def test_a_fresh_pinned_read_folds_nothing_and_visits_o1_entries(counted):
    costs = read_costs(counted, 2_000, read_through_a_pin)
    for (text, rows), cost in costs.items():
        assert cost["folds"] == 0, (text, rows, cost)
        # A couple of end-of-list looks per bracket — not the 2,000 entries.
        assert cost["visited"] <= 4 * cost["brackets"], (text, rows, cost)


def test_brackets_do_not_depend_on_result_size_or_retained_entries(counted):
    few = read_costs(counted, 20, read_through_a_pin)
    many = read_costs(counted, 2_000, read_through_a_pin)
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
            read_through_a_pin(database, POINT.format(MANY_ORDERS))
            read_through_a_pin(database, JOIN.format(ONE_ORDER))
        assert manager.pins_taken == 1_000
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


# -- one-shot reads: a probe-only plan takes no pin -----------------------------


@pytest.fixture
def constructed(monkeypatch):
    """How many ``EpochPin`` / ``SnapshotRelation`` objects get made."""
    made = {EpochPin: 0, SnapshotRelation: 0}
    for cls in made:

        def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return made


def one_shot(database: Database, text: str) -> Relation:
    return Session(database).query(text, pinned=True)


def test_a_one_shot_probe_read_is_one_bracket_whatever_it_returns_or_is_retained(counted):
    for retained in (20, 2_000):
        costs = read_costs(counted, retained, one_shot)
        assert len(costs) == 4
        for cost in costs.values():
            assert cost == {"brackets": 1, "visited": 0, "folds": 0}


def test_one_shot_reads_construct_no_pin_and_no_snapshot(constructed):
    database = star_database()
    session = Session(database)
    long_lived = database.epochs.pin()
    commit_orders(database, 300)
    before, pins = dict(constructed), database.epochs.pins_taken
    for _ in range(50):
        assert len(session.query(POINT.format(MANY_ORDERS), pinned=True)) == MANY
        assert len(session.query(JOIN.format(ONE_ORDER), pinned=True)) == 1
    assert constructed == before and database.epochs.pins_taken == pins
    long_lived.release()


def index_states(database: Database) -> dict:
    return {
        (relation.schema.name, index.positions): index.built
        for relation in database
        for index in relation.indexes or ()
    }


SCAN = "select(orders, amount > 100)"
PROJECTION = "project(orders, [customer])"
BARE = "orders"
DECLARED_JOIN = "join(select(orders, customer = 1), customers, left.customer = right.name)"


@pytest.mark.parametrize(
    "text, rows",
    [(SCAN, 99), (PROJECTION, 2), (BARE, 1 + MANY)],
    ids=["scan", "projection", "bare name"],
)
def test_every_other_plan_still_takes_exactly_one_pin_and_builds_nothing(
    text, rows, constructed
):
    database = star_database()
    database.relation("customers").declare_index((1,))  # name: never built
    session = Session(database)
    session.query(text, pinned=True)  # compile, and let anything that builds build
    found = index_states(database)
    assert False in found.values()
    pins, pin_objects = database.epochs.pins_taken, constructed[EpochPin]
    for _ in range(3):
        result = session.query(text, pinned=True)
        assert len(result) == rows
    assert database.epochs.pins_taken - pins == 3
    assert constructed[EpochPin] - pin_objects == 3
    assert index_states(database) == found


@pytest.mark.parametrize(
    "text, rows, declared",
    [(DECLARED_JOIN, 0, ("customers", (1,))), (POINT.format(1), 1, ("orders", (1,)))],
    ids=["declared join index", "declared select index"],
)
def test_a_declared_index_is_built_by_the_first_pinned_read_and_later_reads_take_no_pin(
    text, rows, declared, constructed
):
    database = star_database()
    if text.startswith("select(orders, customer"):
        # The same point read, its index now only declared.
        database.relation("orders").indexes.invalidate()
    database.relation("customers").declare_index((1,))  # name
    session = Session(database)
    plan = database_plan(parse_expression(text), database)
    assert declared in {
        (name, tuple(database.relation_schema(name).position_of(a) - 1 for a in attrs))
        for name, attrs in plan.probes
    }  # probe-only: the head path needs nothing more than this index built
    before = index_states(database)
    assert before[declared] is False
    pins, pin_objects = database.epochs.pins_taken, constructed[EpochPin]
    assert len(session.query(text, pinned=True)) == rows
    assert database.epochs.pins_taken - pins == 1  # the one pinned read ...
    assert index_states(database) == {**before, declared: True}  # ... built it, live
    for _ in range(3):
        assert len(session.query(text, pinned=True)) == rows
    assert database.epochs.pins_taken - pins == 1  # the head path from then on
    assert constructed[EpochPin] - pin_objects == 1


@pytest.mark.parametrize("wholesale", ["clear", "replace_contents"])
def test_a_point_read_rebuilds_the_index_a_wholesale_change_unbuilt(wholesale):
    """A batch that deletes every row (and, for ``replace_contents``, puts
    one back) leaves the relation's indexes only declared.  The next
    pinned point read rebuilds the one it probes — not every later read
    pinning and scanning, with nothing ever rebuilding it."""
    database = star_database()
    orders = database.relation("orders")
    replacement = [(0, ONE_ORDER, 6)] if wholesale == "replace_contents" else []
    database.apply_deltas(
        {"orders": (Relation(orders.schema, replacement), orders.copy())}
    )
    rows = len(replacement)
    assert orders.built_index((1,)) is None
    session = Session(database)
    text = POINT.format(ONE_ORDER)
    pins = database.epochs.pins_taken
    assert len(session.query(text, pinned=True)) == rows
    assert database.epochs.pins_taken == pins + 1
    assert orders.built_index((1,)) is not None
    for _ in range(3):
        assert len(session.query(text, pinned=True)) == rows
    assert database.epochs.pins_taken == pins + 1


@pytest.mark.parametrize("text", [POINT, JOIN], ids=["point", "join"])
@pytest.mark.parametrize("lost", range(epochs_module.READ_RETRY_LIMIT + 2))
def test_a_lost_race_reruns_and_a_lost_budget_falls_back_to_one_pin(
    text, lost, counted, monkeypatch
):
    database = star_database()
    session = Session(database)
    manager = database.epochs
    text = text.format(MANY_ORDERS)
    expected = session.query(text, pinned=True)
    validate = manager.read_validate
    failures = []

    def losing_validate(stamp):
        if len(failures) < lost:
            failures.append(stamp)
            return False
        return validate(stamp)

    monkeypatch.setattr(manager, "read_validate", losing_validate)
    tally = counted(database)
    pins = manager.pins_taken
    result = session.query(text, pinned=True)
    assert result == expected and type(result) is Relation
    assert len(failures) == lost
    if lost < epochs_module.READ_RETRY_LIMIT:
        assert manager.pins_taken == pins  # re-run in a second bracket
        assert tally["brackets"] == lost + 1
    else:
        assert manager.pins_taken == pins + 1  # today's pinned read, once
    assert manager.pinned_versions() == ()


def test_an_error_under_a_held_stamp_is_raised_once_not_rerun(counted):
    database = star_database()
    session = Session(database)
    # Probe-only: the division is above the point selection.  (A division
    # in the selection's own residual lowers to a full filter instead.)
    text = "project(select(orders, customer = 2), [amount / (amount - 7) as r])"
    assert database_plan(parse_expression(text), database).probes is not None
    tally = counted(database)
    pins = database.epochs.pins_taken
    with pytest.raises(EvaluationError, match="division by zero"):
        session.query(text, pinned=True)
    assert tally["brackets"] == 1 and database.epochs.pins_taken == pins


def test_a_one_shot_read_leaves_nothing_for_the_cyclic_collector():
    database = star_database()
    session = Session(database)
    long_lived = database.epochs.pin()
    commit_orders(database, 50)
    failing = "project(select(orders, customer = 2), [1 / (amount - 7) as r])"

    def reads():
        session.query(POINT.format(MANY_ORDERS), pinned=True)
        session.query(JOIN.format(ONE_ORDER), pinned=True)
        with pytest.raises(EvaluationError):
            session.query(failing, pinned=True)

    reads()  # compiling a plan does make cycles; running one must not
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(200):
            reads()
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    long_lived.release()


def fresh_insert(model) -> str:
    """A transaction text inserting three orders never seen before."""
    from benchmarks.e2e import workloads as W

    rows = [model.row() for _ in range(3)]
    return W.transaction_text([f"insert(orders, {row})" for row in rows])


@pytest.mark.parametrize("read", ["pinned scan", "snapshot"])
def test_a_pinned_or_snapshot_read_leaves_nothing_for_the_cyclic_collector(read):
    """The two read paths that do take a pin — a pinned query whose plan is
    not probe-only, and a :meth:`Database.snapshot` read — on the
    ``read_write_mix`` star database, each after a fresh insert."""
    from benchmarks.e2e import workloads as W

    model = W.StarModel(0)
    database = model.database
    session = Session(database, model.controller)
    scan = "select(orders, amount > 9990)"
    assert database_plan(parse_expression(scan), database).probes is None

    def pinned_scan():
        session.execute(fresh_insert(model))
        session.query(scan, pinned=True)

    def snapshot():
        session.execute(fresh_insert(model))
        taken = database.snapshot()
        assert len(taken["orders"]) == len(database.relation("orders"))
        next(iter(taken["customers"].rows()))

    path = pinned_scan if read == "pinned scan" else snapshot
    path()  # compiling the plans may make cycles; running them must not
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(20):
            path()
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
        session.close()
