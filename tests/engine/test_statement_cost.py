"""What a statement of a modified transaction costs — counted, not timed.

A stored check, a name and a literal cost their rows, not their plumbing.
These tests pin that down in counts a slow machine cannot move
(``tests/engine/test_read_cost.py`` does the same for reads):

* executing a stored semi/antijoin check and a stored filter check makes
  the same number of Python-level calls over a 1-row and a 200-row Δ⁺, and
  no more than :data:`CHECK_CALLS` (37 and 25 at PR 21);
* serving a stored check's plan is one probe of the database's own table:
  nothing of :mod:`weakref` runs and ``_is_cache_exempt`` is not asked;
* within one transaction ``naming.split_auxiliary`` runs once per distinct
  name, however many statements read it;
* ``insert(R, (…))`` / ``delete(R, (…))`` build no ``LiteralOp`` and no
  intermediate ``Relation``;
* the checks ModT appends build no ``Relation`` while they hold, and
  exactly one — the violating rows, for the reason text — when one fires;
* and the plan cache's hit/miss counters move exactly as they did before
  any of this: one hit per planned evaluation, literals and bare leaves
  exempt, no miss once warm.

Everything is counted from the outside (``sys.setprofile``, wrappers put in
by ``monkeypatch``); ``src/`` carries no counter for this.
"""

from __future__ import annotations

import sys

import pytest

from repro.algebra import physical, planner
from repro.algebra import statements as S
from repro.algebra.parser import parse_transaction
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine import naming
from repro.engine.transaction import TransactionContext
from repro.engine.types import INT, STRING

#: Python-level calls one stored check may make, by plan shape.
CHECK_CALLS = {"antijoin": 22, "semijoin": 22, "select": 16}

RULES = {
    "orders_customer": "(forall x)(x in orders => "
    "(exists y)(y in customers and x.customer = y.cid))",
    "orders_not_banned": "(forall x in orders)(forall y in banned)"
    "(x.customer != y.cid)",
    "orders_amount": "(forall x)(x in orders => x.amount >= 0)",
}


def star_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("orders", [("id", INT), ("customer", INT), ("amount", INT)]),
            RelationSchema("customers", [("cid", INT), ("name", STRING)]),
            RelationSchema("banned", [("cid", INT)]),
        ]
    )


@pytest.fixture
def star():
    """``(database, controller)``: rules stored, indexes built, plans warm
    — and compiled here, against this database's own schema objects (a plan
    another test left in the process-wide cache is bound to equal ones, and
    every probe with them would cost an ``__eq__``)."""
    planner.clear_plan_cache()
    database = Database(star_schema())
    database.load("customers", [(c, f"customer_{c}") for c in range(50)])
    database.load("banned", [(1_000 + c,) for c in range(5)])
    database.load("orders", [(i, i % 50, i) for i in range(100)])
    controller = IntegrityController(star_schema())
    for name, condition in RULES.items():
        controller.add_constraint(name, condition)
    controller.install_indexes(database)
    session = Session(database, controller)
    assert session.execute(insert_text(range(100, 103))).committed
    return database, controller


def insert_text(ids) -> str:
    rows = "; ".join(f"insert(orders, ({i}, {i % 50}, {i}))" for i in ids)
    return f"begin {rows}; end"


def started(database, controller, ids):
    """A context with the user statements of ``insert_text(ids)`` executed,
    and the checks ``ModT`` appended to them, not yet run."""
    transaction = parse_transaction(insert_text(ids))
    modified = controller.modify_transaction(transaction)
    statements = modified.statements
    context = TransactionContext(database)
    for statement in statements[: len(transaction)]:
        statement.execute(context)
    checks = statements[len(transaction) :]
    assert len(checks) == len(RULES)
    assert all(isinstance(check, S.Alarm) for check in checks)
    return context, checks


def profiled(run):
    """Run ``run()``; the ``(python calls, c calls)`` it made, each a list
    of ``(file name, function name)``."""
    python_calls, c_calls = [], []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            python_calls.append((code.co_filename, code.co_name))
        elif event == "c_call":
            c_calls.append((getattr(arg, "__module__", None), arg.__name__))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return python_calls, c_calls


def shape(check: S.Alarm) -> str:
    return planner.get_plan(check.expr).op_name


class TestStoredCheck:
    def calls_per_check(self, star, ids) -> dict:
        database, controller = star
        context, checks = started(database, controller, ids)
        counts = {}
        for check in checks:
            check.execute(context)  # the transaction's first run of it
            python_calls, _ = profiled(lambda: check.execute(context))
            counts[shape(check)] = len(python_calls)
        context.rollback()
        return counts

    def test_calls_do_not_grow_with_the_delta_and_stay_under_the_bound(self, star):
        one = self.calls_per_check(star, range(1_000, 1_001))
        many = self.calls_per_check(star, range(2_000, 2_200))
        assert set(one) == set(CHECK_CALLS)
        assert one == many
        for op_name, calls in one.items():
            assert calls <= CHECK_CALLS[op_name], (op_name, calls)

    def test_its_plan_is_one_probe_of_the_databases_table(self, star, monkeypatch):
        database, controller = star
        assert not hasattr(planner, "_DATABASE_PLANS")
        asked = []
        exempt = planner._is_cache_exempt
        monkeypatch.setattr(
            planner,
            "_is_cache_exempt",
            lambda expression: asked.append(expression) or exempt(expression),
        )
        context, checks = started(database, controller, range(3_000, 3_003))
        for check in checks:
            assert check.expr in database.plans
            python_calls, c_calls = profiled(lambda: check.execute(context))
            files = {filename for filename, _ in python_calls}
            assert not any(name.endswith("weakref.py") for name in files)
            assert not any(module == "_weakref" for module, _ in c_calls)
            served = [name for _, name in python_calls if name == "database_plan"]
            assert served == ["database_plan"]
        assert asked == []
        context.rollback()


class TestNameResolution:
    def test_a_name_is_split_once_a_transaction(self, star, monkeypatch):
        database, controller = star
        split = naming.split_auxiliary
        seen = []
        monkeypatch.setattr(
            naming, "split_auxiliary", lambda name: seen.append(name) or split(name)
        )
        text = (
            "begin "
            "a := select(customers, cid < 3); "
            "b := semijoin(orders, customers, left.customer = right.cid); "
            "insert(orders, (5000, 1, 1)); "
            "c := join(orders@plus, customers, left.customer = right.cid); "
            "d := union(orders@plus, orders@plus); "
            "insert(orders, (5001, 2, 2)); "
            "e := diff(orders, orders@old); "
            "f := semijoin(orders@plus, customers, left.customer = right.cid); "
            "delete(orders, select(orders, id = 5000)); "
            "g := union(orders@minus, orders@minus); "
            "h := project(a, [cid]); "
            "end"
        )
        modified = controller.modify_transaction(parse_transaction(text))
        seen.clear()
        context = TransactionContext(database)
        for statement in modified.statements:
            statement.execute(context)
        assert len(modified.statements) > 11  # the checks read the same names
        assert sorted(seen) == sorted(set(seen))
        assert set(seen) >= {"customers", "orders", "orders@plus", "orders@old"}
        context.rollback()


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``LiteralOp`` and ``Relation`` constructions once armed."""
    tally = {"LiteralOp": 0, "Relation": 0, "armed": False}

    def counting(cls, key):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            if tally["armed"]:
                tally[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", __init__)

    counting(physical.LiteralOp, "LiteralOp")
    counting(Relation, "Relation")
    return tally


class TestLiteralIsData:
    @pytest.mark.parametrize("bag", [False, True], ids=["set", "bag"])
    def test_a_literal_insert_or_delete_builds_nothing_around_its_rows(
        self, bag, constructions
    ):
        database = Database(star_schema(), bag=bag)
        database.load("orders", [(1, 1, 1), (2, 2, 2)])
        context = TransactionContext(database)
        # The first write builds the overlay and its two differentials.
        parse_transaction("begin insert(orders, (3, 3, 3)); end").statements[
            0
        ].execute(context)
        statements = parse_transaction(
            "begin insert(orders, {(4, 4, 4), (5, 5, 5), (4, 4, 4)}); "
            "delete(orders, {(1, 1, 1), (4, 4, 4)}); end"
        ).statements
        constructions["armed"] = True
        for statement in statements:
            statement.execute(context)
        constructions["armed"] = False
        assert (constructions["LiteralOp"], constructions["Relation"]) == (0, 0)
        assert sorted(context.resolve("orders").items()) == [
            ((2, 2, 2), 1),
            ((3, 3, 3), 1),
            ((5, 5, 5), 1),
        ]
        assert (context.tuples_inserted, context.tuples_deleted) == (3, 2)


class TestPlanCacheCounters:
    def test_a_transaction_moves_them_as_it_always_did(self, star):
        database, controller = star
        session = Session(database, controller)
        text = (
            "begin "
            "insert(orders, (6000, 1, 1)); "  # a literal: no plan, no count
            "insert(orders, {(6001, 2, 2), (6002, 3, 3)}); "
            "t := orders@plus; "  # rename(leaf): cache-exempt
            "u := select(orders, customer = 2); "  # one evaluation, one hit
            "update(orders, id = 6001, amount := amount + 1); "  # its select
            "delete(orders, (6002, 3, 3)); "
            "end"
        )
        assert session.execute(text).committed  # compiles what is new
        session.execute("begin delete(orders, {(6000, 1, 1), (6001, 2, 3)}); end")
        before = planner.plan_cache_info()
        result = session.execute(text)
        after = planner.plan_cache_info()
        assert result.committed
        checks = result.statements_executed - 6
        assert checks >= len(RULES)  # the update's delete side adds its own
        assert after["misses"] - before["misses"] == 0
        assert after["hits"] - before["hits"] == 2 + checks
        assert after["size"] == before["size"]


class TestAppendedAlarms:
    """The eight checks ModT appends to an insert into the benchmark star
    schema's ``orders`` are each asked only whether they fire: while they
    hold they build no relation, and a firing one builds one, its
    violating rows, for the reason text.  Counted from the last user
    insert to the commit or rollback, through ``Session.execute``."""

    @pytest.fixture
    def star8(self):
        from benchmarks.e2e import workloads as W

        database = Database(W.star_schema())
        database.load("customers", [(c, f"customer_{c}") for c in range(20)])
        database.load("products", [(p, f"product_{p}") for p in range(20)])
        database.load("regions", [(r, f"zone_{r}") for r in range(5)])
        database.load("banned", [(1_000 + c,) for c in range(5)])
        database.load("discontinued", [(1_000 + p,) for p in range(5)])
        database.load("orders", [(i, i % 20, i % 20, i % 5, i) for i in range(50)])
        controller = IntegrityController(W.star_schema())
        for name, condition in W.STAR_RULES.items():
            controller.add_constraint(name, condition)
        controller.install_indexes(database)
        session = Session(database, controller)
        assert session.execute(self.text([(50, 1, 1, 1, 1)])).committed
        return session

    @staticmethod
    def text(rows) -> str:
        inserts = "; ".join(f"insert(orders, {row})" for row in rows)
        return f"begin {inserts}; end"

    def run(self, session, rows, constructions, monkeypatch):
        """The transaction's result, with the counter armed over its checks."""
        for cls, name in (
            (S.Insert, "execute"),
            (TransactionContext, "commit"),
            (TransactionContext, "rollback"),
        ):
            method = getattr(cls, name)
            arms = cls is S.Insert

            def wrapped(obj, *args, _method=method, _arms=arms):
                constructions["armed"] = False
                try:
                    return _method(obj, *args)
                finally:
                    constructions["armed"] = _arms

            monkeypatch.setattr(cls, name, wrapped)
        return session.execute(self.text(rows))

    def test_passing_checks_build_no_relation(self, star8, constructions, monkeypatch):
        rows = [(60 + i, i, i, i, i) for i in range(3)]
        result = self.run(star8, rows, constructions, monkeypatch)
        assert result.committed
        assert result.statements_executed == len(rows) + 8
        assert constructions["Relation"] == 0

    def test_a_firing_check_builds_the_violating_rows_once(
        self, star8, constructions, monkeypatch
    ):
        # A negative amount breaks orders_amount, the sixth check: five
        # pass before it fires.
        rows = [(70, 1, 1, 1, 1), (71, 2, 2, 2, -5), (72, 3, 3, 3, 3)]
        result = self.run(star8, rows, constructions, monkeypatch)
        assert result.aborted
        assert result.reason == (
            "orders_amount (1 violating tuple(s), e.g. [(71, 2, 2, 2, -5)])"
        )
        assert result.statements_executed == len(rows) + 5
        assert constructions["Relation"] == 1


class TestRepairReadsDelta:
    """R2's repair reads the Δ⁺ of its condition's violations, so a one-row
    insert into ``beer`` costs the same calls at 1,000 and 16,000 beers."""

    @staticmethod
    def calls(beers: int) -> int:
        from repro.workloads.beer import beer_controller, beer_database

        # Plans compiled against this database's own schema objects (see
        # the ``star`` fixture).
        planner.clear_plan_cache()
        database = beer_database(beers=beers, breweries=8)
        controller = beer_controller(database.schema)
        installed = controller.install_indexes(database)
        assert installed == [("beer", ("brewery",)), ("brewery", ("name",))]
        session = Session(database, controller)
        insert = 'begin insert(beer, ("{}", "ale", "brewery_3", 5.0)); end'
        assert session.execute(insert.format("warm")).committed
        results = []
        python_calls, _ = profiled(
            lambda: results.append(session.execute(insert.format("hire")))
        )
        assert results[0].committed
        return len(python_calls)

    def test_a_one_row_insert_costs_the_same_calls_at_any_size(self):
        assert self.calls(1_000) == self.calls(16_000)

    def test_a_consistent_insert_runs_no_projection(self, monkeypatch):
        # The action is guarded by its Δ-check: an insert whose brewery
        # exists leaves the check empty, so neither of the action's two
        # projections runs.  A beer of a missing brewery runs both.
        from repro.workloads.beer import beer_controller, beer_database

        database = beer_database(beers=100, breweries=8)
        session = Session(database, beer_controller(database.schema))
        projections = []
        execute = physical.ProjectOp.execute
        monkeypatch.setattr(
            physical.ProjectOp,
            "execute",
            lambda op, context: projections.append(op) or execute(op, context),
        )
        insert = 'begin insert(beer, ("{}", "ale", "{}", 5.0)); end'
        assert session.execute(insert.format("kept", "brewery_3")).committed
        assert projections == []
        assert session.execute(insert.format("orphan", "ghost")).committed
        assert len(projections) == 2
        assert ("ghost",) in {row[:1] for row in database.relation("brewery")}
