"""The index advisor declares; the first plan that probes an index builds it.

Counted on the end-to-end benchmark's star schema and its eight rules
(``benchmarks/e2e/workloads.py``), scaled down.  The advisor hints an index
on ``orders`` for each foreign key, but only the check run on *deleting* a
referenced key (``orders ⋉ Δ⁻products``) probes ``orders(product)`` and
``orders(region)``.  Declared, they cost an insert batch nothing until that
delete comes; built eagerly, every commit files every row into them.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import STAR_RULES, star_schema
from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.programs import Program
from repro.core.subsystem import IntegrityController
from repro.engine import Database, Session
from repro.engine.indexes import HashIndex
from repro.engine.transaction import Transaction

ORDERS = 1_000
PRODUCTS = 50  # orders reference products 0-39 only
BATCH = 500


def star(eager: bool):
    """``(database, session)`` with the rules stored and their indexes
    declared — or, ``eager``, built as ``Database.create_index`` builds."""
    database = Database(star_schema())
    database.load("customers", [(c, f"customer_{c}") for c in range(50)])
    database.load("products", [(p, f"product_{p}") for p in range(PRODUCTS)])
    database.load("regions", [(r, f"zone_{r}") for r in range(10)])
    database.load("banned", [(1_000 + i,) for i in range(5)])
    database.load("discontinued", [(1_000 + i,) for i in range(5)])
    database.load("orders", [order(i) for i in range(ORDERS)])
    controller = IntegrityController(star_schema())
    for name, condition in STAR_RULES.items():
        controller.add_constraint(name, condition)
    installed = controller.install_indexes(database)
    assert ("orders", ("product",)) in installed and ("orders", ("region",)) in installed
    if eager:
        for name, attrs in installed:
            database.create_index(name, attrs)
    return database, Session(database, controller)


def order(i: int) -> tuple:
    return (i, i % 50, i % 40, i % 10, i)


def prebuilt(statement, relation: str, rows) -> Transaction:
    return Transaction(Program([statement(relation, E.Literal(tuple(rows)))]))


def states(database: Database) -> dict:
    return {
        (relation.schema.name, index.positions): index.built
        for relation in database
        for index in relation.indexes or ()
    }


@pytest.fixture
def filed(monkeypatch):
    """``filed(database)``: from now on, ``{(relation, positions): rows}``
    filed into or out of the database's own indexes (not a transaction's
    delta-side ones)."""

    def start(database: Database) -> dict:
        owners = {
            id(index): (relation.schema.name, index.positions)
            for relation in database
            for index in relation.indexes or ()
        }
        tally: dict = {}

        def counting(method):
            def wrapper(self, rows):
                rows = list(rows)
                owner = owners.get(id(self))
                if owner is not None:
                    tally[owner] = tally.get(owner, 0) + len(rows)
                return method(self, rows)

            return wrapper

        monkeypatch.setattr(HashIndex, "add_many", counting(HashIndex.add_many))
        monkeypatch.setattr(HashIndex, "remove_many", counting(HashIndex.remove_many))
        return tally

    return start


@pytest.mark.parametrize("eager", [False, True], ids=["declared", "eager"])
def test_a_bulk_insert_files_into_exactly_the_indexes_a_plan_has_built(eager, filed):
    database, session = star(eager)
    # The benchmark's warm point reads: the first builds orders(customer).
    assert len(session.query("select(orders, customer = 3)", pinned=True)) == 20
    # A first insert runs the insert checks once: their build sides (the
    # five referenced relations) are built by it.
    assert session.execute(prebuilt(S.Insert, "orders", [order(ORDERS)])).committed
    built = {key for key, is_built in states(database).items() if is_built}
    tally = filed(database)
    batch = [order(i) for i in range(ORDERS + 1, ORDERS + 1 + BATCH)]
    assert session.execute(prebuilt(S.Insert, "orders", batch)).committed
    assert tally == {key: BATCH for key in built if key[0] == "orders"}
    if eager:
        assert set(tally) == {("orders", (1,)), ("orders", (2,)), ("orders", (3,))}
    else:
        assert set(tally) == {("orders", (1,))}  # customer: a read built it
        orders = database.relation("orders")
        for positions in ((2,), (3,)):  # product, region: still declared
            assert orders.built_index(positions) is None
            assert orders.indexes.get(positions).buckets == {}


def test_a_bulk_stream_nobody_reads_stops_filing_into_the_index_a_read_built(filed):
    """The benchmark's ``bulk_prebuilt`` shape: the warm reads build
    ``orders(customer)``, then only insert and delete batches run, and no
    check probes it.  Once it has filed more rows than ``orders`` holds it
    goes back to declared, and later batches file into no index of
    ``orders``; the next read builds it again, once."""
    database, session = star(eager=False)
    orders = database.relation("orders")
    assert len(session.query("select(orders, customer = 3)", pinned=True)) == 20
    index = orders.built_index((1,))
    tally = filed(database)

    def cycle(first: int) -> None:
        batch = [order(i) for i in range(first, first + BATCH)]
        assert session.execute(prebuilt(S.Insert, "orders", batch)).committed
        assert session.execute(prebuilt(S.Delete, "orders", batch)).committed

    cycle(ORDERS)  # 1,000 filed against 1,000 held: kept
    assert orders.built_index((1,)) is index and tally == {("orders", (1,)): 2 * BATCH}
    cycle(ORDERS + BATCH)  # the delete: 2,000 filed against 1,000 held
    assert orders.built_index((1,)) is None and index.buckets == {}
    tally.clear()
    cycle(ORDERS + 2 * BATCH)
    assert tally == {}  # no index of orders is built: nothing filed
    pins = database.epochs.pins_taken
    assert len(session.query("select(orders, customer = 3)", pinned=True)) == 20
    assert orders.built_index((1,)) is index and database.epochs.pins_taken == pins + 1
    assert len(session.query("select(orders, customer = 4)", pinned=True)) == 20
    assert database.epochs.pins_taken == pins + 1


def test_the_first_delete_from_products_builds_orders_product_on_the_writer_path():
    verdicts = {}
    for eager in (False, True):
        database, session = star(eager)
        orders = database.relation("orders")
        assert (orders.built_index((2,)) is not None) is eager
        pins = database.epochs.pins_taken
        referenced = session.execute(prebuilt(S.Delete, "products", [(3, "product_3")]))
        # The check orders ⋉ Δ⁻products would pass over orders row by row:
        # the writer builds orders(product) instead, in the transaction.
        assert orders.built_index((2,)) is not None
        assert (orders.built_index((3,)) is not None) is eager  # region: not probed
        assert database.epochs.pins_taken == pins
        unreferenced = session.execute(prebuilt(S.Delete, "products", [(45, "product_45")]))
        verdicts[eager] = [
            (result.status, result.reason, result.tuples_deleted)
            for result in (referenced, unreferenced)
        ]
        assert referenced.aborted and "orders_product" in referenced.reason
        assert unreferenced.committed
    assert verdicts[False] == verdicts[True]
