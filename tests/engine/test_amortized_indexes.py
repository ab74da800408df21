"""On-demand (amortized) index building: relation, transaction, advisor."""

from __future__ import annotations

from repro.algebra.parser import parse_transaction
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.transaction import TransactionManager
from repro.engine.types import INT


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )


def _relation(n: int = 10):
    database = Database(_schema())
    database.load("r", [(i, i % 3) for i in range(n)])
    return database.relation("r")


def test_an_equality_selection_builds_a_declared_index_at_its_first_run():
    from repro.algebra.evaluation import StandaloneContext
    from repro.algebra.parser import parse_expression
    from repro.algebra.planner import get_plan

    relation = _relation(10)
    relation.declare_index((0,))
    plan = get_plan(parse_expression("select(r, a = 3)"))
    # The fallback is a scan of the relation; the build is that pass.
    assert plan.execute(StandaloneContext({"r": relation})).to_set() == {(3, 0)}
    index = relation.built_index((0,))
    assert index is not None and index.usage.by_kind == {"lookup": 1}
    assert relation.amortized_index((0,)) is index  # built once


def test_amortized_index_requires_a_declaration():
    relation = _relation(10)
    assert relation.amortized_index((0,)) is None
    assert relation.indexes is None  # and declares nothing


def test_build_side_request_builds_declared_immediately():
    relation = _relation(10)
    relation.declare_index((1,))
    index = relation.amortized_index((1,))
    assert index is not None and index.built


def test_an_overlay_request_builds_the_base_index():
    # A request inside a transaction builds the *base* relation's index
    # (the overlay delegates), so the built index persists past the
    # transaction.
    from repro.engine.overlay import OverlayIndex
    from repro.engine.transaction import TransactionContext

    database = Database(_schema())
    database.load("r", [(i, i % 3) for i in range(10)])
    database.relation("r").declare_index((0,))
    context = TransactionContext(database)
    context.insert_rows("r", [(99, 99)])
    overlay = context.resolve("r")
    view = overlay.amortized_index((0,))
    assert isinstance(view, OverlayIndex)
    assert view.lookup(99) == ((99, 99),)
    assert (99, 99) not in database.relation("r").built_index((0,)).lookup(99)


def test_overlay_probe_and_commit_keep_the_base_index_current():
    database = Database(_schema())
    database.load("r", [(i, 0) for i in range(50)])
    database.load("s", [(i % 5, 1) for i in range(50)])
    database.create_index("r", ["a"])  # built on the base relation
    manager = TransactionManager(database)
    transaction = parse_transaction(
        "begin insert(r, (99, 99)); "
        "t := semijoin(r, s, left.a = right.c); end"
    )
    result = manager.execute(transaction)
    assert result.committed
    # The overlay probed the base's built index corrected by the delta; the
    # in-place commit maintained that same index incrementally.
    index = database.relation("r").built_index((0,))
    assert index is not None
    assert index.lookup(99) == ((99, 99),)


def test_install_indexes_declares_and_the_first_probing_plan_builds():
    from repro.core.subsystem import IntegrityController
    from repro.engine import Session

    database = Database(_schema())
    database.load("r", [(i, 0) for i in range(5)])
    database.load("s", [(i, 0) for i in range(5)])
    controller = IntegrityController(database.schema)
    controller.add_constraint(
        "ref", "(forall x)(x in r => (exists y)(y in s and x.a = y.c))"
    )
    installed = controller.install_indexes(database)
    assert ("s", ("c",)) in installed and ("r", ("a",)) in installed
    r, s = database.relation("r"), database.relation("s")
    assert r.built_index((0,)) is None and s.built_index((0,)) is None
    # A commit whose check probes nothing files into no index: deleting
    # from r cannot break a reference out of r.
    session = Session(database, controller)
    assert session.execute("begin delete(r, (4, 0)); end").committed
    assert r.indexes.get((0,)).buckets == {} == s.indexes.get((0,)).buckets
    # The first insert's check, Δ⁺r ⋉ s, hashes s: that pass builds s(c).
    assert session.execute("begin insert(r, (3, 1)); end").committed
    assert s.built_index((0,)) is not None and r.built_index((0,)) is None
    assert session.execute("begin insert(r, (9, 1)); end").aborted
    assert s.built_index((0,)).lookup(3) == ((3, 0),)
