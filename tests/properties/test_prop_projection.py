"""Property: a projection equals the reference interpreter everywhere — on
the base relation, mid-transaction, and through pins.

``r`` carries single-column, composite and permuted-order indexes; ``u`` is
its unindexed twin (every write goes to both).  Random interleavings of
inserts, deletes, re-inserts of deleted rows, commits, rollbacks and bulk
loads (between transactions: drawn rows, some already present), with pins
taken at random points and read late (past releases and loads), are
checked after every step:

* on the committed state, inside the open transaction (through the
  ``OverlayRelation``: keys emptied by Δ⁻, re-created by Δ⁺, rows partly
  deleted from a bag) and through every pin, each projection of ``r`` ≡ the
  same projection of ``u`` ≡ ``Expression.evaluate`` — the same tuples with
  the same multiplicities, in set and bag mode, for permuted, renamed and
  repeated plain columns, and for ``Count`` / ``diff`` / ``union`` over two
  projections too;
* a pin is unreadable (``EpochUnavailableError``) for every shape over
  either relation at once;
* a result is the caller's own: emptying it changes no later answer.

Columns ``a`` and ``b`` are ``ANY`` so values that compare equal but are
spelled differently meet in one output row: ``1`` / ``1.0`` / ``True`` and
``0`` / ``0.0`` / ``-0.0`` / ``False``, next to NULL and a string.  Results
are compared with ``==`` (under which those spellings are one value);
*which* spelling stands for the class is deliberately not pinned.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.schema import Attribute
from repro.engine.session import DatabaseView
from repro.engine.transaction import TransactionContext
from repro.engine.types import ANY, INT, NULL
from repro.errors import EpochUnavailableError

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Index specs on ``r``, maintained by every write: single-column,
#: composite, and permuted order.
SPECS = ((0,), (1,), (1, 0), (0, 2))

KEYS = st.sampled_from([0, 1, 2, 1.0, True, 0.0, -0.0, False, NULL, "x"])
ROWS = st.lists(st.tuples(KEYS, KEYS, st.integers(0, 2)), max_size=4)
_KINDS = (
    ["insert"] * 5
    + ["delete"] * 5
    + ["reinsert"] * 2
    + ["commit"] * 4
    + ["rollback"]
    + ["pin"] * 2
    + ["read"] * 4
    + ["release"] * 2
    + ["load"]
)
STEPS = st.lists(
    st.tuples(st.sampled_from(_KINDS), ROWS, st.integers(0, 50), st.booleans()),
    min_size=8,
    max_size=30,
)


def _schema() -> DatabaseSchema:
    def attributes():
        return [
            Attribute("a", ANY, nullable=True),
            Attribute("b", ANY, nullable=True),
            Attribute("c", INT),
        ]

    return DatabaseSchema(
        [RelationSchema("r", attributes()), RelationSchema("u", attributes())]
    )


def _project(name: str, *items) -> E.Project:
    """``items``: an attribute, or an ``(attribute, new name)`` pair."""
    return E.Project(
        E.RelationRef(name),
        tuple(
            E.ProjectItem(P.ColRef(item[0]), item[1])
            if isinstance(item, tuple)
            else E.ProjectItem(P.ColRef(item))
            for item in items
        ),
    )


def _shapes(name: str) -> dict:
    """``{label: expression over name}``."""
    a, b = _project(name, "a"), _project(name, "b")
    return {
        "single": a,
        "permuted": _project(name, "a", "b"),
        "composite": _project(name, "b", "a"),
        "composite_ac": _project(name, "a", "c"),
        "renamed": _project(name, ("a", "key")),
        "renamed_permuted": _project(name, ("b", "x"), ("a", "y")),
        "count": E.Count(a),
        "diff": E.Difference(a, b),
        "union": E.Union(a, b),
        "duplicate": _project(name, "a", "a"),
        "unindexed": _project(name, "c"),
    }


SHAPES_R, SHAPES_U = _shapes("r"), _shapes("u")


def _assert_reads(context, oracle) -> None:
    """Every shape over ``r`` ≡ over ``u`` ≡ the reference, in ``context``;
    ``oracle`` is the context the reference interpreter reads."""
    for label, on_r in SHAPES_R.items():
        indexed = planner.evaluate(on_r, context)
        scanned = planner.evaluate(SHAPES_U[label], context)
        reference = on_r.evaluate(oracle)
        assert indexed.bag == scanned.bag == reference.bag
        reference = dict(reference.items())
        assert dict(indexed.items()) == reference, label
        assert dict(scanned.items()) == reference, label
        # The result is the caller's own.
        indexed._rows.clear()
        assert dict(planner.evaluate(on_r, context).items()) == reference, label


def _assert_unreadable(context) -> None:
    for shapes in (SHAPES_R, SHAPES_U):
        for expression in shapes.values():
            with pytest.raises(EpochUnavailableError):
                planner.evaluate(expression, context)


class Pinned:
    def __init__(self, database: Database, hold: bool):
        self.pin = database.epochs.pin()
        self.copies = {name: database.relation(name).copy() for name in ("r", "u")}
        self.released = False
        # Held snapshots (as an audit batch holds them) answer from their
        # frozen rows once a read has materialized them; unheld pins mint
        # fresh ones per read.
        self.held = [self.pin.relation(name) for name in ("r", "u")] if hold else []


def _step(kind, rows=(), i=0, flag=False) -> tuple:
    return (kind, list(rows), i, flag)


@example(  # keys emptied by Δ⁻, re-created by Δ⁺, a key partly deleted
    initial=[(1, 0, 0), (1, 1, 0), (2, 0, 0), (NULL, "x", 1)],
    steps=[
        _step("delete", [(2, 0, 0), (1, 0, 0)]),
        _step("insert", [(2.0, 5, 1), ("x", NULL, 2)]),
        _step("pin", flag=True),
        _step("commit"),
        _step("delete", [(NULL, "x", 1)]),
        _step("reinsert"),
        _step("read"),
        _step("commit"),
        _step("read"),
    ],
    bag=False,
    retain=4,
)
@example(  # equal keys, different spellings; a pin read past its release
    initial=[(1, 0.0, 0), (True, -0.0, 1), (1.0, False, 2)],
    steps=[
        _step("pin"),
        _step("delete", [(1, 0.0, 0)]),
        _step("commit"),
        _step("read"),
        _step("release"),
        _step("insert", [(0, 1, 0)]),
        _step("commit"),
        _step("insert", [(0, 1, 1)]),
        _step("commit"),
        _step("read"),
        _step("load", [(0, 1, 0), (5, 5, 0)], flag=True),
        _step("read"),
    ],
    bag=False,
    retain=1,
)
@example(  # a bag keeps summed multiplicities
    initial=[(1, 1, 0), (1, 1, 0), (1, 2, 0)],
    steps=[
        _step("insert", [(1, 1, 0), (2, 2, 2)]),
        _step("delete", [(1, 2, 0)]),
        _step("pin", flag=True),
        _step("commit"),
        _step("read"),
    ],
    bag=True,
    retain=4,
)
@given(
    initial=st.lists(st.tuples(KEYS, KEYS, st.integers(0, 2)), max_size=8),
    steps=STEPS,
    bag=st.sampled_from([False, False, False, True]),
    retain=st.sampled_from([1, 2, 8]),
)
@_SETTINGS
def test_a_projection_equals_the_reference_everywhere(initial, steps, bag, retain):
    database = Database(_schema(), bag=bag)
    database.epochs.retain = retain
    for name in ("r", "u"):
        database.load(name, initial)
    for spec in SPECS:
        database.relation("r").index_on(spec)
    live = DatabaseView(database)
    context = TransactionContext(database)
    pins: list = []
    deleted: list = []  # by the open transaction, for "reinsert"

    for kind, rows, i, flag in steps:
        if kind == "insert":
            for name in ("r", "u"):
                context.insert_rows(name, rows)
        elif kind == "delete":
            # Half the time rows that are there: a drawn row rarely is.
            present = list(context.resolve("r").rows())
            if flag and present:
                rows = rows + [present[i % len(present)]]
            for name in ("r", "u"):
                context.delete_rows(name, rows)
            deleted.extend(rows)
        elif kind == "reinsert" and deleted:
            for name in ("r", "u"):
                context.insert_rows(name, [deleted[i % len(deleted)]])
        elif kind in ("commit", "rollback"):
            if kind == "commit":
                context.commit()
            context = TransactionContext(database)
            deleted = []
        elif kind == "pin":
            pins.append(Pinned(database, hold=flag))
        elif kind == "release" and pins:
            entry = pins[i % len(pins)]
            entry.pin.release()
            entry.released = True
            if flag:
                entry.held = []
        elif kind == "load":
            # Between transactions (``flag``: the open one commits first),
            # with one row already present half the time.
            if flag:
                context.commit()
            else:
                context.rollback()
            context = TransactionContext(database)
            deleted = []
            present = list(database.relation("r").rows())
            if i % 2 and present:
                rows = rows + [present[i % len(present)]]
            for name in ("r", "u"):
                database.load(name, rows)
        elif kind == "read" and pins:
            entry = pins[i % len(pins)]
            view = DatabaseView(database, pin=entry.pin)
            try:
                len(view.resolve("r"))
            except EpochUnavailableError:
                assert entry.released
                _assert_unreadable(view)
            else:
                _assert_reads(view, StandaloneContext(entry.copies))
        _assert_reads(live, live)
        _assert_reads(context, context)
        assert (context.resolve("r") == context.resolve("u")) and (
            database.relation("r") == database.relation("u")
        )

    context.rollback()
    for entry in pins:  # every pin still held reads its epoch at the end
        if not entry.released:
            view = DatabaseView(database, pin=entry.pin)
            _assert_reads(view, StandaloneContext(entry.copies))
            entry.pin.release()
