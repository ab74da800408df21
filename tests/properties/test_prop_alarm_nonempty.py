"""Property: an alarm asked only whether it fires is the alarm that
built its violation relation.

``Alarm.execute`` asks its plan only whether the result is empty
(``execute_nonempty``) and builds the violating rows only when it fires.
The oracle is the alarm it replaced, which built the whole relation
(``tests/support/materialising_alarm.py``); both run through
``TransactionManager.execute``.  On random databases and transactions —
set and bag mode, NULL keys, declared and built indexes, the right side of a check
written earlier in the same transaction, alarms that divide by zero or
compare across types before and after one that fires, joins, aggregates
and ``CheckConstraint`` statements between row-local checks, and alarms
separated by updates — both give the same status, the same reason (an
alarm's text, or the runtime error's), the same ``statements_executed``,
the same escaping error, the same final state and the same index
accounting: built or not, ``unread`` and the recorded uses.

Each transaction runs twice on the same database, so the second run of
every alarm is served from the plan table (the path a workload takes),
and the first finds and files its plan.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra import statements as S
from repro.core.translation import CheckConstraint
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.transaction import (
    Transaction,
    TransactionManager,
    TransactionStatus,
)
from repro.engine.types import INT, NULL

from tests.support.materialising_alarm import as_before

from . import strategies as strat

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_VALUES = st.one_of(st.integers(min_value=0, max_value=3), st.just(NULL))
_INTS = st.integers(min_value=0, max_value=3)
_ROWS = st.lists(st.tuples(_VALUES, _INTS), max_size=6)
_NAMES = ("r", "s")
_INDEX_SPECS = tuple((name, (position,)) for name in _NAMES for position in (0, 1))
_MESSAGES = st.sampled_from([None, "first", "second"])
#: Key columns: mostly the nullable first one.
_KEY_POSITIONS = st.sampled_from([1, 1, 2])


def _schema() -> DatabaseSchema:
    """``r(a, b)`` / ``s(c, d)`` as in the shared strategies, with the
    first column of each nullable: NULL keys on both sides of a check."""
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT, True), ("b", INT)]),
            RelationSchema("s", [("c", INT, True), ("d", INT)]),
        ]
    )


def _leaf(draw, kinds=(None, "plus", "minus")):
    """A relation, or its Δ⁺ or Δ⁻ (``kinds`` weights the draw)."""
    name = draw(st.sampled_from(_NAMES))
    kind = draw(st.sampled_from(kinds))
    return E.RelationRef(name) if kind is None else E.Delta(name, kind)


def _raising_predicate(draw, side=None):
    """A predicate that divides (by zero where a column is 0) or compares
    an integer column with a string."""
    if draw(st.booleans()):
        divisor = P.ColRef(2, None if side is None else "right")
        return P.Comparison(">", P.Arith("/", P.Const(6), divisor), P.Const(1))
    column = P.ColRef(draw(st.integers(min_value=1, max_value=2)), side)
    return P.Comparison("<", column, P.Const("x"))


@st.composite
def _keyed_alarm(draw):
    """A semi/antijoin on one equality, plain or with a residual: the
    plain-membership, indexed-left, residual and ``_DeltaBuckets``
    regimes, by what the sides resolve to."""
    # Mostly a check's own shape: the transaction's Δ⁺ probing a relation.
    left = _leaf(draw, ("plus", "plus", None, "minus"))
    right = _leaf(draw, (None, None, None, "plus"))
    equality = P.Comparison(
        "=",
        P.ColRef(draw(_KEY_POSITIONS), "left"),
        P.ColRef(draw(_KEY_POSITIONS), "right"),
    )
    residual = draw(st.integers(min_value=0, max_value=3))
    if residual == 1:
        equality = P.And(
            equality, P.Comparison("<", P.ColRef(2, "left"), P.ColRef(2, "right"))
        )
    elif residual == 2:
        equality = P.And(equality, _raising_predicate(draw, "left"))
    ctor = draw(st.sampled_from([E.SemiJoin, E.AntiJoin]))
    return ctor(left, right, equality)


@st.composite
def _filter_alarm(draw):
    predicate = (
        _raising_predicate(draw)
        if draw(st.integers(min_value=0, max_value=3)) == 0
        else draw(strat.unary_predicates())
    )
    return E.Select(_leaf(draw), predicate)


@st.composite
def _alarm(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind <= 1:
        expression = draw(_keyed_alarm())
    elif kind == 2:
        expression = draw(_filter_alarm())
    elif kind == 3:
        # Not row-local: joins, set operations, aggregates, counts.
        expression = draw(strat.algebra_queries())
    elif kind == 4:
        expression = _leaf(draw)  # cache-exempt: planned afresh each time
    else:
        # A check that always holds (the second column is never negative),
        # so a transaction reaches the alarms after it.
        expression = E.Select(
            _leaf(draw), P.Comparison("<", P.ColRef(2), P.Const(0))
        )
    return S.Alarm(expression, message=draw(_MESSAGES))


@st.composite
def _update(draw):
    relation = draw(st.sampled_from(_NAMES))
    kind = draw(st.integers(min_value=0, max_value=2))
    rows = tuple(draw(st.lists(st.tuples(_VALUES, _INTS), min_size=1, max_size=3)))
    if kind == 0:
        return S.Insert(relation, E.Literal(rows))
    if kind == 1:
        return S.Delete(relation, E.Literal(rows))
    return S.Update(
        relation,
        P.Comparison("=", P.ColRef(2), P.Const(draw(_INTS))),
        ((2, P.Const(draw(_INTS))),),
    )


@st.composite
def _statement(draw):
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind <= 1:
        return draw(_update())
    if kind == 2:
        return CheckConstraint(draw(strat.constraints()), message="check")
    return draw(_alarm())


@st.composite
def scenarios(draw):
    return {
        "bag": draw(st.booleans()),
        "rows": {name: draw(_ROWS) for name in _NAMES},
        "indexes": [spec for spec in _INDEX_SPECS if draw(st.booleans())],
        "built": draw(st.booleans()),
        "statements": tuple(draw(st.lists(_statement(), min_size=1, max_size=10))),
    }


def _database(scenario) -> Database:
    database = Database(_schema(), bag=scenario["bag"])
    for name, rows in scenario["rows"].items():
        database.load(name, rows)
    for name, positions in scenario["indexes"]:
        relation = database.relation(name)
        relation.declare_index(positions)
        if scenario["built"]:
            relation.amortized_index(positions)
    return database


def _outcome(statements, database, modifier=None) -> tuple:
    """Run ``statements`` once through ``TransactionManager.execute``, with
    ``modifier`` as its hook; what can be observed of it."""
    manager = TransactionManager(database, modifier)
    try:
        result = manager.execute(Transaction(statements))
    except Exception as failure:  # not a ReproError: it escapes the manager
        return type(failure), str(failure)
    return result.status, result.reason, result.statements_executed


def _observed(database) -> dict:
    """Every relation's rows and every index's accounting."""
    seen = {}
    for name in _NAMES:
        relation = database.relation(name)
        indexes = relation.indexes
        seen[name] = (
            Counter(relation),
            [
                (
                    spec,
                    indexes.get(spec).built,
                    indexes.get(spec).unread,
                    indexes.get(spec).usage.uses,
                    indexes.get(spec).usage.by_kind,
                )
                for spec in (indexes.specs() if indexes is not None else ())
            ],
        )
    return seen


@_SETTINGS
@given(scenario=scenarios())
def test_an_alarm_asked_whether_it_fires_is_the_alarm_as_before(scenario):
    statements = scenario["statements"]
    mine, theirs = _database(scenario), _database(scenario)
    for _ in range(2):  # filed on the first run, served on the second
        assert _outcome(statements, mine) == _outcome(statements, theirs, as_before)
        assert _observed(mine) == _observed(theirs)


_HOLDS = S.Alarm(E.Select(E.RelationRef("r"), P.Comparison("<", P.ColRef(2), P.Const(0))))
_DIVIDES = {
    "filter": E.Select(
        E.RelationRef("r"),
        P.Comparison(">", P.Arith("/", P.Const(6), P.ColRef(2)), P.Const(1)),
    ),
    "residual": E.SemiJoin(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.And(
            P.Comparison("=", P.ColRef(1, "left"), P.ColRef(1, "right")),
            P.Comparison(
                ">", P.Arith("/", P.Const(6), P.ColRef(2, "right")), P.Const(1)
            ),
        ),
    ),
}


@pytest.mark.parametrize("shape", sorted(_DIVIDES))
def test_an_error_after_holding_alarms_counts_them(shape):
    """The alarms that held before the one that raised were executed."""
    scenario = {
        "bag": False,
        "rows": {"r": [(1, 0)], "s": [(1, 0)]},
        "indexes": [],
        "built": False,
        "statements": (_HOLDS, _HOLDS, S.Alarm(_DIVIDES[shape]), _HOLDS),
    }
    statements = scenario["statements"]
    mine, theirs = _database(scenario), _database(scenario)
    expected = (TransactionStatus.ABORTED, "runtime error: division by zero", 2)
    for _ in range(2):  # filed on the first run, served on the second
        assert _outcome(statements, theirs, as_before) == expected
        assert _outcome(statements, mine) == expected


_EQUAL_KEYS = P.Comparison("=", P.ColRef(1, "left"), P.ColRef(1, "right"))
_SMALLER = P.Comparison("<", P.ColRef(2, "left"), P.ColRef(2, "right"))


def _lone_violator(shape: str, position: int):
    """``(alarm expression, rows of s)``: of ``r``'s rows ``(k, 10 + k)``,
    k = 0..3, exactly the one at ``position`` violates."""
    r, s = E.RelationRef("r"), E.RelationRef("s")
    others = [k for k in range(4) if k != position]
    if shape == "filter":
        # An arithmetic comparison: a mask kernel, not an index look-up.
        offset = P.Arith("-", P.ColRef(2), P.Const(10))
        return E.Select(r, P.Comparison("=", offset, P.Const(position))), []
    if shape == "semijoin":
        return E.SemiJoin(r, s, _EQUAL_KEYS), [(position, 0)]
    if shape == "antijoin":
        return E.AntiJoin(r, s, _EQUAL_KEYS), [(k, 0) for k in others]
    residual = P.And(_EQUAL_KEYS, _SMALLER)
    if shape == "residual semijoin":
        return E.SemiJoin(r, s, residual), [
            (k, 100 if k == position else 0) for k in range(4)
        ]
    return E.AntiJoin(r, s, residual), [
        (k, 0 if k == position else 100) for k in range(4)
    ]


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("regime", ["plain", "left index", "right index", "written"])
@pytest.mark.parametrize(
    "shape",
    ["filter", "semijoin", "antijoin", "residual semijoin", "residual antijoin"],
)
def test_a_lone_violating_row_fires_wherever_it_sits(shape, regime, position):
    """Each regime's emptiness test sees every row: an alarm with one
    violating row fires, whichever row it is — with ``s`` plain, indexed,
    or written earlier in the same transaction (``_DeltaBuckets``)."""
    expression, s_rows = _lone_violator(shape, position)
    written = regime == "written"
    scenario = {
        "bag": False,
        "rows": {"r": [(k, 10 + k) for k in range(4)], "s": [] if written else s_rows},
        "indexes": {
            "plain": [],
            "left index": [("r", (0,))],
            "right index": [("s", (0,))],
            "written": [("s", (0,))],
        }[regime],
        "built": True,
        "statements": (
            *([S.Insert("s", E.Literal(tuple(s_rows)))] if written and s_rows else []),
            _HOLDS,
            S.Alarm(expression, message="lone"),
            _HOLDS,
        ),
    }
    statements = scenario["statements"]
    mine, theirs = _database(scenario), _database(scenario)
    status, reason, executed = _outcome(statements, theirs, as_before)
    assert status is TransactionStatus.ABORTED
    assert reason.startswith("lone (1 violating tuple(s)")
    assert _outcome(statements, mine) == (status, reason, executed)
    assert _observed(mine) == _observed(theirs)
