"""Every operator computes the same relation at every input size.

Each physical operator has one implementation — its whole-column kernel —
so there is no input size at which behaviour may change.  This suite
pins that across the sizes where a size-gated implementation would have
switched code (0-3 rows, and either side of 64) and well past it: for
each operator shape, in set and bag mode, with and without built hash
indexes, the plan as written (a context without a database), the plan
after the schema-aware rewrites (a context with one: selections pushed
below equi-joins) and ``Expression.evaluate`` return the same tuples and
multiplicities, and data-dependent errors (division by zero behind a
short-circuiting ``And``/``Or``) are raised from exactly the same inputs.
"""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.schema import Attribute
from repro.engine.session import DatabaseView
from repro.engine.types import INT, NULL
from repro.errors import ReproError
from tests.support.modes import index_usage, plan_operators

SIZES = (0, 1, 2, 3, 63, 64, 65, 500)
S_ROWS = 20  # so r - s is small-big below 20 rows and big-small above

R, S_ = E.RelationRef("r"), E.RelationRef("s")


def _schema() -> DatabaseSchema:
    def nullable(*names):
        return [Attribute(name, INT, nullable=True) for name in names]

    return DatabaseSchema(
        [
            RelationSchema("r", nullable("a", "b")),
            RelationSchema("s", nullable("c", "d")),
        ]
    )


#: Which key columns carry a built hash index: none, the probe side only
#: (distinct-key semijoin probing against an ephemeral key set), or both.
INDEXED = ((), ("r",), ("r", "s"))


def _database(size: int, bag: bool, indexed: tuple) -> Database:
    """``r`` with ``size`` distinct rows, ``s`` with ``S_ROWS``.

    ``r.a`` cycles through 0..6 with a NULL every 11th row and ``r.b`` is
    the row number (so ``b = 0`` exists whenever ``r`` is non-empty);
    ``s`` overlaps ``r`` on its first rows and carries a NULL key too.
    In bag mode every third row is present twice.
    """
    rows_r = [(NULL if i % 11 == 10 else i % 7, i) for i in range(size)]
    rows_s = [(NULL if j == 5 else j % 9, j) for j in range(S_ROWS)]
    database = Database(_schema(), bag=bag)
    database.load("r", rows_r + (rows_r[::3] if bag else []))
    database.load("s", rows_s + (rows_s[::3] if bag else []))
    for name in indexed:
        database.create_index(name, [1])
    return database


def _relations(database: Database) -> dict:
    return {"r": database.relation("r"), "s": database.relation("s")}


#: label -> (context over a fresh database, evaluation of an expression in it)
EVALUATIONS = {
    "as written": (
        lambda database: StandaloneContext(_relations(database)),
        planner.evaluate,
    ),
    "rewritten": (DatabaseView, planner.evaluate),
    "reference": (DatabaseView, lambda expression, context: expression.evaluate(context)),
}
PLANS = ("as written", "rewritten")


def _cmp(op, left, right):
    return P.Comparison(op, left, right)


def _items(*exprs):
    return tuple(E.ProjectItem(expr) for expr in exprs)


_KEY = _cmp("=", P.ColRef(1, "left"), P.ColRef(1, "right"))
_RESIDUAL = P.And(_KEY, _cmp("<=", P.ColRef(2, "left"), P.ColRef(2, "right")))
_TEN_OVER_B = P.Arith("/", P.Const(10), P.ColRef("b"))

CASES = {
    # Or keeps the selection off the index-select lowering.
    "filter": E.Select(
        R, P.Or(_cmp("=", P.ColRef("a"), P.Const(3)), _cmp("<", P.ColRef("b"), P.Const(5)))
    ),
    "project_plain": E.Project(R, _items(P.ColRef("a"))),
    "project_scalar": E.Project(
        R,
        _items(
            P.Arith("+", P.ColRef("a"), P.Const(1)),
            P.Arith("*", P.ColRef("b"), P.Const(2)),
        ),
    ),
    "union": E.Union(R, S_),
    "union_flipped": E.Union(S_, R),
    "difference": E.Difference(R, S_),
    "difference_flipped": E.Difference(S_, R),
    "join": E.Join(R, S_, _KEY),
    "join_residual": E.Join(R, S_, _RESIDUAL),
    "semijoin": E.SemiJoin(R, S_, _KEY),
    "antijoin": E.AntiJoin(R, S_, _KEY),
    "semijoin_residual": E.SemiJoin(R, S_, _RESIDUAL),
    "antijoin_residual": E.AntiJoin(R, S_, _RESIDUAL),
    "index_select": E.Select(R, _cmp("=", P.ColRef("a"), P.Const(3))),
    "index_select_residual": E.Select(
        R,
        P.And(_cmp("=", P.ColRef("a"), P.Const(3)), _cmp("<", P.ColRef("b"), P.Const(40))),
    ),
    # Select/project chains: over a scan, over a join with a pushable
    # selection (one side, both sides with a mixed rest), over an antijoin.
    "chain_scan": E.Project(
        E.Select(R, _cmp("<", P.ColRef("a"), P.ColRef("b"))), _items(P.ColRef("b"))
    ),
    "chain_join": E.Project(
        E.Select(E.Join(R, S_, _KEY), _cmp("<", P.ColRef(4), P.Const(12))),
        _items(P.ColRef(2), P.ColRef(4)),
    ),
    "chain_join_both_sides": E.Select(
        E.Join(R, S_, _KEY),
        P.And(
            P.And(_cmp(">", P.ColRef("b"), P.Const(1)), _cmp("<", P.ColRef(4), P.Const(12))),
            _cmp("<=", P.ColRef(2), P.ColRef("d")),
        ),
    ),
    "chain_antijoin": E.Project(E.AntiJoin(R, S_, _KEY), _items(P.ColRef("a"))),
    # b = 0 is row 0: And/Or must skip the division exactly there ...
    "guarded_and": E.Select(
        R, P.And(_cmp("!=", P.ColRef("b"), P.Const(0)), _cmp(">", _TEN_OVER_B, P.Const(1)))
    ),
    "guarded_or": E.Select(
        R, P.Or(_cmp("=", P.ColRef("b"), P.Const(0)), _cmp(">", _TEN_OVER_B, P.Const(1)))
    ),
    # ... and must reach it (raising) when the guard lets row 0 through.
    "unguarded_and": E.Select(
        R, P.And(_cmp(">=", P.ColRef("b"), P.Const(0)), _cmp(">", _TEN_OVER_B, P.Const(1)))
    ),
    "unguarded_or": E.Select(
        R, P.Or(_cmp("<", P.ColRef("b"), P.Const(0)), _cmp(">", _TEN_OVER_B, P.Const(1)))
    ),
    "project_division": E.Project(R, _items(_TEN_OVER_B)),
}

_RAISES_ON_NONEMPTY = {"unguarded_and", "unguarded_or", "project_division"}


@pytest.mark.parametrize("bag", [False, True], ids=["set", "bag"])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", CASES)
def test_plan_equals_reference_at_every_size(case, size, bag):
    expression = CASES[case]
    for indexed in INDEXED:
        outcomes = {}
        for label, (make_context, evaluate) in EVALUATIONS.items():
            context = make_context(_database(size, bag, indexed))
            try:
                outcomes[label] = evaluate(expression, context)
            except ReproError as error:
                outcomes[label] = type(error)
        reference = outcomes["reference"]
        if case in _RAISES_ON_NONEMPTY and size:
            assert isinstance(reference, type), reference
        else:
            assert not isinstance(reference, type), reference
        for label in PLANS:
            result = outcomes[label]
            assert result == reference, (label, indexed)
            if not isinstance(reference, type):
                assert len(result) == len(reference), (label, indexed)
                assert result.bag == reference.bag


def test_the_cases_reach_the_operators_they_name():
    """Guard the table above against a lowering change emptying a case."""

    def operators(expression):
        return set(map(type, plan_operators(planner.compile_expression(expression))))

    expected = {
        "filter": X.FilterOp,
        "project_plain": X.ProjectOp,
        "union": X.UnionOp,
        "difference": X.DifferenceOp,
        "join": X.HashJoinOp,
        "join_residual": X.HashJoinOp,
        "semijoin": X.HashSemiJoinOp,
        "antijoin_residual": X.HashAntiJoinOp,
        "index_select": X.IndexSelectOp,
        "index_select_residual": X.IndexSelectOp,
        "chain_scan": X.FilterOp,
        "chain_join": X.HashJoinOp,
        "chain_join_both_sides": X.HashJoinOp,
        "chain_antijoin": X.HashAntiJoinOp,
        "guarded_and": X.FilterOp,
    }
    for case, operator in expected.items():
        assert operator in operators(CASES[case]), case
    # ... and the join chains are the shapes the pushdown rewrites.
    schema = _schema()
    for case in ("chain_join", "chain_join_both_sides"):
        assert planner.push_selections(CASES[case], schema) is not CASES[case], case


# ---------------------------------------------------------------------------
# Projections over none / built / declared-but-unbuilt indexes: a projection
# reads rows, whatever indexes its source carries — it uses none (no ledger
# entry) and builds none (a declared index stays declared).
# ---------------------------------------------------------------------------

#: ``r`` carries single-column, composite and permuted-order index specs.
PROJECT_SPECS = ((0,), (1, 0))
INDEX_STATES = ("none", "built", "declared")

PROJECT_CASES = {
    "single": E.Project(R, _items(P.ColRef("a"))),
    "renamed": E.Project(R, (E.ProjectItem(P.ColRef("a"), "key"),)),
    "composite": E.Project(R, _items(P.ColRef("b"), P.ColRef("a"))),
    "permuted": E.Project(R, _items(P.ColRef("a"), P.ColRef("b"))),
    "duplicate": E.Project(R, _items(P.ColRef("a"), P.ColRef("a"))),
    "scalar": E.Project(R, _items(P.Arith("+", P.ColRef("a"), P.Const(0)))),
    "unindexed": E.Project(R, _items(P.ColRef("b"))),
    # Chains over a scan whose first stage is the projection.
    "then_select": E.Select(
        E.Project(R, _items(P.ColRef("a"))),
        P.Or(_cmp("<", P.ColRef("a"), P.Const(3)), _cmp(">", P.ColRef("a"), P.Const(5))),
    ),
    "then_project": E.Project(
        E.Project(R, _items(P.ColRef("a"), P.ColRef("b"))), _items(P.ColRef("a"))
    ),
    "count": E.Count(E.Project(R, _items(P.ColRef("a")))),
    "difference": E.Difference(
        E.Project(R, _items(P.ColRef("a"))), E.Project(S_, _items(P.ColRef("c")))
    ),
}


def _project_database(size: int, bag: bool, state: str) -> Database:
    database = _database(size, bag, ())
    for spec in PROJECT_SPECS:
        if state == "built":
            database.relation("r").index_on(spec)
        elif state == "declared":
            database.relation("r").declare_index(spec)
    return database


@pytest.mark.parametrize("bag", [False, True], ids=["set", "bag"])
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", PROJECT_CASES)
def test_projection_equals_reference_over_every_index_state(case, size, bag):
    expression = PROJECT_CASES[case]
    for state in INDEX_STATES:
        outcomes, ledgers = {}, {}
        for label, (make_context, evaluate) in EVALUATIONS.items():
            database = _project_database(size, bag, state)
            relations = _relations(database)
            before = index_usage(relations)
            outcomes[label] = evaluate(expression, make_context(database))
            ledgers[label] = (before, index_usage(relations))
        reference = outcomes["reference"]
        for label in PLANS:
            result = outcomes[label]
            assert result == reference, (label, state)
            assert len(result) == len(reference), (label, state)
            assert result.bag == reference.bag
            before, after = ledgers[label]
            assert after == before, (label, state)  # nothing used, nothing built


def test_the_projection_cases_put_a_stage_above_the_projection():
    for case in ("then_select", "then_project"):
        plan = planner.compile_expression(PROJECT_CASES[case])
        assert isinstance(plan, (X.FilterOp, X.ProjectOp)), case
        assert isinstance(plan.child, X.ProjectOp), case
        assert isinstance(plan.child.child, X.ScanOp), case
