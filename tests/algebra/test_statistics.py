"""Runtime statistics: capture, drift, and stats-aware plan estimates."""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.statistics import RuntimeStatistics
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.session import DatabaseView
from repro.engine.types import INT
from tests.support.modes import plan_operators


@pytest.fixture(autouse=True)
def _fresh_planner():
    planner.clear_plan_cache()
    yield
    planner.clear_plan_cache()


def _database(n_r: int = 100, n_s: int = 10) -> Database:
    database = Database(
        DatabaseSchema(
            [
                RelationSchema("r", [("a", INT), ("b", INT)]),
                RelationSchema("s", [("c", INT), ("d", INT)]),
            ]
        )
    )
    database.load("r", [(i % 20, i) for i in range(n_r)])
    database.load("s", [(i, i) for i in range(n_s)])
    return database


def test_capture_reads_cardinalities_and_distinct_keys():
    database = _database()
    database.create_index("r", ["a"])
    stats = RuntimeStatistics.capture(database)
    assert stats.get("r") == 100.0
    assert stats.get("s") == 10.0
    assert stats.distinct_keys("r", ("a",)) == 20
    assert stats.distinct_keys("r", ("b",)) is None
    assert stats.distinct_keys("missing", ("a",)) is None


def test_drift_is_symmetric_and_thresholded():
    old = RuntimeStatistics({"r": 100.0})
    same = RuntimeStatistics({"r": 110.0})
    grown = RuntimeStatistics({"r": 1000.0})
    assert not old.drifted(same)
    assert old.drifted(grown)
    assert grown.drifted(old)


def test_equality_selection_estimate_uses_distinct_keys():
    database = _database()
    database.create_index("r", ["a"])
    expression = E.Select(
        E.RelationRef("r"), P.Comparison("=", P.ColRef("a"), P.Const(3))
    )
    stats_estimate = planner.estimate_expression(
        expression, RuntimeStatistics.capture(database)
    )
    # |r| / V(r, a) = 100 / 20
    assert stats_estimate.rows == pytest.approx(5.0)
    textbook = planner.estimate_expression(expression, {"r": 100})
    assert textbook.rows != stats_estimate.rows


def test_join_estimate_uses_distinct_keys():
    database = _database()
    database.create_index("r", ["a"])
    join = E.Join(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
    )
    stats = RuntimeStatistics.capture(database)
    estimate = planner.estimate_expression(join, stats)
    # |r| * |s| / max(V) = 100 * 10 / 20
    assert estimate.rows == pytest.approx(50.0)


def test_index_creation_counts_as_drift():
    # An index appearing (or vanishing) changes what the estimator can
    # know, not just how much data there is: a per-database plan computed
    # before it must be recomputed (``planner.database_plan``).
    database = _database()
    before = RuntimeStatistics.capture(database)
    database.create_index("r", ["a"])
    after = RuntimeStatistics.capture(database)
    assert before.drifted(after) and after.drifted(before)
    expression = E.Select(
        E.RelationRef("r"), P.Comparison("=", P.ColRef("a"), P.Const(3))
    )
    assert planner.estimate_expression(expression, after).rows == pytest.approx(
        5.0
    )  # |r| / V(r, a)


def _operator_state(plan) -> dict:
    """``{id(op): its attribute dict}`` for every operator under ``plan``."""
    return {id(op): dict(vars(op)) for op in plan_operators(plan)}


def test_estimating_never_writes_to_the_shared_plan():
    """Estimating is read-only on plans shared through the plan cache.

    An estimate runs on whichever thread asks (audit scheduler workers
    included) against the one plan object every executor shares.
    Statistics drifting between two estimates — a 3-row relation growing
    400-fold under a select/project chain — must leave that object, every
    operator's attributes, its ``explain()`` and its results as compiled.
    """
    database = _database(n_r=3)
    expression = E.Project(
        E.Select(E.RelationRef("r"), P.Comparison(">", P.ColRef("b"), P.Const(0))),
        (E.ProjectItem(P.ColRef("b")),),
    )
    plan = planner.get_plan(expression)
    explained = planner.explain(expression)
    compiled_state = _operator_state(plan)
    assert explained.startswith("project[")
    view = DatabaseView(database)

    first = planner.estimate_expression(
        expression, RuntimeStatistics.capture(database)
    )
    assert _operator_state(plan) == compiled_state
    assert plan.execute(view) == expression.evaluate(view)

    database.load("r", [(0, i) for i in range(10, 1210)])
    second = planner.estimate_expression(
        expression, RuntimeStatistics.capture(database)
    )
    assert second.rows > first.rows  # it did drift
    assert planner.get_plan(expression) is plan
    assert planner.explain(expression) == explained
    assert _operator_state(plan) == compiled_state
    result = plan.execute(view)
    assert result == expression.evaluate(view) and len(result) == 1202


def test_estimate_prices_a_database_under_runtime_statistics():
    database = _database()
    expression = E.SemiJoin(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
    )
    estimate = planner.estimate_expression(
        expression, RuntimeStatistics.capture(database)
    )
    assert estimate.work > 0
    # The observed statistics price it, not the default cardinalities.
    assert estimate != planner.estimate_expression(expression, None)


def test_committed_deltas_feed_delta_scan_pricing():
    from repro.algebra.physical import DEFAULT_DELTA_CARDINALITY
    from repro.engine import Session

    database = _database()
    delta_plus = E.Delta("r", "plus")
    # Cold start: no commits observed yet, the fixed default applies.
    cold = planner.estimate_expression(
        delta_plus, RuntimeStatistics.capture(database)
    )
    assert cold.rows == DEFAULT_DELTA_CARDINALITY
    session = Session(database)
    result = session.execute("begin insert(r, (100, 1)); insert(r, (101, 2)); end")
    assert result.committed
    stats = RuntimeStatistics.capture(database)
    assert stats.get("r@plus") == 2.0
    assert "r@plus" in stats
    warm = planner.estimate_expression(delta_plus, stats)
    assert warm.rows == 2.0
    # The EWMA tracks the observed distribution across commits.
    session.execute("begin insert(r, (102, 1)); end")
    ewma = RuntimeStatistics.capture(database).get("r@plus")
    assert 1.0 < ewma < 2.0


def test_explicit_deltas_override_observed_sizes():
    from repro.engine import Session

    database = _database()
    session = Session(database)
    session.execute("begin insert(r, (100, 1)); end")  # observed |Δ| = 1
    expr = E.SemiJoin(
        E.Delta("r", "plus"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
    )
    captured = RuntimeStatistics.capture(database)
    assert captured.get("r@plus") == 1.0
    observed = planner.estimate_expression(expr, captured)
    explicit = planner.estimate_expression(
        expr,
        RuntimeStatistics(
            captured.cardinalities,
            captured.distinct,
            delta_sizes={**captured.delta_sizes, "r@plus": 50_000.0},
        ),
    )
    assert explicit.probed > observed.probed
    assert explicit.work > observed.work


def test_delta_sizes_participate_in_drift():
    old = RuntimeStatistics({"r": 100.0}, delta_sizes={"r@plus": 2.0})
    shifted = RuntimeStatistics({"r": 100.0}, delta_sizes={"r@plus": 1000.0})
    assert old.drifted(shifted)
    close = RuntimeStatistics({"r": 100.0}, delta_sizes={"r@plus": 3.0})
    assert not old.drifted(close)
