"""The §7 cost model's plan estimates: one walk over the compiled plan tree.

:func:`repro.parallel.cost_model.estimate` prices a plan from a ``{name:
cardinality}`` mapping; the parallel enforcer charges each node the estimate
over its fragment sizes.  The per-operator rules it replaced are the oracle
(``tests/support/estimate_oracle.py``): the walk must give their numbers,
bit for bit, on random plans.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.delta import NotIncrementalizable, delta_expression
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.session import DatabaseView
from repro.engine.types import INT
from repro.parallel.cost_model import (
    DEFAULT_DELTA_CARDINALITY,
    MODERN_2026,
    _RULES,
    estimate,
)
from repro.parallel.nodes import NodeStats
from tests.properties import strategies as S
from tests.support.estimate_oracle import oracle_estimate
from tests.support.modes import plan_operators

REFERENTIAL = E.AntiJoin(
    E.RelationRef("fk"),
    E.RelationRef("pk"),
    P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
)


def _operator_state(plan) -> dict:
    """``{id(op): its attribute dict}`` for every operator under ``plan``."""
    return {id(op): dict(vars(op)) for op in plan_operators(plan)}


class TestEstimates:
    def test_scan_uses_cardinalities(self):
        est = estimate(planner.get_plan(REFERENTIAL), {"fk": 100_000, "pk": 1000})
        assert est.built == 1000
        assert est.probed == 100_000

    def test_cost_model_prices_plan(self):
        def seconds(cards, stats=NodeStats()):
            # What the parallel enforcer charges one node: the plan's
            # estimate over that node's fragments, at the model's rates.
            est = estimate(planner.get_plan(REFERENTIAL), cards)
            return MODERN_2026.weighted_node_time(
                stats, scanned=est.scanned, built=est.built, probed=est.probed
            )

        cards = {"fk": 100_000, "pk": 1000}
        est = estimate(planner.get_plan(REFERENTIAL), cards)
        whole = seconds(cards)
        assert whole == pytest.approx(
            est.scanned * MODERN_2026.scan_per_tuple
            + est.built * MODERN_2026.build_per_tuple
            + est.probed * MODERN_2026.probe_per_tuple
        )
        assert whole > 0
        # One of 8 fragments must beat the whole on 1 node...
        eighth = {"fk": 12_500, "pk": 125}
        assert seconds(eighth) < whole
        # ...and the tuples a node ships are charged on top of its work.
        shipped = NodeStats(tuples_sent=125, messages_sent=1)
        assert seconds(eighth, shipped) == pytest.approx(
            seconds(eighth)
            + 125 * MODERN_2026.transfer_per_tuple
            + MODERN_2026.message_latency
        )

    def test_cost_model_prefers_delta_plan(self):
        cards = {"fk": 100_000, "pk": 1000}
        delta = delta_expression(REFERENTIAL, [("INS", "fk")])
        full = estimate(planner.get_plan(REFERENTIAL), cards)
        delta_estimate = estimate(planner.get_plan(delta), {**cards, "fk@plus": 100})
        # 100 probes against the same 1000-row build side vs 100k probes:
        # the choice is not close.
        assert delta_estimate.work < full.work / 10

    def test_delta_estimate_defaults_without_statistics(self):
        delta = delta_expression(REFERENTIAL, [("INS", "fk")])
        est = estimate(planner.get_plan(delta), {"fk": 100_000, "pk": 1000})
        assert est.probed == DEFAULT_DELTA_CARDINALITY
        assert est.built == 1000

    def test_estimate_prices_from_delta_not_base(self):
        op = X.DeltaScanOp("r", "plus")
        assert estimate(op, {"r": 100000.0}).rows == DEFAULT_DELTA_CARDINALITY
        assert estimate(op, {"r": 100000.0, "r@plus": 7.0}).rows == 7.0

    def test_estimating_never_writes_to_the_shared_plan(self):
        """Estimating is read-only on plans shared through the plan cache.

        An estimate runs on whichever thread asks against the one plan
        object every executor shares.  Cardinalities changing between two
        estimates — a 3-row relation growing 400-fold under a
        select/project chain — must leave that object, every operator's
        attributes, its ``explain()`` and its results as compiled.
        """
        database = Database(
            DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])])
        )
        database.load("r", [(i % 20, i) for i in range(3)])
        expression = E.Project(
            E.Select(
                E.RelationRef("r"), P.Comparison(">", P.ColRef("b"), P.Const(0))
            ),
            (E.ProjectItem(P.ColRef("b")),),
        )
        plan = planner.get_plan(expression)
        explained = planner.explain(expression)
        compiled_state = _operator_state(plan)
        assert explained.startswith("project[")
        view = DatabaseView(database)

        first = estimate(plan, database.cardinalities())
        assert _operator_state(plan) == compiled_state
        assert plan.execute(view) == expression.evaluate(view)

        database.load("r", [(0, i) for i in range(10, 1210)])
        second = estimate(plan, database.cardinalities())
        assert second.rows > first.rows
        assert planner.get_plan(expression) is plan
        assert planner.explain(expression) == explained
        assert _operator_state(plan) == compiled_state
        result = plan.execute(view)
        assert result == expression.evaluate(view) and len(result) == 1202


class TestRuleTable:
    def test_every_operator_class_has_a_rule(self):
        concrete = {
            cls
            for cls in vars(X).values()
            if isinstance(cls, type)
            and issubclass(cls, X.PhysicalOperator)
            and cls is not X.PhysicalOperator
            and not cls.__name__.startswith("_")
        }
        assert set(_RULES) == concrete


_NAMES = ["r", "s", "r@plus", "r@minus", "s@plus", "s@minus", "r@old", "s@old"]
_CARDINALITIES = st.none() | st.dictionaries(
    st.sampled_from(_NAMES),
    st.integers(min_value=0, max_value=10**6)
    | st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    max_size=len(_NAMES),
)


@given(
    expression=S.algebra_queries(),
    incremental=st.sampled_from([None, ("INS", "r"), ("DEL", "s")]),
    cards=_CARDINALITIES,
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_the_walk_prices_like_the_per_operator_rules(expression, incremental, cards):
    if incremental is not None:
        try:  # the Δ form, where there is one: its leaves are delta scans
            expression = delta_expression(expression, [incremental]) or expression
        except NotIncrementalizable:
            pass
    plan = planner.get_plan(expression)

    def bits(est):
        return [value.hex() for value in dataclasses.astuple(est)]

    assert bits(estimate(plan, cards)) == bits(oracle_estimate(plan, cards))
