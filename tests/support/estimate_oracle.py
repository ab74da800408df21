"""The plan estimates as per-operator rules: the oracle of the cost walk.

Before :func:`repro.parallel.cost_model.estimate` walked the plan tree
once, every physical operator carried its own ``estimate(cards)`` method
that estimated its children and absorbed their work.  Those rules are kept
here, one branch per operator, in the order and arithmetic they had, so
``tests/parallel/test_cost_model.py`` can hold the table-driven walk to
the same numbers, bit for bit, on random plans.
"""

from __future__ import annotations

from repro.algebra import physical as X
from repro.parallel.cost_model import (
    DEFAULT_CARDINALITY,
    DEFAULT_DELTA_CARDINALITY,
    EQUALITY_SELECTIVITY,
    FILTER_SELECTIVITY,
    SEMI_SELECTIVITY,
    PlanEstimate,
)


def _card(cards, name: str) -> float:
    if cards is None:
        return DEFAULT_CARDINALITY
    return float(cards.get(name, DEFAULT_CARDINALITY))


def _absorb(est: PlanEstimate, child: PlanEstimate) -> None:
    est.scanned += child.scanned
    est.built += child.built
    est.probed += child.probed


def oracle_estimate(op, cards=None) -> PlanEstimate:
    """``op``'s estimate by the rule its class carried."""
    if isinstance(op, X.ScanOp):
        return PlanEstimate(rows=_card(cards, op.name))
    if isinstance(op, X.DeltaScanOp):
        if cards is not None and op.name in cards:
            return PlanEstimate(rows=float(cards.get(op.name)))
        return PlanEstimate(rows=DEFAULT_DELTA_CARDINALITY)
    if isinstance(op, X.LiteralOp):
        return PlanEstimate(rows=float(len(op.rows)))
    if isinstance(op, X.IndexSelectOp):
        out = max(1.0, _card(cards, op.name) * EQUALITY_SELECTIVITY)
        return PlanEstimate(rows=out, probed=1.0, scanned=out)
    if isinstance(op, X.RenameOp):
        return oracle_estimate(op.child, cards)
    if isinstance(op, (X.FilterOp, X.ProjectOp, X.AggregateOp)):
        child = oracle_estimate(op.child, cards)
        if isinstance(op, X.FilterOp):
            rows = child.rows * FILTER_SELECTIVITY
        elif isinstance(op, X.ProjectOp):
            rows = child.rows
        else:
            rows = 1.0
        est = PlanEstimate(rows=rows)
        _absorb(est, child)
        est.scanned += child.rows
        return est
    if isinstance(op, (X.CountOp, X.MultiplicityOp)):
        child = oracle_estimate(op.child, cards)
        est = PlanEstimate(rows=1.0)
        _absorb(est, child)
        return est
    left = oracle_estimate(op.left, cards)
    right = oracle_estimate(op.right, cards)
    if isinstance(op, X.UnionOp):
        est = PlanEstimate(rows=left.rows + right.rows)
    elif isinstance(op, X.DifferenceOp):
        est = PlanEstimate(rows=max(left.rows - right.rows, 1.0))
    elif isinstance(op, X.IntersectOp):
        est = PlanEstimate(rows=min(left.rows, right.rows) * SEMI_SELECTIVITY)
    elif isinstance(op, X.ProductOp):
        est = PlanEstimate(rows=left.rows * right.rows)
    elif isinstance(op, X.HashJoinOp):
        est = PlanEstimate(rows=max(left.rows, right.rows, 1.0))
    elif isinstance(op, X.NestedLoopJoinOp):
        est = PlanEstimate(rows=left.rows * right.rows * FILTER_SELECTIVITY)
    elif isinstance(op, (X.HashSemiJoinOp, X.NestedLoopSemiOp)):
        est = PlanEstimate(rows=left.rows * SEMI_SELECTIVITY)
    else:
        raise TypeError(f"no estimate rule for {type(op).__name__}")
    _absorb(est, left)
    _absorb(est, right)
    if isinstance(op, (X.UnionOp, X.DifferenceOp, X.IntersectOp)):
        est.scanned += left.rows + right.rows
    elif isinstance(op, (X.ProductOp, X.NestedLoopJoinOp, X.NestedLoopSemiOp)):
        est.scanned += left.rows * right.rows
    else:  # the hash joins: build the right side, probe the left
        est.built += right.rows
        est.probed += left.rows
    return est
