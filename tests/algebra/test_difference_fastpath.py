"""Regression: the Δ⁻ subtraction of projection/union skips the rescan.

The delta rewrites ``Δ⁻π(e) = π(Δ⁻e) − π(e)`` and ``Δ⁻(l ∪ r) =
(Δ⁻l ∪ Δ⁻r) − (l ∪ r)`` are sound but subtract a post-state expression
that is O(|result|) to materialize.  When the candidate Δ⁻ side is empty —
the common case for insert-heavy workloads — the subtraction must be
skipped entirely: the post-state relation is never even resolved, by the
compiled plan and by the reference interpreter alike.
"""

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.delta import delta_expression
from repro.algebra.statements import DEL
from repro.engine import Relation, RelationSchema
from repro.engine.types import INT
from tests.support.reference import EVALUATORS

SCHEMA = RelationSchema("r", [("a", INT), ("b", INT)])


class _CountingContext:
    """Standalone resolution context that records every resolve call."""

    def __init__(self, relations):
        self.relations = relations
        self.resolved = []

    def resolve(self, name):
        self.resolved.append(name)
        return self.relations[name]


def _project_minus_delta():
    """Δ⁻ of ``π_a(r)`` with DEL(r) active: π(Δ⁻r) − π(r)."""
    projection = E.Project(
        E.RelationRef("r"), (E.ProjectItem(P.ColRef("a")),)
    )
    rewritten = delta_expression(
        projection, [(DEL, "r")], kind=E.DELTA_MINUS
    )
    assert isinstance(rewritten, E.Difference)
    return rewritten


def _union_minus_delta():
    """Δ⁻ of ``σ_{b<2}(r) ∪ σ_{b>4}(r)`` with DEL(r) active."""
    low = E.Select(E.RelationRef("r"), P.Comparison("<", P.ColRef("b"), P.Const(2)))
    high = E.Select(E.RelationRef("r"), P.Comparison(">", P.ColRef("b"), P.Const(4)))
    rewritten = delta_expression(
        E.Union(low, high), [(DEL, "r")], kind=E.DELTA_MINUS
    )
    assert isinstance(rewritten, E.Difference)
    return rewritten


def _context(minus_rows):
    return _CountingContext(
        {
            "r": Relation(SCHEMA, [(1, 1), (2, 5), (3, 3)]),
            "r@minus": Relation(SCHEMA, minus_rows),
        }
    )


@pytest.mark.parametrize(
    "evaluate",
    [evaluate for _, evaluate in EVALUATORS],
    ids=[name for name, _ in EVALUATORS],
)
@pytest.mark.parametrize(
    "build", [_project_minus_delta, _union_minus_delta], ids=["project", "union"]
)
class TestEmptyMinusSkipsRescan:
    def test_empty_delta_never_resolves_post_state(self, evaluate, build):
        expression = build()
        context = _context([])
        result = evaluate(expression, context)
        assert len(result) == 0
        assert "r" not in context.resolved, (
            "empty Δ⁻ side must not trigger the post-state subtraction scan"
        )
        assert "r@minus" in context.resolved

    def test_non_empty_delta_still_subtracts(self, evaluate, build):
        expression = build()
        # Deleting (9, 1): for the projection, a=9 survives nowhere in the
        # post state; for the union, b=1 < 2 would have been in the result.
        context = _context([(9, 1)])
        result = evaluate(expression, context)
        assert len(result) == 1
        assert "r" in context.resolved, (
            "a non-empty Δ⁻ side must be checked against the post state"
        )
