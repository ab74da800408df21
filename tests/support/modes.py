"""The two evaluations of one expression the parity suites compare.

Production has one execution path: ``planner.evaluate`` runs the cached
plan — under a context that exposes a database, the plan of the expression
after the schema-aware rewrite (selection pushdown) —
and every operator runs its one whole-column kernel.  The oracle is
``Expression.evaluate``, the row-at-a-time tree walk.
"""

from __future__ import annotations

from repro.algebra import planner


def plan_operators(plan):
    """Every operator under ``plan``."""
    stack = [plan]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op.children())


def index_usage(relations) -> dict:
    """Every index's full usage ledger, keyed by (relation, positions)."""
    return {
        (name, index.positions): (
            index.usage.uses,
            index.usage.keys,
            index.usage.by_kind,
            index.built,
        )
        for name, relation in relations.items()
        for index in getattr(relation, "indexes", None) or ()
    }


def evaluations(expression):
    """The ``(label, context -> Relation)`` pairs the suites compare:
    ``plan`` is production, ``reference`` the row-semantics oracle."""
    return (
        ("plan", lambda context: planner.evaluate(expression, context)),
        ("reference", expression.evaluate),
    )
