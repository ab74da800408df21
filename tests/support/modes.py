"""The unfused lowering of an expression, for the parity suites.

Production has one execution path: every operator runs its whole-column
kernel and every ``fuse_pipelines`` region executes fused.  The one
plan-shape decision left is whether a select/project chain formed a
region, so the parity suites compare three evaluations of one expression
over the same inputs: the normal plan, this module's plan lowered without
the fusion pass, and ``Expression.evaluate``.
"""

from __future__ import annotations

from repro.algebra import planner
from repro.algebra.optimizer import optimize_expression


def unfused_plan(expression):
    """``planner.compile_expression`` minus ``fuse_pipelines`` (uncached)."""
    return planner._lower(optimize_expression(expression))


def plan_operators(plan):
    """Every operator under ``plan`` (regions expose their stage chain)."""
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
    """The three ``(label, context -> Relation)`` pairs the suites compare.

    ``fused`` is the production plan (regions form wherever the planner
    forms them), ``unfused`` runs every operator standalone, ``reference``
    is the row-semantics oracle.
    """
    return (
        ("fused", planner.get_plan(expression).execute),
        ("unfused", unfused_plan(expression).execute),
        ("reference", expression.evaluate),
    )
