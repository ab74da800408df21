"""Evaluation entry points and contexts for algebra expressions.

An evaluation *context* is any object with ``resolve(name) -> Relation``;
:class:`~repro.engine.transaction.TransactionContext` is the production
context.  :class:`StandaloneContext` evaluates expressions over an ad-hoc
dictionary of relations (unit tests, the rule optimizer's what-if analyses).

Evaluation itself goes through :mod:`repro.algebra.planner`: expressions
compile to cached physical plans.  The reference tree-walk interpreter is
``Expression.evaluate(context)``, which the test suite calls directly.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra import planner
from repro.algebra.expressions import Expression
from repro.engine.relation import Relation
from repro.errors import UnknownRelationError


class StandaloneContext:
    """Resolve names against a plain mapping of relations."""

    def __init__(self, relations: Mapping):
        self._relations = dict(relations)

    def resolve(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, "standalone context") from None

    def bind(self, name: str, relation: Relation) -> None:
        self._relations[name] = relation


def evaluate_expression(expression: Expression, context) -> Relation:
    """Evaluate a relation-valued expression in the given context."""
    return planner.evaluate(expression, context)
