"""Evaluation entry points and contexts for algebra expressions.

An evaluation *context* is any object with ``resolve(name) -> Relation``;
:class:`~repro.engine.transaction.TransactionContext` is the production
context.  :class:`StandaloneContext` evaluates expressions over an ad-hoc
dictionary of relations (unit tests, the rule optimizer's what-if analyses),
and :class:`TracingContext` wraps another context to collect per-operator
tuple counts for the parallel cost model.

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


class OperatorTrace:
    """Accumulated per-operator tuple counts."""

    def __init__(self):
        self.records: list = []

    def record(self, op: str, tuples_in: int, tuples_out: int) -> None:
        self.records.append((op, tuples_in, tuples_out))

    @property
    def total_tuples_in(self) -> int:
        return sum(tuples_in for _, tuples_in, _ in self.records)

    @property
    def total_tuples_out(self) -> int:
        return sum(tuples_out for _, _, tuples_out in self.records)

    def by_operator(self) -> dict:
        summary: dict = {}
        for op, tuples_in, tuples_out in self.records:
            calls, acc_in, acc_out = summary.get(op, (0, 0, 0))
            summary[op] = (calls + 1, acc_in + tuples_in, acc_out + tuples_out)
        return summary

    def __repr__(self) -> str:
        return f"OperatorTrace({len(self.records)} operator calls)"


class TracingContext:
    """Wrap a context so operator counts are recorded during evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.tracer = OperatorTrace()

    def resolve(self, name: str) -> Relation:
        return self.inner.resolve(name)


def evaluate_expression(expression: Expression, context) -> Relation:
    """Evaluate a relation-valued expression in the given context."""
    return planner.evaluate(expression, context)
