"""The reference interpreter under the call shape of ``planner.evaluate``.

Lets a test parametrize over "compiled plan" and "reference tree walk" as
two callables of the same signature.
"""

from __future__ import annotations

from repro.algebra import planner


def evaluate_reference(expression, context):
    return expression.evaluate(context)


#: ``(id, evaluate)`` pairs: the production path and its oracle.
EVALUATORS = (("planned", planner.evaluate), ("reference", evaluate_reference))
