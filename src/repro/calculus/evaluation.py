"""Direct evaluation of CL constraints over database states.

This is the *semantic ground truth* of the reproduction: a straightforward
model-checking evaluator for range-restricted CL sentences.  It is used

* as the oracle in property-based tests (the translated algebra of
  Section 5.2.2 must agree with it on every database);
* as the "check after execute, roll back on violation" baseline that the
  transaction-modification benchmarks compare against;
* by :meth:`repro.core.subsystem.IntegrityController.violated_constraints`
  for post-hoc auditing of a database state.

Quantifiers range over the *active range* of their variable: the union of
all relations the variable is bound to by membership atoms in the
quantifier's scope.  For range-restricted sentences this coincides with the
standard semantics (tuples outside every mentioned relation can only satisfy
``x in R`` atoms negatively, so universals are vacuous and existentials
unwitnessed there); see ``tests/calculus/test_evaluation.py`` for the
equivalence checks.

Connectives are evaluated with short-circuiting, so guarded formulas never
evaluate attribute selections against tuples of the wrong relation type.

NULL semantics: comparisons involving NULL (including aggregates over empty
relations, which yield NULL for MIN/MAX/AVG) evaluate to *unknown*;
connectives and quantifiers follow Kleene three-valued logic; the top-level
verdict is **satisfied unless definitely violated** (unknown counts as
satisfied).  This matches the translated algebra's behaviour — a selection
keeps only definitely-violating tuples, so an unknown condition never fires
an alarm.  (As in SQL, existential checks over NULL-laden data can diverge
between the two evaluation styles; the paper predates NULL treatment and
the test suite pins the behaviour on NULL-free databases.)
"""

from __future__ import annotations

from typing import Dict

from repro.calculus import ast as C
from repro.calculus.analysis import check_constraint
from repro.engine.types import NULL
from repro.errors import EvaluationError, TypeMismatchError


class _Env:
    """An immutable-ish variable binding chain (var -> (tuple, schema))."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Dict[str, tuple]):
        self.bindings = bindings

    def bound(self, var: str, row: tuple, schema) -> "_Env":
        child = dict(self.bindings)
        child[var] = (row, schema)
        return _Env(child)

    def lookup(self, var: str):
        try:
            return self.bindings[var]
        except KeyError:
            raise EvaluationError(f"unbound tuple variable {var!r}") from None


def evaluate_constraint(formula: C.Formula, resolver, validate: bool = True) -> bool:
    """Evaluate a closed, range-restricted CL formula.

    ``resolver`` is anything with ``resolve(name) -> Relation`` — a
    transaction context, a :class:`~repro.engine.session.DatabaseView`, or a
    :class:`~repro.algebra.evaluation.StandaloneContext`.

    Returns the "satisfied unless definitely violated" verdict (see module
    docs); :func:`evaluate_three_valued` exposes the raw Kleene value.
    """
    return evaluate_three_valued(formula, resolver, validate=validate) is not False


def violated_rules(rules, resolver) -> list:
    """Names of the rules whose condition the model checker finds violated.

    The reference audit: what the suite and the benchmark gates compare
    :meth:`~repro.core.subsystem.IntegrityController.violated_constraints`
    against.
    """
    return [
        rule.name
        for rule in rules
        if not evaluate_constraint(rule.condition, resolver, validate=False)
    ]


def evaluate_three_valued(formula: C.Formula, resolver, validate: bool = True):
    """Kleene evaluation: returns True, False, or None (unknown)."""
    if validate:
        check_constraint(formula)
    return _eval(formula, resolver, _Env({}))


def _eval(node: C.Formula, resolver, env: _Env):
    if isinstance(node, C.Compare):
        left = _eval_term(node.left, resolver, env)
        right = _eval_term(node.right, resolver, env)
        return _compare(node.op, left, right)
    if isinstance(node, C.Member):
        row, _ = env.lookup(node.var)
        return row in resolver.resolve(node.relation)
    if isinstance(node, C.TupleEq):
        left_row, _ = env.lookup(node.left)
        right_row, _ = env.lookup(node.right)
        return left_row == right_row
    if isinstance(node, C.Not):
        value = _eval(node.operand, resolver, env)
        return None if value is None else not value
    if isinstance(node, C.And):
        left = _eval(node.left, resolver, env)
        if left is False:
            return False
        right = _eval(node.right, resolver, env)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if isinstance(node, C.Or):
        left = _eval(node.left, resolver, env)
        if left is True:
            return True
        right = _eval(node.right, resolver, env)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if isinstance(node, C.Implies):
        return _eval(C.Or(C.Not(node.left), node.right), resolver, env)
    if isinstance(node, C.Forall):
        unknown = False
        for row, schema in _active_range(node, resolver):
            value = _eval(node.body, resolver, env.bound(node.var, row, schema))
            if value is False:
                return False
            if value is None:
                unknown = True
        return None if unknown else True
    if isinstance(node, C.Exists):
        unknown = False
        for row, schema in _active_range(node, resolver):
            value = _eval(node.body, resolver, env.bound(node.var, row, schema))
            if value is True:
                return True
            if value is None:
                unknown = True
        return None if unknown else False
    raise EvaluationError(f"unknown formula node {node!r}")


def _active_range(node, resolver):
    """(row, schema) candidates for a quantified variable.

    The union of all relations the variable is membership-bound to within
    the quantifier scope, deduplicated across relations.
    """
    relations = _scope_relations(node.body, node.var)
    if not relations:
        raise EvaluationError(
            f"variable {node.var!r} is not range-restricted"
        )
    seen = set()
    for name in sorted(relations):
        relation = resolver.resolve(name)
        schema = relation.schema
        for row in relation.rows():
            if row not in seen:
                seen.add(row)
                yield row, schema


def _scope_relations(node: C.Formula, var: str) -> set:
    if isinstance(node, C.Member):
        return {node.relation} if node.var == var else set()
    if isinstance(node, C.Not):
        return _scope_relations(node.operand, var)
    if isinstance(node, (C.And, C.Or, C.Implies)):
        return _scope_relations(node.left, var) | _scope_relations(node.right, var)
    if isinstance(node, (C.Forall, C.Exists)):
        if node.var == var:
            return set()
        return _scope_relations(node.body, var)
    return set()


def _eval_term(term: C.Term, resolver, env: _Env):
    if isinstance(term, C.Const):
        return term.value
    if isinstance(term, C.AttrSel):
        row, schema = env.lookup(term.var)
        if isinstance(term.attr, int):
            position = term.attr
            if not 1 <= position <= len(row):
                raise EvaluationError(
                    f"attribute position {position} out of range for "
                    f"{term.var!r} (arity {len(row)})"
                )
        else:
            position = schema.position_of(term.attr)
        return row[position - 1]
    if isinstance(term, C.ArithTerm):
        left = _eval_term(term.left, resolver, env)
        right = _eval_term(term.right, resolver, env)
        if left is NULL or right is NULL:
            return NULL
        try:
            if term.op == "+":
                return left + right
            if term.op == "-":
                return left - right
            if term.op == "*":
                return left * right
            if right == 0:
                raise EvaluationError("division by zero")
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return left / right
        except TypeError as error:  # a string and a number
            raise TypeMismatchError(str(error)) from None
    if isinstance(term, C.AggTerm):
        relation = resolver.resolve(term.relation)
        position = relation.schema.position_of(term.attr) - 1
        values = [row[position] for row in relation if row[position] is not NULL]
        if term.func == "SUM":
            return sum(values) if values else 0
        if not values:
            return NULL
        if term.func == "AVG":
            return sum(values) / len(values)
        if term.func == "MIN":
            return min(values)
        return max(values)
    if isinstance(term, C.CntTerm):
        return len(resolver.resolve(term.relation))
    if isinstance(term, C.MltTerm):
        return resolver.resolve(term.relation).distinct_count()
    raise EvaluationError(f"unknown term node {term!r}")


def _compare(op: str, left, right):
    """NULL-aware comparison: any comparison involving NULL is unknown."""
    if left is NULL or right is NULL:
        return None
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == ">=":
            return left >= right
        if op == ">":
            return left > right
    except TypeError as error:  # an ordering of a string and a number
        raise TypeMismatchError(str(error)) from None
    raise EvaluationError(f"unknown comparison operator {op!r}")
