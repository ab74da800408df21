"""Scalar expressions and predicates for the extended relational algebra.

Predicates appear in selections and joins; scalar expressions additionally
appear in generalized projection (the paper's compensating action inserts
``(name, null, null)`` tuples, i.e. projects constants) and in update
statements.

Column references carry an optional *side* so that join predicates can
distinguish the two inputs (``left.i = right.j`` is the algebra form of the
paper's ``x.i = y.j``).  In unary contexts the side is ``None``.

Null semantics follow the SQL convention (three-valued logic): a comparison
involving NULL is *unknown*; ``and``/``or``/``not`` are Kleene connectives;
a selection keeps only rows whose predicate is *true*.  Within Python,
unknown is represented by ``None``.

For evaluation speed — the Section 7 benchmarks select over tens of
thousands of tuples — every node compiles to a plain Python closure via
:func:`compile_scalar` / :func:`compile_predicate`; the AST itself is made of
frozen dataclasses with structural equality, which the translation tests rely
on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.engine.schema import RelationSchema
from repro.engine.types import NULL
from repro.errors import EvaluationError, TypeMismatchError, UnknownAttributeError
from repro.hashing import hash_once


class ScalarExpr:
    """Base class for scalar expressions."""

    __slots__ = ()


class Predicate:
    """Base class for predicates (boolean-valued expressions)."""

    __slots__ = ()


@hash_once
@dataclass(frozen=True)
class Const(ScalarExpr):
    """A constant value (including the NULL marker)."""

    value: object

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@hash_once
@dataclass(frozen=True)
class ColRef(ScalarExpr):
    """An attribute selection ``x.i`` / ``x.name`` (paper Def 4.2).

    ``attr`` is a 1-based position or an attribute name; ``side`` is ``None``
    for unary contexts, or ``"left"`` / ``"right"`` inside join predicates.
    """

    attr: Union[int, str]
    side: Optional[str] = None

    def __repr__(self) -> str:
        prefix = f"{self.side}." if self.side else ""
        return f"ColRef({prefix}{self.attr})"


@hash_once
@dataclass(frozen=True)
class Arith(ScalarExpr):
    """An arithmetic function application (paper's FV = {+, -, *, /})."""

    op: str
    left: ScalarExpr
    right: ScalarExpr


@hash_once
@dataclass(frozen=True)
class Comparison(Predicate):
    """An arithmetic comparison (paper's PV = {<, <=, =, !=, >=, >})."""

    op: str
    left: ScalarExpr
    right: ScalarExpr


@hash_once
@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate


@hash_once
@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate


@hash_once
@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate


@hash_once
@dataclass(frozen=True)
class TruePred(Predicate):
    pass


@hash_once
@dataclass(frozen=True)
class FalsePred(Predicate):
    pass


@hash_once
@dataclass(frozen=True)
class IsNull(Predicate):
    """NULL test (needed because NULL never compares equal to anything)."""

    operand: ScalarExpr


TRUE = TruePred()
FALSE = FalsePred()

_ARITH_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_COMPARE_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

COMPARISON_NEGATIONS = {
    "<": ">=",
    "<=": ">",
    "=": "!=",
    "!=": "=",
    ">=": "<",
    ">": "<=",
}


def negate(predicate: Predicate) -> Predicate:
    """Structural negation with the obvious simplifications.

    Used by the calculus-to-algebra translation: Table 1's first row selects
    the tuples satisfying ``not c``, and producing ``alcohol < 0`` rather
    than ``not (alcohol >= 0)`` keeps the output readable and matches the
    paper's presentation.
    """
    if isinstance(predicate, Not):
        return predicate.operand
    if isinstance(predicate, TruePred):
        return FALSE
    if isinstance(predicate, FalsePred):
        return TRUE
    if isinstance(predicate, Comparison):
        return Comparison(
            COMPARISON_NEGATIONS[predicate.op], predicate.left, predicate.right
        )
    if isinstance(predicate, And):
        return Or(negate(predicate.left), negate(predicate.right))
    if isinstance(predicate, Or):
        return And(negate(predicate.left), negate(predicate.right))
    return Not(predicate)


def conjoin(*predicates: Predicate) -> Predicate:
    """Conjunction of predicates with TRUE-elimination."""
    result: Optional[Predicate] = None
    for predicate in predicates:
        if isinstance(predicate, TruePred):
            continue
        if isinstance(predicate, FalsePred):
            return FALSE
        result = predicate if result is None else And(result, predicate)
    return result if result is not None else TRUE


# ---------------------------------------------------------------------------
# Compilation to closures
# ---------------------------------------------------------------------------
#
# Compiled scalar functions have signature f(left_row, right_row) -> value;
# in unary contexts right_row is None.  Compiled predicates return True,
# False, or None (unknown).


def _resolve_position(
    ref: ColRef, schema: RelationSchema, right_schema: Optional[RelationSchema]
) -> tuple:
    """Map a ColRef to (row_selector_index, 0-based position).

    row_selector_index 0 = left/unary row, 1 = right row.
    """
    if ref.side == "right":
        if right_schema is None:
            raise EvaluationError(
                f"column reference {ref!r} used in a unary context"
            )
        return 1, right_schema.position_of(ref.attr) - 1
    if ref.side == "left":
        return 0, schema.position_of(ref.attr) - 1
    # Unqualified: resolve against the unary schema; in binary contexts try
    # left first, then right (names are disambiguated by the parser already).
    try:
        return 0, schema.position_of(ref.attr) - 1
    except UnknownAttributeError:
        if right_schema is not None:
            return 1, right_schema.position_of(ref.attr) - 1
        raise


def compile_scalar(
    expr: ScalarExpr,
    schema: RelationSchema,
    right_schema: Optional[RelationSchema] = None,
) -> Callable:
    """Compile a scalar expression into ``f(left_row, right_row) -> value``."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda left, right=None: value
    if isinstance(expr, ColRef):
        which, position = _resolve_position(expr, schema, right_schema)
        if which == 0:
            return lambda left, right=None: left[position]
        return lambda left, right=None: right[position]
    if isinstance(expr, Arith):
        left_fn = compile_scalar(expr.left, schema, right_schema)
        right_fn = compile_scalar(expr.right, schema, right_schema)
        if expr.op == "/":

            def divide(left, right=None):
                a = left_fn(left, right)
                b = right_fn(left, right)
                if a is NULL or b is NULL:
                    return NULL
                if b == 0:
                    raise EvaluationError("division by zero")
                if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                    return a // b
                try:
                    return a / b
                except TypeError as error:
                    raise TypeMismatchError(str(error)) from None

            return divide
        op = _ARITH_OPS[expr.op]

        def arith(left, right=None, op=op):
            a = left_fn(left, right)
            b = right_fn(left, right)
            if a is NULL or b is NULL:
                return NULL
            try:
                return op(a, b)
            except TypeError as error:  # a string and a number
                raise TypeMismatchError(str(error)) from None

        return arith
    raise EvaluationError(f"cannot compile scalar expression {expr!r}")


def compile_predicate(
    predicate: Predicate,
    schema: RelationSchema,
    right_schema: Optional[RelationSchema] = None,
) -> Callable:
    """Compile a predicate into ``f(left_row, right_row) -> True|False|None``."""
    if isinstance(predicate, TruePred):
        return lambda left, right=None: True
    if isinstance(predicate, FalsePred):
        return lambda left, right=None: False
    if isinstance(predicate, Comparison):
        left_fn = compile_scalar(predicate.left, schema, right_schema)
        right_fn = compile_scalar(predicate.right, schema, right_schema)
        op = _COMPARE_OPS[predicate.op]

        def compare(left, right=None, op=op):
            a = left_fn(left, right)
            b = right_fn(left, right)
            if a is NULL or b is NULL:
                return None
            try:
                return op(a, b)
            except TypeError as error:  # an ordering of a string and a number
                raise TypeMismatchError(str(error)) from None

        return compare
    if isinstance(predicate, IsNull):
        operand_fn = compile_scalar(predicate.operand, schema, right_schema)
        return lambda left, right=None: operand_fn(left, right) is NULL
    if isinstance(predicate, Not):
        operand_fn = compile_predicate(predicate.operand, schema, right_schema)

        def negation(left, right=None):
            value = operand_fn(left, right)
            return None if value is None else not value

        return negation
    if isinstance(predicate, And):
        left_fn = compile_predicate(predicate.left, schema, right_schema)
        right_fn = compile_predicate(predicate.right, schema, right_schema)

        def conjunction(left, right=None):
            a = left_fn(left, right)
            if a is False:
                return False
            b = right_fn(left, right)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True

        return conjunction
    if isinstance(predicate, Or):
        left_fn = compile_predicate(predicate.left, schema, right_schema)
        right_fn = compile_predicate(predicate.right, schema, right_schema)

        def disjunction(left, right=None):
            a = left_fn(left, right)
            if a is True:
                return True
            b = right_fn(left, right)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return disjunction
    raise EvaluationError(f"cannot compile predicate {predicate!r}")


def nodes(node) -> Optional[list]:
    """Every node of a predicate/scalar tree, leaves left to right, or None
    when the tree contains an unrecognized node kind."""
    found: list = []
    stack = [node]
    while stack:
        item = stack.pop()
        found.append(item)
        if isinstance(item, (Arith, Comparison, And, Or)):
            stack += (item.right, item.left)
        elif isinstance(item, (Not, IsNull)):
            stack.append(item.operand)
        elif not isinstance(item, (ColRef, Const, TruePred, FalsePred)):
            return None
    return found


def can_raise(predicate) -> bool:
    """Can evaluating ``predicate`` on well-typed rows raise?

    Division is the one partial operation of the expression language
    (comparisons, ``+ - *``, the Kleene connectives and ``IS NULL`` are
    total under three-valued logic); an unrecognized node kind counts as
    one.  A rewrite that changes *which rows* a predicate is evaluated on
    changes whether it raises, so such rewrites ask first.
    """
    found = nodes(predicate)
    return found is None or any(
        isinstance(item, Arith) and item.op == "/" for item in found
    )


def predicate_columns(predicate: Predicate) -> set:
    """All ColRefs mentioned by a predicate (for optimizer analyses)."""
    return {item for item in nodes(predicate) or () if isinstance(item, ColRef)}
