"""Relation-valued expressions of the extended relational algebra.

The node set covers the standard algebra (selection, generalized projection,
union, difference, intersection, product, theta-join) plus the derived
operators the paper's Table 1 uses (semijoin, antijoin) and the scalar
aggregate/counting functions of CL (``SUM/AVG/MIN/MAX``, ``CNT``, and the
multiset extension's ``MLT``).

Nodes are frozen dataclasses (structural equality — the translation tests
compare produced trees against expected ones) with an ``evaluate(context)``
method.  A *context* is anything with ``resolve(name) -> Relation``.
``evaluate`` is the reference tree-walk interpreter: production evaluation
runs the compiled plans of :mod:`repro.algebra.physical`, and the property
suites hold the two to equal results.

Performance notes: selections and joins compile their predicates to Python
closures once per evaluation (:mod:`repro.algebra.predicates`), and
equality-dominated join/semijoin/antijoin predicates are executed hash-based
rather than by nested loops.  This is what makes the Section 7 workload
(50000-tuple relations) run in seconds under CPython.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple, Union as TypingUnion

from repro.algebra import predicates as P
from repro.engine.relation import Relation
from repro.engine.schema import Attribute, RelationSchema
from repro.engine.types import ANY, FLOAT, INT, NULL, Domain
from repro.errors import EvaluationError, TypeMismatchError
from repro.hashing import hash_once


class Expression:
    """Base class for relation-valued expressions."""

    __slots__ = ()

    def evaluate(self, context) -> Relation:
        raise NotImplementedError

    def relations(self) -> set:
        """Names of all relations referenced anywhere in this expression."""
        found: set = set()
        _collect_relations(self, found)
        return found


def rewrite_children(expr: Expression, rewrite) -> Expression:
    """``expr`` over ``rewrite(child)`` for each child expression — ``expr``
    itself when no child changed."""
    changes = {}
    for entry in fields(expr):
        value = getattr(expr, entry.name)
        if isinstance(value, Expression):
            replacement = rewrite(value)
            if replacement is not value:
                changes[entry.name] = replacement
    return replace(expr, **changes) if changes else expr


def _fresh_schema(name: str, attributes) -> RelationSchema:
    """Build a derived schema, uniquifying duplicate attribute names."""
    seen: dict = {}
    unique = []
    for attribute in attributes:
        base = attribute.name
        count = seen.get(base, 0)
        seen[base] = count + 1
        if count:
            attribute = Attribute(f"{base}_{count + 1}", attribute.domain, attribute.nullable)
        unique.append(attribute)
    return RelationSchema(name, unique)


def _check_compatible(left: Relation, right: Relation, op: str) -> None:
    if left.schema.arity != right.schema.arity:
        raise TypeMismatchError(
            f"{op}: incompatible arities {left.schema.arity} vs "
            f"{right.schema.arity}"
        )


@hash_once
@dataclass(frozen=True)
class RelationRef(Expression):
    """A reference to a named (base, auxiliary, or temporary) relation."""

    name: str

    def evaluate(self, context) -> Relation:
        return context.resolve(self.name)


DELTA_PLUS = "plus"
DELTA_MINUS = "minus"
DELTA_KINDS = (DELTA_PLUS, DELTA_MINUS)


@hash_once
@dataclass(frozen=True)
class Delta(Expression):
    """First-class differential reference ``ΔR``: the *net* tuples inserted
    into (``kind="plus"``) or deleted from (``kind="minus"``) a base relation
    by the transaction whose context evaluates the expression.

    This is the leaf the delta-rewrite transform of
    :mod:`repro.algebra.delta` bottoms out in.  Resolution is by the
    auxiliary naming convention (``R@plus`` / ``R@minus``), so one plan binds
    to whatever supplies the differentials: a running
    :class:`~repro.engine.transaction.TransactionContext`, a post-commit
    :class:`~repro.engine.session.DeltaView`, or an explicit binding in a
    standalone context.  Unlike a bare ``RelationRef("R@plus")``, the node
    keeps the base relation and update kind structurally available, which the
    planner uses to price the scan from |Δ| instead of |R|.
    """

    relation: str
    kind: str

    def __post_init__(self):
        if self.kind not in DELTA_KINDS:
            raise EvaluationError(
                f"delta kind must be one of {DELTA_KINDS}, got {self.kind!r}"
            )
        if "@" in self.relation:
            raise EvaluationError(
                f"delta of auxiliary relation {self.relation!r}"
            )

    @property
    def name(self) -> str:
        """The auxiliary relation name this delta resolves through."""
        return f"{self.relation}@{self.kind}"

    def evaluate(self, context) -> Relation:
        return context.resolve(self.name)


@hash_once
@dataclass(frozen=True)
class Literal(Expression):
    """A constant relation given as a tuple of rows.

    Used for single/multi-tuple inserts (``insert(beer, ("x", ...))`` in the
    paper's Example 5.1).  The schema is derived with ANY domains; the target
    relation re-validates on insert.
    """

    rows: Tuple[tuple, ...]

    def __post_init__(self):
        rows = self.rows
        if len(rows) > 1:
            arity = len(rows[0])
            if any(len(row) != arity for row in rows):
                raise TypeMismatchError("literal relation rows differ in arity")

    @property
    def arity(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def evaluate(self, context) -> Relation:
        arity = self.arity or 1
        schema = RelationSchema(
            "literal",
            [Attribute(f"c{i}", ANY, nullable=True) for i in range(1, arity + 1)],
        )
        return Relation(schema, self.rows, _validated=True)


@hash_once
@dataclass(frozen=True)
class Select(Expression):
    """Selection ``sigma_pred(input)``."""

    input: Expression
    predicate: P.Predicate

    def evaluate(self, context) -> Relation:
        source = self.input.evaluate(context)
        test = P.compile_predicate(self.predicate, source.schema)
        return source.filtered(lambda row: test(row) is True)


@hash_once
@dataclass(frozen=True)
class ProjectItem:
    """One output column of a generalized projection."""

    expr: P.ScalarExpr
    name: Optional[str] = None


@hash_once
@dataclass(frozen=True)
class Project(Expression):
    """Generalized projection ``pi_items(input)``.

    Items may be plain attribute references (classical projection) or
    arbitrary scalar expressions including constants — the paper's
    compensating action projects ``(name, null, null)``.
    """

    input: Expression
    items: Tuple[ProjectItem, ...]

    def evaluate(self, context) -> Relation:
        source = self.input.evaluate(context)
        schema = source.schema
        compiled = [P.compile_scalar(item.expr, schema) for item in self.items]
        attributes = [
            self._output_attribute(item, schema) for item in self.items
        ]
        out_schema = _fresh_schema(f"{schema.name}_proj", attributes)
        result = Relation(out_schema, bag=source.bag)
        for row in source:
            result.insert(tuple(fn(row) for fn in compiled), _validated=True)
        return result

    @staticmethod
    def _output_attribute(item: ProjectItem, schema: RelationSchema) -> Attribute:
        expr = item.expr
        if isinstance(expr, P.ColRef) and expr.side in (None, "left"):
            source_attr = schema.attribute_at(expr.attr)
            name = item.name or source_attr.name
            return Attribute(name, source_attr.domain, source_attr.nullable)
        if isinstance(expr, P.Const):
            name = item.name or "const"
            domain = _domain_of_value(expr.value)
            return Attribute(name, domain, nullable=expr.value is NULL)
        name = item.name or "expr"
        return Attribute(name, ANY, nullable=True)


def _domain_of_value(value) -> Domain:
    if value is NULL:
        return ANY
    if isinstance(value, bool):
        from repro.engine.types import BOOL

        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        from repro.engine.types import STRING

        return STRING
    return ANY


@hash_once
@dataclass(frozen=True)
class Union(Expression):
    """Set (or bag) union of two union-compatible inputs."""

    left: Expression
    right: Expression

    def evaluate(self, context) -> Relation:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        _check_compatible(left, right, "union")
        result = left.copy()
        result.insert_many(iter(right))
        return result


@hash_once
@dataclass(frozen=True)
class Difference(Expression):
    """Set (or bag) difference ``left - right``."""

    left: Expression
    right: Expression

    def evaluate(self, context) -> Relation:
        left = self.left.evaluate(context)
        if not len(left):
            # ∅ − e = ∅: skip evaluating the subtrahend entirely (the Δ⁻
            # rewrites of projection/union subtract a post-state expression
            # that is O(|result|) to materialize).
            return Relation(left.schema, bag=left.bag)
        right = self.right.evaluate(context)
        _check_compatible(left, right, "difference")
        result = left.copy()
        result.delete_many(iter(right))
        return result


@hash_once
@dataclass(frozen=True)
class Intersection(Expression):
    """Set (or bag) intersection."""

    left: Expression
    right: Expression

    def evaluate(self, context) -> Relation:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        _check_compatible(left, right, "intersection")
        return left.filtered(lambda row: row in right)


def _combined_schema(left: RelationSchema, right: RelationSchema, name: str) -> RelationSchema:
    return _fresh_schema(name, list(left.attributes) + list(right.attributes))


def _split_equi_predicate(predicate: P.Predicate):
    """Split a join predicate into hashable equalities and a residual.

    Returns ``(left_keys, right_keys, residual)`` where the key lists are
    scalar expressions over the respective sides.  Equalities of the form
    ``left-expr = right-expr`` (in either order) become hash keys; everything
    else stays in the residual predicate.
    """
    left_keys: list = []
    right_keys: list = []
    residual: list = []

    def side_of(expr) -> Optional[str]:
        sides = {ref.side for ref in _scalar_columns(expr)}
        if sides == {"left"} or sides == {None}:
            return "left"
        if sides == {"right"}:
            return "right"
        if not sides:
            return "const"
        return None

    def visit(node: P.Predicate) -> None:
        if isinstance(node, P.And):
            visit(node.left)
            visit(node.right)
            return
        if isinstance(node, P.Comparison) and node.op == "=":
            ls, rs = side_of(node.left), side_of(node.right)
            if ls == "left" and rs == "right":
                left_keys.append(node.left)
                right_keys.append(node.right)
                return
            if ls == "right" and rs == "left":
                left_keys.append(node.right)
                right_keys.append(node.left)
                return
        residual.append(node)

    visit(predicate)
    residual_pred = P.conjoin(*residual) if residual else P.TRUE
    return left_keys, right_keys, residual_pred


def _scalar_columns(expr) -> set:
    found: set = set()

    def visit(node):
        if isinstance(node, P.ColRef):
            found.add(node)
        elif isinstance(node, P.Arith):
            visit(node.left)
            visit(node.right)

    visit(expr)
    return found


def _strip_side(expr, side: str):
    """Rewrite ColRefs of ``side`` (or unqualified) into unary ColRefs."""
    if isinstance(expr, P.ColRef):
        return P.ColRef(expr.attr, None)
    if isinstance(expr, P.Arith):
        return P.Arith(expr.op, _strip_side(expr.left, side), _strip_side(expr.right, side))
    return expr


class _HashedSide:
    """Hash index over one join input, keyed by compiled key expressions."""

    def __init__(self, relation: Relation, key_exprs, side: str):
        unary_exprs = [_strip_side(expr, side) for expr in key_exprs]
        compiled = [P.compile_scalar(expr, relation.schema) for expr in unary_exprs]
        self.index: dict = {}
        for row in relation.rows():
            key = tuple(fn(row) for fn in compiled)
            self.index.setdefault(key, []).append(row)
        self.compiled = compiled

    def key_of(self, row: tuple) -> tuple:
        return tuple(fn(row) for fn in self.compiled)


@hash_once
@dataclass(frozen=True)
class Join(Expression):
    """Theta-join: all concatenated pairs satisfying the predicate."""

    left: Expression
    right: Expression
    predicate: P.Predicate

    def evaluate(self, context) -> Relation:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        out_schema = _combined_schema(
            left.schema, right.schema, f"{left.schema.name}_join"
        )
        result = Relation(out_schema, bag=left.bag or right.bag)
        left_keys, right_keys, residual = _split_equi_predicate(self.predicate)
        residual_fn = P.compile_predicate(residual, left.schema, right.schema)
        if left_keys:
            probe_keys = [
                P.compile_scalar(_strip_side(expr, "left"), left.schema)
                for expr in left_keys
            ]
            hashed = _HashedSide(right, right_keys, "right")
            for lrow in left:
                key = tuple(fn(lrow) for fn in probe_keys)
                for rrow in hashed.index.get(key, ()):
                    if residual_fn(lrow, rrow) is True:
                        result.insert(lrow + rrow, _validated=True)
        else:
            full_fn = P.compile_predicate(self.predicate, left.schema, right.schema)
            for lrow in left:
                for rrow in right:
                    if full_fn(lrow, rrow) is True:
                        result.insert(lrow + rrow, _validated=True)
        return result


def _semi_anti_filter(self, context, keep_matching: bool, op_name: str) -> Relation:
    """Shared implementation of SemiJoin / AntiJoin."""
    left = self.left.evaluate(context)
    right = self.right.evaluate(context)
    left_keys, right_keys, residual = _split_equi_predicate(self.predicate)
    if left_keys and isinstance(residual, P.TruePred):
        hashed = _HashedSide(right, right_keys, "right")
        probe_keys = [
            P.compile_scalar(_strip_side(expr, "left"), left.schema)
            for expr in left_keys
        ]
        index = hashed.index

        def has_match(row: tuple) -> bool:
            return tuple(fn(row) for fn in probe_keys) in index

    else:
        pred_fn = P.compile_predicate(self.predicate, left.schema, right.schema)
        right_rows = list(right.rows())

        def has_match(row: tuple) -> bool:
            return any(pred_fn(row, other) is True for other in right_rows)

    if keep_matching:
        return left.filtered(has_match)
    return left.filtered(lambda row: not has_match(row))


@hash_once
@dataclass(frozen=True)
class SemiJoin(Expression):
    """Semijoin ``left ⋉_pred right``: left tuples with at least one match."""

    left: Expression
    right: Expression
    predicate: P.Predicate

    def evaluate(self, context) -> Relation:
        return _semi_anti_filter(self, context, True, "semijoin")


@hash_once
@dataclass(frozen=True)
class AntiJoin(Expression):
    """Antijoin ``left ⊳ right``: left tuples with no match in right.

    This is the operator behind Table 1's referential-integrity row: the
    tuples of R that have no partner in S are exactly the violations.
    """

    left: Expression
    right: Expression
    predicate: P.Predicate

    def evaluate(self, context) -> Relation:
        return _semi_anti_filter(self, context, False, "antijoin")


@hash_once
@dataclass(frozen=True)
class Product(Expression):
    """Cartesian product."""

    left: Expression
    right: Expression

    def evaluate(self, context) -> Relation:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        out_schema = _combined_schema(
            left.schema, right.schema, f"{left.schema.name}_x"
        )
        result = Relation(out_schema, bag=left.bag or right.bag)
        for lrow in left:
            for rrow in right:
                result.insert(lrow + rrow, _validated=True)
        return result


@hash_once
@dataclass(frozen=True)
class Rename(Expression):
    """Rename the relation (and optionally its attributes)."""

    input: Expression
    name: str
    attributes: Optional[Tuple[str, ...]] = None

    def evaluate(self, context) -> Relation:
        source = self.input.evaluate(context)
        if self.attributes is None:
            schema = source.schema.renamed(self.name)
        else:
            if len(self.attributes) != source.schema.arity:
                raise TypeMismatchError(
                    f"rename: {len(self.attributes)} attribute names for "
                    f"arity-{source.schema.arity} input"
                )
            schema = RelationSchema(
                self.name,
                [
                    Attribute(new_name, attribute.domain, attribute.nullable)
                    for new_name, attribute in zip(
                        self.attributes, source.schema.attributes
                    )
                ],
            )
        return source.with_schema(schema)


_AGG_FUNCS = ("SUM", "AVG", "MIN", "MAX")


@hash_once
@dataclass(frozen=True)
class Aggregate(Expression):
    """Scalar aggregate ``FUNC(R, attr)`` -> a single-tuple relation.

    Follows the paper's FA = {SUM, AVG, MIN, MAX} of type M x C -> C.  Over
    an empty input SUM yields 0 and AVG/MIN/MAX yield NULL (so constraints on
    them are vacuously satisfied, see the module docs of
    :mod:`repro.algebra.predicates`).
    """

    input: Expression
    func: str
    attr: TypingUnion[int, str]

    def __post_init__(self):
        if self.func not in _AGG_FUNCS:
            raise EvaluationError(f"unknown aggregate function {self.func!r}")

    def evaluate(self, context) -> Relation:
        source = self.input.evaluate(context)
        position = source.schema.position_of(self.attr) - 1
        values = [row[position] for row in source if row[position] is not NULL]
        if self.func == "SUM":
            value = sum(values) if values else 0
        elif not values:
            value = NULL
        elif self.func == "AVG":
            value = sum(values) / len(values)
        elif self.func == "MIN":
            value = min(values)
        else:
            value = max(values)
        name = f"{self.func.lower()}_{source.schema.attributes[position].name}"
        schema = RelationSchema("aggregate", [Attribute(name, ANY, nullable=True)])
        return Relation(schema, [(value,)], _validated=True)


@hash_once
@dataclass(frozen=True)
class Count(Expression):
    """``CNT(R)``: tuple count as a single-tuple relation (bag-aware)."""

    input: Expression

    def evaluate(self, context) -> Relation:
        source = self.input.evaluate(context)
        schema = RelationSchema("count", [Attribute("cnt", INT)])
        return Relation(schema, [(len(source),)], _validated=True)


@hash_once
@dataclass(frozen=True)
class Multiplicity(Expression):
    """``MLT(R)``: distinct-tuple count (the multiset extension's counter)."""

    input: Expression

    def evaluate(self, context) -> Relation:
        source = self.input.evaluate(context)
        schema = RelationSchema("multiplicity", [Attribute("mlt", INT)])
        return Relation(schema, [(source.distinct_count(),)], _validated=True)


def _collect_relations(expr: Expression, found: set) -> None:
    if isinstance(expr, RelationRef):
        found.add(expr.name)
    elif isinstance(expr, Delta):
        found.add(expr.name)
    elif isinstance(expr, Literal):
        pass
    elif isinstance(expr, (Select, Project, Rename, Aggregate, Count, Multiplicity)):
        _collect_relations(expr.input, found)
    elif isinstance(
        expr, (Union, Difference, Intersection, Join, SemiJoin, AntiJoin, Product)
    ):
        _collect_relations(expr.left, found)
        _collect_relations(expr.right, found)
    else:
        raise EvaluationError(f"unknown expression node {expr!r}")


def project_attributes(input_expr: Expression, attrs) -> Project:
    """Convenience constructor: classical projection on named attributes."""
    items = tuple(ProjectItem(P.ColRef(attr)) for attr in attrs)
    return Project(input_expr, items)
