"""Physical query operators: the executable form of algebra expressions.

:mod:`repro.algebra.planner` compiles an :class:`~repro.algebra.expressions.
Expression` tree into a DAG of the operators in this module.  Compared with
the reference tree-walk interpreter (``Expression.evaluate``), physical
operators

* split equi-join predicates into hash keys **once at plan time** instead of
  on every evaluation;
* cache compiled predicate/scalar closures and derived output schemas per
  input schema (plans are reused across transactions, and base-relation
  schemas are stable);
* exploit the persistent hash indexes of :mod:`repro.engine.indexes`:
  equality selections become bucket lookups, the build side of hash
  join/semijoin/antijoin reuses a pre-built index instead of re-hashing, and
  a semijoin/antijoin whose *probe* side is indexed is evaluated per
  **distinct key** rather than per row (the referential-integrity fast
  path);
* execute set operations directly on the underlying row-count dictionaries.

Every operator speaks one protocol, ``execute(context) -> Relation``, and
has exactly one implementation: its whole-column kernel
(:mod:`repro.algebra.columnar`) runs for every input size, and a plan runs
by its root's ``execute`` calling its children's.  Nothing here rewrites a
plan: what is worth restructuring (selections moved below a join) is
restructured on the *expression*, in :mod:`repro.algebra.planner`, before
it is lowered, and no plan's shape depends on the data.  Result equivalence
with the reference interpreter is a hard contract — the property tests in
``tests/properties/test_prop_planner.py`` compare a plan with
``Expression.evaluate`` on random expressions and database states, in set
and bag mode.  Where the reference interpreter has quirky corners (e.g. the
hash-join build side hashes *distinct* right rows), the physical operators
mirror them faithfully.

An operator only executes.  What a plan is expected to cost (rows out,
tuples scanned, built and probed) is worked out by one walk over the plan
tree in :mod:`repro.parallel.cost_model`, the §7 package that prices it;
no plan is chosen by it.
"""

from __future__ import annotations

from collections import Counter as _Counter
from itertools import chain, compress
from operator import itemgetter as _itemgetter, not_ as _not
from typing import Dict, Optional, Tuple

from repro.algebra import columnar
from repro.algebra import predicates as P
from repro.algebra.expressions import (
    Project,
    _check_compatible,
    _combined_schema,
    _fresh_schema,
    _strip_side,
)
from repro.bounded import BoundedTable
from repro.engine.overlay import _DeltaBuckets
from repro.engine.relation import Relation
from repro.engine.schema import Attribute, RelationSchema
from repro.engine.types import ANY, INT, NULL
from repro.errors import TypeMismatchError

class PhysicalOperator:
    """Base class of physical operators: ``execute(context) -> Relation``."""

    op_name = "?"

    #: On the root of a compiled plan that is *probe-only* — keyed probes of
    #: these ``(relation name, attrs)`` indexes are its only access to any
    #: named relation (``planner._collect_hints``) — the frozenset of them;
    #: None on every other operator.  While each is built the plan touches
    #: O(keys probed) of the live state and builds nothing.
    probes = None

    def execute(self, context) -> Relation:
        raise NotImplementedError

    def execute_nonempty(self, context) -> Optional[Relation]:
        """``execute(context)`` when the result has a row, else None: the
        question an ``alarm`` asks of its expression (Def 5.1).  The
        selection and the hash semi/antijoins answer it without building a
        result relation when there is none."""
        result = self.execute(context)
        return result if len(result) else None

    def children(self) -> tuple:
        return ()

    def describe(self) -> str:
        """One-line description (operator-specific details)."""
        return self.op_name

    def explain(self, indent: int = 0) -> str:
        """Render the operator subtree as an indented plan listing."""
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()!r}>"


class _KeySide:
    """Key extraction for one side of an equi-join.

    ``bind(schema)`` returns ``(key_fn, positions)`` where ``key_fn`` maps a
    row to its hash key (a bare value for single keys, a tuple otherwise —
    the same convention :class:`repro.engine.indexes.HashIndex` uses, so the
    two interoperate) and ``positions`` is the 0-based position tuple when
    every key is a plain column reference, else None.  The operator keeps
    the answer (:meth:`_HashKeyedOp._bind`).
    """

    __slots__ = ("exprs", "plain")

    def __init__(self, exprs, side: str):
        self.exprs = tuple(_strip_side(expr, side) for expr in exprs)
        self.plain = all(isinstance(expr, P.ColRef) for expr in self.exprs)

    @property
    def attrs(self) -> Optional[tuple]:
        """The attribute identifiers when all keys are plain columns."""
        if not self.plain:
            return None
        return tuple(expr.attr for expr in self.exprs)

    def bind(self, schema: RelationSchema) -> tuple:
        if self.plain:
            positions = tuple(
                schema.position_of(expr.attr) - 1 for expr in self.exprs
            )
            # itemgetter extracts at C speed with the key convention
            # above: a bare value for one position, a tuple for several.
            return _itemgetter(*positions), positions
        fns = [P.compile_scalar(expr, schema) for expr in self.exprs]
        if len(fns) == 1:
            return fns[0], None
        return (lambda row, _fs=fns: tuple(f(row) for f in _fs)), None


class _CombinedSchemaCache:
    """Join/product output schemas, cached per input schema pair."""

    __slots__ = ("suffix", "_cache")

    def __init__(self, suffix: str):
        self.suffix = suffix
        self._cache = BoundedTable(32)

    def get(self, left_schema, right_schema) -> RelationSchema:
        key = (left_schema, right_schema)
        out = self._cache.get(key)
        if out is None:
            out = _combined_schema(
                left_schema, right_schema, f"{left_schema.name}{self.suffix}"
            )
            self._cache.file(key, out)
        return out


def _present_counts(relation: Relation, rows) -> dict:
    """``{row: multiplicity}`` for distinct rows an index of ``relation``
    returned, without materializing overlay views.

    An index only returns present rows, so in set mode every count is 1
    and nothing is looked up; a bag asks the relation once for the whole
    batch (one seqlock bracket on a pinned snapshot).
    """
    if not relation.bag:
        return dict.fromkeys(rows, 1)
    return relation.multiplicities(rows)


def _hash_buckets(
    relation: Relation, bound_keys: tuple, need_rows: bool, probes: int
):
    """The build side of a hash join/semijoin: key -> distinct rows.

    Reuses a pre-built persistent index when the key columns carry one; a
    *declared* index is built on the spot (the build is exactly the hashing
    pass this function would otherwise do ephemerally, and it persists);
    otherwise one hashing pass over the distinct rows.  With
    ``need_rows=False`` a bare key set is enough (semijoin membership).
    An index use is recorded as a ``"build"`` use of ``probes`` keys: the
    bucket look-ups the probe side will make, one per distinct row or
    index key it holds — not the index's size.

    The index of a transaction overlay or a pinned snapshot hands out a
    ``_DeltaBuckets`` view that corrects each bucket as it is asked for —
    on a snapshot inside a seqlock bracket of its own.  Probe loops narrow
    such a view to their keys with one ``probe(keys)`` call first and then
    run against the plain dict it returns; plain buckets are used as is.
    """
    key_fn, positions = bound_keys  # the build side's _KeySide.bind
    if positions is not None:
        index = relation.amortized_index(positions)
        if index is not None:
            index.touch("build", probes)
            return index.buckets
    if not need_rows:
        return {key_fn(row) for row in relation.rows()}
    buckets: dict = {}
    for row in relation.rows():
        key = key_fn(row)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


class _PredicateCache:
    """Compiled forms of a predicate, cached per input schema(s).

    Unary contexts (selections) run the whole-column mask kernel of
    :meth:`bind_kernel`; :meth:`bind` is the per-pair closure of join
    residuals and of residuals over an index bucket.
    """

    __slots__ = ("predicate", "is_true", "_compiled", "_kernels")

    def __init__(self, predicate: P.Predicate):
        self.predicate = predicate
        self.is_true = isinstance(predicate, P.TruePred)
        self._compiled = BoundedTable(32)
        self._kernels = BoundedTable(32)

    def bind(self, schema, right_schema=None):
        key = (schema, right_schema)
        fn = self._compiled.get(key)
        if fn is None:
            fn = P.compile_predicate(self.predicate, schema, right_schema)
            self._compiled.file(key, fn)
        return fn

    def bind_kernel(self, schema):
        """The whole-column mask kernel (unary contexts only)."""
        kernel = self._kernels.get(schema)
        if kernel is None:
            kernel = columnar.compile_predicate_kernel(self.predicate, schema)
            self._kernels.file(schema, kernel)
        return kernel


def _mask_rows(
    source: Relation, pred: _PredicateCache, nonempty: bool = False
) -> Optional[dict]:
    """The ``{row: count}`` dict of ``σ[pred](source)``, through the
    predicate's mask kernel.  With ``nonempty``, None in place of an empty
    one: the whole mask is computed (every row's errors raise as they
    would) and tested with ``any``, and no dict is built for it."""
    src_rows = source._rows
    mask = pred.bind_kernel(source.schema)(list(src_rows))
    if nonempty and not any(mask):
        return None
    # compress keeps truthy mask entries — exactly the ``is True`` rule of
    # three-valued logic (False and None both drop).
    return dict(compress(src_rows.items(), mask))


def _mask_select(source: Relation, pred: _PredicateCache) -> Relation:
    """``σ[pred](source)`` through the predicate's mask kernel."""
    result = Relation(source.schema, bag=source.bag)
    result._rows = _mask_rows(source, pred)
    return result


def _if_any(first: Relation, rows) -> Optional[Relation]:
    """``rows`` (a ``{row: count}`` dict, or None for none) as a result
    relation shaped like ``first`` — or None, with no relation built, when
    there are none."""
    if not rows:
        return None
    result = Relation(first.schema, bag=first.bag)
    result._rows = rows
    return result


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class ScanOp(PhysicalOperator):
    """Resolve a named (base, auxiliary, or temporary) relation."""

    op_name = "scan"

    def __init__(self, name: str):
        self.name = name

    def execute(self, context) -> Relation:
        return context.resolve(self.name)

    def describe(self) -> str:
        return f"scan({self.name})"


class DeltaScanOp(PhysicalOperator):
    """Scan a transaction's net differential (``R@plus`` / ``R@minus``).

    Resolution is by auxiliary name, so the same compiled plan binds to
    whatever supplies the differentials at execution time: a running
    :class:`~repro.engine.transaction.TransactionContext`'s live deltas, a
    post-commit :class:`~repro.engine.session.DeltaView`, or an explicit
    standalone binding.  The cost model prices it from |Δ|, never from the
    base relation's |R|, which is what lets it prefer delta plans over full
    plans without executing either.
    """

    op_name = "delta_scan"

    def __init__(self, relation: str, kind: str):
        self.relation = relation
        self.kind = kind
        self.name = f"{relation}@{kind}"

    def execute(self, context) -> Relation:
        return context.resolve(self.name)

    def describe(self) -> str:
        return f"delta_scan({self.name})"


_LITERAL_SCHEMAS: Dict[int, RelationSchema] = {}


def _literal_schema(arity: int) -> RelationSchema:
    """The ANY-domain schema of an ``arity``-column literal, cached.

    Literal plans are cache-exempt (every distinct insert batch would churn
    the plan cache), so they are re-lowered per execution; sharing the
    schema keeps that re-lowering allocation-free on the transaction path.
    """
    schema = _LITERAL_SCHEMAS.get(arity)
    if schema is None:
        schema = RelationSchema(
            "literal",
            [Attribute(f"c{i}", ANY, nullable=True) for i in range(1, arity + 1)],
        )
        _LITERAL_SCHEMAS[arity] = schema
    return schema


class LiteralOp(PhysicalOperator):
    """A constant relation (mirrors ``Literal.evaluate``)."""

    op_name = "literal"

    def __init__(self, rows: Tuple[tuple, ...]):
        self.rows = rows
        self._schema = _literal_schema(len(rows[0]) if rows else 1)

    def execute(self, context) -> Relation:
        result = Relation(self._schema)
        result._rows = dict.fromkeys(self.rows, 1)
        return result

    def describe(self) -> str:
        return f"literal({len(self.rows)} rows)"


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class FilterOp(PhysicalOperator):
    """Selection by a compiled predicate."""

    op_name = "select"

    def __init__(self, child: PhysicalOperator, predicate: P.Predicate):
        self.child = child
        self._pred = _PredicateCache(predicate)

    def children(self) -> tuple:
        return (self.child,)

    def execute(self, context) -> Relation:
        source = self.child.execute(context)
        return _mask_select(source, self._pred)

    def execute_nonempty(self, context) -> Optional[Relation]:
        source = self.child.execute(context)
        rows = _mask_rows(source, self._pred, nonempty=True)
        return _if_any(source, rows)

    def describe(self) -> str:
        return f"select[{self._pred.predicate!r}]"


class IndexSelectOp(PhysicalOperator):
    """Equality selection over a base relation, index-accelerated.

    Compiled from ``σ[col = const ∧ residual](R)``.  When ``R`` resolves to
    a relation carrying a hash index on exactly the equality columns (built,
    or declared and built now), the matching rows come from one bucket
    lookup; otherwise the operator degrades to the plain filter path.  NULL
    constants never reach this operator (the planner keeps them in the
    residual: NULL compares unknown, but an index bucket would match it by
    identity), and neither does a residual that can raise (a bucket would
    test it on the bucket's rows only, the filter on every row).
    """

    op_name = "select"

    def __init__(
        self,
        name: str,
        attrs: Tuple[object, ...],
        values: tuple,
        residual: P.Predicate,
        full_predicate: P.Predicate,
    ):
        self.name = name
        self.attrs = attrs
        self.values = values
        self.key = values[0] if len(values) == 1 else values
        self._residual = _PredicateCache(residual)
        # The full predicate, for the no-index fallback.
        self._full = _PredicateCache(full_predicate)
        self._positions = BoundedTable(32)

    def _bind_positions(self, schema: RelationSchema) -> tuple:
        positions = self._positions.get(schema)
        if positions is None:
            positions = tuple(
                schema.position_of(attr) - 1 for attr in self.attrs
            )
            self._positions.file(schema, positions)
        return positions

    def execute(self, context) -> Relation:
        source = context.resolve(self.name)
        positions = self._bind_positions(source.schema)
        # A declared index is built here: the fallback is a full scan.
        index = source.amortized_index(positions)
        if index is None:
            return _mask_select(source, self._full)
        rows = index.lookup(self.key)
        if not self._residual.is_true:
            residual = self._residual.bind(source.schema)
            rows = [row for row in rows if residual(row) is True]
        result = Relation(source.schema, bag=source.bag)
        result._rows = _present_counts(source, rows)
        return result

    def describe(self) -> str:
        keys = ", ".join(
            f"{attr}={value!r}" for attr, value in zip(self.attrs, self.values)
        )
        return f"index_select({self.name}: {keys})"


class ProjectOp(PhysicalOperator):
    """Generalized projection with per-schema compiled output columns: one
    kernel over the source's rows."""

    op_name = "project"

    def __init__(self, child: PhysicalOperator, items: tuple):
        self.child = child
        self.items = items
        self._bound = BoundedTable(32)

    def children(self) -> tuple:
        return (self.child,)

    def _bind(self, schema: RelationSchema) -> tuple:
        """``(output schema, row kernel)``."""
        bound = self._bound.get(schema)
        if bound is None:
            attributes = [
                Project._output_attribute(item, schema) for item in self.items
            ]
            out_schema = _fresh_schema(f"{schema.name}_proj", attributes)
            if all(isinstance(item.expr, P.ColRef) for item in self.items):
                positions = tuple(
                    P._resolve_position(item.expr, schema, None)[1]
                    for item in self.items
                )
                if len(positions) == 1:
                    getter = _itemgetter(positions[0])
                    # zip with a single iterable wraps each value in a
                    # 1-tuple at C speed.
                    row_maker = lambda rows: list(zip(map(getter, rows)))
                else:
                    getter = _itemgetter(*positions)
                    row_maker = lambda rows: list(map(getter, rows))
            else:
                kernels = [
                    columnar.compile_scalar_kernel(item.expr, schema)
                    for item in self.items
                ]
                row_maker = lambda rows: list(
                    zip(*(kernel(rows) for kernel in kernels))
                )
            bound = (out_schema, row_maker)
            self._bound.file(schema, bound)
        return bound

    def execute(self, context) -> Relation:
        source = self.child.execute(context)
        out_schema, row_maker = self._bind(source.schema)
        result = Relation(out_schema, bag=source.bag)
        rows, counts = source.rows_and_counts()
        out_rows = row_maker(rows)
        if counts is None:
            if source.bag:
                result._rows = dict(_Counter(out_rows))
            else:
                result._rows = dict.fromkeys(out_rows, 1)
        else:
            merged: dict = {}
            get = merged.get
            for row, count in zip(out_rows, counts):
                merged[row] = get(row, 0) + count
            result._rows = merged
        return result

    def describe(self) -> str:
        return f"project[{len(self.items)} cols]"


class RenameOp(PhysicalOperator):
    """Rename the relation (and optionally its attributes)."""

    op_name = "rename"

    def __init__(
        self,
        child: PhysicalOperator,
        name: str,
        attributes: Optional[Tuple[str, ...]],
    ):
        self.child = child
        self.name = name
        self.attributes = attributes
        self._schemas = BoundedTable(32)

    def children(self) -> tuple:
        return (self.child,)

    def _bind(self, schema: RelationSchema) -> RelationSchema:
        out = self._schemas.get(schema)
        if out is None:
            if self.attributes is None:
                out = schema.renamed(self.name)
            else:
                if len(self.attributes) != schema.arity:
                    raise TypeMismatchError(
                        f"rename: {len(self.attributes)} attribute names for "
                        f"arity-{schema.arity} input"
                    )
                out = RelationSchema(
                    self.name,
                    [
                        Attribute(new_name, attribute.domain, attribute.nullable)
                        for new_name, attribute in zip(
                            self.attributes, schema.attributes
                        )
                    ],
                )
            self._schemas.file(schema, out)
        return out

    def execute(self, context) -> Relation:
        source = self.child.execute(context)
        return source.with_schema(self._bind(source.schema))

    def describe(self) -> str:
        return f"rename({self.name})"


class AggregateOp(PhysicalOperator):
    """Scalar aggregate SUM/AVG/MIN/MAX -> single-tuple relation."""

    op_name = "aggregate"

    def __init__(self, child: PhysicalOperator, func: str, attr):
        self.child = child
        self.func = func
        self.attr = attr
        self._bound = BoundedTable(32)

    def children(self) -> tuple:
        return (self.child,)

    def _bind(self, schema: RelationSchema) -> tuple:
        """``(0-based position of the attribute, output schema)``."""
        bound = self._bound.get(schema)
        if bound is None:
            position = schema.position_of(self.attr) - 1
            name = f"{self.func.lower()}_{schema.attributes[position].name}"
            bound = (
                position,
                RelationSchema("aggregate", [Attribute(name, ANY, nullable=True)]),
            )
            self._bound.file(schema, bound)
        return bound

    def execute(self, context) -> Relation:
        source = self.child.execute(context)
        position, schema = self._bind(source.schema)
        # The relation answers: from a state it maintains under its own
        # mutations (and an overlay from its base's state ⊕ Δ) when it
        # can, from its rows otherwise.
        value = source.aggregate(self.func, position)
        return Relation(schema, [(value,)], _validated=True)

    def describe(self) -> str:
        return f"aggregate({self.func}, {self.attr})"


_COUNT_SCHEMA = RelationSchema("count", [Attribute("cnt", INT)])
_MULTIPLICITY_SCHEMA = RelationSchema("multiplicity", [Attribute("mlt", INT)])


class CountOp(PhysicalOperator):
    """CNT(R): bag-aware tuple count."""

    op_name = "count"

    def __init__(self, child: PhysicalOperator):
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def execute(self, context) -> Relation:
        source = self.child.execute(context)
        return Relation(_COUNT_SCHEMA, [(len(source),)], _validated=True)


class MultiplicityOp(PhysicalOperator):
    """MLT(R): distinct-tuple count."""

    op_name = "multiplicity"

    def __init__(self, child: PhysicalOperator):
        self.child = child

    def children(self) -> tuple:
        return (self.child,)

    def execute(self, context) -> Relation:
        source = self.child.execute(context)
        return Relation(
            _MULTIPLICITY_SCHEMA, [(source.distinct_count(),)], _validated=True
        )


# ---------------------------------------------------------------------------
# Set operators (hash-based, directly on the row-count dictionaries)
# ---------------------------------------------------------------------------


class _BinaryOp(PhysicalOperator):
    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.left = left
        self.right = right

    def children(self) -> tuple:
        return (self.left, self.right)


class UnionOp(_BinaryOp):
    """Set/bag union (mirrors ``left.copy(); insert_many(iter(right))``)."""

    op_name = "union"

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        _check_compatible(left, right, "union")
        if left.schema.is_union_compatible(right.schema):
            result = Relation(left.schema, bag=left.bag)
            if result.bag:
                merged = dict(left._rows)
                for row, count in right._rows.items():
                    merged[row] = merged.get(row, 0) + (
                        count if right.bag else 1
                    )
            else:
                # Set mode: every multiplicity is 1, so the whole union is
                # one C-level pass (first occurrence wins, like setdefault).
                merged = dict.fromkeys(chain(left._rows, right._rows), 1)
            result._rows = merged
        else:
            # Differing domains: go through validating inserts exactly like
            # the reference interpreter, so type errors surface identically.
            result = left.copy()
            result.insert_many(iter(right))
        return result


class DifferenceOp(_BinaryOp):
    """Set/bag difference (mirrors ``left.copy(); delete_many(iter(right))``)."""

    op_name = "difference"

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        if not len(left):
            # Emptiness fast-path: ∅ − e = ∅ without evaluating e.  This is
            # what keeps the Δ⁻ rewrites of projection and union O(|Δ|) in
            # the common case — their subtracted post-state expression
            # (O(|result|) to produce) is only computed when the candidate
            # Δ⁻ side actually holds tuples.  Trade-off: the right side's
            # schema-compatibility check is skipped along with its
            # evaluation, so a malformed difference only raises once the
            # left side is non-empty.
            return Relation(left.schema, bag=left.bag)
        right = self.right.execute(context)
        _check_compatible(left, right, "difference")
        result = Relation(left.schema, bag=left.bag)
        if (
            not left.bag
            and not right.bag
            and len(right._rows) > len(left._rows)
        ):
            # Subtracting a big set from a small one: scan the small side
            # with membership tests instead of popping per right row.
            right_rows = right._rows
            result._rows = {
                row: count
                for row, count in left._rows.items()
                if row not in right_rows
            }
            return result
        remaining = dict(left._rows)
        if result.bag:
            for row, count in right._rows.items():
                mine = remaining.get(row)
                if mine is None:
                    continue
                removed = count if right.bag else 1
                if mine > removed:
                    remaining[row] = mine - removed
                else:
                    del remaining[row]
        else:
            for row in right._rows:
                remaining.pop(row, None)
        result._rows = remaining
        return result


class IntersectOp(_BinaryOp):
    """Set/bag intersection (keeps left multiplicities, like the reference)."""

    op_name = "intersection"

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        _check_compatible(left, right, "intersection")
        result = Relation(left.schema, bag=left.bag)
        right_rows = right._rows
        result._rows = {
            row: count
            for row, count in left._rows.items()
            if row in right_rows
        }
        return result


class ProductOp(_BinaryOp):
    """Cartesian product."""

    op_name = "product"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        super().__init__(left, right)
        self._schemas = _CombinedSchemaCache("_x")

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        result = Relation(
            self._schemas.get(left.schema, right.schema),
            bag=left.bag or right.bag,
        )
        insert = result.insert
        for lrow in left:
            for rrow in right:
                insert(lrow + rrow, _validated=True)
        return result


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class _HashKeyedOp(_BinaryOp):
    """What hash join and hash semi/antijoin share: equality keys per side,
    a residual, and — once per pair of input schemas, not per execution —
    everything about running them that the schemas alone decide."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys,
        right_keys,
        residual: P.Predicate = P.TRUE,
    ):
        super().__init__(left, right)
        self.left_keys = _KeySide(left_keys, "left")
        self.right_keys = _KeySide(right_keys, "right")
        self._residual = _PredicateCache(residual)
        self._bound = BoundedTable(32)

    def _bind(self, left_schema: RelationSchema, right_schema: RelationSchema):
        """``(left key fn, left key positions, right side as _hash_buckets
        takes it, residual closure or None when there is none)``."""
        key = (left_schema, right_schema)
        bound = self._bound.get(key)
        if bound is None:
            residual = None
            if not self._residual.is_true:
                residual = self._residual.bind(left_schema, right_schema)
            bound = (
                *self.left_keys.bind(left_schema),
                self.right_keys.bind(right_schema),
                residual,
            )
            self._bound.file(key, bound)
        return bound


class HashJoinOp(_HashKeyedOp):
    """Equi-join executed as build(right) + probe(left).

    The build side hashes *distinct* right rows (the reference
    interpreter's convention); a pre-built persistent index on the right
    relation is reused when its key columns match.
    """

    op_name = "join"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys,
        right_keys,
        residual: P.Predicate,
    ):
        super().__init__(left, right, left_keys, right_keys, residual)
        self._schemas = _CombinedSchemaCache("_join")

    def _probe_pairs(self, left: Relation, right: Relation):
        """Whole-column probe kernel: ``(pairs, pair_counts_or_None)``.

        The key column is extracted in one map pass and the output pairs
        materialize in one comprehension instead of a bound-method insert
        per pair.  Pairs are unique (distinct left rows x distinct bucket
        rows, and the left prefix keeps them apart), so multiplicity-1
        inputs need no counts at all; a bag-mode left input gets the
        counts-aware variant, where every pair inherits its left row's
        multiplicity (build sides hash *distinct* right rows, so right
        multiplicities never contribute — the reference interpreter's
        convention).
        """
        left_key, positions, right_bound, residual = self._bind(
            left.schema, right.schema
        )
        lrows, lcounts = left.rows_and_counts()
        buckets = _hash_buckets(
            right, right_bound, need_rows=True, probes=len(lrows)
        )
        if isinstance(buckets, _DeltaBuckets):
            buckets = buckets.probe(set(map(left_key, lrows)))
        get_bucket = buckets.get
        if lcounts is not None:
            pairs: list = []
            pair_counts: list = []
            extend_pairs = pairs.extend
            extend_counts = pair_counts.extend
            if residual is None:
                for lrow, key, count in zip(
                    lrows, map(left_key, lrows), lcounts
                ):
                    bucket = get_bucket(key)
                    if bucket:
                        extend_pairs(lrow + rrow for rrow in bucket)
                        extend_counts([count] * len(bucket))
            else:
                for lrow, key, count in zip(
                    lrows, map(left_key, lrows), lcounts
                ):
                    matched = [
                        lrow + rrow
                        for rrow in get_bucket(key) or ()
                        if residual(lrow, rrow) is True
                    ]
                    if matched:
                        extend_pairs(matched)
                        extend_counts([count] * len(matched))
            return pairs, pair_counts
        if residual is None:
            if positions is not None and len(positions) == 1:
                p = positions[0]
                pairs = [
                    lrow + rrow
                    for lrow in lrows
                    for rrow in get_bucket(lrow[p]) or ()
                ]
            else:
                pairs = [
                    lrow + rrow
                    for lrow, key in zip(lrows, map(left_key, lrows))
                    for rrow in get_bucket(key) or ()
                ]
        else:
            pairs = [
                lrow + rrow
                for lrow, key in zip(lrows, map(left_key, lrows))
                for rrow in get_bucket(key) or ()
                if residual(lrow, rrow) is True
            ]
        return pairs, None

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        result = Relation(
            self._schemas.get(left.schema, right.schema),
            bag=left.bag or right.bag,
        )
        pairs, pair_counts = self._probe_pairs(left, right)
        if pair_counts is None:
            result._rows = dict.fromkeys(pairs, 1)
        else:
            result._rows = dict(zip(pairs, pair_counts))
        return result

    def describe(self) -> str:
        return f"hash_join[{self.left_keys.attrs or self.left_keys.exprs}]"


class NestedLoopJoinOp(_BinaryOp):
    """Theta-join fallback for predicates without hashable equalities."""

    op_name = "join"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: P.Predicate,
    ):
        super().__init__(left, right)
        self._pred = _PredicateCache(predicate)
        self._schemas = _CombinedSchemaCache("_join")

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        result = Relation(
            self._schemas.get(left.schema, right.schema),
            bag=left.bag or right.bag,
        )
        test = self._pred.bind(left.schema, right.schema)
        insert = result.insert
        for lrow in left:
            for rrow in right:
                if test(lrow, rrow) is True:
                    insert(lrow + rrow, _validated=True)
        return result

    def describe(self) -> str:
        return f"nl_join[{self._pred.predicate!r}]"


def _key_has_null(key) -> bool:
    if key is NULL:
        return True
    if type(key) is tuple:
        return any(value is NULL for value in key)
    return False


class HashSemiJoinOp(_HashKeyedOp):
    """Semijoin/antijoin on equality keys, hash- and index-accelerated.

    Execution regimes, fastest applicable wins:

    1. no residual, both sides indexed on the key columns — probe per
       *distinct key* of the left index and emit whole buckets;
    2. no residual — probe per distinct left row against the right key set
       (pre-built index or one ephemeral hash pass);
    3. residual predicate — hash-partition by the equality keys and test
       the residual only within the matching bucket (the reference
       interpreter degrades to a full nested loop here).  Probe keys
       containing NULL never match, mirroring the predicate path where
       ``NULL = NULL`` is *unknown* — while regime 2 mirrors the reference
       interpreter's hash path, which matches NULL keys by identity.
    """

    op_name = "semijoin"
    keep_matching = True

    def _probe_dict(
        self, left: Relation, right: Relation, nonempty: bool = False
    ) -> Optional[dict]:
        """The selected ``{row: count}`` dict: regime selection and every
        index interaction (builds, build touches, probe touches) happens
        here.  With ``nonempty``, None in place of an empty one: each
        regime's whole keep-mask is computed (every residual error raises
        as it would) and tested with ``any``, and no dict is built for
        it."""
        keep = self.keep_matching
        left_key, positions, right_bound, residual = self._bind(
            left.schema, right.schema
        )
        src_rows = left._rows
        if residual is not None:
            buckets = _hash_buckets(
                right, right_bound, need_rows=True, probes=len(src_rows)
            )
            if isinstance(buckets, _DeltaBuckets):
                buckets = buckets.probe(set(map(left_key, src_rows)))
            get_bucket = buckets.get
            mask = [
                (
                    not _key_has_null(key)
                    and any(
                        residual(lrow, rrow) is True
                        for rrow in get_bucket(key) or ()
                    )
                )
                is keep
                for lrow, key in zip(src_rows, map(left_key, src_rows))
            ]
        else:
            # A declared left index is built here: without it the probe is
            # one key computation + membership test per distinct left row.
            left_index = (
                None if positions is None else left.amortized_index(positions)
            )
            if left_index is None:
                right_keys = _hash_buckets(
                    right, right_bound, need_rows=False, probes=len(src_rows)
                )
            else:
                # Distinct-key probing: one membership test per key, whole
                # buckets emitted.  This is what makes repeated referential
                # checks over a large indexed relation near-instant.
                left_buckets = left_index.buckets
                probes = len(left_buckets)
                left_index.touch("probe", probes)
                right_keys = _hash_buckets(
                    right, right_bound, need_rows=False, probes=probes
                )
                if isinstance(right_keys, _DeltaBuckets):
                    right_keys = right_keys.probe(set(left_buckets))
                rows = [
                    row
                    for key, bucket in left_buckets.items()
                    if (key in right_keys) == keep
                    for row in bucket
                ]
                if nonempty and not rows:
                    return None
                return _present_counts(left, rows)
            if isinstance(right_keys, _DeltaBuckets):
                right_keys = right_keys.probe(set(map(left_key, src_rows)))
            # Key extraction, membership, and the dict fill all run as
            # chained C iterators (map/compress); NULL keys match by
            # identity, like the reference interpreter's hash membership.
            mask = map(right_keys.__contains__, map(left_key, src_rows))
            if not keep:
                mask = map(_not, mask)
            if nonempty:
                mask = list(mask)
        if nonempty and not any(mask):
            return None
        return dict(compress(src_rows.items(), mask))

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        result = Relation(left.schema, bag=left.bag)
        result._rows = self._probe_dict(left, right)
        return result

    def execute_nonempty(self, context) -> Optional[Relation]:
        # The regime selection and every index interaction are _probe_dict's,
        # as for execute: an empty selection is only tested, never built.
        left = self.left.execute(context)
        right = self.right.execute(context)
        rows = self._probe_dict(left, right, nonempty=True)
        return _if_any(left, rows)

    def describe(self) -> str:
        keys = self.left_keys.attrs or self.left_keys.exprs
        suffix = "" if self._residual.is_true else "+residual"
        return f"hash_{self.op_name}[{keys}]{suffix}"


class HashAntiJoinOp(HashSemiJoinOp):
    """Antijoin: left rows with no key match in right (Table 1 row 2)."""

    op_name = "antijoin"
    keep_matching = False


class NestedLoopSemiOp(_BinaryOp):
    """Semijoin/antijoin fallback for general predicates."""

    op_name = "semijoin"
    keep_matching = True

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: P.Predicate,
    ):
        super().__init__(left, right)
        self._pred = _PredicateCache(predicate)

    def execute(self, context) -> Relation:
        left = self.left.execute(context)
        right = self.right.execute(context)
        test = self._pred.bind(left.schema, right.schema)
        right_rows = list(right.rows())

        def has_match(row: tuple) -> bool:
            return any(test(row, other) is True for other in right_rows)

        if self.keep_matching:
            return left.filtered(has_match)
        return left.filtered(lambda row: not has_match(row))

    def describe(self) -> str:
        return f"nl_{self.op_name}[{self._pred.predicate!r}]"


class NestedLoopAntiOp(NestedLoopSemiOp):
    op_name = "antijoin"
    keep_matching = False
