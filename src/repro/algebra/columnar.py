"""Whole-column kernels and the compact wire format for relations.

* **Whole-column kernels.**  :func:`compile_predicate_kernel` and
  :func:`compile_scalar_kernel` compile the same predicate/scalar ASTs as
  :mod:`repro.algebra.predicates`, but into functions over a *list of
  rows* at once: ``map(itemgetter(p), rows)`` extracts a column at C
  speed, comparisons become one list comprehension instead of a closure
  call per row, and non-nullable attributes skip the three-valued-logic
  branches entirely.  The kernels are semantically exact twins of the
  row closures — selections keep rows whose mask entry ``is True``,
  ``And``/``Or`` evaluate their second operand only on the row subset
  the row path would have evaluated it on (so data-dependent errors such
  as division by zero surface from the same rows), and NULL propagates
  identically.  They are the physical operators' only selection and
  projection path, for every input size; the row closures remain for
  join residuals and as the reference interpreter's evaluator.

* **A columnar wire format.**  A :class:`ColumnBatch` is how a relation
  of at least :data:`WIRE_MIN_ROWS` distinct rows is pickled: one column
  per attribute plus a multiplicity vector, integer and float columns
  packed into stdlib :mod:`array` objects with the smallest fitting
  typecode.  That beats per-row tuple pickling by well over the 1.5x the
  benchmark gates (each pickled row costs tuple framing plus
  memoization; a packed ``array`` costs its raw bytes).  Unpickling
  gives back a plain :class:`~repro.engine.relation.Relation`: the batch
  exists only on the wire.  :func:`encode_differentials` /
  :func:`decode_differentials` carry every Δ that leaves the process —
  the process audit executor's task blobs and replica stream
  (:mod:`repro.core.procpool`), the WAL's records
  (:mod:`repro.engine.wal`) — and :func:`encode_relation` /
  :func:`decode_relation` the fragment pool's installs and bindings
  (:mod:`repro.parallel.procpool`).  A new audit worker's initial replica
  is a pickled :class:`~repro.engine.database.Database`, so its rows
  ship as row dicts, not through this codec.

Operators hand each other plain relations; a :class:`ColumnBatch` is
what crosses a process boundary, not what crosses an operator boundary.
The parity suites pin plan ≡ ``Expression.evaluate``.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, List

from repro.engine.relation import Relation
from repro.engine.schema import RelationSchema
from repro.engine.types import NULL
from repro.errors import EvaluationError, TypeMismatchError

from repro.algebra.predicates import (
    And,
    Arith,
    ColRef,
    Comparison,
    Const,
    FalsePred,
    IsNull,
    Not,
    Or,
    TruePred,
    _ARITH_OPS,
    _COMPARE_OPS,
    _resolve_position,
)

__all__ = [
    "ColumnBatch",
    "compile_predicate_kernel",
    "compile_scalar_kernel",
    "encode_relation",
    "decode_relation",
    "encode_differentials",
    "decode_differentials",
    "WIRE_MIN_ROWS",
]

#: Wire-format switch: relations with at least this many distinct rows
#: ship as a :class:`ColumnBatch`; smaller ones pickle directly (the
#: packing overhead would dominate).
WIRE_MIN_ROWS = 512

# ---------------------------------------------------------------------------
# ColumnBatch: the wire form of a Relation
# ---------------------------------------------------------------------------

#: Array typecodes by range, smallest first; unsigned variants interleave
#: so non-negative id columns (the common key shape) take the narrow code.
_INT_CODES = (
    ("b", -(1 << 7), (1 << 7) - 1),
    ("B", 0, (1 << 8) - 1),
    ("h", -(1 << 15), (1 << 15) - 1),
    ("H", 0, (1 << 16) - 1),
    ("i", -(1 << 31), (1 << 31) - 1),
    ("I", 0, (1 << 32) - 1),
    ("q", -(1 << 63), (1 << 63) - 1),
)


def _pack_column(column: list) -> tuple:
    """Pack one column for pickling.

    Returns ``("arr", array, null_positions)`` when every non-null value
    is a plain int or float (bool is excluded: it is dict-key-equal to
    0/1 but must round-trip as bool), else ``("raw", column)``.
    """
    nulls: List[int] = []
    values = column
    if NULL in column:
        nulls = [i for i, v in enumerate(column) if v is NULL]
        values = [0 if v is NULL else v for v in column]
    # Only uniformly-typed numeric columns pack; a mixed int/float column
    # ships raw, because routing ints through a double array would return
    # floats (1 == 1.0 as a dict key, but int/int division semantics and
    # domain fidelity would silently change).
    kind = None
    for v in values:
        t = type(v)
        if t is int:
            if kind is None:
                kind = "int"
            elif kind != "int":
                return ("raw", column)
        elif t is float:
            if kind is None:
                kind = "float"
            elif kind != "float":
                return ("raw", column)
        else:
            return ("raw", column)
    if kind == "int":
        lo = min(values) if values else 0
        hi = max(values) if values else 0
        for code, low, high in _INT_CODES:
            if low <= lo and hi <= high:
                return ("arr", array(code, values), tuple(nulls))
        return ("raw", column)  # bignum outside int64
    if kind == "float":
        return ("arr", array("d", values), tuple(nulls))
    # Empty or non-numeric: ship the list as-is (strings/bools pickle fine).
    return ("raw", column)


def _unpack_column(packed: tuple) -> list:
    if packed[0] == "raw":
        return packed[1]
    _, arr, nulls = packed
    column = arr.tolist()
    for i in nulls:
        column[i] = NULL
    return column


class ColumnBatch:
    """The wire form of a relation: per-attribute columns, packed.

    Built around a relation; when pickled it decomposes the relation's
    rows into one column per attribute plus a multiplicity vector
    (``None`` when every multiplicity is 1) and packs each column (see
    :func:`_pack_column`).  When unpickled it reassembles a plain
    :class:`~repro.engine.relation.Relation` — same rows, multiplicities,
    mode and *declared* index specs (built indexes rebuild on demand, as
    on any copy) — which :meth:`to_relation` returns.

    The pickled state is ``(schema, bag, packed_columns, packed_counts,
    index_specs, distinct_rows)``: WAL records carry it, so it must not
    change.
    """

    __slots__ = ("_relation",)

    def __init__(self, relation):
        self._relation = relation

    def to_relation(self):
        """The relation this batch was built around or unpickled into."""
        return self._relation

    def __getstate__(self):
        relation = self._relation
        rows, counts = relation.rows_and_counts()
        if rows:
            columns = [list(column) for column in zip(*rows)]
        else:
            columns = [[] for _ in relation.schema.attributes]
        indexes = relation._indexes  # its own declarations, not an overlay's base's
        return (
            relation.schema,
            relation.bag,
            tuple(_pack_column(column) for column in columns),
            _pack_column(counts) if counts is not None else None,
            tuple(indexes.specs()) if indexes is not None else (),
            len(rows),
        )

    def __setstate__(self, state):
        schema, bag, packed, packed_counts, specs, row_count = state
        relation = Relation(schema, bag=bag)
        if row_count:
            rows = zip(*map(_unpack_column, packed))
            if bag and packed_counts is not None:
                relation._rows = dict(zip(rows, _unpack_column(packed_counts)))
            else:
                relation._rows = dict.fromkeys(rows, 1)
        for positions in specs:
            relation.declare_index(positions)
        self._relation = relation


# ---------------------------------------------------------------------------
# Wire format helpers
# ---------------------------------------------------------------------------


def encode_relation(relation):
    """A :class:`ColumnBatch` around ``relation`` when it has at least
    :data:`WIRE_MIN_ROWS` distinct rows, else the relation itself."""
    if relation is not None and relation.distinct_count() >= WIRE_MIN_ROWS:
        return ColumnBatch(relation)
    return relation


def decode_relation(obj):
    """Inverse of :func:`encode_relation`: the plain relation a batch
    unpickled into, anything else as it is."""
    if isinstance(obj, ColumnBatch):
        return obj.to_relation()
    return obj


def encode_differentials(differentials):
    """Encode a ``{name: (plus, minus)}`` delta map column-wise."""
    return {
        name: (encode_relation(plus), encode_relation(minus))
        for name, (plus, minus) in differentials.items()
    }


def decode_differentials(encoded):
    """Inverse of :func:`encode_differentials`."""
    return {
        name: (decode_relation(plus), decode_relation(minus))
        for name, (plus, minus) in encoded.items()
    }


# ---------------------------------------------------------------------------
# Whole-column kernels
# ---------------------------------------------------------------------------
#
# A scalar kernel has signature f(rows) -> list of values (with the NULL
# marker for nulls); a predicate kernel returns a mask of True/False/None
# mirroring the row closures' three-valued logic.  Compilation returns
# (kernel, maybe_null) so composites can skip NULL branches when every
# referenced attribute is non-nullable.


def _scalar_kernel(expr, schema) -> tuple:
    if isinstance(expr, Const):
        value = expr.value
        return (lambda rows: [value] * len(rows)), value is NULL
    if isinstance(expr, ColRef):
        which, position = _resolve_position(expr, schema, None)
        if which != 0:  # pragma: no cover - _resolve_position raises first
            raise EvaluationError(
                f"column reference {expr!r} used in a unary context"
            )
        getter = itemgetter(position)
        nullable = schema.attributes[position].nullable
        return (lambda rows: list(map(getter, rows))), nullable
    if isinstance(expr, Arith):
        left_fn, left_null = _scalar_kernel(expr.left, schema)
        right_fn, right_null = _scalar_kernel(expr.right, schema)
        maybe_null = left_null or right_null
        if expr.op == "/":

            def divide_kernel(rows):
                out = []
                append = out.append
                for a, b in zip(left_fn(rows), right_fn(rows)):
                    if a is NULL or b is NULL:
                        append(NULL)
                        continue
                    if b == 0:
                        raise EvaluationError("division by zero")
                    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                        append(a // b)
                    else:
                        append(a / b)
                return out

            return divide_kernel, maybe_null
        op = _ARITH_OPS[expr.op]
        if maybe_null:

            def arith_null_kernel(rows, op=op):
                return [
                    NULL if a is NULL or b is NULL else op(a, b)
                    for a, b in zip(left_fn(rows), right_fn(rows))
                ]

            return arith_null_kernel, True

        def arith_kernel(rows, op=op):
            return [op(a, b) for a, b in zip(left_fn(rows), right_fn(rows))]

        return arith_kernel, False
    raise EvaluationError(f"cannot compile scalar expression {expr!r}")


def _predicate_kernel(predicate, schema) -> Callable:
    if isinstance(predicate, TruePred):
        return lambda rows: [True] * len(rows)
    if isinstance(predicate, FalsePred):
        return lambda rows: [False] * len(rows)
    if isinstance(predicate, Comparison):
        op = _COMPARE_OPS[predicate.op]
        left, right = predicate.left, predicate.right
        # Fast path: plain column <op> constant — one comprehension over
        # the extracted column, no zip, no per-element NULL test when the
        # attribute is non-nullable.
        if isinstance(left, ColRef) and isinstance(right, Const):
            which, position = _resolve_position(left, schema, None)
            getter = itemgetter(position)
            value = right.value
            if value is NULL:
                return lambda rows: [None] * len(rows)
            if not schema.attributes[position].nullable:
                return lambda rows: [op(v, value) for v in map(getter, rows)]
            return lambda rows: [
                None if v is NULL else op(v, value) for v in map(getter, rows)
            ]
        left_fn, left_null = _scalar_kernel(left, schema)
        right_fn, right_null = _scalar_kernel(right, schema)
        if left_null or right_null:

            def compare_null_kernel(rows, op=op):
                return [
                    None if a is NULL or b is NULL else op(a, b)
                    for a, b in zip(left_fn(rows), right_fn(rows))
                ]

            return compare_null_kernel

        def compare_kernel(rows, op=op):
            return [op(a, b) for a, b in zip(left_fn(rows), right_fn(rows))]

        return compare_kernel
    if isinstance(predicate, IsNull):
        operand_fn, maybe_null = _scalar_kernel(predicate.operand, schema)
        if not maybe_null:
            return lambda rows: [False] * len(rows)
        return lambda rows: [v is NULL for v in operand_fn(rows)]
    if isinstance(predicate, Not):
        operand_fn = _predicate_kernel(predicate.operand, schema)
        return lambda rows: [
            None if v is None else not v for v in operand_fn(rows)
        ]
    if isinstance(predicate, (And, Or)):
        left_fn = _predicate_kernel(predicate.left, schema)
        right_fn = _predicate_kernel(predicate.right, schema)
        # The row closures short-circuit: And skips its right operand when
        # the left is False, Or when it is True.  Evaluate the right kernel
        # only on the surviving row subset so data-dependent errors
        # (division by zero) arise from exactly the rows the row path
        # would have touched.
        stop = False if isinstance(predicate, And) else True

        def connective_kernel(rows, stop=stop):
            a_mask = left_fn(rows)
            survivors = [row for row, a in zip(rows, a_mask) if a is not stop]
            if len(survivors) == len(rows):
                b_mask = right_fn(rows)
                b_iter = iter(b_mask)
            else:
                b_iter = iter(right_fn(survivors))
            if stop is False:  # And
                out = []
                append = out.append
                for a in a_mask:
                    if a is False:
                        append(False)
                        continue
                    b = next(b_iter)
                    if b is False:
                        append(False)
                    elif a is None or b is None:
                        append(None)
                    else:
                        append(True)
                return out
            out = []
            append = out.append
            for a in a_mask:
                if a is True:
                    append(True)
                    continue
                b = next(b_iter)
                if b is True:
                    append(True)
                elif a is None or b is None:
                    append(None)
                else:
                    append(False)
            return out

        return connective_kernel
    raise EvaluationError(f"cannot compile predicate {predicate!r}")


def _typed(kernel: Callable) -> Callable:
    """``kernel``, with Python's ``TypeError`` — arithmetic on, or an
    ordering of, a string and a number — raised as the engine's own
    :class:`~repro.errors.TypeMismatchError`, with the same text the row
    closures of :mod:`repro.algebra.predicates` raise it with."""

    def typed_kernel(rows):
        try:
            return kernel(rows)
        except TypeError as error:
            raise TypeMismatchError(str(error)) from None

    return typed_kernel


def compile_scalar_kernel(expr, schema: RelationSchema) -> Callable:
    """Compile a unary scalar expression to ``f(rows) -> list``."""
    kernel, _ = _scalar_kernel(expr, schema)
    return _typed(kernel)


def compile_predicate_kernel(predicate, schema: RelationSchema) -> Callable:
    """Compile a unary predicate to ``f(rows) -> [True|False|None]``."""
    return _typed(_predicate_kernel(predicate, schema))
