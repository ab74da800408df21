"""Columnar batches: whole-column kernels and a compact wire format.

PRs 1-6 removed the asymptotic waste from enforcement (cached plans,
O(|Δ|) delta audits, multi-core executors); what remains is the constant
factor the ROADMAP names explicitly — the per-tuple Python loops in
:mod:`repro.algebra.physical`.  This module attacks that constant from
two sides:

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

* **A columnar wire format.**  :class:`ColumnBatch` stores a relation as
  one Python object per attribute plus a multiplicity vector and a null
  mask.  When pickled, integer and float columns pack into stdlib
  :mod:`array` objects with the smallest fitting typecode, which beats
  per-row tuple pickling by well over the 1.5x the benchmark gates (each
  pickled row costs tuple framing plus memoization; a packed ``array``
  costs its raw bytes).  :func:`encode_relation` /
  :func:`decode_relation` switch to the columnar form above a row
  threshold, and the process executors (:mod:`repro.core.procpool`,
  :mod:`repro.parallel.procpool`) route every replica, Δ blob, and
  fragment shipment through them.

There is no path selection: every operator runs its kernel whatever the
input size, and operators hand each other plain relations — a
:class:`ColumnBatch` is what crosses a process boundary, not what crosses
an operator boundary.  The parity suites pin plan ≡ ``Expression.evaluate``.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

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
# ColumnBatch: the decomposed-storage form of a Relation
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
    """A relation decomposed into per-attribute columns.

    The batch holds the data in whichever form it was built from — a row
    list (decomposing a relation) or a column tuple (the wire format
    unpickles columns) — and converts lazily on first access of the other
    view, so a batch that is only ever read back as rows never pays for
    column extraction and a batch that only ships over a pipe never pays
    for row reassembly.

    ``columns[j][i]`` is attribute ``j`` of row ``i``; ``counts`` is the
    parallel multiplicity vector, or ``None`` when every multiplicity is
    1.  Rows are distinct, with merged counts (the shape a Relation stores).
    ``index_specs`` carries the relation's *declared* index positions so
    a decoded relation rebuilds its indexes lazily, exactly like a
    freshly copied one.
    """

    __slots__ = (
        "schema",
        "bag",
        "_columns",
        "_rows",
        "counts",
        "index_specs",
        "row_count",
    )

    def __init__(
        self,
        schema: RelationSchema,
        bag: bool,
        columns: Sequence[list],
        counts: Optional[list],
        index_specs: Tuple[tuple, ...] = (),
        row_count: Optional[int] = None,
    ):
        self.schema = schema
        self.bag = bag
        self._columns = tuple(columns)
        self._rows = None
        self.counts = counts
        self.index_specs = tuple(index_specs)
        if row_count is None:
            row_count = len(self._columns[0]) if self._columns else 0
        self.row_count = row_count

    # -- conversion --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        bag: bool,
        rows: list,
        counts: Optional[list] = None,
        index_specs: Tuple[tuple, ...] = (),
    ) -> "ColumnBatch":
        """Wrap an existing row list without extracting columns."""
        batch = cls.__new__(cls)
        batch.schema = schema
        batch.bag = bag
        batch._columns = None
        batch._rows = rows
        batch.counts = counts
        batch.index_specs = tuple(index_specs)
        batch.row_count = len(rows)
        return batch

    @classmethod
    def from_relation(cls, relation) -> "ColumnBatch":
        """Decompose a Relation or OverlayRelation (via its merged rows)."""
        rows, counts = relation.rows_and_counts()
        indexes = getattr(relation, "_indexes", None)
        specs = tuple(indexes.specs()) if indexes is not None else ()
        return cls.from_rows(
            relation.schema,
            relation.bag,
            list(rows),
            list(counts) if counts is not None else None,
            specs,
        )

    @property
    def columns(self) -> tuple:
        """Per-attribute column lists (built lazily from rows)."""
        if self._columns is None:
            rows = self._rows
            if rows:
                self._columns = tuple(list(column) for column in zip(*rows))
            else:
                self._columns = tuple([] for _ in self.schema.attributes)
        return self._columns

    def rows_list(self) -> list:
        """The batch's rows as tuples (built lazily from columns)."""
        if self._rows is None:
            self._rows = list(zip(*self._columns))
        return self._rows

    def to_relation(self):
        """Reassemble a plain :class:`~repro.engine.relation.Relation`."""
        from repro.engine.relation import Relation

        relation = Relation(self.schema, bag=self.bag)
        if self.row_count:
            relation._rows = self._merged_rows()
        for positions in self.index_specs:
            relation.declare_index(positions)
        return relation

    def _merged_rows(self) -> dict:
        """The batch contents as a ``{row: count}`` dict."""
        rows = self.rows_list()
        counts = self.counts
        if not self.bag or counts is None:
            return dict.fromkeys(rows, 1)
        return dict(zip(rows, counts))

    def column(self, position: int) -> list:
        """The column at 0-based ``position``."""
        return self.columns[position]

    def __len__(self) -> int:
        if self.counts is not None:
            return sum(self.counts)
        return self.row_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnBatch):
            return NotImplemented
        return self.to_relation() == other.to_relation()

    def __repr__(self) -> str:
        kind = "bag" if self.bag else "set"
        return (
            f"ColumnBatch({self.schema.name}, {kind}, "
            f"{len(self.schema.attributes)} cols x {self.row_count} rows)"
        )

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        counts = self.counts
        packed_counts = None
        if counts is not None:
            packed_counts = _pack_column(counts)
        return (
            self.schema,
            self.bag,
            tuple(_pack_column(column) for column in self.columns),
            packed_counts,
            self.index_specs,
            self.row_count,
        )

    def __setstate__(self, state):
        schema, bag, packed, packed_counts, specs, row_count = state
        self.schema = schema
        self.bag = bag
        self._columns = tuple(_unpack_column(column) for column in packed)
        self._rows = None
        self.counts = (
            _unpack_column(packed_counts) if packed_counts is not None else None
        )
        self.index_specs = specs
        self.row_count = row_count


# ---------------------------------------------------------------------------
# Wire format helpers
# ---------------------------------------------------------------------------


def encode_relation(relation, min_rows: int = WIRE_MIN_ROWS):
    """Columnar form when large enough to pay off, else the relation.

    Goes through :meth:`Relation.column_batch` when available so a
    read-mostly relation that already caches its columnar form (or is
    columnar-backed outright) ships without re-decomposing.
    """
    if relation is None:
        return None
    if relation.distinct_count() >= min_rows:
        column_batch = getattr(relation, "column_batch", None)
        if column_batch is not None:
            return column_batch()
        return ColumnBatch.from_relation(relation)
    return relation


def decode_relation(obj, lazy: bool = False):
    """Inverse of :func:`encode_relation`.

    With ``lazy=True`` a columnar payload decodes into a
    :class:`~repro.engine.relation.ColumnarRelation` — scans read its
    columns directly and the row dict only materializes if something
    mutates or row-iterates it.
    """
    if isinstance(obj, ColumnBatch):
        if lazy:
            from repro.engine.relation import ColumnarRelation

            return ColumnarRelation(obj)
        return obj.to_relation()
    return obj


def encode_differentials(differentials, min_rows: int = WIRE_MIN_ROWS):
    """Encode a ``{name: (plus, minus)}`` delta map column-wise."""
    return {
        name: (
            encode_relation(plus, min_rows),
            encode_relation(minus, min_rows),
        )
        for name, (plus, minus) in differentials.items()
    }


def decode_differentials(encoded, lazy: bool = False):
    """Inverse of :func:`encode_differentials`."""
    return {
        name: (decode_relation(plus, lazy), decode_relation(minus, lazy))
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
