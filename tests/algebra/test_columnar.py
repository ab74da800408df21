"""ColumnBatch conversion/packing, kernel semantics, batch guard, bounded tables."""

import pickle

import pytest

from repro.algebra import columnar
from repro.algebra import predicates as P
from repro.algebra.columnar import ColumnBatch
from repro.bounded import BoundedTable
from repro.engine import Relation, RelationSchema
from repro.engine.schema import Attribute
from repro.engine.types import ANY, INT, NULL
from repro.errors import EvaluationError


def schema(nullable: bool = False) -> RelationSchema:
    return RelationSchema(
        "t",
        [
            Attribute("a", INT, nullable=nullable),
            Attribute("b", INT, nullable=nullable),
        ],
    )


def relation(rows, bag: bool = False, nullable: bool = False) -> Relation:
    built = Relation(schema(nullable), bag=bag)
    for row in rows:
        built.insert(row)
    return built


class TestConversion:
    def test_set_round_trip(self):
        source = relation([(1, 2), (3, 4), (5, 6)])
        batch = ColumnBatch.from_relation(source)
        assert batch.row_count == 3
        assert batch.counts is None
        assert batch.column(0) == [1, 3, 5]
        assert batch.to_relation() == source

    def test_bag_round_trip_keeps_multiplicities(self):
        source = relation([(1, 2), (1, 2), (3, 4)], bag=True)
        batch = ColumnBatch.from_relation(source)
        assert batch.counts == [2, 1]
        assert len(batch) == 3
        revived = batch.to_relation()
        assert revived == source
        assert revived.multiplicity((1, 2)) == 2

    def test_bag_with_unit_counts_drops_vector(self):
        source = relation([(1, 2), (3, 4)], bag=True)
        assert ColumnBatch.from_relation(source).counts is None

    def test_empty_relation(self):
        source = relation([])
        batch = ColumnBatch.from_relation(source)
        assert batch.row_count == 0
        assert len(batch.columns) == 2
        assert batch.to_relation() == source

    def test_declared_indexes_survive(self):
        source = relation([(1, 2), (3, 4)])
        source.declare_index((0,))
        source.declare_index((1,))
        revived = ColumnBatch.from_relation(source).to_relation()
        assert set(revived.indexes.specs()) == {(0,), (1,)}

    def test_relation_column_batch_helper(self):
        source = relation([(7, 8)])
        assert source.column_batch().to_relation() == source


class TestPacking:
    def pack(self, column):
        return columnar._pack_column(column)

    def test_int_columns_use_smallest_typecode(self):
        assert self.pack([1, -2, 127])[1].typecode == "b"
        assert self.pack([1, 1000])[1].typecode == "h"
        assert self.pack([1, 1 << 20])[1].typecode == "i"
        assert self.pack([1, 1 << 40])[1].typecode == "q"

    def test_non_negative_columns_take_unsigned_codes(self):
        assert self.pack([0, 200])[1].typecode == "B"
        assert self.pack([0, 60_000])[1].typecode == "H"
        assert self.pack([0, 1 << 31])[1].typecode == "I"
        assert self.pack([-1, 60_000])[1].typecode == "i"

    def test_bignum_falls_back_to_raw(self):
        assert self.pack([1, 1 << 70])[0] == "raw"

    def test_floats_pack_as_doubles(self):
        kind, arr, nulls = self.pack([1.5, -2.25])
        assert (kind, arr.typecode, nulls) == ("arr", "d", ())

    def test_mixed_int_float_ships_raw(self):
        # Routing ints through a double array would silently turn 1 into
        # 1.0 — same dict key, different division semantics.
        assert self.pack([1, 2.5])[0] == "raw"

    def test_bools_and_strings_ship_raw(self):
        assert self.pack([True, False])[0] == "raw"
        assert self.pack(["x", "y"])[0] == "raw"

    def test_null_positions_restored(self):
        packed = self.pack([5, NULL, 7])
        assert packed[0] == "arr" and packed[2] == (1,)
        assert columnar._unpack_column(packed) == [5, NULL, 7]

    def test_pickle_beats_row_form_on_large_int_relations(self):
        source = relation([(i, i * 2) for i in range(5000)])
        row_blob = pickle.dumps(source, protocol=pickle.HIGHEST_PROTOCOL)
        batch_blob = pickle.dumps(
            ColumnBatch.from_relation(source), protocol=pickle.HIGHEST_PROTOCOL
        )
        assert len(batch_blob) * 1.5 < len(row_blob)
        assert pickle.loads(batch_blob).to_relation() == source


class TestWireHelpers:
    def test_small_relations_skip_encoding(self):
        source = relation([(1, 2)])
        assert columnar.encode_relation(source) is source
        assert columnar.decode_relation(source) is source

    def test_large_relations_encode(self):
        source = relation([(i, i) for i in range(600)])
        encoded = columnar.encode_relation(source)
        assert isinstance(encoded, ColumnBatch)
        assert columnar.decode_relation(encoded) == source

    def test_min_rows_override(self):
        source = relation([(1, 2), (3, 4)])
        assert isinstance(
            columnar.encode_relation(source, min_rows=1), ColumnBatch
        )

    def test_differentials_round_trip_with_none(self):
        plus = relation([(i, i) for i in range(10)])
        encoded = columnar.encode_differentials({"t": (plus, None)}, min_rows=4)
        assert isinstance(encoded["t"][0], ColumnBatch)
        assert encoded["t"][1] is None
        decoded = columnar.decode_differentials(encoded)
        assert decoded["t"] == (plus, None)


class TestKernels:
    def rows(self):
        return [(1, 10), (2, 20), (3, 30)]

    def test_comparison_kernel_matches_row_closure(self):
        predicate = P.Comparison(">", P.ColRef(1), P.Const(1))
        kernel = columnar.compile_predicate_kernel(predicate, schema())
        closure = P.compile_predicate(predicate, schema())
        assert kernel(self.rows()) == [closure(row) for row in self.rows()]

    def test_null_comparison_is_unknown(self):
        predicate = P.Comparison("=", P.ColRef(1), P.Const(2))
        kernel = columnar.compile_predicate_kernel(predicate, schema(True))
        assert kernel([(NULL, 1), (2, 1)]) == [None, True]

    def test_non_nullable_schema_skips_null_branches(self):
        # The fast path never tests for NULL; feeding it one anyway shows
        # which branch compiled (NULL compares unequal via object identity).
        predicate = P.Comparison("=", P.ColRef(1), P.Const(2))
        kernel = columnar.compile_predicate_kernel(predicate, schema(False))
        assert kernel([(2, 1)]) == [True]

    def test_division_by_zero_raised_from_batch(self):
        expr = P.Arith("/", P.ColRef(1), P.ColRef(2))
        kernel = columnar.compile_scalar_kernel(expr, schema())
        with pytest.raises(EvaluationError, match="division by zero"):
            kernel([(1, 0)])

    def test_and_short_circuit_skips_poison_rows(self):
        # Rows failing the left conjunct must never reach the division —
        # exactly the row closures' short-circuit behavior.
        predicate = P.And(
            P.Comparison(">", P.ColRef(2), P.Const(0)),
            P.Comparison("=", P.Arith("/", P.ColRef(1), P.ColRef(2)), P.Const(1)),
        )
        kernel = columnar.compile_predicate_kernel(predicate, schema())
        assert kernel([(5, 0), (2, 2)]) == [False, True]

    def test_exact_integer_division(self):
        expr = P.Arith("/", P.ColRef(1), P.Const(2))
        kernel = columnar.compile_scalar_kernel(expr, schema())
        result = kernel([(4, 0), (5, 0)])
        assert result == [2, 2.5]
        assert type(result[0]) is int

    def test_kleene_or_with_nulls(self):
        predicate = P.Or(
            P.Comparison("=", P.ColRef(1), P.Const(1)),
            P.Comparison("=", P.ColRef(2), P.Const(9)),
        )
        kernel = columnar.compile_predicate_kernel(predicate, schema(True))
        assert kernel([(1, NULL), (NULL, 9), (NULL, 0), (2, 0)]) == [
            True,
            True,
            None,
            False,
        ]

    def test_is_null_kernel(self):
        predicate = P.IsNull(P.ColRef(1))
        nullable = columnar.compile_predicate_kernel(predicate, schema(True))
        assert nullable([(NULL, 1), (2, 1)]) == [True, False]
        fixed = columnar.compile_predicate_kernel(predicate, schema(False))
        assert fixed([(2, 1)]) == [False]


class TestBoundedTable:
    def test_evicts_the_oldest_filed_when_full(self):
        table = BoundedTable(2)
        table.file("a", 1)
        table.file("b", 2)
        assert table.get("a") == 1  # a hit is a read: "a" stays the oldest
        table.file("b", 3)  # refiling a key evicts nothing
        assert table == {"a": 1, "b": 3}
        table.file("c", 4)
        assert list(table) == ["b", "c"]

    def test_get_default(self):
        table = BoundedTable(2)
        assert table.get("missing") is None
        assert table.get("missing", 7) == 7

    def test_pickles_empty(self):
        table = BoundedTable(2)
        table.file("a", lambda row: row)  # a closure: not picklable itself
        copy = pickle.loads(pickle.dumps(table))
        assert type(copy) is BoundedTable and copy == {} and copy.limit == 2
        copy.file("b", 2)
        assert copy == {"b": 2} and list(table) == ["a"]
