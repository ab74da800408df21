"""ColumnBatch conversion/packing, kernel semantics, batch guard, bounded tables."""

import pickle

import pytest

from repro.algebra import columnar
from repro.algebra import predicates as P
from repro.algebra.columnar import ColumnBatch
from repro.bounded import BoundedTable
from repro.engine import Relation, RelationSchema
from repro.engine.overlay import OverlayRelation
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


def revive(batch: ColumnBatch) -> Relation:
    """What the far end of a pipe gets back from ``batch``."""
    blob = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob).to_relation()


class TestConversion:
    def test_set_round_trip(self):
        source = relation([(1, 2), (3, 4), (5, 6)])
        batch = ColumnBatch(source)
        _, _, columns, counts, _, row_count = batch.__getstate__()
        assert row_count == 3
        assert counts is None
        assert columnar._unpack_column(columns[0]) == [1, 3, 5]
        assert revive(batch) == source

    def test_bag_round_trip_keeps_multiplicities(self):
        source = relation([(1, 2), (1, 2), (3, 4)], bag=True)
        batch = ColumnBatch(source)
        assert columnar._unpack_column(batch.__getstate__()[3]) == [2, 1]
        revived = revive(batch)
        assert revived == source
        assert len(revived) == 3
        assert revived.multiplicity((1, 2)) == 2

    def test_bag_with_unit_counts_drops_vector(self):
        source = relation([(1, 2), (3, 4)], bag=True)
        assert ColumnBatch(source).__getstate__()[3] is None

    def test_empty_relation(self):
        source = relation([])
        batch = ColumnBatch(source)
        _, _, columns, _, _, row_count = batch.__getstate__()
        assert row_count == 0
        assert len(columns) == 2
        assert revive(batch) == source

    def test_declared_indexes_survive(self):
        source = relation([(1, 2), (3, 4)])
        source.declare_index((0,))
        source.declare_index((1,))
        revived = revive(ColumnBatch(source))
        assert set(revived.indexes.specs()) == {(0,), (1,)}


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
            ColumnBatch(source), protocol=pickle.HIGHEST_PROTOCOL
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

    def test_a_decoded_relation_is_plain_and_writable(self):
        source = relation([(i, i % 7) for i in range(columnar.WIRE_MIN_ROWS)])
        source.declare_index((1,))
        revived = columnar.decode_relation(
            pickle.loads(pickle.dumps(columnar.encode_relation(source)))
        )
        assert type(revived) is Relation
        assert revived.built_index((1,)) is None  # declared, built on ask
        assert sorted(revived.index_on((1,)).lookup(3)) == sorted(
            source.index_on((1,)).lookup(3)
        )
        assert revived.index_on((1,)).lookup(3)
        assert revived.insert((-1, -1))
        assert len(revived) == len(source) + 1

    def test_an_overlay_ships_as_its_merged_rows(self):
        base = relation([(i, i) for i in range(columnar.WIRE_MIN_ROWS)])
        overlay = OverlayRelation(base, Relation(base.schema), Relation(base.schema))
        overlay.insert((-1, -1))
        overlay.delete((0, 0))
        revived = revive(columnar.encode_relation(overlay))
        assert type(revived) is Relation
        assert revived == Relation(base.schema, overlay.rows())

    def test_a_batch_packs_its_relation_when_pickled(self):
        source = relation([(i, i) for i in range(columnar.WIRE_MIN_ROWS)])
        batch = columnar.encode_relation(source)
        assert batch.to_relation() is source  # nothing decomposed yet
        assert batch.__getstate__()[5] == columnar.WIRE_MIN_ROWS

    def test_differentials_round_trip_with_none(self):
        plus = relation([(i, i) for i in range(columnar.WIRE_MIN_ROWS)])
        encoded = columnar.encode_differentials({"t": (plus, None)})
        assert isinstance(encoded["t"][0], ColumnBatch)
        assert encoded["t"][1] is None
        decoded = columnar.decode_differentials(pickle.loads(pickle.dumps(encoded)))
        assert decoded["t"] == (plus, None)


class TestDecodedRelation:
    """What a worker does with a relation it got from the wire."""

    def test_bag_counts_survive(self):
        source = relation([(1, 10), (1, 10), (2, 20)], bag=True)
        decoded = revive(ColumnBatch(source))
        assert len(decoded) == 3
        assert decoded.distinct_count() == 2
        rows, counts = decoded.rows_and_counts()
        assert dict(zip(rows, counts)) == {(1, 10): 2, (2, 20): 1}
        assert decoded == source

    def test_empty_batch_decodes_to_an_empty_writable_relation(self):
        decoded = revive(ColumnBatch(relation([])))
        assert len(decoded) == 0
        assert not decoded
        assert list(decoded.rows()) == []
        assert decoded.insert((1, 10))
        assert list(decoded.rows()) == [(1, 10)]

    def test_delete_keeps_declared_indexes_current(self):
        source = relation([(1, 10), (2, 20), (3, 20)])
        source.declare_index((1,))
        decoded = revive(ColumnBatch(source))
        assert decoded.delete((2, 20)) is True
        assert decoded.index_on((1,)).lookup(20) == ((3, 20),)
        assert sorted(decoded.rows()) == [(1, 10), (3, 20)]
        assert (2, 20) in source  # the sender's relation is untouched

    def test_clear_and_replace_contents(self):
        decoded = revive(ColumnBatch(relation([(1, 10), (2, 20)])))
        decoded.clear()
        assert len(decoded) == 0
        again = revive(ColumnBatch(relation([(1, 10), (2, 20)])))
        again.replace_contents(relation([(9, 90)]))
        assert sorted(again.rows()) == [(9, 90)]

    def test_declaring_a_new_index_does_not_lose_rows(self):
        decoded = revive(ColumnBatch(relation([(1, 10), (2, 20), (3, 30)])))
        decoded.declare_index((0,))
        assert len(decoded) == 3
        assert sorted(decoded.rows()) == [(1, 10), (2, 20), (3, 30)]
        assert decoded.index_on((0,)).lookup(2) == ((2, 20),)

    def test_mutated_relation_reencodes_current_rows(self):
        decoded = revive(ColumnBatch(relation([(1, 10), (2, 20)])))
        decoded.insert((4, 40))
        reshipped = revive(ColumnBatch(decoded))
        assert reshipped == decoded
        assert (4, 40) in reshipped


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
