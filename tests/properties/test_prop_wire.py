"""Property: the wire codec gives back exactly the relation it was given.

:func:`~repro.algebra.columnar.encode_differentials` is how a Δ crosses a
process boundary (the process audit executor's task blobs and replica
stream, the fragment pool's shipments) and how it reaches disk (the
WAL's records).  On both sides of the ``WIRE_MIN_ROWS`` switch — 0, 1,
``WIRE_MIN_ROWS - 1`` and ``WIRE_MIN_ROWS`` rows — a pickled Δ must
unpickle and decode to a plain :class:`~repro.engine.relation.Relation`
equal to what was encoded: the same rows with the same value types (a
bool stays a bool, an int an int, NULL NULL; ints wider than int64 and
mixed int/float columns included), the same multiplicities, the same
set/bag mode and the same declared index specs.

``wire_golden.bin`` pins the on-disk format: it is
``encode(encode_differentials(golden_differentials()))`` as written by
the codec at commit 12dfe37, and WAL records written then must still
decode — to the same relations, from the same packed columns.
"""

from __future__ import annotations

import io
import pickle
import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.columnar import (
    WIRE_MIN_ROWS,
    ColumnBatch,
    decode_differentials,
    encode_differentials,
)
from repro.core.workers import decode, encode
from repro.engine import Relation, RelationSchema
from repro.engine.schema import Attribute
from repro.engine.types import ANY, BOOL, FLOAT, INT, NULL, STRING

GOLDEN = Path(__file__).with_name("wire_golden.bin")

SIZES = (0, 1, WIRE_MIN_ROWS - 1, WIRE_MIN_ROWS)

#: Column kinds: a domain and a value generator.  Between them they reach
#: every packing the codec has (each array typecode width, doubles, the
#: raw fallback for bignums, mixed int/float/bool, bools and strings).
KINDS = {
    "small": (INT, lambda rng: rng.randint(-100, 100)),
    "unsigned": (INT, lambda rng: rng.randint(0, 70_000)),
    "wide": (INT, lambda rng: rng.randint(-(1 << 62), 1 << 62)),
    "bignum": (INT, lambda rng: rng.choice((1, -1)) * ((1 << 64) + rng.randint(0, 99))),
    "float": (FLOAT, lambda rng: rng.uniform(-1e6, 1e6)),
    "mixed": (
        ANY,
        lambda rng: rng.choice((rng.randint(-5, 5), rng.random(), rng.random() < 0.5)),
    ),
    "bool": (BOOL, lambda rng: rng.random() < 0.5),
    "string": (
        STRING,
        lambda rng: "".join(rng.choice("ab é") for _ in range(rng.randint(0, 4))),
    ),
}


@st.composite
def wire_relations(draw) -> Relation:
    """A relation of one of :data:`SIZES` distinct rows: an ``id`` key,
    then up to four columns of random kinds, NULLs where nullable, set or
    bag mode (multiplicities above 1 or all 1), and declared indexes."""
    size = draw(st.sampled_from(SIZES))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4))
    nullable = [draw(st.booleans()) for _ in kinds]
    bag = draw(st.booleans())
    repeats = bag and draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    schema = RelationSchema(
        "w",
        [Attribute("id", INT)]
        + [
            Attribute(f"c{j}", KINDS[kind][0], nullable=maybe)
            for j, (kind, maybe) in enumerate(zip(kinds, nullable))
        ],
    )
    rows = []
    for i in range(size):
        row = (i,) + tuple(
            NULL if maybe and rng.random() < 0.2 else KINDS[kind][1](rng)
            for kind, maybe in zip(kinds, nullable)
        )
        rows.extend([row] * (rng.randint(1, 3) if repeats else 1))
    relation = Relation(schema, rows, bag=bag)
    arity = len(kinds) + 1
    for positions in draw(
        st.lists(
            st.lists(st.integers(0, arity - 1), min_size=1, max_size=2, unique=True),
            max_size=2,
        )
    ):
        relation.declare_index(positions)
    return relation


def assert_same_relation(decoded, relation) -> None:
    """Equal rows with equal value types and multiplicities, mode, schema
    and declared index specs — ``==`` alone would take 1, 1.0 and True
    for one another."""
    assert type(decoded) is Relation
    assert decoded.schema == relation.schema
    assert decoded.bag == relation.bag
    assert sorted(map(repr, decoded._rows.items())) == sorted(
        map(repr, relation._rows.items())
    )
    specs = relation.indexes.specs() if relation.indexes is not None else ()
    assert (decoded.indexes.specs() if decoded.indexes is not None else ()) == specs


@given(
    plus=wire_relations(),
    minus=st.one_of(st.none(), wire_relations()),
    protocol=st.sampled_from((2, pickle.HIGHEST_PROTOCOL)),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_delta_survives_the_wire(plus, minus, protocol):
    encoded = encode_differentials({"w": (plus, minus)})
    for sent, relation in zip(encoded["w"], (plus, minus)):
        if relation is None:
            assert sent is None
        else:
            columnar = relation.distinct_count() >= WIRE_MIN_ROWS
            assert isinstance(sent, ColumnBatch) == columnar
    decoded = decode_differentials(pickle.loads(pickle.dumps(encoded, protocol)))
    assert list(decoded) == ["w"]
    decoded_plus, decoded_minus = decoded["w"]
    assert_same_relation(decoded_plus, plus)
    if minus is None:
        assert decoded_minus is None
    else:
        assert_same_relation(decoded_minus, minus)


# -- the golden blob -----------------------------------------------------------


def golden_differentials() -> dict:
    """The Δ ``wire_golden.bin`` encodes: a ``WIRE_MIN_ROWS``-row set Δ⁺
    with two declared indexes and a 3-row Δ⁻ (below the switch: it ships
    as a pickled Relation), and a ``WIRE_MIN_ROWS``-row bag Δ⁺ with
    multiplicities up to 3."""
    wire = RelationSchema(
        "wire",
        [
            Attribute("id", INT),
            Attribute("small", INT),
            Attribute("big", INT),
            Attribute("price", FLOAT, nullable=True),
            Attribute("name", STRING),
            Attribute("flag", BOOL),
            Attribute("mixed", ANY, nullable=True),
        ],
    )
    rows = [
        (
            i,
            i % 200 - 100,
            (1 << 64) + i,
            NULL if i % 7 == 0 else i / 4,
            f"n{i % 37}",
            i % 2 == 0,
            NULL if i % 11 == 0 else (i if i % 3 else i + 0.5),
        )
        for i in range(WIRE_MIN_ROWS)
    ]
    plus = Relation(wire, rows)
    plus.declare_index((0,))
    plus.declare_index((4, 5))
    minus = Relation(wire, rows[:3])
    tally = RelationSchema("tally", [Attribute("k", INT), Attribute("label", STRING)])
    counted = Relation(
        tally,
        [
            (i, f"l{i % 5}")
            for i in range(WIRE_MIN_ROWS)
            for _ in range(1 + i % 3)
        ],
        bag=True,
    )
    return {"wire": (plus, minus), "tally": (counted, None)}


class _PackedState:
    """Stands in for ``ColumnBatch`` to read a blob's packed state as is."""

    def __setstate__(self, state):
        self.state = state


class _PackedStateUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) == ("repro.algebra.columnar", "ColumnBatch"):
            return _PackedState
        return super().find_class(module, name)


def _plain(packed):
    """A packed column with its array as ``(typecode, values)``."""
    if packed is None or packed[0] == "raw":
        return packed
    kind, values, nulls = packed
    return (kind, values.typecode, values.tolist(), nulls)


def _comparable(state: tuple) -> tuple:
    schema, bag, columns, counts, specs, row_count = state
    return (schema, bag, [_plain(c) for c in columns], _plain(counts), specs, row_count)


def test_the_golden_blob_decodes_to_its_delta():
    decoded = decode_differentials(decode(GOLDEN.read_bytes()))
    expected = golden_differentials()
    assert list(decoded) == list(expected)
    for name, sides in expected.items():
        for got, want in zip(decoded[name], sides):
            if want is None:
                assert got is None
            else:
                assert_same_relation(got, want)


def test_the_golden_blob_holds_the_packed_columns_of_today():
    golden = _PackedStateUnpickler(io.BytesIO(GOLDEN.read_bytes())).load()
    fresh = encode_differentials(golden_differentials())
    assert list(golden) == list(fresh)
    for name in fresh:
        plus = golden[name][0]
        assert isinstance(plus, _PackedState)
        assert _comparable(plus.state) == _comparable(fresh[name][0].__getstate__())
    assert type(golden["wire"][1]) is Relation
    assert golden["tally"][1] is None


def test_round_trips_are_byte_stable():
    """Re-encoding a decoded Δ yields the same packed state it came from."""
    first = encode_differentials(golden_differentials())
    again = encode_differentials(decode_differentials(decode(encode(first))))
    for name in first:
        assert _comparable(again[name][0].__getstate__()) == _comparable(
            first[name][0].__getstate__()
        )
