"""Hash-once nodes and schemas: the memo is never part of the value.

Expression/predicate nodes and ``RelationSchema`` compute their structural
hash once per object (``repro.hashing``).  String hashes are salted per
process, schemas travel in checkpoints and expressions to spawn workers, so
a pickled object must not carry the hash of the process that wrote it.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.parser import parse_expression, parse_program
from repro.engine import RelationSchema
from repro.engine.types import INT, STRING

SRC = Path(__file__).resolve().parents[2] / "src"

EXPRESSION_TEXT = (
    'antijoin(select(orders@plus, amount >= 0 and note != "void"), customers, '
    "left.customer = right.cid)"
)
PROGRAM_TEXT = f'missing := {EXPRESSION_TEXT}; alarm(missing, "orders_customer")'


def build_schema() -> RelationSchema:
    return RelationSchema("orders", [("id", INT), ("customer", INT), ("note", STRING)])


def memo_of(obj):
    return obj.__dict__.get("_structural_hash")


def walk(node):
    yield node
    if dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            for item in value if isinstance(value, tuple) else (value,):
                if dataclasses.is_dataclass(item):
                    yield from walk(item)


def test_hash_is_structural_and_computed_once():
    first, second = parse_expression(EXPRESSION_TEXT), parse_expression(EXPRESSION_TEXT)
    assert first is not second and first == second
    assert memo_of(first) is None
    assert hash(first) == hash(second) == memo_of(first)
    assert {first: "plan"}[second] == "plan"
    # Every node below was hashed on the way, and remembers it.
    assert all(memo_of(node) is not None for node in walk(first))
    assert hash(first) == memo_of(first)
    schema, again = build_schema(), build_schema()
    assert hash(schema) == hash(again) == memo_of(schema)
    assert hash(schema) != hash(schema.renamed("other"))


def test_pickles_and_copies_carry_no_hash():
    expression = parse_expression(EXPRESSION_TEXT)
    schema = build_schema()
    hash(expression), hash(schema)
    for original in (expression, schema):
        unpickled = pickle.loads(pickle.dumps(original))
        assert all(memo_of(node) is None for node in walk(unpickled))
        shallow = copy.copy(original)  # shares the (hashed) children
        assert memo_of(shallow) is None
        for clone in (unpickled, shallow):
            assert clone == original and clone is not original
            assert hash(clone) == hash(original)
    assert b"_structural_hash" not in pickle.dumps(schema)
    assert b"_structural_hash" not in pickle.dumps(expression)
    assert b"_structural_hash" not in pickle.dumps(parse_program(PROGRAM_TEXT))


def test_dataclass_protocol_is_unchanged():
    select = parse_expression("select(r, a = 1)")
    before = dataclasses.fields(select)
    hash(select)
    assert dataclasses.fields(select) == before
    assert [field.name for field in before] == ["input", "predicate"]
    assert dataclasses.asdict(P.Const(1)) == {"value": 1}
    replaced = dataclasses.replace(select, predicate=P.TRUE)
    assert replaced == E.Select(E.RelationRef("r"), P.TRUE)
    assert memo_of(replaced) is None
    assert hash(replaced) == hash(E.Select(E.RelationRef("r"), P.TRUE)) != hash(select)
    assert "_structural_hash" not in repr(select)
    assert select == parse_expression("select(r, a = 1)")  # one hashed, one not


CHILD = """
import pickle, sys
from repro.algebra.parser import parse_expression, parse_program
from tests.algebra.test_hash_once import EXPRESSION_TEXT, PROGRAM_TEXT, build_schema

with open(sys.argv[1], "rb") as handle:
    expression, program, schema = pickle.load(handle)
fresh = {
    parse_expression(EXPRESSION_TEXT): "expression",
    parse_program(PROGRAM_TEXT): "program",
    build_schema(): "schema",
}
assert fresh[expression] == "expression"
assert fresh[program] == "program"
assert fresh[schema] == "schema"
print(hash(expression), hash(schema))
"""


def test_another_hash_seed_finds_unpickled_objects_by_fresh_equals(tmp_path):
    expression = parse_expression(EXPRESSION_TEXT)
    program = parse_program(PROGRAM_TEXT)
    schema = build_schema()
    hash(expression), hash(program), hash(schema)  # the parent's memos are set
    path = tmp_path / "objects.pickle"
    path.write_bytes(pickle.dumps((expression, program, schema)))
    root = SRC.parent
    hashes = set()
    for seed in ("1", "2"):
        environment = dict(os.environ, PYTHONHASHSEED=seed)
        environment["PYTHONPATH"] = os.pathsep.join([str(SRC), str(root)])
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(path)],
            env=environment, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        hashes.add(child.stdout.strip())
    # The seeds really salt these hashes, so a carried memo would have missed.
    assert len(hashes) == 2
