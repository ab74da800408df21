"""Differential and full-state enforcement agree on witness-chain rules.

A rule ``(forall p in a)(exists q in b)(link(p, q) and [not] (exists r in
c)(link(q, r)))`` has a witness that runs through two relations, so a
transaction that updates both ``b`` and ``c`` splices two delta pieces, and
each must read the other relation's pre-state.  From a state the rule holds
on (Def 3.5), ``differential=True`` must commit exactly when
``differential=False`` does, and neither may commit a violating state.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.programs import Program, bracket
from repro.calculus import ast as C
from repro.calculus.evaluation import evaluate_constraint
from repro.core.rules import IntegrityRule
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.session import DatabaseView
from repro.engine.types import INT

ARITY = {"a": 1, "b": 2, "c": 1}
VALUES = st.integers(min_value=0, max_value=1)
OPS = st.sampled_from(["=", "!=", "<", ">="])


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("a", [("x", INT)]),
            RelationSchema("b", [("x", INT), ("y", INT)]),
            RelationSchema("c", [("y", INT)]),
        ]
    )


def _rows(relation):
    return st.lists(st.tuples(*[VALUES] * ARITY[relation]), max_size=4)


@st.composite
def chain_constraints(draw):
    witness = C.exists_in(
        "r", "c", C.Compare(draw(OPS), C.AttrSel("r", "y"), C.AttrSel("q", "y"))
    )
    if draw(st.booleans()):
        witness = C.Not(witness)
    link = C.Compare(draw(OPS), C.AttrSel("q", "x"), C.AttrSel("p", "x"))
    return C.forall_in("p", "a", C.exists_in("q", "b", C.And(link, witness)))


@st.composite
def cases(draw):
    """``(state, constraint, steps)``: a small a/b/c state, a chain rule and
    1-4 literal inserts and deletes, a delete often of a present row."""
    state = {relation: draw(_rows(relation)) for relation in ARITY}
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        relation = draw(st.sampled_from(sorted(ARITY)))
        kind = draw(st.sampled_from(["insert", "delete"]))
        fresh = st.tuples(*[VALUES] * ARITY[relation])
        row = fresh
        if kind == "delete" and state[relation]:
            row = st.one_of(st.sampled_from(state[relation]), fresh)
        steps.append((kind, relation, draw(st.lists(row, min_size=1, max_size=2))))
    return state, draw(chain_constraints()), steps


CHAIN = C.forall_in(
    "p",
    "a",
    C.exists_in(
        "q",
        "b",
        C.And(
            C.Compare("=", C.AttrSel("q", "x"), C.AttrSel("p", "x")),
            C.exists_in(
                "r", "c", C.Compare("=", C.AttrSel("r", "y"), C.AttrSel("q", "y"))
            ),
        ),
    ),
)


def _committed(differential, state, constraint, steps) -> bool:
    database = Database(_schema())
    for relation, rows in state.items():
        database.load(relation, rows)
    assume(evaluate_constraint(constraint, DatabaseView(database)))
    controller = IntegrityController(database.schema, differential=differential)
    controller.add_rule(IntegrityRule(constraint, name="chain"))
    statements = [
        (S.Insert if kind == "insert" else S.Delete)(relation, E.Literal(tuple(rows)))
        for kind, relation, rows in steps
    ]
    result = Session(database, controller).execute(bracket(Program(statements)))
    if result.committed:
        assert controller.violated_constraints(database) == []
    return result.committed


@given(case=cases())
@example(
    case=(
        {"a": [(1,)], "b": [(1, 10)], "c": [(10,)]},
        CHAIN,
        [("delete", "b", [(1, 10)]), ("delete", "c", [(10,)])],
    )
)
@settings(max_examples=200, deadline=None)
def test_differential_matches_full_state_on_witness_chains(case):
    state, constraint, steps = case
    assert _committed(True, state, constraint, steps) == _committed(
        False, state, constraint, steps
    )
