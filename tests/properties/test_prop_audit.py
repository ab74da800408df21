"""Property: the plan-backed audit path agrees with the naive model checker.

The unified evaluation stack routes every constraint form through compiled
physical plans — single translatable sentences, boolean combinations that
compile to one alarm per CNF clause, compensating-action rule audits, and
``Assign``+``Alarm`` integrity-program shapes.  On every generated database
(set and bag mode, with and without hash indexes) the verdict must equal
the naive model checker's, which survives precisely as this oracle.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm, Assign
from repro.calculus.evaluation import evaluate_constraint, violated_rules
from repro.calculus.planned import compile_constraint, evaluate_constraint_planned
from repro.core.programs import IntegrityProgram
from repro.core.subsystem import IntegrityController
from repro.engine import Database
from repro.engine.session import DatabaseView

from . import strategies as S

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _database(rows_r, rows_s, bag: bool, indexed: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    if indexed:
        database.create_index("r", ["a"])
        database.create_index("r", ["b"])
        database.create_index("s", ["c"])
        database.create_index("s", ["d"])
    return database


@given(
    formula=st.one_of(S.constraints(), S.boolean_combinations()),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_planned_constraint_verdict_matches_oracle(
    formula, rows_r, rows_s, bag, indexed
):
    database = _database(rows_r, rows_s, bag, indexed)
    view = DatabaseView(database)
    program = compile_constraint(formula, database.schema)
    assert evaluate_constraint_planned(formula, view) == evaluate_constraint(
        formula, view, validate=False
    ), f"verdict divergence on {formula!r} ({list(program)!r})"


@given(
    condition=st.one_of(S.abortable_constraints(), S.boolean_combinations()),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
    indexed=st.booleans(),
    compensating=st.booleans(),
)
@_SETTINGS
def test_audit_verdicts_match_the_model_checker(
    condition, rows_r, rows_s, bag, indexed, compensating
):
    """violated_constraints: planned == naive for aborting *and*
    compensating rules (the compensating path is the one PR 1 left on the
    model checker)."""
    database = _database(rows_r, rows_s, bag, indexed)
    controller = IntegrityController(database.schema)
    response = "delete(r, select(r, a < 0))" if compensating else None
    try:
        controller.add_constraint("prop", condition, response=response)
    except Exception:
        # Conditions whose trigger generation or schema checks reject them
        # are outside this property's scope.
        return
    planned = controller.violated_constraints(database)
    naive = violated_rules(controller.rules, DatabaseView(database))
    assert planned == naive, (
        f"audit divergence on {condition!r}: planned={planned} naive={naive}"
    )


@given(
    condition=S.abortable_constraints(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_assign_alarm_program_shape_audits_through_plans(
    condition, rows_r, rows_s, bag
):
    """An ``Assign``+``Alarm`` integrity program (the alarm reading a
    temporary) must audit identically to the rule's condition."""
    database = _database(rows_r, rows_s, bag, indexed=False)
    controller = IntegrityController(database.schema)
    try:
        rule = controller.add_constraint("prop", condition)
    except Exception:
        return
    stored = controller.store.get("prop")
    statements = stored.program.statements
    if len(statements) != 1 or not isinstance(statements[0], Alarm):
        return  # translation fell back; covered by the other properties
    rewritten = Program(
        [
            Assign("prop_viol", statements[0].expr),
            Alarm(E.RelationRef("prop_viol"), message="prop"),
        ]
    )
    controller.store.remove("prop")
    controller.store.add(IntegrityProgram("prop", rule.triggers, rewritten))
    planned = controller.violated_constraints(database)
    naive = violated_rules(controller.rules, DatabaseView(database))
    assert planned == naive, (
        f"assign+alarm divergence on {condition!r}: "
        f"planned={planned} naive={naive}"
    )
