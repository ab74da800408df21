"""Unit tests for the check programs of calculus.planned."""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.calculus.evaluation import evaluate_constraint
from repro.calculus.parser import parse_constraint
from repro.calculus.planned import (
    clear_constraint_cache,
    compile_constraint,
    constraint_cache_info,
    evaluate_constraint_planned,
)
from repro.core.translation import CheckConstraint
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.session import DatabaseView
from repro.engine.types import INT


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_constraint_cache()
    yield
    clear_constraint_cache()


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )


def _database(rows_r=(), rows_s=()):
    database = Database(_schema())
    database.load("r", rows_r)
    database.load("s", rows_s)
    return database


REFERENTIAL = "(forall x)(x in r => (exists y)(y in s and x.a = y.c))"
DOMAIN = "(forall x)(x in r => x.b >= 0)"
# Disjunctive existential body referencing the outer variable: used to be
# naive residue; the relational-disjunction distribution now translates it
# (two antijoins in violation form).
DISJUNCTIVE = (
    "(forall x)(x in r => "
    "(exists y)((y in s and x.a = y.c) or (y in s and x.b = y.d)))"
)
EXISTS_S = "(exists y)(y in s and y.d >= 0)"
# Linking across non-adjacent quantifier levels (z constrained by both x
# and y): genuinely outside the translatable fragment — the model checker
# remains the evaluator of last resort.
RESIDUE = (
    "(forall x)(x in r => (exists y)(y in s and x.a = y.c and "
    "(exists z)(z in r and z.b = x.b + y.d)))"
)


def _agrees_with_the_oracle(formula, *databases):
    for database in databases:
        view = DatabaseView(database)
        assert evaluate_constraint_planned(formula, view) == evaluate_constraint(
            formula, view, validate=False
        )


def _kinds(program):
    return [type(statement).__name__ for statement in program]


def test_translatable_constraint_is_one_alarm():
    program = compile_constraint(parse_constraint(REFERENTIAL), _schema())
    assert _kinds(program) == ["Alarm"]
    assert program.statements[0].message is None


def test_conjunction_of_universals_splits_into_alarms():
    # trans_c rejects a top-level conjunction; each conjunct is a CNF
    # clause of its own, so it becomes one alarm.
    formula = parse_constraint(f"{DOMAIN} and {REFERENTIAL}")
    assert _kinds(compile_constraint(formula, _schema())) == ["Alarm", "Alarm"]
    _agrees_with_the_oracle(
        formula,
        _database(rows_r=[(1, 2)], rows_s=[(1, 0)]),
        _database(rows_r=[(1, -2)], rows_s=[(1, 0)]),
        _database(rows_r=[(7, 2)], rows_s=[(1, 0)]),
    )


def test_disjunction_of_universals_is_one_semijoin_alarm():
    # A clause V1 or V2 alarms on V1 semijoin V2: non-empty exactly when
    # both disjuncts are violated.
    formula = parse_constraint(f"{DOMAIN} or {REFERENTIAL}")
    program = compile_constraint(formula, _schema())
    assert _kinds(program) == ["Alarm"]
    expr = program.statements[0].expr
    assert isinstance(expr, E.SemiJoin) and expr.predicate == P.TRUE
    _agrees_with_the_oracle(
        formula,
        _database(rows_r=[(1, 2)], rows_s=[(1, 0)]),
        _database(rows_r=[(1, -2)], rows_s=[(1, 0)]),
        _database(rows_r=[(7, 2)], rows_s=[(1, 0)]),
        _database(rows_r=[(7, -2)], rows_s=[(1, 0)]),
    )


def test_disjunction_distributes_over_conjunction():
    # (A and B) or C is the two clauses (A or C) and (B or C).
    formula = parse_constraint(f"({DOMAIN} and {REFERENTIAL}) or {EXISTS_S}")
    assert _kinds(compile_constraint(formula, _schema())) == ["Alarm", "Alarm"]
    _agrees_with_the_oracle(
        formula,
        _database(rows_r=[(1, -2)]),
        _database(rows_r=[(7, 2)], rows_s=[(1, 0)]),
        _database(rows_r=[(1, -2)], rows_s=[(1, 0)]),
    )


def test_a_disjunct_that_raises_is_evaluated_while_another_holds():
    # Every disjunct of a clause is one operand of its alarm's semijoins,
    # so the division by zero surfaces although the first disjunct holds.
    from repro.errors import EvaluationError

    formula = parse_constraint(f"{DOMAIN} or (forall x in r)(x.a / x.b > 1)")
    view = DatabaseView(_database(rows_r=[(1, 0)]))
    assert evaluate_constraint(formula, view, validate=False)
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate_constraint_planned(formula, view)


def test_negated_quantifier_pushes_through():
    # not (exists x)(...) is rewritten to a universal before translation.
    formula = parse_constraint("not (exists x)(x in r and x.b < 0)")
    assert _kinds(compile_constraint(formula, _schema())) == ["Alarm"]
    ok = _database(rows_r=[(1, 2)])
    bad = _database(rows_r=[(1, -1)])
    assert evaluate_constraint_planned(formula, DatabaseView(ok))
    assert not evaluate_constraint_planned(formula, DatabaseView(bad))


def test_disjunctive_existential_body_translates():
    # The ROADMAP follow-up from PR 2: disjunctive existential bodies
    # referencing outer variables used to be naive residue.
    formula = parse_constraint(DISJUNCTIVE)
    program = compile_constraint(formula, _schema())
    assert set(_kinds(program)) == {"Alarm"}
    _agrees_with_the_oracle(
        formula,
        _database(rows_r=[(1, 9)], rows_s=[(1, 0), (2, 9)]),
        _database(rows_r=[(5, 6)], rows_s=[(1, 0)]),
    )


def test_untranslatable_residue_falls_back_to_oracle():
    formula = parse_constraint(RESIDUE)
    program = compile_constraint(formula, _schema())
    assert program.statements == (CheckConstraint(formula),)
    _agrees_with_the_oracle(formula, _database(rows_r=[(1, 9)], rows_s=[(1, 0)]))


def test_partial_plan_mixes_backends():
    formula = parse_constraint(f"{DOMAIN} and {RESIDUE}")
    program = compile_constraint(formula, _schema())
    assert _kinds(program) == ["Alarm", "CheckConstraint"]
    assert program.statements[1] == CheckConstraint(parse_constraint(RESIDUE))


def test_a_clause_holding_residue_is_one_check():
    # The translatable disjunct stays inside the clause: the model checker
    # evaluates the whole disjunction.
    formula = parse_constraint(f"{DOMAIN} or {RESIDUE}")
    program = compile_constraint(formula, _schema())
    assert program.statements == (CheckConstraint(formula),)
    _agrees_with_the_oracle(
        formula,
        _database(rows_r=[(1, 9)], rows_s=[(1, 0)]),
        _database(rows_r=[(1, -9)], rows_s=[(1, 0)]),
    )


def test_cache_shares_compiled_artifacts_per_schema():
    schema = _schema()
    formula = parse_constraint(REFERENTIAL)
    first = compile_constraint(formula, schema)
    second = compile_constraint(parse_constraint(REFERENTIAL), schema)
    assert first is second  # structural formula equality
    info = constraint_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    other = compile_constraint(formula, _schema())  # different schema object
    assert other is not first


def test_cache_invalidated_by_schema_ddl():
    schema = _schema()
    formula = parse_constraint(REFERENTIAL)
    first = compile_constraint(formula, schema)
    schema.add(RelationSchema("t", [("e", INT)]))
    second = compile_constraint(formula, schema)
    assert second is not first
    assert constraint_cache_info()["misses"] == 2
    assert compile_constraint(formula, schema) is second


def test_evaluate_constraint_planned_discovers_schema_from_resolver():
    database = _database(rows_r=[(1, 2)], rows_s=[(1, 0)])
    formula = parse_constraint(REFERENTIAL)
    assert evaluate_constraint_planned(formula, DatabaseView(database))
    database.load("r", [(5, 5)])
    assert not evaluate_constraint_planned(formula, DatabaseView(database))


@pytest.mark.parametrize("rows_r", [(), [(1, 2)]], ids=["empty", "nonempty"])
def test_open_formula_raises_the_model_checkers_typed_error(rows_r):
    # ``y`` is free: both evaluators reject the formula before reading a
    # row, whether ``r`` holds any.
    from repro.errors import AnalysisError

    view = DatabaseView(_database(rows_r=rows_r))
    formula = parse_constraint("(forall x in r)(y.a >= 0)")
    with pytest.raises(AnalysisError):
        evaluate_constraint(formula, view)
    with pytest.raises(AnalysisError):
        evaluate_constraint_planned(formula, view)
    assert constraint_cache_info()["size"] == 0  # nothing filed
