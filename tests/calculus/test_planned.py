"""Unit tests for the plan-backed constraint evaluator (calculus.planned)."""

from __future__ import annotations

import pytest

from repro.calculus.evaluation import evaluate_constraint
from repro.calculus.parser import parse_constraint
from repro.calculus.planned import (
    clear_constraint_cache,
    compile_constraint,
    constraint_cache_info,
    evaluate_constraint_planned,
)
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
# Linking across non-adjacent quantifier levels (z constrained by both x
# and y): genuinely outside the translatable fragment — the model checker
# remains the evaluator of last resort.
RESIDUE = (
    "(forall x)(x in r => (exists y)(y in s and x.a = y.c and "
    "(exists z)(z in r and z.b = x.b + y.d)))"
)


def test_translatable_constraint_is_fully_planned():
    compiled = compile_constraint(parse_constraint(REFERENTIAL), _schema())
    assert compiled.fully_planned
    assert compiled.plan_count() == 1
    assert compiled.residue() == []


def test_conjunction_of_universals_splits_into_plans():
    # trans_c rejects a top-level conjunction; the decomposing compiler
    # turns it into two physical plans under a boolean AND.
    formula = parse_constraint(f"{DOMAIN} and {REFERENTIAL}")
    schema = _schema()
    compiled = compile_constraint(formula, schema)
    assert compiled.fully_planned
    assert compiled.plan_count() == 2

    satisfied = _database(rows_r=[(1, 2)], rows_s=[(1, 0)])
    violated_domain = _database(rows_r=[(1, -2)], rows_s=[(1, 0)])
    violated_ref = _database(rows_r=[(7, 2)], rows_s=[(1, 0)])
    for database in (satisfied, violated_domain, violated_ref):
        view = DatabaseView(database)
        assert compiled.satisfied(view) == evaluate_constraint(
            formula, view, validate=False
        )


def test_negated_quantifier_pushes_through():
    # not (exists x)(...) is rewritten to a universal before translation.
    formula = parse_constraint("not (exists x)(x in r and x.b < 0)")
    compiled = compile_constraint(formula, _schema())
    assert compiled.fully_planned
    ok = _database(rows_r=[(1, 2)])
    bad = _database(rows_r=[(1, -1)])
    assert compiled.satisfied(DatabaseView(ok))
    assert not compiled.satisfied(DatabaseView(bad))


def test_disjunctive_existential_body_now_fully_planned():
    # The ROADMAP follow-up from PR 2: disjunctive existential bodies
    # referencing outer variables used to be naive residue.
    formula = parse_constraint(DISJUNCTIVE)
    compiled = compile_constraint(formula, _schema())
    assert compiled.fully_planned
    assert compiled.residue() == []
    satisfied = _database(rows_r=[(1, 9)], rows_s=[(1, 0), (2, 9)])
    violated = _database(rows_r=[(5, 6)], rows_s=[(1, 0)])
    for database in (satisfied, violated):
        view = DatabaseView(database)
        assert compiled.satisfied(view) == evaluate_constraint(
            formula, view, validate=False
        )


def test_untranslatable_residue_falls_back_to_oracle():
    formula = parse_constraint(RESIDUE)
    compiled = compile_constraint(formula, _schema())
    assert not compiled.fully_planned
    assert compiled.residue() == [formula]
    database = _database(rows_r=[(1, 9)], rows_s=[(1, 0)])
    view = DatabaseView(database)
    assert compiled.satisfied(view) == evaluate_constraint(
        formula, view, validate=False
    )


def test_partial_plan_mixes_backends():
    formula = parse_constraint(f"{DOMAIN} and {RESIDUE}")
    compiled = compile_constraint(formula, _schema())
    assert not compiled.fully_planned
    assert compiled.plan_count() == 1
    assert len(compiled.residue()) == 1


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
    assert second.schema_version == schema.version


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
