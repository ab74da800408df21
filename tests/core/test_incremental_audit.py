"""Incremental (delta-plan) audits: violated_constraints_incremental."""

import pytest

from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT


@pytest.fixture
def schema():
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT), ("amount", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )


@pytest.fixture
def db(schema):
    database = Database(schema)
    database.load("pk", [(k,) for k in range(5)])
    database.load("fk", [(i, i % 5, i * 10) for i in range(10)])
    return database


@pytest.fixture
def controller(schema):
    controller = IntegrityController(schema)
    controller.add_constraint(
        "fk_ref",
        "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))",
    )
    controller.add_constraint(
        "fk_domain", "(forall x)(x in fk => x.amount >= 0)"
    )
    return controller


def _run_unmodified(db, text):
    """Execute a transaction with no integrity modification (so violating
    states can actually be produced for the audit to find)."""
    session = Session(db)
    result = session.execute(text)
    assert result.committed
    return result


class TestIncrementalAudit:
    def test_clean_delta_reports_nothing(self, db, controller):
        result = _run_unmodified(db, "begin insert(fk, (100, 3, 5)); end")
        assert controller.violated_constraints_incremental(db, result) == []
        assert controller.violated_constraints(db) == []

    def test_dangling_insert_detected(self, db, controller):
        result = _run_unmodified(db, "begin insert(fk, (100, 99, 5)); end")
        assert controller.violated_constraints_incremental(db, result) == [
            "fk_ref"
        ]
        assert controller.violated_constraints(db) == ["fk_ref"]

    def test_deleted_target_detected(self, db, controller):
        result = _run_unmodified(db, "begin delete(pk, {(3,)}); end")
        assert controller.violated_constraints_incremental(db, result) == [
            "fk_ref"
        ]

    def test_domain_violation_detected(self, db, controller):
        result = _run_unmodified(db, "begin insert(fk, (100, 3, -5)); end")
        assert controller.violated_constraints_incremental(db, result) == [
            "fk_domain"
        ]

    def test_empty_delta_is_free(self, db, controller):
        assert controller.violated_constraints_incremental(db, {}) == []

    def test_vacuous_triggers_skipped(self, db, controller):
        # Deleting a referer cannot violate either rule: both variants are
        # vacuous, so the audit runs no plan at all.
        result = _run_unmodified(db, "begin delete(fk, {(0, 0, 0)}); end")
        assert controller.violated_constraints_incremental(db, result) == []

    def test_accepts_raw_differentials_mapping(self, db, controller):
        result = _run_unmodified(db, "begin insert(fk, (100, 99, 5)); end")
        verdict = controller.violated_constraints_incremental(
            db, result.differentials
        )
        assert verdict == ["fk_ref"]

    def test_compensating_rule_falls_back_to_full_check(self, schema, db):
        controller = IntegrityController(schema)
        controller.add_constraint(
            "fk_ref_comp",
            "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))",
            response="delete(fk, select(fk, amount < 0))",
        )
        result = _run_unmodified(db, "begin insert(fk, (100, 99, 5)); end")
        assert controller.violated_constraints_incremental(db, result) == [
            "fk_ref_comp"
        ]

    def test_a_repair_rule_audits_by_its_conditions_delta_checks(self):
        # Beer R2's action reads its condition's Δ⁺, so its audit runs the
        # same per-trigger alarms: the orphan insert's sample is the full
        # check's, and a trigger whose check is vacuous makes no task.
        from repro.engine.session import DatabaseView
        from repro.workloads.beer import (
            BEER_RULE_REFERENTIAL,
            beer_database,
            beer_schema,
        )

        controller = IntegrityController(beer_schema())
        controller.add_rule(
            BEER_RULE_REFERENTIAL.replace(
                "WHEN INS(beer), DEL(brewery)",
                "WHEN INS(beer), DEL(brewery), INS(brewery)",
            )
        )
        rule = controller.rule("R2")
        db = beer_database()
        orphan = _run_unmodified(
            db, 'begin insert(beer, ("x", "ale", "nowhere", 5.0)); end'
        )
        (task,) = controller.audit_tasks(db, orphan)
        assert task.kind == "delta"
        full = controller._program_outcome(
            controller._audit_program(rule), DatabaseView(db)
        )
        assert task.run() == full == (True, (("x", "ale", "nowhere", 5.0),))
        db = beer_database()
        present = _run_unmodified(
            db, 'begin insert(beer, ("y", "ale", "brewery_1", 5.0)); end'
        )
        (task,) = controller.audit_tasks(db, present)
        assert task.kind == "delta" and task.run() == (False, ())
        brewery = _run_unmodified(
            db, 'begin insert(brewery, ("new", "x", "y")); end'
        )
        assert controller.audit_tasks(db, brewery) == []

    def test_conjunctive_fallback_rule_incrementalizes(self, schema, db):
        # A top-level conjunction translates to a CheckConstraint fallback;
        # its compiled form decomposes into two planned conjuncts, which the
        # differential layer now specializes per trigger.
        controller = IntegrityController(schema)
        controller.add_constraint(
            "both",
            "(forall x)(x in fk => x.amount >= 0) and "
            "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))",
        )
        stored = controller.store.get("both")
        assert stored.differentials is not None
        # INS(fk) specializes both conjuncts to delta plans.
        ins_fk = stored.differentials[("INS", "fk")]
        assert len(ins_fk.statements) == 2
        assert all("fk@plus" in s.expr.relations() for s in ins_fk.statements)
        # DEL(pk) only affects the referential conjunct.
        del_pk = stored.differentials[("DEL", "pk")]
        assert len(del_pk.statements) == 1
        result = _run_unmodified(db, "begin insert(fk, (100, 99, -5)); end")
        assert controller.violated_constraints_incremental(db, result) == [
            "both"
        ]

    def test_matches_full_audit_after_mixed_transaction(self, db, controller):
        result = _run_unmodified(
            db,
            "begin insert(fk, (100, 2, 5)); delete(pk, {(4,)}); end",
        )
        incremental = controller.violated_constraints_incremental(db, result)
        full = controller.violated_constraints(db)
        assert incremental == full == ["fk_ref"]
