"""The paper's worked Example 5.1, end to end.

Section 5.4: the user submits an insert into ``beer``; the subsystem
extends the transaction with (1) the domain alarm for R1 and (2) the
referential compensation for R2, and the modified transaction "is now
guaranteed to be correct and can be executed without any further
precautions".
"""

import pytest

from repro.algebra.parser import parse_transaction
from repro.algebra.pretty import render_transaction
from repro.algebra.statements import Alarm, Assign, Insert
from repro.core.subsystem import IntegrityController
from repro.engine import Session
from repro.workloads.beer import (
    BEER_RULE_DOMAIN,
    BEER_RULE_REFERENTIAL,
    EXAMPLE_51_TRANSACTION,
    beer_schema,
)


@pytest.fixture
def controller():
    # differential=False reproduces the paper's unoptimized Example 5.1
    # (the alarm checks all of beer, not just beer@plus).
    controller = IntegrityController(beer_schema(), differential=False)
    controller.add_rule(BEER_RULE_DOMAIN)
    controller.add_rule(BEER_RULE_REFERENTIAL)
    return controller


class TestModificationShape:
    def test_statement_sequence_matches_paper(self, controller):
        txn = parse_transaction(EXAMPLE_51_TRANSACTION)
        modified = controller.modify_transaction(txn)
        statements = modified.statements
        # Paper: insert; alarm(domain); temp := ...; insert(brewery, ...).
        assert len(statements) == 4
        assert isinstance(statements[0], Insert) and statements[0].relation == "beer"
        assert isinstance(statements[1], Alarm)
        assert isinstance(statements[2], Assign) and statements[2].name == "temp"
        assert isinstance(statements[3], Insert) and statements[3].relation == "brewery"

    def test_domain_alarm_checks_alcohol(self, controller):
        txn = parse_transaction(EXAMPLE_51_TRANSACTION)
        modified = controller.modify_transaction(txn)
        rendered = render_transaction(modified)
        assert "alarm(select(beer, alcohol < 0)" in rendered

    def test_compensation_computes_missing_breweries(self, controller):
        txn = parse_transaction(EXAMPLE_51_TRANSACTION)
        rendered = render_transaction(controller.modify_transaction(txn))
        assert (
            "temp := diff(project(beer, [brewery]), project(brewery, [name]))"
            in rendered
        )
        assert "insert(brewery, project(temp, [brewery as name, null, null]))" in rendered

    def test_fixpoint_reached_in_one_round(self, controller):
        txn = parse_transaction(EXAMPLE_51_TRANSACTION)
        controller.modify_transaction(txn)
        assert controller.last_stats.rounds == 1
        assert sorted(controller.last_stats.selected_rule_names) == ["R1", "R2"]


class TestExecution:
    def test_committed_with_compensation(self, db, controller):
        session = Session(db, controller)
        result = session.execute(EXAMPLE_51_TRANSACTION)
        assert result.committed
        # The new beer is in, and the unknown brewery was compensated with
        # a (guineken, null, null) tuple — exactly the paper's outcome.
        from repro.engine.types import NULL

        assert ("exportgold", "stout", "guineken", 6.0) in db.relation("beer")
        assert ("guineken", NULL, NULL) in db.relation("brewery")

    def test_post_state_consistent(self, db, controller):
        session = Session(db, controller)
        session.execute(EXAMPLE_51_TRANSACTION)
        assert controller.violated_constraints(db) == []

    def test_negative_alcohol_aborts(self, db, controller):
        session = Session(db, controller)
        result = session.execute(
            'begin insert(beer, ("bad", "stout", "guineken", -6.0)); end'
        )
        assert result.aborted
        assert "R1" in result.reason
        assert len(db.relation("beer")) == 3  # atomic rollback
        assert controller.violated_constraints(db) == []

    def test_brewery_delete_triggers_compensation(self, db, controller):
        session = Session(db, controller)
        result = session.execute(
            'begin delete(brewery, where name = "heineken"); end'
        )
        # R2 is triggered by DEL(brewery): the compensation re-inserts a
        # null-city heineken because beers still reference it.
        assert result.committed
        from repro.engine.types import NULL

        assert ("heineken", NULL, NULL) in db.relation("brewery")
        assert controller.violated_constraints(db) == []

    def test_differential_variant_same_outcome(self, db):
        controller = IntegrityController(beer_schema(), differential=True)
        controller.add_rule(BEER_RULE_DOMAIN)
        controller.add_rule(BEER_RULE_REFERENTIAL)
        session = Session(db, controller)
        result = session.execute(EXAMPLE_51_TRANSACTION)
        assert result.committed
        assert controller.violated_constraints(db) == []
        rendered = render_transaction(
            controller.modify_transaction(
                parse_transaction(EXAMPLE_51_TRANSACTION)
            )
        )
        # The differential domain check touches only the inserted tuples.
        assert "alarm(select(beer@plus, alcohol < 0)" in rendered
        # R2's repair runs under a guard of its matched Δ-checks.
        assert "guard(antijoin(beer@plus, brewery" in rendered
