"""The Session facade and DatabaseView resolution."""

import pytest

from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.session import DatabaseView
from repro.engine.types import INT
from repro.engine.wal import WriteAheadLog
from repro.errors import UnknownRelationError
from repro.workloads.employees import employees_controller, employees_database

FK_SCHEMA = DatabaseSchema(
    [
        RelationSchema("fk", [("id", INT), ("ref", INT)]),
        RelationSchema("pk", [("key", INT)]),
    ]
)
FK_REF = "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))"


def _logged(directory) -> dict:
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestQueries:
    def test_query_returns_relation(self, plain_session):
        result = plain_session.query("select(beer, alcohol > 5.0)")
        assert isinstance(result, Relation)
        assert len(result) == 2

    def test_rows_sorted_deterministically(self, plain_session):
        rows = plain_session.rows("project(beer, [name])")
        assert rows == sorted(rows, key=repr)

    def test_query_does_not_change_state(self, db, plain_session):
        before = db.relation("beer").to_set()
        plain_session.query("diff(beer, beer)")
        assert db.relation("beer").to_set() == before
        assert db.logical_time == 0

    def test_query_with_aggregate(self, plain_session):
        assert plain_session.rows("cnt(beer)") == [(3,)]

    def test_query_unknown_relation(self, plain_session):
        with pytest.raises(UnknownRelationError):
            plain_session.query("ghost")


class TestTransactionHelpers:
    def test_transaction_from_text(self, plain_session):
        txn = plain_session.transaction("begin end")
        assert len(txn) == 0

    def test_transaction_passthrough(self, plain_session):
        txn = plain_session.transaction("begin end")
        assert plain_session.transaction(txn) is txn

    def test_execute_without_controller_does_not_modify(self, db, plain_session):
        result = plain_session.execute(
            'begin insert(beer, ("n", "ale", "heineken", -1.0)); end'
        )
        # No controller: even a "violating" insert commits.
        assert result.committed

    def test_verify_integrity_without_controller(self, plain_session):
        assert plain_session.verify_integrity() == []

    def test_verify_integrity_with_controller(self, session, db):
        assert session.verify_integrity() == []
        db.load("beer", [("rogue", "ale", "nowhere", -1.0)])
        assert set(session.verify_integrity()) == {"R1", "R2"}


class TestDatabaseView:
    def test_base_resolution(self, db):
        view = DatabaseView(db)
        assert view.resolve("beer") is db.relation("beer")

    def test_old_resolves_to_current_state(self, db):
        view = DatabaseView(db)
        assert view.resolve("beer@old").to_set() == db.relation("beer").to_set()

    def test_differentials_resolve_empty(self, db):
        view = DatabaseView(db)
        assert len(view.resolve("beer@plus")) == 0
        assert len(view.resolve("beer@minus")) == 0

    def test_unknown_base(self, db):
        with pytest.raises(UnknownRelationError):
            DatabaseView(db).resolve("ghost@plus")


class TestCorrectTransactionPredicate:
    """Def 3.5 via IntegrityController.is_correct_transaction."""

    def test_correct_transaction(self, db, controller):
        txn = Session(db).transaction(
            'begin insert(beer, ("ok", "ale", "heineken", 4.0)); end'
        )
        assert controller.is_correct_transaction(db, txn)

    def test_incorrect_transaction(self, db, controller):
        txn = Session(db).transaction(
            'begin insert(beer, ("bad", "ale", "heineken", -4.0)); end'
        )
        assert not controller.is_correct_transaction(db, txn)

    def test_predicate_is_non_destructive(self, db, controller):
        before = db.relation("beer").to_set()
        txn = Session(db).transaction(
            'begin insert(beer, ("bad", "ale", "heineken", -4.0)); end'
        )
        controller.is_correct_transaction(db, txn)
        assert db.relation("beer").to_set() == before
        assert db.logical_time == 0

    def test_aborting_transaction_is_vacuously_correct(self, db, controller):
        txn = Session(db).transaction(
            'begin insert(beer, ("x", "ale", "heineken", 4.0)); abort; end'
        )
        assert controller.is_correct_transaction(db, txn)

    def test_judging_writes_nothing_durable(self, tmp_path):
        """The check is a function of the state and the update: on a
        WAL-attached database it takes no sequence number, moves no
        version and logs no byte, a drain then audits nothing, and
        recovery returns the pre-state."""
        controller = IntegrityController(FK_SCHEMA)
        controller.add_constraint("fk_ref", FK_REF)
        database = Database(FK_SCHEMA)
        database.load("pk", [(0,), (1,), (2,)])
        database.attach_wal(WriteAheadLog(tmp_path))
        scheduler = controller.audit_scheduler(database)
        sequence = database.commit_log.next_sequence
        version = database.epochs.version
        logged = _logged(tmp_path)
        txn = Session(database).transaction("begin insert(fk, (9, 99)); end")
        assert not controller.is_correct_transaction(database, txn)
        assert database.commit_log.next_sequence == sequence
        assert database.epochs.version == version
        assert _logged(tmp_path) == logged
        assert database.relation("fk").to_set() == set()
        assert scheduler.drain() == []
        scheduler.close()
        database.detach_wal()
        recovered = Database.recover(tmp_path)
        try:
            assert recovered.relation("fk").to_set() == set()
            assert recovered.relation("pk").to_set() == {(0,), (1,), (2,)}
        finally:
            recovered.detach_wal()

    def test_transition_rule_sees_the_pre_state(self):
        """``emp@old`` is the state before the transaction, not the
        post-state: a salary cut breaks ``emp_salary_monotone``, as
        modified execution finds when it aborts the same transaction."""
        database = employees_database()
        controller = employees_controller()
        text = "begin update(emp, id = 1, salary := salary - 500); end"
        txn = Session(database).transaction(text)
        assert not controller.is_correct_transaction(database, txn)
        raise_ = Session(database).transaction(
            "begin update(emp, id = 1, salary := salary + 500); end"
        )
        assert controller.is_correct_transaction(database, raise_)
        result = Session(database, controller).execute(text)
        assert result.aborted and "emp_salary_monotone" in result.reason
