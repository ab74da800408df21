"""Every commit the audit scheduler drains is one a pin can bracket.

Commit #0 inserts a foreign-key row whose target only arrives in commit #1.
Audited against the states commit #0 transitioned between, #0 violates
``fk_ref``; audited against the live state, where the target now exists,
it would not.  So the verdict on #0 tells whether the drain bracketed the
commit (``EpochManager.pin_span``) or fell back to the live state — which
a database does when it holds a commit record no version can bracket.

The verdict must be the same on the live database, after recovery (by
replaying the log, or from a checkpoint taken after both commits), on a
fork and on a pickled copy.
"""

import pickle

import pytest

from repro.core.scheduler import AuditScheduler
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session, recover
from repro.engine.types import INT
from repro.engine.wal import WriteAheadLog


def schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )


def controller() -> IntegrityController:
    built = IntegrityController(schema())
    built.add_constraint(
        "fk_ref", "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))"
    )
    return built


def history(wal_directory=None) -> Database:
    """The dangling reference, then its target: two commits."""
    database = Database(schema())
    if wal_directory is not None:
        database.attach_wal(WriteAheadLog(wal_directory))
    session = Session(database)
    assert session.execute("begin insert(fk, (100, 55)); end").committed
    assert session.execute("begin insert(pk, (55,)); end").committed
    return database


def first_commit_violates(database: Database) -> bool:
    scheduler = AuditScheduler(controller(), database, start_sequence=0)
    outcomes = scheduler.drain(coalesce=False)
    verdicts = {(o.rule, o.sequences): o for o in outcomes}
    assert all(o.error is None for o in outcomes)
    assert set(verdicts) == {("fk_ref", (0,))}  # inserting a target triggers nothing
    return verdicts["fk_ref", (0,)].violated


def test_the_live_database_brackets_commit_0():
    assert first_commit_violates(history()) is True


def test_recovery_by_replay_brackets_commit_0(tmp_path):
    history(tmp_path).detach_wal()  # its checkpoint predates both commits
    recovered, report = recover(tmp_path, attach=False)
    assert report.replayed == 2
    assert first_commit_violates(recovered) is True


def test_recovery_from_a_later_checkpoint_brackets_commit_0(tmp_path):
    database = history(tmp_path)
    database.checkpoint()
    database.detach_wal()
    recovered, report = recover(tmp_path, attach=False)
    assert report.replayed == 0
    assert first_commit_violates(recovered) is True


@pytest.mark.parametrize("pinned", [False, True], ids=["at the head", "at a held pin"])
def test_a_fork_brackets_commit_0(pinned):
    database = history()
    snapshot = database.snapshot() if pinned else None
    if pinned:  # a commit after the pin: the fork is cut below it
        assert Session(database).execute("begin insert(pk, (56,)); end").committed
    fork = database.fork(snapshot)
    assert fork.commit_log.next_sequence == 2
    assert first_commit_violates(fork) is True


def test_a_copy_leaves_the_loads_before_its_first_commit_behind():
    """A pickled copy (a checkpoint, a process replica) starts with no pin,
    so the loads older than its first commit bracket nothing for it and are
    not pickled beside their rows; a load between two commits is, and the
    copy still brackets commit #0 across it."""
    database = Database(schema())
    database.load("pk", [(key,) for key in range(50)])
    database.load("fk", [(key, key) for key in range(50)])
    session = Session(database)
    assert session.execute("begin insert(fk, (100, 55)); end").committed
    assert database.load("pk", [(55,)]) == 1
    assert session.execute("begin insert(pk, (56,)); end").committed
    assert [r.sequence for r in database.commit_log._records] == [None, None, 0, None, 1]
    copy = pickle.loads(pickle.dumps(database))
    assert [r.sequence for r in copy.commit_log._records] == [0, None, 1]
    assert copy.commit_log.version == database.commit_log.version
    assert first_commit_violates(copy) is True
