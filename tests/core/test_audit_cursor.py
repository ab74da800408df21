"""An audit scheduler is a cursor on the commit stream: no audit is lost.

The stream keeps every commit from a live scheduler's cursor on, as it
keeps every state a pin needs, and a commit that leaves a scheduler more
than ``epochs.retain`` commits behind catches it up on the committing
thread.  So a scheduler however far behind audits every commit exactly
once, with the verdict the inline incremental audit gives that commit.
"""

import pytest

from repro.core.scheduler import AuditScheduler
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT

RETAIN = 2

RULES = {
    "fk_ref": "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))",
    "fk_id": "(forall x)(x in fk => x.id >= 0)",
}

#: Every commit touches ``fk``, so every commit triggers both rules; the
#: ``commit(audit="deferred")`` ones are not modified, so some violate.
EXECUTED = [
    "begin insert(fk, (100, 1)); end",
    "begin insert(pk, (50,)); insert(fk, (101, 50)); end",
    "begin delete(fk, (100, 1)); insert(fk, (102, 2)); end",
    "begin insert(fk, (103, 3)); end",
    "begin insert(fk, (104, 4)); end",
]
DEFERRED = [
    "begin insert(fk, (200, 77)); end",
    "begin insert(fk, (-1, 5)); end",
    "begin insert(pk, (77,)); insert(fk, (201, 77)); end",
    "begin insert(fk, (-2, 88)); end",
    "begin delete(fk, (200, 77)); insert(fk, (202, 6)); end",
]


def schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )


@pytest.fixture
def controller():
    built = IntegrityController(schema())
    for name, condition in RULES.items():
        built.add_constraint(name, condition)
    return built


@pytest.fixture
def database():
    built = Database(schema())
    built.load("pk", [(k,) for k in range(10)])
    built.epochs.retain = RETAIN
    return built


def _commit_all(database, controller, scheduler):
    """Commit every text, the scheduler undrained; returns the inline
    incremental verdict of each commit, by sequence."""
    plain = Session(database)
    optimistic = Session(database, controller)
    expected = {}
    for executed, deferred in zip(EXECUTED, DEFERRED):
        for session, text in ((plain, executed), (optimistic, deferred)):
            if session is plain:
                result = session.execute(text)
            else:
                result = session.commit(text, audit="deferred")
            assert result.committed
            sequence = database.commit_log.next_sequence - 1
            expected[sequence] = set(
                controller.violated_constraints_incremental(database, result)
            )
            # What the committer bounds: never more than retain behind.
            assert database.commit_log.next_sequence - scheduler.cursor <= RETAIN
    return expected


def _verdicts(outcomes):
    """``{sequence: {violated rule}}``, asserting one verdict per rule."""
    seen = [(o.sequences, o.rule) for o in outcomes]
    assert len(seen) == len(set(seen)), "a commit was audited twice"
    assert not any(o.failed for o in outcomes)
    verdicts = {}
    for outcome in outcomes:
        [sequence] = outcome.sequences
        rules = verdicts.setdefault(sequence, {})
        rules[outcome.rule] = outcome.violated
    assert all(set(rules) == set(RULES) for rules in verdicts.values())
    return {
        sequence: {rule for rule, violated in rules.items() if violated}
        for sequence, rules in verdicts.items()
    }


@pytest.mark.parametrize("executor", ["inline", "thread", "process"])
def test_a_scheduler_far_behind_audits_every_commit_once(
    database, controller, executor
):
    with AuditScheduler(
        controller,
        database,
        workers=2,
        coalesce=False,
        dispatch_overhead=0.0,
        executor=executor,
    ) as scheduler:
        scheduler.start()
        expected = _commit_all(database, controller, scheduler)
        assert len(expected) >= 2 * RETAIN
        scheduler.drain()
        scheduler.drain(asynchronous=True)
        scheduler.wait()
        assert _verdicts(scheduler.history) == expected
    assert any(expected.values())  # the stream did violate some rule


def test_drain_audits_returns_every_deferred_commit_past_retain(
    database, controller
):
    # The committer's catch-ups audit most of these commits; the caller's
    # one synchronous drain still gets every verdict, once.
    controller.audit_scheduler(database, coalesce=False)
    optimistic = Session(database, controller)
    expected = {}
    for text in DEFERRED:
        result = optimistic.commit(text, audit="deferred")
        assert result.committed
        expected[database.commit_log.next_sequence - 1] = set(
            controller.violated_constraints_incremental(database, result)
        )
    assert len(expected) > RETAIN
    outcomes = optimistic.drain_audits()
    assert _verdicts(outcomes) == expected
    assert outcomes == optimistic.audit_scheduler().history
    assert optimistic.wait_for_audits() == []


def test_a_failing_catch_up_leaves_the_commit_committed(
    database, controller, monkeypatch
):
    scheduler = AuditScheduler(controller, database, coalesce=False)
    plain = Session(database)

    def broken(*args, **kwargs):
        raise TypeError("audit planner broke")

    monkeypatch.setattr(controller, "audit_tasks", broken)
    for text in EXECUTED:
        assert plain.execute(text).committed
        # The failed catch-up still moved the cursor: the stream is bounded.
        assert database.commit_log.next_sequence - scheduler.cursor <= RETAIN
    assert plain.manager.committed == len(EXECUTED)
    monkeypatch.undo()
    outcomes = scheduler.drain()
    caught = scheduler.cursor - 1  # the drain audited only the last commit
    failed = [o for o in outcomes if o.failed]
    assert {o.error for o in failed} == {"TypeError: audit planner broke"}
    assert sorted(s for o in failed for s in o.sequences) == sorted(
        s for s in range(caught) for _ in RULES
    )
    assert {o.sequences for o in outcomes if not o.failed} == {(caught,)}


def test_a_released_pin_trims_no_unaudited_commit(database, controller):
    scheduler = AuditScheduler(controller, database, coalesce=False)
    database.epochs.retain = 100  # the pin, not the committer, holds back
    pin = database.epochs.pin()
    expected = {}
    plain = Session(database)
    for text in EXECUTED:
        result = plain.execute(text)
        expected[database.commit_log.next_sequence - 1] = set(
            controller.violated_constraints_incremental(database, result)
        )
    database.epochs.retain = RETAIN
    assert database.commit_log.next_sequence - scheduler.cursor > RETAIN
    pin.release()  # trims to the window, but not past the cursor
    assert database.commit_log.first_sequence == scheduler.cursor
    assert scheduler.pending() == len(EXECUTED)
    scheduler.drain()
    assert _verdicts(scheduler.history) == expected


def test_a_start_sequence_already_trimmed_is_refused(database, controller):
    plain = Session(database)
    for text in EXECUTED:
        assert plain.execute(text).committed
    oldest = database.commit_log.first_sequence
    assert oldest > 0
    with pytest.raises(ValueError, match=r"#0\b"):
        AuditScheduler(controller, database, start_sequence=0)
    scheduler = AuditScheduler(controller, database, start_sequence=oldest)
    assert scheduler.pending() == len(EXECUTED) - oldest


def test_a_fork_and_a_copy_hold_no_cursor(database, controller):
    import pickle

    scheduler = AuditScheduler(controller, database)
    assert list(database.epochs._cursors) == [scheduler]
    assert list(database.fork().epochs._cursors) == []
    assert list(pickle.loads(pickle.dumps(database)).epochs._cursors) == []
    del scheduler
    assert list(database.epochs._cursors) == []


def test_a_committer_and_a_draining_thread_audit_every_commit_once(
    database, controller
):
    # The committer's catch-ups and another thread's drains share the
    # cursor; a lost update would audit a commit twice or never.
    import sys
    import threading

    scheduler = AuditScheduler(
        controller, database, workers=4, coalesce=False, dispatch_overhead=0.0
    )
    stop = threading.Event()

    def drainer():
        while not stop.is_set():
            scheduler.drain(asynchronous=True)

    first = database.commit_log.next_sequence
    optimistic = Session(database, controller)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=drainer)
    try:
        thread.start()
        for i in range(60):
            text = f"begin insert(fk, ({i}, {i % 12})); end"
            assert optimistic.commit(text, audit="deferred").committed
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    scheduler.drain()
    scheduler.close()
    assert _verdicts(scheduler.history) == {
        first + i: ({"fk_ref"} if i % 12 >= 10 else set()) for i in range(60)
    }


def test_a_deferred_drain_after_a_bulk_load_keeps_its_verdict(database, controller):
    """A load between a deferred commit and its drain is a batch of the
    stream like any commit, so the drain audits the state the commit
    produced, not the live state the load made: ``pk`` gains the key only
    after the commit that referenced it."""
    optimistic = Session(database, controller)
    result = optimistic.commit("begin insert(fk, (1, 77)); end", audit="deferred")
    assert result.committed
    sequence = database.commit_log.next_sequence - 1
    inline = set(controller.violated_constraints_incremental(database, result))
    assert inline == {"fk_ref"}
    assert database.load("pk", [(77,)]) == 1
    outcomes = optimistic.drain_audits()
    assert _verdicts(outcomes) == {sequence: inline}


def test_restore_of_a_snapshot_pinned_before_a_load_undoes_it_in_o_delta(
    database,
):
    """The load is in the stream, so restoring a snapshot pinned before it
    inverts the retained batches (``undo_differentials``), the commit and
    the load together, as one unrecorded batch."""
    before = {name: set(database.relation(name)) for name in ("fk", "pk")}
    snapshot = database.snapshot()
    assert Session(database).execute("begin insert(fk, (1, 2)); end").committed
    assert database.load("pk", [(77,), (3,)]) == 1
    version = database.commit_log.version
    database.restore(snapshot)
    assert database.commit_log.version == version + 1
    assert {name: set(database.relation(name)) for name in ("fk", "pk")} == before
    assert database.logical_time == snapshot.logical_time
