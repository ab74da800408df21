"""The audit scheduler: draining, fan-out, poison tasks, session modes."""

import pytest

from repro.core.scheduler import AuditScheduler, RuleAuditTask
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.commitlog import CommitLog
from repro.engine.types import INT


def schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )


RULES = {
    "fk_ref": "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))",
    "fk_id": "(forall x)(x in fk => x.id >= 0)",
}


@pytest.fixture
def db():
    database = Database(schema())
    database.load("pk", [(k,) for k in range(10)])
    database.load("fk", [(i, i % 10) for i in range(20)])
    return database


@pytest.fixture
def controller():
    built = IntegrityController(schema())
    for name, condition in RULES.items():
        built.add_constraint(name, condition)
    return built


def _commit(db, text):
    result = Session(db).execute(text)
    assert result.committed
    return result


class TestAuditTasks:
    def test_one_task_per_affected_rule(self, db, controller):
        result = _commit(db, "begin insert(fk, (100, 3)); end")
        tasks = controller.audit_tasks(db, result)
        assert {task.rule_name for task in tasks} == set(RULES)
        assert all(task.kind == "delta" for task in tasks)

    def test_unaffected_rules_produce_no_task(self, db, controller):
        # Inserting a *target* is vacuous for the referential rule and
        # untriggering for the id rule.
        result = _commit(db, "begin insert(pk, (77,)); end")
        assert controller.audit_tasks(db, result) == []

    def test_task_verdicts_match_inline(self, db, controller):
        result = _commit(db, "begin insert(fk, (-5, 55)); end")
        inline = set(controller.violated_constraints_incremental(db, result))
        verdicts = {
            task.rule_name: task.run() for task in controller.audit_tasks(db, result)
        }
        assert {name for name, (violated, _) in verdicts.items() if violated} == inline
        violated, sample = verdicts["fk_ref"]
        assert violated and sample == ((-5, 55),)


class TestScheduler:
    def test_sync_drain_per_commit(self, db, controller):
        scheduler = controller.audit_scheduler(db)
        _commit(db, "begin insert(fk, (100, 3)); end")
        _commit(db, "begin insert(fk, (101, 55)); end")
        outcomes = scheduler.drain(coalesce=False)
        assert [(o.rule, o.sequences, o.violated) for o in outcomes] == [
            ("fk_ref", (0,), False),
            ("fk_id", (0,), False),
            ("fk_ref", (1,), True),
            ("fk_id", (1,), False),
        ]
        assert outcomes[2].violations == ((101, 55),)
        assert scheduler.pending() == 0

    def test_coalesced_drain_merges_commits(self, db, controller):
        scheduler = controller.audit_scheduler(db)
        _commit(db, "begin insert(fk, (101, 55)); end")
        _commit(db, "begin delete(fk, (101, 55)); end")
        outcomes = scheduler.drain(coalesce=True)
        # The dangling insert was retracted by the second commit: the
        # coalesced net delta is empty, so there is nothing to audit.
        assert outcomes == []

    def test_async_drain_and_wait_are_deterministic(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=4, dispatch_overhead=0.0
        )
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain(asynchronous=True, coalesce=False)
        outcomes = scheduler.wait()
        assert [(o.rule, o.violated) for o in outcomes] == [
            ("fk_ref", False),
            ("fk_id", False),
        ]
        assert all(o.mode == "async" for o in outcomes)
        assert all(o.executor == "thread" for o in outcomes)
        assert scheduler.fanned_out == 2
        scheduler.close()

    def test_inline_policy_keeps_cheap_audits_off_the_pool(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=4, dispatch_overhead=1e9
        )
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain(asynchronous=True)
        outcomes = scheduler.wait()
        assert all(o.mode == "async" for o in outcomes)
        assert all(o.executor == "inline" for o in outcomes)
        assert scheduler.fanned_out == 0
        scheduler.close()

    def test_poison_task_surfaces_as_failure(self, db, controller):
        scheduler = controller.audit_scheduler(db)
        result = _commit(db, "begin insert(fk, (100, 3)); end")

        class _Boom(RuleAuditTask):
            def run(self):
                raise RuntimeError("worker exploded")

        task = controller.audit_tasks(db, result)[0]
        poison = _Boom(
            task.controller,
            task.rule,
            task.program,
            task.database,
            task.differentials,
        )
        from repro.core.scheduler import _execute

        outcome = _execute(poison, (0,), "async", "thread")
        assert outcome.failed
        assert outcome.violated is None
        assert outcome.mode == "async" and outcome.executor == "thread"
        assert "RuntimeError: worker exploded" in outcome.error

    def test_truncation_gap_reaches_async_wait(self, controller):
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.commit_log = CommitLog(capacity=1)
        scheduler = controller.audit_scheduler(database)
        _commit(database, "begin insert(fk, (1, 1)); end")
        _commit(database, "begin insert(fk, (2, 2)); end")
        scheduler.drain(asynchronous=True)
        outcomes = scheduler.wait()
        # Eviction must not become a silent drop on the async path: the
        # gap outcome travels through wait() like every other verdict.
        assert outcomes[0].failed and outcomes[0].mode == "gap"
        assert outcomes[0].executor is None
        assert {o.rule for o in outcomes[1:]} == set(RULES)
        scheduler.close()

    def test_truncation_gap_reported(self, controller):
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.commit_log = CommitLog(capacity=1)
        scheduler = controller.audit_scheduler(database)
        _commit(database, "begin insert(fk, (1, 1)); end")
        _commit(database, "begin insert(fk, (2, 2)); end")
        outcomes = scheduler.drain()
        gap = outcomes[0]
        assert gap.failed and gap.rule is None
        assert "evicted" in gap.error
        # The retained commit is still audited.
        assert {o.rule for o in outcomes[1:]} == set(RULES)

    def test_scheduler_is_cached_per_database(self, db, controller):
        assert controller.audit_scheduler(db) is controller.audit_scheduler(db)

    def test_history_records_everything(self, db, controller):
        scheduler = controller.audit_scheduler(db)
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain()
        _commit(db, "begin insert(fk, (101, 4)); end")
        scheduler.drain(asynchronous=True)
        scheduler.wait()
        assert len(scheduler.history) == 4


class TestExecutors:
    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_async_drain_verdicts_identical_across_executors(
        self, db, controller, executor
    ):
        with AuditScheduler(
            controller,
            db,
            workers=2,
            dispatch_overhead=0.0,
            executor=executor,
        ) as scheduler:
            _commit(db, "begin insert(fk, (100, 3)); end")
            _commit(db, "begin insert(fk, (101, 55)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            assert [(o.rule, o.sequences, o.violated, o.violations) for o in outcomes] == [
                ("fk_ref", (0,), False, ()),
                ("fk_id", (0,), False, ()),
                ("fk_ref", (1,), True, ((101, 55),)),
                ("fk_id", (1,), False, ()),
            ]
            assert {o.executor for o in outcomes} == {executor}
            assert {o.mode for o in outcomes} == {"async"}

    def test_unknown_executor_rejected(self, db, controller):
        with pytest.raises(ValueError, match="unknown executor"):
            AuditScheduler(controller, db, executor="gpu")

    def test_process_replicas_track_later_commits(self, db, controller):
        # The pool snapshots the database at creation; commits recorded
        # afterwards must reach the worker replicas through the commit-log
        # stream before their audit tasks run.
        with AuditScheduler(
            controller,
            db,
            workers=2,
            dispatch_overhead=0.0,
            executor="process",
        ) as scheduler:
            scheduler.start()
            # Commit a new pk target, then a fk row referencing it: the
            # second audit is only clean if the replica applied the first.
            _commit(db, "begin insert(pk, (77,)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            _commit(db, "begin insert(fk, (200, 77)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            assert [(o.rule, o.violated) for o in outcomes] == [
                ("fk_ref", False),
                ("fk_id", False),
            ]

    def test_process_gap_triggers_replica_resync(self, controller):
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.commit_log = CommitLog(capacity=1)
        with AuditScheduler(
            controller,
            database,
            workers=2,
            dispatch_overhead=0.0,
            executor="process",
        ) as scheduler:
            scheduler.start()
            # Two commits, capacity-1 log: the first is evicted before the
            # drain, so replicas cannot replay it — they must resync.
            _commit(database, "begin insert(pk, (55,)); end")
            _commit(database, "begin insert(fk, (1, 55)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            assert outcomes[0].mode == "gap" and outcomes[0].executor is None
            # Audited on the resynced replica: (1, 55) finds target 55.
            assert [(o.rule, o.violated) for o in outcomes[1:]] == [
                ("fk_ref", False),
                ("fk_id", False),
            ]

    def test_poison_task_surfaces_from_process_worker(self, db, controller):
        # A rule name the worker's rebuilt controller doesn't know poisons
        # the task remotely; the failure must come back as an outcome, not
        # hang or vanish.
        from repro.core.procpool import ProcessAuditExecutor

        result = _commit(db, "begin insert(fk, (100, 3)); end")

        class Poison:
            rule_name = "no_such_rule"
            differentials = result.differentials

        pool = ProcessAuditExecutor(controller, db, workers=1)
        try:
            outcome = pool.submit(Poison(), (0,)).result()
            assert outcome.failed
            assert outcome.executor == "process"
            assert outcome.rule == "no_such_rule"
        finally:
            pool.shutdown()

    def test_context_manager_closes_executors(self, db, controller):
        with AuditScheduler(
            controller, db, workers=2, dispatch_overhead=0.0
        ) as scheduler:
            _commit(db, "begin insert(fk, (100, 3)); end")
            scheduler.drain(asynchronous=True)
            assert scheduler._thread_pool is not None
        # __exit__ drained in-flight tasks into history and shut the pool.
        assert scheduler._thread_pool is None
        assert len(scheduler.history) == 2
        assert not scheduler._outstanding

    def test_close_drains_in_flight_tasks(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=2, dispatch_overhead=0.0, executor="process"
        )
        _commit(db, "begin insert(fk, (101, 55)); end")
        scheduler.drain(asynchronous=True)
        scheduler.close()  # no wait() first: close must collect, not drop
        assert scheduler._process_pool is None
        assert ("fk_ref", True) in [
            (o.rule, o.violated) for o in scheduler.history
        ]

    def test_close_schedulers_closes_every_cached_pool(self, db, controller):
        scheduler = controller.audit_scheduler(db, dispatch_overhead=0.0)
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain(asynchronous=True)
        controller.close_schedulers()
        assert scheduler._thread_pool is None
        assert not scheduler._outstanding


class TestEwmaCorrection:
    def test_measured_seconds_update_corrections(self, db, controller):
        with AuditScheduler(
            controller, db, workers=2, dispatch_overhead=0.0
        ) as scheduler:
            _commit(db, "begin insert(fk, (100, 3)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            scheduler.wait()
            corrections = scheduler.audit_time_corrections
            # Every priced, executed rule now has an observed/predicted
            # ratio on file.
            assert set(corrections) == set(RULES)
            assert all(ratio > 0.0 for ratio in corrections.values())

    def test_correction_steers_dispatch(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=2, dispatch_overhead=1e-3
        )
        _commit(db, "begin insert(fk, (100, 3)); end")
        # A history claiming audits run vastly slower than predicted flips
        # the cheap tasks over the dispatch threshold...
        scheduler._corrections = {name: 1e12 for name in RULES}
        scheduler.drain(asynchronous=True, coalesce=False)
        scheduler.wait()
        assert scheduler.fanned_out == len(RULES)
        # ...and a vastly-faster-than-predicted history keeps them inline.
        _commit(db, "begin insert(fk, (101, 3)); end")
        scheduler._corrections = {name: 1e-12 for name in RULES}
        scheduler.drain(asynchronous=True, coalesce=False)
        scheduler.wait()
        assert scheduler.fanned_out == len(RULES)  # unchanged
        scheduler.close()

    def test_ewma_smooths_successive_ratios(self, db, controller):
        from repro.core.scheduler import AuditOutcome

        scheduler = AuditScheduler(controller, db)
        for seconds in (4.0, 2.0):
            scheduler._record(
                AuditOutcome(
                    "fk_ref",
                    (0,),
                    False,
                    mode="async",
                    executor="thread",
                    seconds=seconds,
                    predicted=1.0,
                )
            )
        # First observation seeds the EWMA (4.0); the second folds in at
        # alpha=0.5: 0.5*2.0 + 0.5*4.0.
        assert scheduler.audit_time_corrections["fk_ref"] == pytest.approx(3.0)


class TestSessionCommit:
    def test_sync_commit_attaches_verdicts(self, db, controller):
        session = Session(db, controller)
        result = session.commit("begin insert(fk, (101, 55)); end")
        assert result.committed
        assert [(o.rule, o.violated) for o in result.audit] == [
            ("fk_ref", True),
            ("fk_id", False),
        ]

    def test_deferred_commits_audit_on_drain(self, db, controller):
        session = Session(db, controller)
        first = session.commit("begin insert(fk, (100, 3)); end", audit="deferred")
        assert first.audit is None
        session.commit("begin insert(fk, (101, 55)); end", audit="deferred")
        outcomes = session.drain_audits(coalesce=False)
        assert [(o.rule, o.violated) for o in outcomes] == [
            ("fk_ref", False),
            ("fk_id", False),
            ("fk_ref", True),
            ("fk_id", False),
        ]

    def test_sync_commit_excludes_backlog_verdicts(self, db, controller):
        session = Session(db, controller)
        session.commit("begin insert(fk, (101, 55)); end", audit="deferred")
        result = session.commit("begin insert(fk, (100, 3)); end", audit="sync")
        # The drain audited the deferred backlog too, but only this
        # commit's verdicts attach to this result.
        assert [(o.rule, o.sequences, o.violated) for o in result.audit] == [
            ("fk_ref", (1,), False),
            ("fk_id", (1,), False),
        ]
        history = session.audit_scheduler().history
        assert ("fk_ref", (0,), True) in [
            (o.rule, o.sequences, o.violated) for o in history
        ]

    def test_async_commit_waits_for_verdicts(self, db, controller):
        session = Session(db, controller)
        session.commit("begin insert(fk, (101, 55)); end", audit="async")
        outcomes = session.wait_for_audits()
        assert ("fk_ref", True) in [(o.rule, o.violated) for o in outcomes]

    def test_commit_skips_modification_by_default(self, db, controller):
        session = Session(db, controller)
        result = session.commit("begin insert(fk, (101, 55)); end")
        # The dangling insert *committed* (optimistic pipeline) and the
        # audit flagged it — execute() would have aborted it instead.
        assert result.committed
        assert (101, 55) in db.relation("fk")
        aborted = session.execute("begin insert(fk, (102, 56)); end")
        assert aborted.aborted

    def test_modify_true_restores_preventive_enforcement(self, db, controller):
        session = Session(db, controller)
        result = session.commit(
            "begin insert(fk, (101, 55)); end", audit="sync", modify=True
        )
        assert result.aborted
        assert result.audit is None

    def test_invalid_audit_mode_rejected(self, db, controller):
        session = Session(db, controller)
        with pytest.raises(ValueError, match="audit must be one of"):
            session.commit("begin insert(fk, (1, 1)); end", audit="bogus")
