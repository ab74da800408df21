"""The audit scheduler: draining, fan-out, poison tasks, session modes."""

import pytest

from repro.core.scheduler import AuditScheduler, RuleAuditTask
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
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
        # A rule with no history fans out; one sync drain settles a rate
        # for every rule, pricing the next audits under the dispatch.
        _commit(db, "begin insert(fk, (99, 2)); end")
        scheduler.drain()
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

    def test_interrupt_during_inline_audit_propagates(
        self, db, controller, monkeypatch
    ):
        scheduler = controller.audit_scheduler(db)
        _commit(db, "begin insert(fk, (100, 3)); end")
        _commit(db, "begin insert(fk, (101, 55)); end")

        pinned_during = []
        interrupts = [KeyboardInterrupt]  # the first batch's second task, once

        class _Interrupted(RuleAuditTask):
            def run(self):
                pinned_during.append(db.epochs.pinned_versions())
                if self.rule_name == "fk_id" and interrupts:
                    raise interrupts.pop()
                return super().run()

        audit_tasks = controller.audit_tasks

        def interrupted_tasks(database, differentials):
            return [
                _Interrupted(t.controller, t.rule, t.program, t.database,
                             t.differentials)
                for t in audit_tasks(database, differentials)
            ]

        monkeypatch.setattr(controller, "audit_tasks", interrupted_tasks)
        # An interrupt is not a poisoned verdict: the sync drain stops at
        # the first batch's second task...
        with pytest.raises(KeyboardInterrupt):
            scheduler.drain(coalesce=False)
        # ...no task or batch leaves its epoch span pinned, and the cut
        # batch keeps no verdict: both commits go back to the next drain.
        assert len(pinned_during) == 2 and () not in pinned_during
        assert db.epochs.pinned_versions() == ()
        assert scheduler.history == []
        assert scheduler.cursor == 0 and scheduler.pending() == 2
        # The next drain audits both commits, each verdict once.
        outcomes = scheduler.drain(coalesce=False)
        assert [(o.rule, o.sequences, o.violated) for o in outcomes] == [
            ("fk_ref", (0,), False),
            ("fk_id", (0,), False),
            ("fk_ref", (1,), True),
            ("fk_id", (1,), False),
        ]
        assert scheduler.history == outcomes
        assert scheduler.pending() == 0

    def test_interrupted_wait_keeps_every_outcome(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=2, dispatch_overhead=0.0
        )
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain(asynchronous=True)

        class _InterruptedOnce:
            """A slot whose first collection is cut by an interrupt."""

            def __init__(self, future):
                self.future, self.interrupted = future, False

            def result(self):
                if not self.interrupted:
                    self.interrupted = True
                    raise KeyboardInterrupt
                return self.future.result()

        first, second = scheduler._outstanding
        scheduler._outstanding[1] = _InterruptedOnce(second)
        with pytest.raises(KeyboardInterrupt):
            scheduler.wait()
        assert scheduler.history == []
        # The interrupted wait handed both slots back, in order.
        outcomes = scheduler.wait()
        assert [o.rule for o in outcomes] == ["fk_ref", "fk_id"]
        assert scheduler.history == outcomes
        scheduler.close()

    def test_exit_on_a_pool_thread_is_a_verdict(self, db, controller):
        # A task raising SystemExit on a pool thread fails its own audit,
        # as a process worker's death does; on the caller's thread the
        # exit propagates.
        result = _commit(db, "begin insert(fk, (100, 3)); end")
        task = controller.audit_tasks(db, result)[0]

        class _Exits(RuleAuditTask):
            def run(self):
                raise SystemExit(3)

        from repro.core.scheduler import _execute

        exits = _Exits(task.controller, task.rule, task.program,
                       task.database, task.differentials)
        outcome = _execute(exits, (0,), "async", "thread")
        assert outcome.failed and outcome.error == "SystemExit: 3"
        with pytest.raises(SystemExit):
            _execute(exits, (0,), "sync", "inline")

    def test_commits_past_retain_reach_async_wait(self, controller):
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.epochs.retain = 1
        scheduler = controller.audit_scheduler(database)
        _commit(database, "begin insert(fk, (1, 1)); end")
        _commit(database, "begin insert(fk, (2, 2)); end")
        # The second commit caught the scheduler up through the first on
        # the committing thread; its verdicts travel through wait() with
        # the async drain's, in commit order.
        scheduler.drain(asynchronous=True)
        outcomes = scheduler.wait()
        assert [(o.rule, o.sequences) for o in outcomes] == [
            ("fk_ref", (0,)),
            ("fk_id", (0,)),
            ("fk_ref", (1,)),
            ("fk_id", (1,)),
        ]
        assert not any(o.failed for o in outcomes)
        scheduler.close()

    def test_a_lagging_cursor_holds_its_commits(self, controller):
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.epochs.retain = 1
        scheduler = controller.audit_scheduler(database)
        _commit(database, "begin insert(fk, (1, 1)); end")
        _commit(database, "begin insert(fk, (2, 2)); end")
        # Caught up by the committer: #0's verdicts are in history already,
        # and the sync drain returns them before its own audit of #1; no
        # commit is lost to the window, and none is handed out twice.
        assert [(o.rule, o.sequences) for o in scheduler.history] == [
            ("fk_ref", (0,)),
            ("fk_id", (0,)),
        ]
        outcomes = scheduler.drain()
        assert [(o.rule, o.sequences) for o in outcomes] == [
            ("fk_ref", (0,)),
            ("fk_id", (0,)),
            ("fk_ref", (1,)),
            ("fk_id", (1,)),
        ]
        assert scheduler.wait() == []
        assert scheduler.history == outcomes
        assert not any(o.failed for o in scheduler.history)

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

    @pytest.mark.parametrize("started", [False, True], ids=["lazy", "started"])
    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_each_batch_is_audited_at_its_own_state(
        self, db, controller, executor, started
    ):
        """Three commits drained at once, one batch each: deleting a
        referenced key violates ``fk_ref`` at its own state, though the
        next commit re-inserts the key.  A process pool the drain creates,
        or one started after the commits, starts at the cursor's state and
        is shipped each batch just before the batch's tasks."""
        with AuditScheduler(
            controller,
            db,
            workers=2,
            dispatch_overhead=0.0,
            executor=executor,
        ) as scheduler:
            _commit(db, "begin insert(fk, (100, 3)); end")
            _commit(db, "begin delete(pk, (3,)); end")
            _commit(db, "begin insert(pk, (3,)); end")
            if started:
                scheduler.start()
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            assert [(o.rule, o.sequences, o.violated) for o in outcomes] == [
                ("fk_ref", (0,), False),
                ("fk_id", (0,), False),
                ("fk_ref", (1,), True),
            ]

    @pytest.mark.parametrize("started", [False, True], ids=["lazy", "started"])
    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_a_load_between_commits_reaches_the_later_audit(
        self, db, controller, executor, started
    ):
        """Each batch is audited at its own post-state, a bulk load (an
        unrecorded batch) included: the first commit with its own new key,
        the second without the key loaded after it, the third with it."""
        with AuditScheduler(
            controller,
            db,
            workers=2,
            dispatch_overhead=0.0,
            executor=executor,
        ) as scheduler:
            if started:
                scheduler.start()
            _commit(db, "begin insert(pk, (66,)); insert(fk, (99, 66)); end")
            _commit(db, "begin insert(fk, (100, 77)); end")
            db.load("pk", [(77,)])
            _commit(db, "begin insert(fk, (101, 77)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            assert [(o.rule, o.sequences, o.violated) for o in outcomes] == [
                ("fk_ref", (0,), False),
                ("fk_id", (0,), False),
                ("fk_ref", (1,), True),
                ("fk_id", (1,), False),
                ("fk_ref", (2,), False),
                ("fk_id", (2,), False),
            ]

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

    def test_process_replicas_follow_a_lagging_cursor(self, controller):
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.epochs.retain = 1
        with AuditScheduler(
            controller,
            database,
            workers=2,
            dispatch_overhead=0.0,
            executor="process",
        ) as scheduler:
            scheduler.start()
            shipped = []
            broadcast = scheduler._process_pool._pool.broadcast

            def recording_broadcast(message, payload=None):
                if message[0] == "apply":
                    shipped.append((message[0], [v for v, _ in payload]))
                else:
                    shipped.append((message[0], None))
                return broadcast(message, payload)

            scheduler._process_pool._pool.broadcast = recording_broadcast
            # A retain-1 stream: the second commit catches the scheduler up
            # through the first, which replicates it before the drain.
            _commit(database, "begin insert(pk, (55,)); end")
            _commit(database, "begin insert(fk, (1, 55)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            # The replicas saw every commit as an apply, in version order
            # (the load before the pool is version 1), and audited (1, 55)
            # against the replicated target 55.
            assert shipped == [("apply", [2]), ("apply", [3])]
            assert [(o.rule, o.violated, o.executor) for o in outcomes] == [
                ("fk_ref", False, "process"),
                ("fk_id", False, "process"),
            ]

    def test_process_replicas_survive_more_loads_than_retain(self, controller):
        # Ten loads between two drains on a retain-2 stream: the executor's
        # pin at its replicated version keeps every batch its replica lacks,
        # so the second commit's drain ships them instead of raising
        # EpochUnavailableError after the transaction has committed.
        database = Database(schema())
        database.load("pk", [(k,) for k in range(10)])
        database.epochs.retain = 2
        scheduler = controller.audit_scheduler(
            database, executor="process", workers=1, dispatch_overhead=0.0
        ).start()
        try:
            session = Session(database, controller)
            first = session.commit("begin insert(fk, (1, 3)); end", audit="async")
            assert first.committed
            for key in range(100, 110):
                database.load("pk", [(key,)])
            # (2, 105) is clean only on a replica that applied the loads.
            assert session.commit(
                "begin insert(fk, (2, 105)); end", audit="async"
            ).committed
            outcomes = scheduler.wait()
            assert [(o.violated, o.executor, o.error) for o in outcomes] == [
                (False, "process", None)
            ] * 4
        finally:
            scheduler.close()

    def test_process_outcomes_settle_rates(self, db, controller):
        # A worker's verdict comes back with the task's rows, so a process
        # audit settles its rule's rate like an inline one.
        with AuditScheduler(
            controller,
            db,
            workers=1,
            dispatch_overhead=0.0,
            executor="process",
        ) as scheduler:
            _commit(db, "begin insert(fk, (100, 3)); insert(fk, (101, 4)); end")
            scheduler.drain(asynchronous=True)
            outcomes = scheduler.wait()
            assert [(o.rule, o.executor, o.rows) for o in outcomes] == [
                ("fk_ref", "process", 2),
                ("fk_id", "process", 2),
            ]
            rates = scheduler.audit_rates
            for outcome in outcomes:
                assert rates[outcome.rule] == pytest.approx(outcome.seconds / 2)

    @staticmethod
    def _process_scheduler(controller, db, start_method):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        return AuditScheduler(
            controller,
            db,
            workers=1,
            dispatch_overhead=0.0,
            executor="process",
            start_method=start_method,
        )

    @staticmethod
    def _verdicts(outcomes):
        assert all(o.executor == "process" and not o.failed for o in outcomes)
        return {o.rule: (o.violated, tuple(o.violations)) for o in outcomes}

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_workers_audit_a_rule_added_after_start(
        self, db, controller, start_method
    ):
        with self._process_scheduler(controller, db, start_method) as scheduler:
            scheduler.start()
            controller.add_constraint("small", "(forall x)(x in fk => x.id < 1000)")
            result = _commit(db, "begin insert(fk, (5000, 3)); end")
            scheduler.drain(asynchronous=True)
            outcomes = scheduler.wait()
        inline = {
            task.rule_name: task.run()
            for task in controller.audit_tasks(db, result)
        }
        assert self._verdicts(outcomes) == inline
        assert inline["small"] == (True, ((5000, 3),))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_workers_audit_a_redefined_rule_with_its_new_condition(
        self, db, controller, start_method
    ):
        controller.add_constraint("cap", "(forall x)(x in fk => x.id < 100000)")
        with self._process_scheduler(controller, db, start_method) as scheduler:
            scheduler.start()
            _commit(db, "begin insert(fk, (60, 3)); end")
            scheduler.drain(asynchronous=True)  # in flight across the change
            controller.remove_rule("cap")
            controller.add_constraint("cap", "(forall x)(x in fk => x.id < 10)")
            result = _commit(db, "begin insert(fk, (50, 3)); end")
            scheduler.drain(asynchronous=True)
            outcomes = scheduler.wait()
        before = [o for o in outcomes if o.sequences == (0,)]
        after = [o for o in outcomes if o.sequences == (1,)]
        # The first drain's verdicts reach wait(), under the rules it ran
        # with; the second's are the inline verdicts of the current rules.
        assert self._verdicts(before) == {
            "fk_ref": (False, ()),
            "fk_id": (False, ()),
            "cap": (False, ()),
        }
        inline = {
            task.rule_name: task.run()
            for task in controller.audit_tasks(db, result)
        }
        assert self._verdicts(after) == inline
        assert inline["cap"][0] is True
        assert controller.violated_constraints(db) == ["cap"]

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


class TestSettledRates:
    def test_a_drain_settles_every_rule(self, db, controller):
        scheduler = AuditScheduler(controller, db)
        assert scheduler.audit_rates == {}
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain()  # a sync drain settles too
        rates = scheduler.audit_rates
        assert set(rates) == set(RULES)
        assert all(rate > 0.0 for rate in rates.values())

    def test_rates_steer_dispatch(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=2, dispatch_overhead=1e-3
        )
        _commit(db, "begin insert(fk, (100, 3)); end")
        # A history of audits vastly slower per Δ-row than one dispatch
        # fans the tasks out...
        scheduler._rates = {name: 1e12 for name in RULES}
        scheduler.drain(asynchronous=True, coalesce=False)
        scheduler.wait()
        assert scheduler.fanned_out == len(RULES)
        # ...and a vastly faster one keeps them inline.
        _commit(db, "begin insert(fk, (101, 3)); end")
        scheduler._rates = {name: 1e-12 for name in RULES}
        scheduler.drain(asynchronous=True, coalesce=False)
        scheduler.wait()
        assert scheduler.fanned_out == len(RULES)  # unchanged
        scheduler.close()

    def test_ewma_folds_seconds_per_row(self, db, controller):
        from repro.core.scheduler import AuditOutcome

        scheduler = AuditScheduler(controller, db)
        for seconds, rows in ((4.0, 2), (3.0, 6)):
            scheduler._record([
                AuditOutcome(
                    "fk_ref", (0,), False, mode="async", executor="thread",
                    seconds=seconds, rows=rows,
                )
            ])
        # First outcome seeds the EWMA (4.0 / 2 rows); the second folds in
        # at alpha=0.5: 0.5 * 3.0/6 + 0.5 * 2.0.
        assert scheduler.audit_rates["fk_ref"] == pytest.approx(1.25)
        # A failed audit settles nothing.
        scheduler._record([
            AuditOutcome("fk_ref", (1,), None, error="boom", seconds=9.0, rows=1)
        ])
        assert scheduler.audit_rates["fk_ref"] == pytest.approx(1.25)
        # The price is the rate times the task's rows; the delta sizes a
        # caller passes are not consulted.
        inserts = " ".join(f"insert(fk, ({100 + i}, 3));" for i in range(4))
        result = _commit(db, f"begin {inserts} end")
        tasks = {t.rule_name: t for t in controller.audit_tasks(db, result)}
        price = scheduler.predicted_audit_seconds
        assert tasks["fk_ref"].rows == 4
        assert price(tasks["fk_ref"]) == pytest.approx(5.0)
        assert price(tasks["fk_ref"], {"fk@plus": 9}) == pytest.approx(5.0)
        assert price(tasks["fk_id"]) is None  # no history yet

    def test_outcome_rows_count_the_audited_delta(self, db, controller):
        scheduler = AuditScheduler(controller, db)
        _commit(
            db,
            "begin insert(fk, (100, 3)); insert(fk, (101, 4)); "
            "insert(fk, (102, 5)); end",
        )
        _commit(db, "begin delete(fk, (0, 0)); end")
        # Two commits coalesced into one batch of 3 inserts and 1 delete.
        # Neither rule is triggered by DEL(fk), so each outcome counts the
        # 3 inserts only and settles its seconds over them.
        outcomes = scheduler.drain(coalesce=True)
        assert [(o.rule, o.sequences, o.rows) for o in outcomes] == [
            ("fk_ref", (0, 1), 3),
            ("fk_id", (0, 1), 3),
        ]
        rates = scheduler.audit_rates
        for outcome in outcomes:
            assert rates[outcome.rule] == pytest.approx(outcome.seconds / 3)

    def test_an_unrelated_delta_leaves_the_price_alone(self, db, controller):
        # One fk insert beside 200 pk inserts: neither rule is triggered by
        # INS(pk), so the pk rows neither settle into nor price its audits.
        scheduler = AuditScheduler(
            controller, db, workers=2, dispatch_overhead=1e-3
        )
        keys = " ".join(f"insert(pk, ({1000 + i},));" for i in range(200))
        _commit(db, f"begin insert(fk, (100, 3)); {keys} end")
        outcomes = scheduler.drain()
        assert [(o.rule, o.rows) for o in outcomes] == [
            ("fk_ref", 1), ("fk_id", 1),
        ]
        rates = scheduler.audit_rates
        for outcome in outcomes:
            assert rates[outcome.rule] == pytest.approx(outcome.seconds)
        # At 1e-5 s per row the audit stays under one dispatch however
        # large the unrelated delta is (201 rows would price over it).
        scheduler._rates = {name: 1e-5 for name in RULES}
        keys = " ".join(f"insert(pk, ({2000 + i},));" for i in range(200))
        _commit(db, f"begin insert(fk, (101, 3)); {keys} end")
        scheduler.drain(asynchronous=True)
        outcomes = scheduler.wait()
        assert {(o.executor, o.rows) for o in outcomes} == {("inline", 1)}
        assert scheduler.fanned_out == 0
        scheduler.close()

    def test_delta_rows_steer_dispatch(self, db, controller):
        scheduler = AuditScheduler(
            controller, db, workers=2, dispatch_overhead=1e-3
        )
        # At 1e-5 s per Δ-row, a one-row batch prices under one dispatch
        # and runs inline...
        scheduler._rates = {name: 1e-5 for name in RULES}
        _commit(db, "begin insert(fk, (100, 3)); end")
        scheduler.drain(asynchronous=True)
        scheduler.wait()
        assert (scheduler.ran_inline, scheduler.fanned_out) == (len(RULES), 0)
        # ...while 200 rows at the same rate price over it and fan out,
        # against the same relations.
        scheduler._rates = {name: 1e-5 for name in RULES}
        inserts = " ".join(f"insert(fk, ({200 + i}, 3));" for i in range(200))
        _commit(db, f"begin {inserts} end")
        scheduler.drain(asynchronous=True)
        outcomes = scheduler.wait()
        assert {(o.executor, o.rows) for o in outcomes} == {("thread", 200)}
        assert (scheduler.ran_inline, scheduler.fanned_out) == (
            len(RULES), len(RULES)
        )
        scheduler.close()

    def test_full_check_audits_settle_a_rate(self, db):
        # A compensating rule audits by the full-state check, not by a
        # differential program.  Its cost follows |R|, not |Δ|, so it is
        # measured and priced per audit: one row, whatever the delta.
        controller = IntegrityController(schema())
        controller.add_constraint(
            "fk_id", RULES["fk_id"], response="delete(fk, select(fk, id < 0))"
        )
        scheduler = AuditScheduler(controller, db)
        result = _commit(
            db, "begin insert(fk, (100, 3)); insert(fk, (101, 4)); end"
        )
        (task,) = controller.audit_tasks(db, result)
        assert task.kind == "full" and task.rows == 1
        (outcome,) = scheduler.drain()
        assert outcome.ok and outcome.rows == 1
        rate = scheduler.audit_rates["fk_id"]
        assert rate > 0.0 and rate == pytest.approx(outcome.seconds)
        assert scheduler.predicted_audit_seconds(task) == pytest.approx(rate)


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
