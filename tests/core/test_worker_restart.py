"""Worker-death recovery and durable-log integration of the audit pipeline."""

import pytest

from repro.core.procpool import ProcessAuditExecutor
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT
from repro.engine.wal import WriteAheadLog


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


def _kill(pool, worker):
    process = pool._pool.processes[worker]
    process.terminate()
    process.join(timeout=5.0)
    assert not process.is_alive()


class TestWorkerRestart:
    def test_killed_worker_restarts_and_task_retries_once(self, db, controller):
        pool = ProcessAuditExecutor(controller, db, workers=2)
        try:
            result = _commit(db, "begin insert(fk, (100, 55)); end")
            pool.replicate(db.commit_log.version)
            _kill(pool, 0)  # round-robin will hand the next task to it
            [task] = [
                t
                for t in controller.audit_tasks(db, result)
                if t.rule_name == "fk_ref"
            ]
            future = pool.submit(task, (0,))
            outcome = future.result()
            assert outcome.error is None
            assert outcome.violated is True  # ref 55 dangles
            assert outcome.violations == ((100, 55),)
            assert pool.restarts == 1
        finally:
            pool.shutdown()

    def test_second_death_surfaces_as_error(self, db, controller, monkeypatch):
        pool = ProcessAuditExecutor(controller, db, workers=2)
        try:
            original_spawn = pool._pool.spawn

            def spawn_dead_on_arrival(index, *args):
                original_spawn(index, *args)
                pool._pool.processes[index].terminate()
                pool._pool.processes[index].join(timeout=5.0)

            result = _commit(db, "begin insert(fk, (100, 3)); end")
            pool.replicate(db.commit_log.version)
            _kill(pool, 0)
            # Every respawn dies immediately: the single retry is spent,
            # then the task must fail loudly instead of looping forever.
            monkeypatch.setattr(pool._pool, "spawn", spawn_dead_on_arrival)
            [task] = [
                t
                for t in controller.audit_tasks(db, result)
                if t.rule_name == "fk_ref"
            ]
            outcome = pool.submit(task, (0,)).result()
            assert outcome.error is not None
            assert "died" in outcome.error
            assert pool.restarts >= 1
        finally:
            monkeypatch.undo()
            pool.shutdown()

    def test_scheduler_survives_worker_death_end_to_end(self, db, controller):
        scheduler = controller.audit_scheduler(
            db, workers=2, dispatch_overhead=0.0, executor="process"
        )
        scheduler.start()
        try:
            _kill(scheduler._process_pool, 0)
            _commit(db, "begin insert(fk, (100, 55)); end")
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            assert [(o.rule, o.violated, o.error) for o in outcomes] == [
                ("fk_ref", True, None),
                ("fk_id", False, None),
            ]
            assert scheduler._process_pool.restarts == 1
        finally:
            scheduler.close()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sibling_killed_mid_reply_does_not_stall_the_survivor(
        self, db, controller, start_method
    ):
        import multiprocessing
        import os
        import signal
        import threading

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        result = _commit(db, "begin insert(fk, (100, 55)); end")

        class Poison:  # its error names a 4 MB rule: a reply no pipe holds
            rule_name = "r" * (4 << 20)
            differentials = result.differentials

        pool = ProcessAuditExecutor(
            controller, db, workers=2, start_method=start_method
        )
        try:
            pool.replicate(db.commit_log.version)
            poisoned = pool.submit(Poison(), (0,))  # round-robin: worker 0
            assert pool._pool._replies[0].poll(60), "worker 0 never replied"
            os.kill(pool._pool.processes[0].pid, signal.SIGKILL)
            [task] = [
                t
                for t in controller.audit_tasks(db, result)
                if t.rule_name == "fk_ref"
            ]
            survivor = pool.submit(task, (0,))  # worker 1
            outcome = []
            caller = threading.Thread(
                target=lambda: outcome.append(survivor.result()), daemon=True
            )
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "the survivor's verdict never came"
            (verdict,) = outcome
            assert (verdict.error, verdict.violated) == (None, True)
            assert verdict.violations == ((100, 55),)
            # The killed worker's task was re-shipped once, to its respawn.
            retried = poisoned.result()
            assert retried.error.startswith("RuleError: no rule named 'rrr")
            assert pool.restarts == 1
        finally:
            pool.shutdown()

    def test_restarted_worker_rejoins_replication_stream(self, db, controller):
        pool = ProcessAuditExecutor(controller, db, workers=1)
        try:
            _kill(pool, 0)
            first = _commit(db, "begin insert(fk, (100, 3)); end")
            pool.replicate(db.commit_log.version)
            outcome = pool.submit(
                controller.audit_tasks(db, first)[0], (0,)
            ).result()
            assert outcome.error is None and pool.restarts == 1
            # The respawned worker was seeded *after* commit #0; the next
            # broadcast repeats nothing it already holds (idempotent by
            # version), and later commits replicate normally.
            second = _commit(db, "begin insert(fk, (101, 5)); end")
            pool.replicate(db.commit_log.version)
            [task] = [
                t
                for t in controller.audit_tasks(db, second)
                if t.rule_name == "fk_ref"
            ]
            outcome = pool.submit(task, (1,)).result()
            assert outcome.error is None
            assert outcome.violated is False
        finally:
            pool.shutdown()


class TestLargeDeltas:
    """A Δ whose blob is over 64 KiB travels the same pipe as a small one."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_a_large_delta_audits_like_inline_and_a_killed_worker_retries_once(
        self, db, controller, start_method
    ):
        import multiprocessing

        from repro.algebra.columnar import encode_differentials
        from repro.core.workers import encode

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        # Every third row dangles: ref 10 + i is no pk key.  Ids wide
        # enough that the columnar Δ stays over 64 KiB.
        rows = ", ".join(
            f"({10**12 + 7919 * i}, {i % 10 if i % 3 else 10 + i})"
            for i in range(9_000)
        )
        result = _commit(db, f"begin insert(fk, {{{rows}}}); end")
        assert len(encode(encode_differentials(result.differentials))) > 64 << 10
        tasks = controller.audit_tasks(db, result)
        inline = {t.rule_name: t.run() for t in tasks}
        assert inline["fk_ref"][0] is True and inline["fk_id"][0] is False

        pool = ProcessAuditExecutor(
            controller, db, workers=2, start_method=start_method
        )
        puts = []
        real_put = pool._pool.put

        def recording_put(index, message):
            if message[0] == "task":
                puts.append((message[1], message[3]))
            return real_put(index, message)

        pool._pool.put = recording_put
        try:
            pool.replicate(db.commit_log.version)
            _kill(pool, 0)  # round-robin hands it the first task
            futures = [pool.submit(task, (0,)) for task in tasks]
            outcomes = {o.rule: o for o in (f.result() for f in futures)}
        finally:
            pool.shutdown()
        for rule, (violated, violations) in inline.items():
            assert outcomes[rule].error is None
            assert outcomes[rule].violated is violated
            assert sorted(outcomes[rule].violations) == sorted(violations)
        assert pool.restarts == 1
        # Task 0 was stranded on the dead worker and put again once, as
        # the same blob; task 1 went to the live worker once.  One drain's
        # tasks share one pickled Δ.
        assert [task_id for task_id, _ in puts] == [0, 1, 0]
        assert len({id(blob) for _, blob in puts}) == 1


    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_an_apply_broadcast_over_64_kib_reaches_every_worker(
        self, db, controller, start_method
    ):
        import multiprocessing

        from repro.core.workers import encode
        from repro.engine.relation import Relation

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        pool = ProcessAuditExecutor(
            controller, db, workers=2, start_method=start_method
        )
        shipped = []
        real_broadcast = pool._pool.broadcast

        def recording_broadcast(message, payload=None):
            shipped.append((message[0], len(encode(payload))))
            real_broadcast(message, payload)

        pool._pool.broadcast = recording_broadcast
        try:
            # One ~40k-row commit: only its apply broadcast can bring keys
            # 10..40000 to the workers.
            keys = Relation(db.relation_schema("pk"))
            keys.insert_counts({(k,): 1 for k in range(10, 40_001)})
            db.apply_deltas({"pk": (keys, None)})
            pool.replicate(db.commit_log.version)
            [(kind, size)] = shipped
            assert kind == "apply" and size > 64 << 10
            result = _commit(
                db, "begin insert(fk, {(501, 40000), (502, 1000000)}); end"
            )
            pool.replicate(db.commit_log.version)
            tasks = controller.audit_tasks(db, result)
            inline = {t.rule_name: t.run() for t in tasks}
            violated, violations = inline["fk_ref"]
            assert (violated, list(violations)) == (True, [(502, 1000000)])
            # Each rule's task goes to both workers (round-robin).
            futures = [pool.submit(task, (1,)) for task in tasks + tasks]
            outcomes = [future.result() for future in futures]
        finally:
            pool.shutdown()
        assert pool.restarts == 0
        for outcome in outcomes:
            violated, violations = inline[outcome.rule]
            assert outcome.error is None
            assert outcome.violated is violated
            assert sorted(outcome.violations) == sorted(violations)


class TestExecutorLifecycle:
    """The pool's one client: a poisoned task, a second shutdown."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_a_worker_audits_after_a_poison_task(
        self, db, controller, start_method
    ):
        result = _commit(db, "begin insert(fk, (100, 55)); end")

        class Poison:
            rule_name = "no_such_rule"
            differentials = result.differentials

        [task] = [
            t for t in controller.audit_tasks(db, result) if t.rule_name == "fk_ref"
        ]
        pool = ProcessAuditExecutor(
            controller, db, workers=1, start_method=start_method
        )
        try:
            pool.replicate(db.commit_log.version)
            poisoned = pool.submit(Poison(), (0,))
            audited = pool.submit(task, (0,))  # the same, only, worker
            assert poisoned.result().error.startswith("RuleError")
            outcome = audited.result()
            assert (outcome.error, outcome.violated) == (None, True)
            assert outcome.violations == ((100, 55),)
            assert pool.restarts == 0
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_shutdown_is_idempotent_and_releases_the_pin(
        self, db, controller, start_method
    ):
        before = db.epochs.pinned_versions()
        pool = ProcessAuditExecutor(
            controller, db, workers=2, start_method=start_method
        )
        assert len(db.epochs.pinned_versions()) == len(before) + 1
        pool.shutdown()
        pool.shutdown()
        assert db.epochs.pinned_versions() == before
        assert [p.exitcode for p in pool._pool.processes] == [0, 0]

    def test_a_pool_of_no_workers_runs_one(self, db, controller):
        pool = ProcessAuditExecutor(controller, db, workers=0)
        try:
            assert pool.workers == len(pool._pool.processes) == 1
            assert pool._pool.processes[0].is_alive()
        finally:
            pool.shutdown()


class TestDurableLogIntegration:
    def test_drain_advances_audit_watermark(self, db, controller, tmp_path):
        db.attach_wal(WriteAheadLog(tmp_path))
        scheduler = controller.audit_scheduler(db)
        _commit(db, "begin insert(fk, (100, 3)); end")
        _commit(db, "begin insert(fk, (101, 4)); end")
        scheduler.drain()
        assert db.wal.consumers["audit-scheduler"] == 2
        scheduler.close()
        assert "audit-scheduler" not in db.wal.consumers
        db.detach_wal()

    def test_a_process_scheduler_holds_no_replica_wal_entry(
        self, db, controller, tmp_path
    ):
        db.attach_wal(WriteAheadLog(tmp_path))
        db.epochs.retain = 2
        scheduler = controller.audit_scheduler(
            db, workers=2, dispatch_overhead=0.0, executor="process",
            coalesce=False,
        )
        scheduler.start()
        try:
            for i in range(4):  # past the retention window
                _commit(db, f"begin insert(fk, (20{i}, {i})); end")
            _commit(db, "begin insert(fk, (300, 55)); end")  # dangling ref
            scheduler.drain(asynchronous=True)
            scheduler.wait()
            # Every commit audited once, none failed, against replicas kept
            # current by apply records alone: the durable log holds nothing
            # for them, and the audit watermark still advances.
            verdicts = {(o.rule, o.sequences): o.violated for o in scheduler.history}
            assert sorted(verdicts) == sorted(
                (rule, (seq,)) for rule in RULES for seq in range(5)
            )
            assert len(scheduler.history) == len(verdicts)
            assert verdicts[("fk_ref", (4,))] is True
            assert not any(o.failed for o in scheduler.history)
            assert db.wal.consumers == {"audit-scheduler": 5}
        finally:
            scheduler.close()
            db.detach_wal()
