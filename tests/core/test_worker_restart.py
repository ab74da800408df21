"""Worker-death recovery and durable-log integration of the audit pipeline."""

import pytest

from repro.core.procpool import ProcessAuditExecutor
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.commitlog import CommitLog
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
            pool.replicate(db.commit_log.since(0)[0])
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
            pool.replicate(db.commit_log.since(0)[0])
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
            pool.replicate(db.commit_log.since(0)[0])
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
            pool.replicate(db.commit_log.since(0)[0])
            outcome = pool.submit(
                controller.audit_tasks(db, first)[0], (0,)
            ).result()
            assert outcome.error is None and pool.restarts == 1
            # The respawned worker was seeded *after* commit #0; the next
            # broadcast repeats nothing it already holds (idempotent by
            # sequence), and later commits replicate normally.
            second = _commit(db, "begin insert(fk, (101, 5)); end")
            pool.replicate(db.commit_log.since(0)[0])
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

    def test_gap_resyncs_replicas_from_log(self, db, controller, tmp_path, monkeypatch):
        db.attach_wal(WriteAheadLog(tmp_path))
        db.commit_log = CommitLog(capacity=2)
        used_log = {}
        original = ProcessAuditExecutor._resync_from_log

        def spy(self, database):
            used_log["value"] = original(self, database)
            return used_log["value"]

        monkeypatch.setattr(ProcessAuditExecutor, "_resync_from_log", spy)
        scheduler = controller.audit_scheduler(
            db, workers=2, dispatch_overhead=0.0, executor="process"
        )
        scheduler.start()
        try:
            assert db.wal.consumers["process-replicas"] == 0
            for i in range(4):  # overflow the bounded in-memory log
                _commit(db, f"begin insert(fk, (20{i}, {i})); end")
            _commit(db, "begin insert(fk, (300, 55)); end")  # dangling ref
            scheduler.drain(asynchronous=True, coalesce=False)
            outcomes = scheduler.wait()
            # The gap is surfaced, the replicas caught up *from the log*,
            # and the post-gap audits are correct against replica state.
            assert outcomes[0].mode == "gap"
            assert used_log["value"] is True
            verdicts = {
                (o.rule, o.sequences): o.violated
                for o in outcomes
                if o.rule is not None
            }
            assert verdicts[("fk_ref", (4,))] is True
            assert all(o.error is None for o in outcomes[1:])
            assert db.wal.consumers["process-replicas"] == 5
        finally:
            scheduler.close()
            db.detach_wal()

    def test_only_log_failures_degrade_to_a_full_replica_ship(
        self, db, controller, tmp_path, monkeypatch
    ):
        from repro.errors import WalCorruptionError

        db.attach_wal(WriteAheadLog(tmp_path))
        pool = ProcessAuditExecutor(controller, db, workers=1)
        shipped = []
        real_broadcast = pool._pool.broadcast

        def recording_broadcast(message, payload=None):
            shipped.append(message[0])
            return real_broadcast(message, payload)

        monkeypatch.setattr(pool._pool, "broadcast", recording_broadcast)
        try:
            _commit(db, "begin insert(fk, (100, 3)); end")

            def buggy_scan(*args, **kwargs):
                raise TypeError("a bug in the scan, not a log failure")

            monkeypatch.setattr(db.wal, "scan", buggy_scan)
            with pytest.raises(TypeError, match="a bug in the scan"):
                pool.resync(db)
            assert shipped == []  # surfaced, not read as "ship everything"

            def corrupt_scan(*args, **kwargs):
                raise WalCorruptionError("segment", 0, "short segment header")

            monkeypatch.setattr(db.wal, "scan", corrupt_scan)
            pool.resync(db)
            assert shipped == ["resync"]
            second = _commit(db, "begin insert(fk, (101, 55)); end")
            pool.replicate(db.commit_log.since(0)[0])
            [task] = [
                t
                for t in controller.audit_tasks(db, second)
                if t.rule_name == "fk_ref"
            ]
            outcome = pool.submit(task, (1,)).result()
            assert (outcome.error, outcome.violated) == (None, True)
        finally:
            pool.shutdown()
            db.detach_wal()
