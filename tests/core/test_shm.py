"""Shared-memory transport: descriptors, refcounting, leak checks through
both pool clients, and the resource tracker the workers share."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core import workers
from repro.core.workers import ShmTransport

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def every_blob_in_shm(monkeypatch):
    monkeypatch.setattr(workers, "SHM_MIN_BYTES", 1)


@pytest.fixture
def transport(every_blob_in_shm):
    return ShmTransport()


class TestShipAndLoad:
    def test_small_blobs_stay_on_the_pipe(self, monkeypatch):
        monkeypatch.setattr(workers, "SHM_MIN_BYTES", 1 << 20)
        transport = ShmTransport()
        descriptor = transport.ship(b"tiny", readers=3)
        assert descriptor == ("pipe", b"tiny")
        assert transport.live_segments() == ()
        assert transport.bytes_shipped == 0
        blob, ack = workers.load(descriptor)
        assert (blob, ack) == (b"tiny", None)

    def test_min_bytes_above_the_blob_always_pipes(self, monkeypatch):
        monkeypatch.setattr(workers, "SHM_MIN_BYTES", 1001)
        transport = ShmTransport()
        assert transport.ship(b"x" * 1000, readers=2)[0] == "pipe"
        assert transport.ship(b"x" * 1001, readers=2)[0] == (
            "shm" if workers.SHM_AVAILABLE else "pipe"
        )
        transport.release_all()

    @pytest.mark.skipif(not workers.SHM_AVAILABLE, reason="no shared memory")
    def test_large_blobs_go_through_a_segment(self, transport):
        payload = b"y" * 4096
        descriptor = transport.ship(payload, readers=1)
        try:
            assert descriptor[0] == "shm" and descriptor[2] == len(payload)
            assert transport.bytes_shipped == len(payload)
            assert transport.live_segments() == (descriptor[1],)
            blob, ack = workers.load(descriptor)
            assert blob == payload and ack == descriptor[1]
        finally:
            transport.release_all()

    @pytest.mark.skipif(not workers.SHM_AVAILABLE, reason="no shared memory")
    def test_a_failed_segment_create_falls_back_to_the_pipe(
        self, transport, monkeypatch
    ):
        def no_space(**_):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(workers.shared_memory, "SharedMemory", no_space)
        assert transport.ship(b"z" * 100, readers=1) == ("pipe", b"z" * 100)


@pytest.mark.skipif(not workers.SHM_AVAILABLE, reason="no shared memory")
class TestRefcounting:
    def test_segment_unlinks_after_last_ack(self, transport):
        descriptor = transport.ship(b"z" * 100, readers=2)
        name = descriptor[1]
        transport.ack(name)
        assert transport.live_segments() == (name,)
        transport.ack(name)
        assert transport.live_segments() == ()
        # Attaching a drained segment must fail: it is gone, not leaked.
        with pytest.raises(FileNotFoundError):
            workers.load(("shm", name, 1))

    def test_reship_extends_lifetime(self, transport):
        descriptor = transport.ship(b"w" * 100, readers=1)
        assert transport.reship(descriptor, readers=1) == descriptor
        transport.ack(descriptor[1])
        assert transport.live_segments() == (descriptor[1],)
        transport.ack(descriptor[1])
        assert transport.live_segments() == ()

    def test_reship_after_drain_signals_reshipment_needed(self, transport):
        descriptor = transport.ship(b"v" * 100, readers=1)
        transport.ack(descriptor[1])
        assert transport.reship(descriptor) is None

    def test_reship_passes_pipe_descriptors_through(self, transport):
        assert transport.reship(("pipe", b"k")) == ("pipe", b"k")

    def test_stale_ack_is_ignored(self, transport):
        transport.ack("no-such-segment")  # must not raise

    def test_release_all_force_unlinks(self, transport):
        first = transport.ship(b"a" * 100, readers=5)
        second = transport.ship(b"b" * 100, readers=5)
        transport.release_all()
        assert transport.live_segments() == ()
        for descriptor in (first, second):
            with pytest.raises(FileNotFoundError):
                workers.load(descriptor)


@pytest.mark.skipif(not workers.SHM_AVAILABLE, reason="no shared memory")
class TestExecutorIntegration:
    """End-to-end: the process executor drains every segment it ships."""

    def _fixture(self):
        from repro.core.subsystem import IntegrityController
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT

        db_schema = DatabaseSchema(
            [
                RelationSchema("fk", [("id", INT), ("ref", INT)]),
                RelationSchema("pk", [("key", INT)]),
            ]
        )
        database = Database(db_schema)
        database.load("pk", [(k,) for k in range(10)])
        database.load("fk", [(i, i % 10) for i in range(20)])
        controller = IntegrityController(db_schema)
        controller.add_constraint(
            "fk_ref",
            "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))",
        )
        controller.add_constraint(
            "fk_id", "(forall x)(x in fk => x.id >= 0)"
        )
        return database, controller

    def test_no_segment_survives_a_drained_pool(self, every_blob_in_shm):
        from repro.core.procpool import ProcessAuditExecutor
        from repro.engine import Session

        database, controller = self._fixture()
        result = Session(database).execute("begin insert(fk, (100, 3)); end")
        assert result.committed
        records, _ = database.commit_log.since(0)
        pool = ProcessAuditExecutor(controller, database, workers=2)
        transport = pool._pool.transport
        try:
            pool.replicate(records)
            tasks = controller.audit_tasks(database, result)
            futures = [
                pool.submit(task, (records[-1].sequence,)) for task in tasks
            ]
            outcomes = [future.result() for future in futures]
            assert [outcome.failed for outcome in outcomes] == [False, False]
            assert transport.bytes_shipped > 0
            # Replication fanned out to both workers; tasks each shipped
            # once more.  Every segment must drain as acks come back.
            deadline = time.monotonic() + 10.0
            while transport.live_segments():
                assert time.monotonic() < deadline, (
                    f"leaked segments: {transport.live_segments()}"
                )
                pool.reap_acks()
                time.sleep(0.01)
        finally:
            pool.shutdown()
        assert transport.live_segments() == ()

    def test_verdicts_identical_with_and_without_shm(self, monkeypatch):
        from repro.core.procpool import ProcessAuditExecutor
        from repro.engine import Session

        verdicts = {}
        for min_bytes in (1, 1 << 30):  # everything-shm vs everything-pipe
            monkeypatch.setattr(workers, "SHM_MIN_BYTES", min_bytes)
            database, controller = self._fixture()
            result = Session(database).execute(
                "begin insert(fk, (7, 55)); end"
            )
            assert result.committed
            records, _ = database.commit_log.since(0)
            pool = ProcessAuditExecutor(controller, database, workers=1)
            try:
                pool.replicate(records)
                tasks = controller.audit_tasks(database, result)
                outcomes = [
                    pool.submit(task, (records[-1].sequence,)).result()
                    for task in tasks
                ]
                verdicts[min_bytes] = sorted(
                    (o.rule, o.violated, o.failed) for o in outcomes
                )
            finally:
                pool.shutdown()
        assert verdicts[1] == verdicts[1 << 30]
        # (7, 55) references a missing pk key: the referential rule fires.
        assert ("fk_ref", True, False) in verdicts[1]


@pytest.mark.skipif(not workers.SHM_AVAILABLE, reason="no shared memory")
class TestFragmentPoolIntegration:
    """The fragment pool ships through the same transport, by size."""

    def _fragmented(self):
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT, STRING
        from repro.parallel import FragmentedDatabase, HashFragmentation

        schema = DatabaseSchema(
            [
                RelationSchema("fk", [("id", INT), ("ref", INT)]),
                RelationSchema("pk", [("key", INT), ("name", STRING)]),
            ]
        )
        database = Database(schema)
        database.load("pk", [(k, f"k{k}") for k in range(10)])
        database.load("fk", [(i, i % 10) for i in range(50)] + [(100, 77)])
        return FragmentedDatabase.from_database(
            database,
            {"fk": HashFragmentation("ref", 2), "pk": HashFragmentation("key", 2)},
            nodes=2,
        )

    def _check(self, strategy):
        from repro.parallel import ParallelEnforcer, ProcessFragmentPool

        fragmented = self._fragmented()
        with ProcessFragmentPool(nodes=2) as pool:
            report = ParallelEnforcer(fragmented, pool=pool).referential_check(
                "fk", "ref", "pk", "key", strategy
            )
            transport = pool._pool.transport
            shipped = transport.bytes_shipped
            # Every reply follows its node's acks on the same connection:
            # once the check has its rows, every segment has drained.
            assert transport.live_segments() == ()
        assert transport.live_segments() == ()
        return report, shipped

    @pytest.mark.parametrize("strategy", ["BROADCAST", "REPARTITION"])
    def test_verdicts_and_bytes_identical_with_and_without_shm(
        self, monkeypatch, strategy
    ):
        from repro.parallel import Strategy

        reports = {}
        for min_bytes in (1, 1 << 30):  # everything-shm vs everything-pipe
            monkeypatch.setattr(workers, "SHM_MIN_BYTES", min_bytes)
            reports[min_bytes] = self._check(Strategy[strategy])
        (with_shm, through_shm), (without, through_pipe) = (
            reports[1],
            reports[1 << 30],
        )
        assert through_shm > 0 and through_pipe == 0
        assert (with_shm.violations, with_shm.sample) == (1, [(100, 77)])
        for field in ("violations", "sample", "tuples_shipped", "placements",
                      "bytes_shipped", "strategy"):
            assert getattr(with_shm, field) == getattr(without, field)


def _run(script: str, *args: str, **popen):
    environment = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen,
    )


ROUND_TRIP = """
    import sys

    from repro.algebra import expressions as E
    from repro.core import workers
    from repro.engine import RelationSchema
    from repro.engine.relation import Relation
    from repro.engine.types import INT
    from repro.parallel import ProcessFragmentPool

    workers.SHM_MIN_BYTES = 1
    fragments = [Relation(RelationSchema("r", [("a", INT)])) for _ in range(2)]
    for a in range(100):
        fragments[a % 2].insert((a,))
    with ProcessFragmentPool(2, start_method=sys.argv[1]) as pool:
        pool.install("r", fragments)
        pool.broadcast_bind("s", fragments[0])
        rows = pool.execute(E.RelationRef("r"))
        assert sorted(map(len, rows)) == [50, 50], rows
        assert pool._pool.transport.bytes_shipped > 0
        assert pool._pool.transport.live_segments() == ()
    print("ok")
"""

KILLED_COORDINATOR = """
    import sys
    import time

    from repro.core import workers
    from repro.engine import RelationSchema
    from repro.engine.relation import Relation
    from repro.engine.types import INT
    from repro.parallel import ProcessFragmentPool

    workers.SHM_MIN_BYTES = 1
    pool = ProcessFragmentPool(1, start_method=sys.argv[1])
    inner = pool._pool
    # Two readers, one ack: the segment stays live after the worker has
    # attached it, read it, and exited.
    relation = Relation(RelationSchema("r", [("a", INT)]))
    descriptor = inner.transport.ship(workers.encode(relation), readers=2)
    inner.put(0, ("bind", "blob", descriptor))
    inner.put(0, ("stop",))
    inner.processes[0].join(timeout=30)
    assert inner.wait() == ([], [0])  # the ack was settled, then the death
    assert inner.transport.live_segments() == (descriptor[1],)
    print(descriptor[1], flush=True)
    time.sleep(120)
"""


def _start_methods():
    import multiprocessing

    return [
        method
        for method in ("fork", "spawn")
        if method in multiprocessing.get_all_start_methods()
    ]


@pytest.mark.skipif(not workers.SHM_AVAILABLE, reason="no shared memory")
class TestResourceTracker:
    """Workers attach through the coordinator's tracker without
    unregistering: no tracker ``KeyError``, and a killed coordinator's
    segments are still the tracker's to clean up."""

    @pytest.mark.parametrize("start_method", _start_methods())
    def test_round_trip_leaves_the_tracker_quiet(self, start_method):
        process = _run(ROUND_TRIP, start_method)
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        assert out.strip() == "ok"
        # Neither a KeyError from a double unregister nor a second
        # tracker's "leaked" warnings: every attach went through the one
        # tracker and every segment was unlinked by its owner.
        assert "KeyError" not in err, err
        assert "resource_tracker" not in err, err

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="segments are not files here"
    )
    @pytest.mark.parametrize("start_method", _start_methods())
    def test_killed_coordinator_leaves_no_segment(self, start_method):
        process = _run(KILLED_COORDINATOR, start_method)
        name = process.stdout.readline().strip()
        path = Path("/dev/shm") / name
        try:
            assert name.startswith("psm_"), process.communicate()[1]
            assert path.exists()
            process.send_signal(signal.SIGKILL)
            # The pipes close when the coordinator's tracker — the last
            # process holding them — exits, after cleaning up.
            _, err = process.communicate(timeout=60)
            assert not path.exists(), err
            assert "KeyError" not in err, err
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
            if name.startswith("psm_") and path.exists():
                path.unlink()
