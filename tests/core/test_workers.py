"""The one worker pool (its client: the audit executor): wire, waits, lifecycle."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import workers
from repro.core.workers import WorkerPool


class Counted:
    """A payload that counts how often this process pickles it."""

    pickled = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        Counted.pickled += 1
        return (Counted, (self.value,))


def _echo(endpoint):
    for message in endpoint:
        kind = message[0]
        if kind == "load":
            value = workers.decode(message[1]).value
            endpoint.reply(("loaded", value[:7], len(value)))
        elif kind == "big":
            endpoint.reply(("big", b"x" * message[1]))
        elif kind == "burst":  # n replies, then die without a stop
            for index in range(message[1]):
                endpoint.reply(("burst", index, b"x" * message[2]))
            os._exit(0)
        elif kind == "pid":
            endpoint.reply(("pid", os.getpid()))


@pytest.fixture(params=["fork", "spawn"])
def start_method(request):
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{request.param} is not available on this platform")
    return request.param


@pytest.fixture
def pool(start_method):
    pool = WorkerPool(_echo, 2, start_method)
    yield pool
    pool.close()


def _replies(pool, count):
    collected = []
    while len(collected) < count:
        replies, died = pool.wait()
        assert not died, f"worker(s) {died} died"
        collected.extend(replies)
    return collected


@pytest.mark.parametrize(
    "size", [7, (64 << 10) + 1, 4 << 20], ids=["tiny", "64KiB+1", "4MiB"]
)
def test_a_broadcast_payload_is_pickled_once(start_method, size):
    pool = WorkerPool(_echo, 3, start_method)
    try:
        Counted.pickled = 0
        payload = Counted("payload" + "x" * (size - 7))
        pool.broadcast(("load",), payload)
        assert Counted.pickled == 1
        replies = _replies(pool, 3)
        # The one blob went down each of the three inboxes.
        assert sorted(index for index, _ in replies) == [0, 1, 2]
        assert {message for _, message in replies} == {("loaded", "payload", size)}
        assert Counted.pickled == 1  # inbox puts re-pickle no payload
    finally:
        pool.close()


def test_replies_sent_before_a_death_are_delivered_first(pool):
    # Five 100 kB replies, more than a pipe holds: the worker exits only
    # after the coordinator has read most of them.
    pool.put(0, ("burst", 5, 100_000))
    events = []
    while 0 not in pool.dead:
        replies, died = pool.wait()
        events.extend(message[:2] for _, message in replies)
        events.extend(("died", index) for index in died)
    assert events == [("burst", i) for i in range(5)] + [("died", 0)]
    assert pool.wait(timeout=0) == ([], [])  # reported once
    pool.put(0, ("pid",))  # a dead worker is sent nothing
    pool.put(1, ("pid",))
    [(index, (_, pid))] = _replies(pool, 1)
    assert (index, pid) == (1, pool.processes[1].pid)


def test_a_death_is_reported_with_no_poll_interval(pool, monkeypatch):
    assert not [name for name in vars(workers) if "POLL" in name.upper()]
    timeouts = []
    real_wait = workers.connection.wait

    def spy(objects, timeout=None):
        if any(isinstance(item, int) for item in objects):  # a pool wait
            timeouts.append(timeout)
        return real_wait(objects, timeout)

    monkeypatch.setattr(workers.connection, "wait", spy)
    pool.processes[1].kill()
    assert pool.wait() == ([], [1])
    assert timeouts and set(timeouts) == {None}


def test_respawn_gives_a_fresh_inbox_and_reply_connection(pool):
    before = (pool.processes[0], pool._inboxes[0], pool._replies[0])
    pool.processes[0].kill()
    assert pool.wait() == ([], [0])
    pool.spawn(0)
    after = (pool.processes[0], pool._inboxes[0], pool._replies[0])
    assert all(old is not new for old, new in zip(before, after))
    assert before[2].closed and pool.dead == set()
    pool.put(0, ("pid",))
    [(index, (_, pid))] = _replies(pool, 1)
    assert (index, pid) == (0, pool.processes[0].pid) != (0, before[0].pid)


def test_close_is_idempotent_and_joins_every_process(start_method):
    pool = WorkerPool(_echo, 2, start_method)
    # An uncollected reply larger than a pipe buffer: its worker is blocked
    # mid-send when close() begins, and must still stop cleanly.
    pool.put(0, ("big", 1 << 20))
    pool.close()
    pool.close()
    assert [process.exitcode for process in pool.processes] == [0, 0]
    assert pool.wait() == ([], [])


def test_close_after_a_death_stops_the_survivors(start_method):
    pool = WorkerPool(_echo, 3, start_method)
    pool.processes[1].kill()
    pool.processes[1].join(timeout=10.0)
    # The death is not yet collected: close must find it, stop the two
    # live workers, and return.
    pool.close()
    assert pool.dead == {0, 1, 2}
    assert [pool.processes[i].exitcode for i in (0, 2)] == [0, 0]
    assert pool.processes[1].exitcode != 0
    assert pool.wait() == ([], [])


def test_a_put_to_a_dead_worker_puts_nothing(pool, monkeypatch):
    pool.processes[0].kill()
    assert pool.wait() == ([], [0])
    put = []
    monkeypatch.setattr(pool._inboxes[0], "put", put.append)
    pool.put(0, ("load", workers.encode(Counted("payload"))))
    Counted.pickled = 0
    pool.broadcast(("load",), Counted("payload"))
    assert put == []  # neither the put nor the broadcast reached worker 0
    assert Counted.pickled == 1  # one blob, for the live worker
    [(index, message)] = _replies(pool, 1)
    assert (index, message) == (1, ("loaded", "payload", 7))


ROUND_TRIP = """
    import sys

    from repro.algebra.columnar import encode_differentials
    from repro.core.procpool import ProcessAuditExecutor
    from repro.core.workers import encode
    from repro.core.subsystem import IntegrityController
    from repro.engine import Database, DatabaseSchema, RelationSchema, Session
    from repro.engine.types import INT

    schema = DatabaseSchema([
        RelationSchema("fk", [("id", INT), ("ref", INT)]),
        RelationSchema("pk", [("key", INT)]),
    ])
    controller = IntegrityController(schema)
    controller.add_constraint(
        "fk_ref", "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))"
    )
    database = Database(schema)
    database.load("pk", [(k,) for k in range(0, 40_000, 2)])
    executor = ProcessAuditExecutor(
        controller, database, workers=2, start_method=sys.argv[1]
    )
    try:
        # A replica, an apply broadcast and a task Δ, each over 64 KiB.
        database.load("pk", [(k,) for k in range(40_000, 80_000, 2)])
        executor.replicate(database.commit_log.version)
        rows = ", ".join(f"({10**12 + i}, {i})" for i in range(9_000))
        result = Session(database).execute(f"begin insert(fk, {{{rows}}}); end")
        assert result.committed
        assert len(encode(encode_differentials(result.differentials))) > 64 << 10
        executor.replicate(database.commit_log.version)
        [task] = controller.audit_tasks(database, result)
        futures = [executor.submit(task, (0,)) for _ in range(2)]
        outcomes = [future.result() for future in futures]
    finally:
        executor.shutdown()
    violated, sample = task.run()  # inline: every odd ref dangles
    assert violated and sample
    for outcome in outcomes:  # one per worker
        assert (outcome.error, outcome.violated) == (None, True), outcome
        assert outcome.violations == sample
    print("ok")
"""


def test_a_round_trip_in_a_fresh_interpreter_leaves_stderr_empty(start_method):
    # A whole pool lifetime with payloads over 64 KiB, in its own
    # interpreter so interpreter exit runs too: no leaked-resource
    # warnings, no tracker, no traceback from a worker.
    source = str(Path(__file__).resolve().parents[2] / "src")
    process = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(ROUND_TRIP), start_method],
        env=dict(os.environ, PYTHONPATH=source),
        capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "ok"
    assert process.stderr == ""
