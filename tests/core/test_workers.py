"""The one worker pool both process clients use: wire, waits, lifecycle."""

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
        put = pool.broadcast(("load",), payload)
        assert Counted.pickled == 1
        replies = _replies(pool, 3)
        assert sorted(index for index, _ in replies) == [0, 1, 2]
        assert {message for _, message in replies} == {("loaded", "payload", size)}
        assert Counted.pickled == 1  # inbox puts re-pickle no payload
        # The one blob went down each of the three inboxes.
        assert put == 3 * len(workers.encode(payload))
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


def test_a_send_to_a_dead_worker_puts_and_counts_nothing(pool):
    Counted.pickled = 0
    pool.processes[0].kill()
    assert pool.wait() == ([], [0])
    assert pool.send(0, ("load",), Counted("payload")) == 0
    assert Counted.pickled == 0  # nothing pickled for nobody
    put = pool.send(1, ("load",), Counted("payload"))
    assert put == len(workers.encode(Counted("payload")))
    [(index, message)] = _replies(pool, 1)
    assert (index, message) == (1, ("loaded", "payload", 7))


ROUND_TRIP = """
    import sys

    from repro.algebra import expressions as E
    from repro.engine import RelationSchema
    from repro.engine.relation import Relation
    from repro.engine.types import INT
    from repro.parallel import ProcessFragmentPool

    fragments = [Relation(RelationSchema("r", [("a", INT)])) for _ in range(2)]
    for a in range(100_000):
        fragments[a % 2].insert((a,))
    with ProcessFragmentPool(2, start_method=sys.argv[1]) as pool:
        pool.install("r", fragments)
        put = pool.broadcast_bind("s", fragments[0])
        assert put > 2 * (64 << 10), put  # one blob over 64 KiB, per node
        rows = pool.execute(E.RelationRef("s"))
        assert list(map(len, rows)) == [50_000, 50_000]
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
