"""One pool of worker processes: the only place ``src/`` starts any.

Both process clients — the audit executor (:mod:`repro.core.procpool`) and
the fragment pool (:mod:`repro.parallel.procpool`) — ship work to
shared-nothing workers.  :class:`WorkerPool` owns what that takes, once:

* processes: one start method, spawn and respawn, stop / join / terminate;
* one FIFO inbox per worker, whose put never blocks the coordinator;
* one reply connection per worker, whose write end only that worker holds,
  so a worker killed mid-reply takes nobody else's replies with it.
  :meth:`WorkerPool.wait` blocks on every reply connection *and* every
  process sentinel — no poll interval — and delivers a worker's replies
  before its death;
* the wire: :func:`encode` / :func:`decode` are the only pickling of pool
  traffic.  A payload is pickled once and its bytes go down each
  recipient's inbox, whatever their size.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing import connection
from typing import List, Optional, Tuple

_STOP = "stop"


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def encode(payload) -> bytes:
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode(blob: bytes):
    return pickle.loads(blob)


class Endpoint:
    """A worker's side of the pool: its inbox and its reply connection."""

    def __init__(self, inbox, reply):
        self._inbox, self._reply = inbox, reply

    def __iter__(self):
        """The inbox's messages in order, up to the pool's stop."""
        return iter(self._inbox.get, (_STOP,))

    def reply(self, message: tuple) -> None:
        self._reply.send_bytes(encode(message))


def _serve(target, inbox, reply, args) -> None:
    target(Endpoint(inbox, reply), *args)


class WorkerPool:
    """``size`` processes, each running ``target(endpoint, *args)``.

    Worker ``i`` is ``processes[i]``.  A worker found dead stays in
    :attr:`dead`, and is sent nothing, until :meth:`spawn` replaces it.
    """

    def __init__(self, target, size: int, start_method: Optional[str] = None,
                 name: str = "repro-worker", args: tuple = ()):
        self.start_method = start_method or default_start_method()
        self._context = multiprocessing.get_context(self.start_method)
        self._target, self._name = target, name
        self.processes: List = [None] * size
        self._inboxes: List = [None] * size
        self._replies: List = [None] * size  # None once it reached EOF
        self.dead: set = set()
        self._closed = False
        for index in range(size):
            self.spawn(index, *args)

    def spawn(self, index: int, *args) -> None:
        """(Re)start worker ``index`` with a fresh inbox and reply connection."""
        self._retire(index)
        inbox = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_serve, args=(self._target, inbox, writer, args),
            name=f"{self._name}-{index}", daemon=True,
        )
        process.start()
        writer.close()  # the worker now holds the only write end
        self.processes[index], self._inboxes[index] = process, inbox
        self._replies[index] = reader
        self.dead.discard(index)

    def _retire(self, index: int) -> None:
        if self._inboxes[index] is not None:
            self._inboxes[index].close()
            self._inboxes[index].cancel_join_thread()  # its reader is gone
        if self._replies[index] is not None:
            self._replies[index].close()
            self._replies[index] = None

    # -- coordinator → workers ---------------------------------------------------

    def put(self, index: int, message: tuple) -> None:
        if index not in self.dead:
            self._inboxes[index].put(message)

    def send(self, index: int, message: tuple, payload) -> int:
        """Put ``message`` plus ``payload``'s pickled bytes; returns the
        bytes put: their size, or 0 to a dead worker (sent nothing)."""
        if index in self.dead:
            return 0
        blob = encode(payload)
        self._inboxes[index].put(message + (blob,))
        return len(blob)

    def broadcast(self, message: tuple, payload=None) -> int:
        """Put ``message`` on every live inbox, plus a ``payload`` pickled
        once for all of them; returns the payload bytes put: its size
        times the live recipients (a dead worker is sent nothing)."""
        live = [i for i in range(len(self.processes)) if i not in self.dead]
        blob = b""
        if payload is not None:
            blob = encode(payload)
            message += (blob,)
        for index in live:
            self._inboxes[index].put(message)
        return len(blob) * len(live)

    # -- workers → coordinator ---------------------------------------------------

    def wait(self, timeout: Optional[float] = None):
        """Block until a worker replies or dies; returns ``(replies, died)``:
        ``(index, message)`` pairs, and the workers newly found dead — each
        reported once, after every reply it sent.  ``timeout`` (seconds, 0
        to poll) bounds the wait; on expiry both lists are empty."""
        while True:
            live = [i for i in range(len(self.processes)) if i not in self.dead]
            waitables = {self.processes[i].sentinel: i for i in live}
            readers = [i for i in live if self._replies[i] is not None]
            waitables.update((self._replies[i], i) for i in readers)
            if not waitables:
                return [], []
            ready = connection.wait(list(waitables), timeout)
            replies: List[Tuple[int, tuple]] = []
            for item in ready:
                if not isinstance(item, int):  # a reply connection
                    self._drain(waitables[item], replies)
            died = [waitables[item] for item in ready if isinstance(item, int)]
            for index in died:  # a sentinel: the process has exited
                self._drain(index, replies)
                self.dead.add(index)
            if replies or died or timeout is not None:
                return replies, died

    def _drain(self, index: int, replies: list) -> None:
        """Read every complete reply worker ``index`` has written."""
        reader = self._replies[index]
        while reader is not None and reader.poll():
            try:
                blob = reader.recv_bytes()
            except (EOFError, OSError):  # the writer is gone, mid-message or not
                reader.close()
                self._replies[index] = None
                return
            replies.append((index, decode(blob)))

    # -- lifecycle ---------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop every worker (terminating stragglers); idempotent.
        Uncollected replies are dropped."""
        if self._closed:
            return
        self._closed = True
        self.broadcast((_STOP,))
        deadline = time.monotonic() + (10.0 if wait else 0.0)
        while len(self.dead) < len(self.processes) and time.monotonic() < deadline:
            # Draining meanwhile, so no worker stays blocked on a reply.
            self.wait(max(deadline - time.monotonic(), 0.0))
        for index, process in enumerate(self.processes):
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
            process.join(timeout=1.0)
            self._retire(index)
