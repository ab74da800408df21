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
  traffic, and a blob of :data:`SHM_MIN_BYTES` or more travels in a
  shared-memory segment, written once however many workers read it,
  unlinked at its readers' last ack (settled inside :meth:`WorkerPool.wait`)
  or at :meth:`WorkerPool.close`: no segment survives a drained pool.

Workers share the coordinator's resource tracker (``fork`` inherits the one
:meth:`WorkerPool.spawn` starts first, ``spawn`` is handed it).  Before
Python 3.13 an attach registers the segment's name again — a no-op there —
and must not unregister it: that would drop the coordinator's registration,
so the tracker would report a ``KeyError`` at the unlink and no longer clean
up after a killed coordinator.  From 3.13 workers attach untracked.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading
import time
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised by presence, not absence
    from multiprocessing import resource_tracker, shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - platforms without shm
    resource_tracker = shared_memory = None
    SHM_AVAILABLE = False

#: Blobs at or above this many bytes ship via shared memory; smaller ones
#: stay on the pipe (descriptor + attach overhead would dominate).
SHM_MIN_BYTES = 1 << 16

_STOP = "stop"
_ACK = "shm"  # a worker's "done with this segment"; settled by the pool


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def encode(payload) -> bytes:
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode(blob: bytes):
    return pickle.loads(blob)


def load(descriptor) -> Tuple[bytes, Optional[str]]:
    """Worker side: ``(blob, segment name to ack or None)``.  The attach
    never takes the segment over (see the module docstring)."""
    if descriptor[0] == "pipe":
        return descriptor[1], None
    _, name, size = descriptor
    untracked = {"track": False} if sys.version_info >= (3, 13) else {}
    segment = shared_memory.SharedMemory(name=name, **untracked)
    try:
        return bytes(segment.buf[:size]), name
    finally:
        segment.close()


class ShmTransport:
    """Coordinator-side blob shipping: on the pipe, or in a counted segment."""

    def __init__(self):
        self._segments: Dict[str, list] = {}  # name -> [segment, readers left]
        self._lock = threading.Lock()
        #: Total bytes that went through shared memory (for benchmarks).
        self.bytes_shipped = 0

    def ship(self, blob: bytes, readers: int):
        """Wrap ``blob`` for ``readers`` recipients; returns a descriptor."""
        if not SHM_AVAILABLE or len(blob) < SHM_MIN_BYTES or readers < 1:
            return ("pipe", blob)
        try:
            segment = shared_memory.SharedMemory(create=True, size=len(blob))
        except OSError:  # /dev/shm full or missing: the pipe still works
            return ("pipe", blob)
        segment.buf[: len(blob)] = blob
        with self._lock:
            self._segments[segment.name] = [segment, readers]
            self.bytes_shipped += len(blob)
        return ("shm", segment.name, len(blob))

    def reship(self, descriptor, readers: int = 1):
        """Send a shipped descriptor to ``readers`` more recipients; None
        when its segment has already drained (ship the blob again)."""
        if descriptor[0] != "shm":
            return descriptor
        with self._lock:
            entry = self._segments.get(descriptor[1])
            if entry is None:
                return None
            entry[1] += readers
        return descriptor

    def ack(self, name: str) -> None:
        """One reader finished with ``name``; unlink at zero."""
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._segments[name]
        self._destroy(entry[0])

    def live_segments(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._segments)

    def release_all(self) -> None:
        """Force-unlink every outstanding segment (shutdown path)."""
        with self._lock:
            entries, self._segments = list(self._segments.values()), {}
        for segment, _ in entries:
            self._destroy(segment)

    @staticmethod
    def _destroy(segment) -> None:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - unlinked elsewhere
            pass


class Endpoint:
    """A worker's side of the pool: its inbox and its reply connection."""

    def __init__(self, inbox, reply):
        self._inbox, self._reply = inbox, reply

    def __iter__(self):
        """The inbox's messages in order, up to the pool's stop."""
        return iter(self._inbox.get, (_STOP,))

    def load(self, descriptor):
        """Decode a shipped blob, acking its segment first."""
        blob, name = load(descriptor)
        if name is not None:
            self.reply((_ACK, name))
        return decode(blob)

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
        self.transport = ShmTransport()
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
        if SHM_AVAILABLE and self.start_method == "fork":
            resource_tracker.ensure_running()  # spawn hands it over itself
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
        """Put ``message`` plus one shipped ``payload``; returns its bytes."""
        blob = encode(payload)
        self.put(index, message + (self.transport.ship(blob, readers=1),))
        return len(blob)

    def broadcast(self, message: tuple, payload=None) -> int:
        """Put ``message`` on every live inbox, plus a ``payload`` pickled
        and shipped once for all of them; returns the payload's bytes."""
        live = [i for i in range(len(self.processes)) if i not in self.dead]
        blob = b""
        if payload is not None:
            blob = encode(payload)
            message += (self.transport.ship(blob, readers=len(live)),)
        for index in live:
            self._inboxes[index].put(message)
        return len(blob)

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
            message = decode(blob)
            if message[0] == _ACK:
                self.transport.ack(message[1])
            else:
                replies.append((index, message))

    # -- lifecycle ---------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop every worker (terminating stragglers) and unlink every
        segment; idempotent.  Uncollected replies are dropped."""
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
        self.transport.release_all()
