"""The process-pool audit executor: true multi-core rule audits.

CPU-bound audits serialize on the GIL in the thread pool of
:mod:`repro.core.scheduler`; this module ships the same ``(rule, Δ)`` tasks
to worker *processes*, the way PRISMA/DB shipped simplified checks to the
nodes that owned the data.  It is a client of the one
:class:`~repro.core.workers.WorkerPool` (processes, inboxes, per-worker
replies, sentinel waits, the wire) and adds replication and retry:

* **Replicated read-only plans** — each worker rebuilds the
  :class:`~repro.core.subsystem.IntegrityController` (rules, integrity
  programs, precompiled plans) once, from a pickled :class:`ControllerSpec`;
  per task only ``(rule name, frozen Δ)`` crosses the pipe.
* **Shared-nothing database replicas** — each worker owns a full replica,
  shipped at pool creation and kept current by replaying the coordinator's
  :class:`~repro.engine.commitlog.CommitRecord` stream (O(|Δ|) per commit).
  Inboxes are FIFO, so every task audits exactly the replica state of the
  drain that produced it: *strict batched* verdicts even under concurrent
  commits.
* **Nothing silently dropped** — worker exceptions come back as error
  strings (poisoned :class:`~repro.core.scheduler.AuditOutcome`\\ s); a
  worker the pool reports dead — after every verdict it did send — is
  respawned from a fresh snapshot and its in-flight tasks re-shipped once
  (a retry that dies too is an audit error); a commit-log truncation gap
  resyncs the replicas from the write-ahead log when one is attached, else
  by a full replica ship.

Under ``fork`` and ``spawn`` alike the worker payload is pickled and
shipped, never inherited: one serialization path for both.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Dict, Optional

from repro.algebra.columnar import decode_differentials, encode_differentials
from repro.core.workers import WorkerPool, decode, encode
from repro.errors import WalError


class ControllerSpec:
    """A picklable recipe for rebuilding an IntegrityController.

    The controller is not picklable (it weakly caches per-database
    schedulers); the spec carries the schema, the rules and the options,
    and re-adding the same rules in the same order re-derives the same
    integrity programs and precompiled plans in a worker.
    """

    __slots__ = ("schema", "rules", "mode", "optimize", "differential",
                 "allow_fallback")

    def __init__(self, controller):
        self.schema = controller.schema
        self.rules = list(controller.rules)
        self.mode = controller.mode
        self.optimize = controller.optimize
        self.differential = controller.differential
        self.allow_fallback = controller.allow_fallback

    def build(self):
        from repro.core.subsystem import IntegrityController

        controller = IntegrityController(
            self.schema, mode=self.mode, optimize=self.optimize,
            differential=self.differential, allow_fallback=self.allow_fallback,
        )
        for rule in self.rules:
            controller.add_rule(rule)
        return controller

    def __repr__(self) -> str:
        return f"ControllerSpec({len(self.rules)} rules, mode={self.mode})"


def run_rule_audit(controller, database, rule_name, differentials):
    """Audit one rule against one delta on a (replica) database.

    The worker-side twin of
    :meth:`~repro.core.subsystem.IntegrityController.audit_tasks`: the
    disposition (skip / delta program / full check) is a pure function of
    the rule store and the delta's performed triggers, so coordinator and
    worker agree.  Returns ``(violated, violating_sample)``.
    """
    from repro.core.scheduler import RuleAuditTask
    from repro.core.subsystem import FULL_CHECK
    from repro.engine.session import DeltaView

    rule = controller.rule(rule_name)
    performed = DeltaView(database, differentials).performed_triggers()
    disposition = controller._rule_delta_disposition(rule, performed)
    if disposition is None:
        return False, ()
    program = None if disposition is FULL_CHECK else disposition
    task = RuleAuditTask(controller, rule, program, database, differentials)
    return task.run()


def _audit_worker(endpoint, payload: bytes) -> None:
    """Worker main loop: replicate, then audit what the coordinator sends."""
    spec, database = decode(payload)
    controller = spec.build()
    # The replica's position in the commit stream.  Applies below it are
    # skipped, which makes replication idempotent by sequence — a worker
    # respawned from a *newer* snapshot can safely receive the same
    # broadcast stream as its older siblings.
    replica_seq = database.commit_log.next_sequence
    for message in endpoint:
        kind = message[0]
        if kind == "apply":
            for sequence, encoded in endpoint.load(message[1]):
                if sequence < replica_seq:
                    continue  # already covered by this replica's snapshot
                database.apply_deltas(decode_differentials(encoded), record=False)
                replica_seq = sequence + 1
        elif kind == "resync":
            database = endpoint.load(message[1])
            replica_seq = database.commit_log.next_sequence
        elif kind == "task":
            task_id, rule_name, descriptor = message[1:]
            started = time.perf_counter()
            try:
                # Task deltas decode lazily: the audit's delta plans scan
                # the differentials column-wise, so the row dicts only
                # materialize if a row-at-a-time path actually needs them.
                differentials = decode_differentials(
                    endpoint.load(descriptor), lazy=True
                )
                violated, violations = run_rule_audit(
                    controller, database, rule_name, differentials
                )
                verdict = (task_id, violated, tuple(violations), None)
            except Exception as error:  # poison task: ship the failure
                verdict = (task_id, None, (), f"{type(error).__name__}: {error}")
            endpoint.reply(verdict + (time.perf_counter() - started,))


class _ProcessFuture:
    """Resolves to an AuditOutcome: ``outcome`` builds it from the verdict."""

    __slots__ = ("executor", "task_id", "outcome")

    def __init__(self, executor, task_id, outcome):
        self.executor, self.task_id, self.outcome = executor, task_id, outcome

    def result(self):
        violated, violations, error, seconds = self.executor._collect(self.task_id)
        return self.outcome(violated, violations=violations, error=error,
                            seconds=seconds)


class ProcessAuditExecutor:
    """A shared-nothing pool of audit worker processes.

    Workers are shipped ``(ControllerSpec, database replica)`` once at
    construction; thereafter the coordinator streams commit records to
    every worker (:meth:`replicate`) and ``(rule, Δ)`` tasks to one worker
    each (:meth:`submit`, round-robin).  FIFO inbox ordering guarantees a
    task observes exactly the replica state of its drain.
    """

    def __init__(self, controller, database, workers: int = 4,
                 start_method: Optional[str] = None):
        self.database = database
        self.workers = max(int(workers), 1)
        self._spec = ControllerSpec(controller)
        # Records with sequence >= this watermark have not yet been shipped
        # to the replicas (the initial snapshot covers everything before).
        self._replicated_through = database.commit_log.next_sequence
        self._pool = WorkerPool(
            _audit_worker, self.workers, start_method,
            name="repro-audit-proc", args=(encode((self._spec, database)),),
        )
        self.start_method = self._pool.start_method
        self._next_task_id = 0
        self._next_worker = 0
        self._done: Dict[int, tuple] = {}
        # Shipped-but-uncollected tasks (worker, rule name, blob), kept so a
        # dead worker's in-flight tasks can be re-shipped exactly once.
        self._pending: Dict[int, tuple] = {}
        self._retried: set = set()
        #: Workers respawned after an unexpected death.
        self.restarts = 0
        self._reader_lock = threading.Lock()
        # One coalesced drain submits the same differentials object once
        # per rule: pickle it once, ship the blob n times.
        self._delta_cache: Optional[tuple] = None
        self._closed = False
        self._hold_wal()

    def _hold_wal(self) -> None:
        """Hold the durable log from ``_replicated_through`` on — records no
        replica has yet — so :meth:`resync` can replay instead of re-ship."""
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            wal.register_consumer("process-replicas", self._replicated_through)

    # -- replication -----------------------------------------------------------

    def replicate(self, records) -> int:
        """Ship not-yet-shipped commit records to every worker replica."""
        fresh = [r for r in records if r.sequence >= self._replicated_through]
        if not fresh:
            return 0
        encoded = [(r.sequence, encode_differentials(r.differentials)) for r in fresh]
        self._pool.broadcast(("apply",), encoded)
        self._replicated_through = fresh[-1].sequence + 1
        self._hold_wal()
        return len(fresh)

    def resync(self, database) -> None:
        """Catch every replica up after a commit-log truncation gap.

        With a write-ahead log attached the missed records are still on
        disk (the ``process-replicas`` retention hold keeps them there):
        resync replays them from the log — O(|missed Δ|) per worker — and
        only ships a full fresh replica when the log cannot serve the range:
        no WAL, the hold was released, or the log failed with a
        :class:`~repro.errors.WalError` or ``OSError``.
        """
        if not self._resync_from_log(database):
            self._pool.broadcast(("resync",), database)
            self._replicated_through = database.commit_log.next_sequence
        self._hold_wal()

    def _resync_from_log(self, database) -> bool:
        """Replay the replicas' missed records from the durable log."""
        wal = getattr(database, "wal", None)
        if wal is None:
            return False
        start = self._replicated_through
        end = database.commit_log.next_sequence
        try:
            wal.sync()  # make buffered appends visible to the scan below
            records = wal.scan(start_sequence=start, upto=end - 1, decode=False)
            missed = [(record.sequence, record.differentials) for record in records]
        except (WalError, OSError):
            return False
        # The log must cover the gap exactly: every sequence in [start, end).
        if len(missed) != end - start or (
            missed and (missed[0][0] != start or missed[-1][0] != end - 1)
        ):
            return False
        if missed:
            self._pool.broadcast(("apply",), missed)
        self._replicated_through = end
        return True

    # -- task dispatch ---------------------------------------------------------

    def submit(self, task, sequences, mode="async", predicted=None):
        """Dispatch one audit task to a worker; returns a future."""
        from repro.core.scheduler import AuditOutcome

        task_id = self._next_task_id
        self._next_task_id += 1
        worker = self._next_worker
        self._next_worker = (self._next_worker + 1) % self.workers
        transport = self._pool.transport
        differentials = task.differentials
        cache = self._delta_cache
        if cache is not None and cache[0] is differentials:
            blob, descriptor = cache[1], transport.reship(cache[2])
        else:
            blob = encode(encode_differentials(differentials))
            descriptor = None
        if descriptor is None:  # a new blob, or its segment already drained
            descriptor = transport.ship(blob, readers=1)
        self._delta_cache = (differentials, blob, descriptor)
        self._pending[task_id] = (worker, task.rule_name, blob)
        self._pool.put(worker, ("task", task_id, task.rule_name, descriptor))
        outcome = functools.partial(
            AuditOutcome, task.rule_name, sequences, mode=mode,
            executor="process", predicted=predicted,
        )
        return _ProcessFuture(self, task_id, outcome)

    def _collect(self, task_id: int) -> tuple:
        """Block until ``task_id``'s result arrives; store others en route."""
        while True:
            with self._reader_lock:
                if task_id in self._done:
                    self._pending.pop(task_id, None)
                    self._retried.discard(task_id)
                    return self._done.pop(task_id)
                self._receive()

    def _receive(self, timeout: Optional[float] = None) -> None:
        """Store delivered verdicts, then mend deaths (reader lock held)."""
        replies, died = self._pool.wait(timeout)
        for _, (task_id, *verdict) in replies:
            self._done[task_id] = tuple(verdict)
        for index in died:
            self._worker_died(index)

    def _worker_died(self, owner: int) -> None:
        """Respawn a dead worker and re-ship its in-flight tasks once.

        The replacement starts from a fresh database snapshot —
        sequence-idempotent applies let it rejoin the broadcast stream
        mid-flight (see :func:`_audit_worker`) — so a retried verdict may
        observe a post-drain replica state (the thread arm's semantics).
        A task whose retry dies too surfaces as an audit error.
        """
        stranded = sorted(
            tid
            for tid, (worker, _, _) in self._pending.items()
            if worker == owner and tid not in self._done
        )
        self._pool.spawn(owner, encode((self._spec, self.database)))
        self.restarts += 1
        for tid in stranded:
            if tid in self._retried:
                error = (f"audit worker process {owner} died before returning "
                         f"a verdict (task already retried once)")
                self._done[tid] = (None, (), error, 0.0)
                continue
            self._retried.add(tid)
            _, rule_name, blob = self._pending[tid]
            descriptor = self._pool.transport.ship(blob, readers=1)
            self._pool.put(owner, ("task", tid, rule_name, descriptor))

    def reap_acks(self) -> None:
        """Settle pending shared-memory acks without blocking on results."""
        with self._reader_lock:
            self._receive(timeout=0)

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; in-flight tasks should be collected first."""
        if self._closed:
            return
        self._closed = True
        self._pool.close(wait)
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            wal.release_consumer("process-replicas")

    def __repr__(self) -> str:
        alive = sum(1 for p in self._pool.processes if p.is_alive())
        return (f"ProcessAuditExecutor({alive}/{self.workers} workers alive, "
                f"{self.start_method}, replicated_through=#{self._replicated_through})")
