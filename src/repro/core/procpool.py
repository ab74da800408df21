"""The process-pool audit executor: true multi-core rule audits.

CPU-bound audits serialize on the GIL in the thread pool of
:mod:`repro.core.scheduler`; this module ships the same ``(rule, Δ)`` tasks
to worker *processes*, the way PRISMA/DB shipped simplified checks to the
nodes that owned the data.  It is a client of the one
:class:`~repro.core.workers.WorkerPool` (processes, inboxes, per-worker
replies, sentinel waits, the wire) and adds replication and retry:

* **Replicated read-only plans** — each worker rebuilds the
  :class:`~repro.core.subsystem.IntegrityController` (rules, integrity
  programs, precompiled plans) from a pickled :class:`ControllerSpec` at
  spawn, and again once the rules change; per task only ``(rule name,
  frozen Δ)`` crosses the pipe.
* **Shared-nothing database replicas** — each worker owns a full replica,
  shipped at pool creation (the scheduler's cursor state) and brought
  forward by replaying the coordinator's
  :class:`~repro.engine.commitlog.CommitRecord` stream (O(|Δ|) per batch,
  loads included) one audit batch at a time, just before its tasks.
  Inboxes are FIFO, so every task audits exactly its batch's post-state:
  *strict batched* verdicts even under concurrent commits.  The executor
  pins the version its replicas hold, so however many batches come between
  two drains, the stream keeps every one they lack.
* **Nothing silently dropped** — worker exceptions come back as error
  strings (poisoned :class:`~repro.core.scheduler.AuditOutcome`\\ s); a
  worker the pool reports dead — after every verdict it did send — is
  respawned from the live database and its in-flight tasks re-shipped once
  (a retry that dies too is an audit error).

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


class ControllerSpec:
    """A picklable recipe for rebuilding an IntegrityController.

    The controller is not picklable (it weakly caches per-database
    schedulers); the spec carries the schema, the rules and ``differential``,
    and re-adding the same rules in the same order re-derives the same
    integrity programs and precompiled plans in a worker.
    """

    __slots__ = ("schema", "rules", "differential")

    def __init__(self, controller):
        self.schema = controller.schema
        self.rules = list(controller.rules)
        self.differential = controller.differential

    def build(self):
        from repro.core.subsystem import IntegrityController

        controller = IntegrityController(self.schema, differential=self.differential)
        for rule in self.rules:
            controller.add_rule(rule)
        return controller

    def __repr__(self) -> str:
        return f"ControllerSpec({len(self.rules)} rules)"


def run_rule_audit(controller, database, rule_name, differentials):
    """Audit one rule against one delta on a (replica) database.

    The worker-side twin of
    :meth:`~repro.core.subsystem.IntegrityController.audit_tasks`: both
    build the task with the controller's one per-rule factory, so
    coordinator and worker agree.  Returns ``(violated, violating_sample)``.
    """
    from repro.engine.transaction import performed_triggers

    performed = performed_triggers(differentials)
    task = controller._rule_audit_task(
        controller.rule(rule_name), performed, database, differentials
    )
    return (False, ()) if task is None else task.run()


def _audit_worker(endpoint, payload: bytes) -> None:
    """Worker main loop: replicate, then audit what the coordinator sends."""
    spec, database = decode(payload)
    controller = spec.build()
    # The replica's version in the commit stream (a copy keeps the
    # original's versions).  Applies at or below it are skipped, which
    # makes replication idempotent — a worker respawned from a *newer*
    # state can safely receive the same broadcast stream as its siblings.
    replica_version = database.commit_log.version
    for message in endpoint:
        kind = message[0]
        if kind == "apply":
            for version, encoded in decode(message[1]):
                if version <= replica_version:
                    continue  # already covered by this replica's snapshot
                database.apply_deltas(decode_differentials(encoded), record=False)
                replica_version = version
        elif kind == "spec":
            controller = decode(message[1]).build()
        elif kind == "task":
            task_id, rule_name, blob = message[1:]
            started = time.perf_counter()
            try:
                differentials = decode_differentials(decode(blob))
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

    Workers are shipped ``(ControllerSpec, replica)`` once at construction
    (``replica``: ``database`` unless given); thereafter the coordinator
    streams commit records to every worker (:meth:`replicate`) and
    ``(rule, Δ)`` tasks to one worker each (:meth:`submit`, round-robin).
    FIFO inbox ordering guarantees a task observes exactly the records
    replicated before it, and the rules of
    its drain: a task shipped after the controller's rules changed travels
    behind a fresh spec.
    """

    def __init__(self, controller, database, workers: int = 4,
                 start_method: Optional[str] = None, replica=None):
        self.database = database
        self.workers = max(int(workers), 1)
        self.controller = controller
        self._spec = ControllerSpec(controller)
        replica = database if replica is None else replica
        # The stream version the replicas hold, pinned so the trim keeps
        # every batch after it until they have it (:meth:`replicate`).
        self._replicated_through = replica.commit_log.version
        self._hold = database.epochs.pin_version(self._replicated_through)
        self._pool = WorkerPool(
            _audit_worker, self.workers, start_method,
            name="repro-audit-proc", args=(encode((self._spec, replica)),),
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
        # ``(differentials, blob)`` of the last task: one coalesced drain
        # submits the same differentials object once per rule, so it is
        # pickled once and the same blob is put n times.
        self._delta_cache: Optional[tuple] = None
        self._closed = False

    # -- replication -----------------------------------------------------------

    def replicate(self, through: int) -> None:
        """Ship every batch of the stream the replicas lack, up to version
        ``through``: commits, loads and restores alike, in order; then move
        the executor's pin up to the version they now hold."""
        log = self.database.commit_log
        fresh = log.between(self._replicated_through, through)
        if fresh:
            self._pool.broadcast(("apply",), [
                (r.version, encode_differentials(r.differentials)) for r in fresh
            ])
            self._replicated_through = fresh[-1].version
            held = self._hold
            self._hold = self.database.epochs.pin_version(self._replicated_through)
            held.release()

    # -- task dispatch ---------------------------------------------------------

    def submit(self, task, sequences, mode="async", rows=0):
        """Dispatch one audit task to a worker; returns a future."""
        from repro.core.scheduler import AuditOutcome

        if self._spec.rules != self.controller.rules:
            # The rules changed since the workers' spec: every inbox gets
            # the fresh one behind the tasks already shipped, which keep
            # the rules they were drained under.
            self._spec = ControllerSpec(self.controller)
            self._pool.broadcast(("spec",), self._spec)
        task_id = self._next_task_id
        self._next_task_id += 1
        worker = self._next_worker
        self._next_worker = (self._next_worker + 1) % self.workers
        differentials = task.differentials
        cache = self._delta_cache
        if cache is not None and cache[0] is differentials:
            blob = cache[1]
        else:
            blob = encode(encode_differentials(differentials))
            self._delta_cache = (differentials, blob)
        self._pending[task_id] = (worker, task.rule_name, blob)
        self._pool.put(worker, ("task", task_id, task.rule_name, blob))
        outcome = functools.partial(
            AuditOutcome, task.rule_name, sequences, mode=mode,
            executor="process", rows=rows,
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

    def _receive(self) -> None:
        """Store delivered verdicts, then mend deaths (reader lock held)."""
        replies, died = self._pool.wait()
        for _, (task_id, *verdict) in replies:
            self._done[task_id] = tuple(verdict)
        for index in died:
            self._worker_died(index)

    def _worker_died(self, owner: int) -> None:
        """Respawn a dead worker and re-ship its in-flight tasks once.

        The replacement starts from the *live* database —
        sequence-idempotent applies let it rejoin the broadcast stream
        mid-flight (see :func:`_audit_worker`) — so a retried task may
        audit a state later than its batch's.  A task whose retry dies too
        surfaces as an audit error.
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
            self._pool.put(owner, ("task", tid, rule_name, blob))

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; in-flight tasks should be collected first."""
        if self._closed:
            return
        self._closed = True
        self._hold.release()
        self._pool.close(wait)

    def __repr__(self) -> str:
        alive = sum(1 for p in self._pool.processes if p.is_alive())
        return (f"ProcessAuditExecutor({alive}/{self.workers} workers alive, "
                f"{self.start_method}, replicated_through=#{self._replicated_through})")
