"""The process-pool audit executor: true multi-core rule audits.

The thread-based pool in :mod:`repro.core.scheduler` overlaps audit I/O
and amortizes hash builds, but CPU-bound Python audits serialize on the
GIL — on an N-core machine the pool still burns one core.  This module
ships the same ``(rule, Δ)`` task shape across *process* boundaries, the
way PRISMA/DB shipped simplified checks to the nodes that owned the data:

* **Replicated read-only plans** — each worker process rebuilds the
  :class:`~repro.core.subsystem.IntegrityController` (rule catalog,
  integrity-program store, precompiled physical plans) exactly once, from
  a pickled :class:`ControllerSpec`, at startup.  Per task, only
  ``(rule name, frozen Δ)`` crosses the pipe.
* **Shared-nothing database replicas** — each worker owns a full replica
  of the database, shipped once at pool creation and kept current by
  replaying the same :class:`~repro.engine.commitlog.CommitRecord` stream
  the coordinator commits (``apply_deltas`` on the replica, O(|Δ|) per
  commit).  Because each worker's inbox is FIFO, every audit task runs
  against exactly the replica state of the drain that produced it — the
  process arm therefore gives *strict batched* verdicts even under
  concurrent commits, where the thread arm's verdicts may observe later
  states.
* **Nothing silently dropped** — worker exceptions travel back as error
  strings (the scheduler surfaces them as poisoned
  :class:`~repro.core.scheduler.AuditOutcome`\\ s); an unexpectedly dead
  worker is respawned from a fresh snapshot and its in-flight tasks are
  re-shipped exactly once (a task whose retry also dies surfaces as an
  audit error); a commit-log truncation gap resyncs the replicas from the
  durable write-ahead log when one is attached, falling back to a full
  replica ship.

Both ``fork`` and ``spawn`` start methods are supported: the worker
payload is always explicitly pickled and shipped (never inherited), so the
serialization path is identical — and property-tested — under either.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import threading
import time
from typing import Dict, List, Optional

from repro.core import shm as shm_transport
from repro.algebra.columnar import (
    decode_differentials,
    encode_differentials,
)

#: Seconds between liveness checks while waiting on a worker result.
RESULT_POLL_SECONDS = 0.25

#: Protocol used for every cross-process payload.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ControllerSpec:
    """A picklable recipe for rebuilding an IntegrityController.

    The controller itself is not picklable (it weakly caches per-database
    schedulers); the spec carries what :meth:`build` needs — the schema,
    the registered rules, and the constructor options — so a worker
    process reconstructs the full plan cache deterministically: re-adding
    the same rules in the same order re-derives the same integrity
    programs, differential variants, and precompiled physical plans.
    """

    __slots__ = (
        "schema",
        "rules",
        "mode",
        "optimize",
        "differential",
        "allow_fallback",
    )

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
            self.schema,
            mode=self.mode,
            optimize=self.optimize,
            differential=self.differential,
            allow_fallback=self.allow_fallback,
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
    per-rule disposition (skip / delta program / full check) is re-derived
    locally — it is a pure function of the rule store and the delta's
    performed triggers, so coordinator and worker always agree.  Returns
    ``(violated, violating_sample)``.
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


def _load_blob(outbox, descriptor) -> bytes:
    """Materialize a pipe/shm shipment, acking shm segments immediately.

    The ack travels on the shared outbox (``("shm", name)``): the
    coordinator decrements the segment's reader count as it collects
    results, so a drained batch leaves no segment behind.
    """
    blob, ack = shm_transport.load(descriptor)
    if ack is not None:
        outbox.put(("shm", ack))
    return blob


def _audit_worker(inbox, outbox, payload: bytes) -> None:
    """Worker main loop: replicate, then audit what the coordinator sends."""
    spec, database = pickle.loads(payload)
    controller = spec.build()
    # The replica's position in the commit stream.  Applies below it are
    # skipped, which makes replication idempotent by sequence — a worker
    # respawned from a *newer* snapshot can safely receive the same
    # broadcast stream as its older siblings.
    replica_seq = database.commit_log.next_sequence
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "apply":
            for sequence, encoded in pickle.loads(
                _load_blob(outbox, message[1])
            ):
                if sequence < replica_seq:
                    continue  # already covered by this replica's snapshot
                database.apply_deltas(
                    decode_differentials(encoded), record=False
                )
                replica_seq = sequence + 1
        elif kind == "resync":
            database = pickle.loads(_load_blob(outbox, message[1]))
            replica_seq = database.commit_log.next_sequence
        elif kind == "task":
            task_id, rule_name, descriptor = message[1:]
            started = time.perf_counter()
            try:
                # Task deltas decode lazily: the audit's delta plans scan
                # the differentials column-wise, so the row dicts only
                # materialize if a row-at-a-time path actually needs them.
                differentials = decode_differentials(
                    pickle.loads(_load_blob(outbox, descriptor)), lazy=True
                )
                violated, violations = run_rule_audit(
                    controller, database, rule_name, differentials
                )
                outbox.put(
                    (
                        task_id,
                        violated,
                        tuple(violations),
                        None,
                        time.perf_counter() - started,
                    )
                )
            except BaseException as error:  # poison task: ship the failure
                outbox.put(
                    (
                        task_id,
                        None,
                        (),
                        f"{type(error).__name__}: {error}",
                        time.perf_counter() - started,
                    )
                )


class _ProcessFuture:
    """A future resolving to an :class:`~repro.core.scheduler.AuditOutcome`."""

    __slots__ = ("executor", "task_id", "rule", "sequences", "mode", "predicted")

    def __init__(self, executor, task_id, rule, sequences, mode, predicted):
        self.executor = executor
        self.task_id = task_id
        self.rule = rule
        self.sequences = sequences
        self.mode = mode
        self.predicted = predicted

    def result(self):
        from repro.core.scheduler import AuditOutcome

        violated, violations, error, seconds = self.executor._collect(
            self.task_id
        )
        return AuditOutcome(
            self.rule,
            self.sequences,
            violated,
            violations=violations,
            error=error,
            mode=self.mode,
            executor="process",
            seconds=seconds,
            predicted=self.predicted,
        )


class ProcessAuditExecutor:
    """A shared-nothing pool of audit worker processes.

    Workers are shipped ``(ControllerSpec, database replica)`` once at
    construction; thereafter the coordinator streams commit records to
    every worker (:meth:`replicate`) and ``(rule, Δ)`` tasks to one worker
    each (:meth:`submit`, round-robin).  FIFO inbox ordering guarantees a
    task observes exactly the replica state of its drain.
    """

    def __init__(
        self,
        controller,
        database,
        workers: int = 4,
        start_method: Optional[str] = None,
        shm_min_bytes: Optional[int] = None,
    ):
        self.start_method = start_method or default_start_method()
        self._context = multiprocessing.get_context(self.start_method)
        self.database = database
        self.workers = max(int(workers), 1)
        self._transport = shm_transport.ShmTransport(
            min_bytes=(
                shm_transport.SHM_MIN_BYTES
                if shm_min_bytes is None
                else shm_min_bytes
            )
        )
        self._spec = ControllerSpec(controller)
        payload = pickle.dumps(
            (self._spec, database), protocol=PICKLE_PROTOCOL
        )
        # Records with sequence >= this watermark have not yet been shipped
        # to the replicas (the initial snapshot covers everything before).
        self._replicated_through = database.commit_log.next_sequence
        self._outbox = self._context.Queue()
        self._inboxes = []
        self._processes = []
        for index in range(self.workers):
            self._inboxes.append(None)
            self._processes.append(None)
            self._spawn(index, payload)
        self._next_task_id = 0
        self._next_worker = 0
        self._owners: Dict[int, int] = {}
        self._done: Dict[int, tuple] = {}
        # Shipped-but-uncollected task messages, kept so a dead worker's
        # in-flight tasks can be re-shipped to its replacement exactly once.
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

    def _spawn(self, index: int, payload: bytes) -> None:
        """(Re)start worker ``index`` with a fresh inbox and payload."""
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_audit_worker,
            args=(inbox, self._outbox, payload),
            name=f"repro-audit-proc-{index}",
            daemon=True,
        )
        process.start()
        self._inboxes[index] = inbox
        self._processes[index] = process

    def _hold_wal(self) -> None:
        """Retention hold on the durable log for replica catch-up.

        Records at/after ``_replicated_through`` have not reached every
        replica yet; holding them in the WAL is what lets :meth:`resync`
        catch replicas up from the log instead of re-shipping the whole
        database."""
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            wal.register_consumer("process-replicas", self._replicated_through)

    # -- replication -----------------------------------------------------------

    def replicate(self, records) -> int:
        """Ship not-yet-shipped commit records to every worker replica."""
        fresh = [
            record
            for record in records
            if record.sequence >= self._replicated_through
        ]
        if not fresh:
            return 0
        blob = pickle.dumps(
            [
                (record.sequence, encode_differentials(record.differentials))
                for record in fresh
            ],
            protocol=PICKLE_PROTOCOL,
        )
        descriptor = self._transport.ship(blob, readers=self.workers)
        for inbox in self._inboxes:
            inbox.put(("apply", descriptor))
        self._replicated_through = fresh[-1].sequence + 1
        self._hold_wal()
        return len(fresh)

    def resync(self, database) -> None:
        """Catch every replica up after a commit-log truncation gap.

        With a write-ahead log attached the missed records are still on
        disk (the ``process-replicas`` retention hold keeps them there):
        resync replays them from the log — O(|missed Δ|) per worker — and
        only falls back to shipping a full fresh replica when the log
        cannot serve the range (no WAL, or the hold was released).
        """
        if not self._resync_from_log(database):
            blob = pickle.dumps(database, protocol=PICKLE_PROTOCOL)
            descriptor = self._transport.ship(blob, readers=self.workers)
            for inbox in self._inboxes:
                inbox.put(("resync", descriptor))
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
            missed = [
                (record.sequence, record.differentials)
                for record in wal.scan(
                    start_sequence=start, upto=end - 1, decode=False
                )
            ]
        except Exception:
            return False
        # The log must cover the gap exactly: every sequence in [start, end).
        if len(missed) != end - start or (
            missed and (missed[0][0] != start or missed[-1][0] != end - 1)
        ):
            return False
        if missed:
            blob = pickle.dumps(missed, protocol=PICKLE_PROTOCOL)
            descriptor = self._transport.ship(blob, readers=self.workers)
            for inbox in self._inboxes:
                inbox.put(("apply", descriptor))
        self._replicated_through = end
        return True

    # -- task dispatch ---------------------------------------------------------

    def submit(self, task, sequences, mode="async", predicted=None):
        """Dispatch one audit task to a worker; returns a future."""
        task_id = self._next_task_id
        self._next_task_id += 1
        worker = self._next_worker
        self._next_worker = (self._next_worker + 1) % self.workers
        self._owners[task_id] = worker
        cache = self._delta_cache
        if cache is not None and cache[0] is task.differentials:
            blob = cache[1]
            descriptor = self._transport.reship(cache[2], readers=1)
            if descriptor is None:  # segment already drained: ship again
                descriptor = self._transport.ship(blob, readers=1)
                self._delta_cache = (task.differentials, blob, descriptor)
        else:
            blob = pickle.dumps(
                encode_differentials(task.differentials),
                protocol=PICKLE_PROTOCOL,
            )
            descriptor = self._transport.ship(blob, readers=1)
            self._delta_cache = (task.differentials, blob, descriptor)
        self._pending[task_id] = (task.rule_name, blob)
        self._inboxes[worker].put(("task", task_id, task.rule_name, descriptor))
        return _ProcessFuture(
            self, task_id, task.rule_name, sequences, mode, predicted
        )

    def _collect(self, task_id: int) -> tuple:
        """Block until ``task_id``'s result arrives; store others en route."""
        while True:
            with self._reader_lock:
                if task_id in self._done:
                    self._owners.pop(task_id, None)
                    self._pending.pop(task_id, None)
                    self._retried.discard(task_id)
                    return self._done.pop(task_id)
                try:
                    message = self._outbox.get(timeout=RESULT_POLL_SECONDS)
                except queue_module.Empty:
                    owner = self._owners.get(task_id)
                    if owner is not None and not self._processes[owner].is_alive():
                        self._worker_died(owner)
                    continue
                if message[0] == "shm":
                    self._transport.ack(message[1])
                    continue
                self._done[message[0]] = message[1:]

    def _worker_died(self, owner: int) -> None:
        """Restart-and-resync after an unexpected worker death.

        Called with the reader lock held.  The dead worker is respawned
        from a fresh database snapshot (sequence-idempotent applies let it
        rejoin the broadcast stream mid-flight, see :func:`_audit_worker`)
        and each of its in-flight tasks is re-shipped exactly once; a task
        whose retry also dies surfaces as an audit error.  Retried verdicts
        may observe a post-drain replica state — the thread arm's
        semantics — rather than the drain-time state.
        """
        # Collect results that did arrive before the crash: those tasks
        # need no retry.
        while True:
            try:
                message = self._outbox.get_nowait()
            except queue_module.Empty:
                break
            if message[0] == "shm":
                self._transport.ack(message[1])
            else:
                self._done[message[0]] = message[1:]
        stranded = sorted(
            tid
            for tid, worker in self._owners.items()
            if worker == owner and tid not in self._done and tid in self._pending
        )
        self._processes[owner].join(timeout=1.0)
        payload = pickle.dumps(
            (self._spec, self.database), protocol=PICKLE_PROTOCOL
        )
        self._spawn(owner, payload)
        self.restarts += 1
        for tid in stranded:
            if tid in self._retried:
                self._done[tid] = (
                    None,
                    (),
                    f"audit worker process {owner} died before returning "
                    f"a verdict (task already retried once)",
                    0.0,
                )
                continue
            self._retried.add(tid)
            rule_name, blob = self._pending[tid]
            descriptor = self._transport.ship(blob, readers=1)
            self._inboxes[owner].put(("task", tid, rule_name, descriptor))

    def reap_acks(self) -> None:
        """Drain pending shared-memory acks without blocking on results."""
        while True:
            with self._reader_lock:
                try:
                    message = self._outbox.get_nowait()
                except queue_module.Empty:
                    return
                if message[0] == "shm":
                    self._transport.ack(message[1])
                else:
                    self._done[message[0]] = message[1:]

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop every worker; in-flight tasks should be collected first."""
        if self._closed:
            return
        self._closed = True
        for inbox, process in zip(self._inboxes, self._processes):
            if process.is_alive():
                try:
                    inbox.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover - race
                    pass
        if wait:
            for process in self._processes:
                process.join(timeout=10.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        try:
            self.reap_acks()
        except (ValueError, OSError):  # pragma: no cover - closed queue race
            pass
        self._transport.release_all()
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            wal.release_consumer("process-replicas")

    def __repr__(self) -> str:
        alive = sum(1 for p in self._processes if p.is_alive())
        return (
            f"ProcessAuditExecutor({alive}/{self.workers} workers alive, "
            f"{self.start_method}, replicated_through="
            f"#{self._replicated_through})"
        )
