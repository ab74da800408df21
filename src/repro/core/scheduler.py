"""The audit scheduler: commit log → per-rule audit tasks → executor.

This is the concurrent half of the enforcement pipeline.  The engine's
:class:`~repro.engine.commitlog.CommitLog` records every committed net
delta; this module drains it into independent ``(rule, Δ)`` audit tasks —
the unit of distributable work Martinenghi's simplified-checking survey
identifies — and executes them on one of three executors:

``inline``
    Every task runs on the draining thread.  Zero dispatch cost; no
    overlap.
``thread``
    Predicted-expensive tasks fan out to a thread pool.  Overlaps audit
    work with the committing session, but CPU-bound Python audits still
    serialize on the GIL.
``process``
    Predicted-expensive tasks ship to a pool of worker *processes*
    (:class:`~repro.core.procpool.ProcessAuditExecutor`), each owning a
    shared-nothing replica of the database kept current by replaying the
    commit-record stream.  True multi-core audits, at the price of
    pickling each Δ across a pipe.

Why this is safe without locking base relations: each task evaluates a
side-effect-free delta (or fallback) program through its own
:class:`~repro.engine.session.DeltaView`; base relations are only mutated
by the owning session at commit time.  The *consistency guarantee* is
strict on every arm: each drained batch pins its pre/post epochs
(:meth:`~repro.engine.epochs.EpochManager.pin_span`), so in-process tasks
resolve bare names and ``R@old`` against the exact states the batch's
commits transitioned between even while the owner keeps committing under
the worker threads (the MVCC layer reconstructs the pinned states in
O(Δ); process workers observe exactly the drain-time replica state via
their FIFO-replayed replicas).  Batched ``deferred``/``async`` drains may
still *coalesce* consecutive commits into one audited delta; the audited
states remain the pinned batch boundaries.

Scheduling policy: per rule, the scheduler prices the audit with the cost
model (:func:`repro.parallel.cost_model.predict_audit_time` under the
observed |Δ|) and runs predicted-cheap audits *inline* on the draining
thread — a pool handoff costs more than a vacuous or tiny delta check —
while predicted-expensive audits fan out.  Measured per-task seconds feed
back into the decision as a per-rule EWMA correction factor on the
prediction, the same way observed cardinalities already correct plan
estimates.  Worker exceptions are never dropped: a poisoned task surfaces
as an :class:`AuditOutcome` with ``error`` set, and commit records evicted
from the bounded log before being drained surface as an explicit gap
outcome.

Verdict merging is deterministic: outcomes are ordered by (first covered
commit sequence, rule registration order), regardless of worker completion
order — identical across all three executors.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.engine.commitlog import (
    batch_sequences,
    coalesce_differentials,
    take_batches,
)
from repro.parallel.cost_model import MODERN_2026, predict_audit_time

#: Estimated cost of handing one task to a pool worker (queue + wakeup).
#: Audits predicted cheaper than this run inline on the draining thread.
DISPATCH_OVERHEAD_SECONDS = 1.5e-4

#: Default worker count for the audit pool.
DEFAULT_WORKERS = 4

#: The dispatch arms a scheduler can run audit tasks on.
EXECUTORS = ("inline", "thread", "process")

#: Smoothing for the measured-vs-predicted audit-seconds correction,
#: mirroring DELTA_EWMA_ALPHA on delta-size observations.
AUDIT_EWMA_ALPHA = 0.5


class RuleAuditTask:
    """One independent, side-effect-free audit unit: a rule and a delta.

    ``program`` is the rule's matched differential program, or None for the
    full-check fallback (compensating rules, non-incrementalizable shapes).
    Each :meth:`run` builds a fresh
    :class:`~repro.engine.session.DeltaView`, so concurrent tasks share no
    mutable state beyond the (frozen) differentials and the base relations.
    """

    __slots__ = (
        "controller",
        "rule",
        "program",
        "database",
        "differentials",
        "span",
    )

    def __init__(self, controller, rule, program, database, differentials):
        self.controller = controller
        self.rule = rule
        self.program = program
        self.database = database
        self.differentials = differentials
        # Optional pinned pre/post epoch pair (EpochSpan, retained for this
        # task) making the audit strict under a racing writer; assigned by
        # the scheduler after construction — process-pool workers rebuild
        # tasks against their own replicas and audit without one.
        self.span = None

    @property
    def rule_name(self) -> str:
        return self.rule.name

    @property
    def kind(self) -> str:
        """``"delta"`` (runs a differential program) or ``"full"``."""
        return "delta" if self.program is not None else "full"

    def pricing_program(self):
        """The program whose plans bound this task's work, for cost pricing."""
        if self.program is not None:
            return self.program
        store = self.controller.store
        if self.rule.name in store:
            return store.get(self.rule.name).program
        return None

    def run(self) -> Tuple[bool, tuple]:
        """Execute the audit; returns ``(violated, violating_sample)``."""
        from repro.engine.session import DeltaView
        from repro.errors import EpochUnavailableError

        try:
            view = DeltaView(self.database, self.differentials, span=self.span)
            if self.program is not None:
                return self.controller._program_outcome(self.program, view)
            return self.controller._is_violated(self.rule, view), ()
        except EpochUnavailableError:
            # The pinned window was quiesced away (an out-of-band bulk
            # mutation mid-audit); fall back to the live-state audit the
            # pre-MVCC pipeline always ran.
            if self.span is None:
                raise
            self.release_span()
            return self.run()

    def release_span(self) -> None:
        """Drop this task's retained reference on its epoch span, once."""
        span, self.span = self.span, None
        if span is not None:
            span.release()

    def __repr__(self) -> str:
        return f"RuleAuditTask({self.rule_name}, {self.kind})"


class AuditOutcome:
    """The verdict of one audit task over one commit batch.

    ``mode`` records the audit semantics the task ran under (``"sync"``
    strict per-commit, ``"async"`` batched/deferred, ``"gap"`` for a
    commit-log truncation); ``executor`` records the dispatch arm that
    physically ran it (``"inline"``, ``"thread"``, ``"process"``, or None
    for synthetic outcomes like gaps).
    """

    __slots__ = (
        "rule",
        "sequences",
        "violated",
        "violations",
        "error",
        "mode",
        "executor",
        "seconds",
        "predicted",
    )

    def __init__(
        self,
        rule: Optional[str],
        sequences: tuple,
        violated: Optional[bool],
        violations: tuple = (),
        error: Optional[str] = None,
        mode: str = "sync",
        executor: Optional[str] = "inline",
        seconds: float = 0.0,
        predicted: Optional[float] = None,
    ):
        self.rule = rule
        self.sequences = sequences
        self.violated = violated
        self.violations = violations
        self.error = error
        self.mode = mode
        self.executor = executor
        self.seconds = seconds
        self.predicted = predicted

    @property
    def failed(self) -> bool:
        """True when the audit itself failed (poison task / log gap)."""
        return self.error is not None

    @property
    def ok(self) -> bool:
        return not self.failed and not self.violated

    def __repr__(self) -> str:
        span = (
            f"#{self.sequences[0]}"
            if len(self.sequences) == 1
            else f"#{self.sequences[0]}..{self.sequences[-1]}"
            if self.sequences
            else "#?"
        )
        if self.failed:
            state = f"FAILED: {self.error}"
        elif self.violated:
            state = f"VIOLATED ({len(self.violations)} sample tuple(s))"
        else:
            state = "ok"
        where = self.mode if self.executor is None else f"{self.mode}/{self.executor}"
        return f"AuditOutcome({self.rule}, {span}, {state}, {where})"


class AuditScheduler:
    """Drains a database's commit log into concurrent per-rule audits."""

    def __init__(
        self,
        controller,
        database,
        workers: int = DEFAULT_WORKERS,
        coalesce: bool = True,
        cost_model=MODERN_2026,
        dispatch_overhead: float = DISPATCH_OVERHEAD_SECONDS,
        start_sequence: Optional[int] = None,
        executor: str = "thread",
        start_method: Optional[str] = None,
        shm_min_bytes: Optional[int] = None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.controller = controller
        self.database = database
        self.workers = max(int(workers), 1)
        self.coalesce = coalesce
        self.cost_model = cost_model
        self.dispatch_overhead = dispatch_overhead
        self.executor = executor
        self.start_method = start_method
        self.shm_min_bytes = shm_min_bytes
        log = database.commit_log
        if start_sequence is None:
            first = log.first_sequence
            start_sequence = first if first is not None else log.next_sequence
        self._cursor = start_sequence
        self._lock = threading.Lock()
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool = None
        # Per-rule EWMA of measured/predicted audit seconds; multiplies the
        # next prediction before it meets the dispatch threshold.
        self._corrections: Dict[str, float] = {}
        # Submission-ordered (future | outcome) slots not yet collected by
        # wait(); preserving submission order is what makes async verdict
        # merging deterministic.
        self._outstanding: List[object] = []
        self.history: List[AuditOutcome] = []
        self.drains = 0
        self.fanned_out = 0
        self.ran_inline = 0

    # -- introspection ---------------------------------------------------------

    @property
    def cursor(self) -> int:
        """Sequence number of the next commit this scheduler will audit."""
        return self._cursor

    @property
    def _consumer_name(self) -> str:
        """Stable retention-hold name on the database's write-ahead log."""
        return "audit-scheduler"

    def pending(self) -> int:
        """Commits recorded but not yet drained."""
        records, lost = self.database.commit_log.since(self._cursor)
        return len(records) + lost

    @property
    def audit_time_corrections(self) -> Dict[str, float]:
        """Per-rule EWMA of measured/predicted audit seconds (read-only)."""
        with self._lock:
            return dict(self._corrections)

    # -- draining ----------------------------------------------------------------

    def drain(
        self,
        asynchronous: bool = False,
        coalesce: Optional[bool] = None,
    ) -> List[AuditOutcome]:
        """Audit every commit recorded since the last drain.

        Synchronous drains (the default) run every task on the calling
        thread and return the completed outcomes.  Asynchronous drains
        submit predicted-expensive tasks to the configured executor's
        pool, run predicted-cheap ones inline, and return immediately with
        the already-completed outcomes; :meth:`wait` collects the rest.
        Either way every outcome also lands in :attr:`history`, in
        deterministic order.
        """
        if coalesce is None:
            coalesce = self.coalesce
        with self._lock:
            records, lost = self.database.commit_log.since(self._cursor)
            if records:
                self._cursor = records[-1].sequence + 1
            else:
                self._cursor += lost
            self.drains += 1
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            # Retention hold on the durable log: segments below the audit
            # cursor are replayable without us, so the WAL may purge them.
            wal.advance_consumer(self._consumer_name, self._cursor)
        if self._process_pool is not None:
            # Keep worker replicas current *before* this drain's tasks are
            # submitted: FIFO inboxes then guarantee each task observes
            # exactly the drain-time state.
            if lost:
                self._process_pool.resync(self.database)
            elif records:
                self._process_pool.replicate(records)
        completed: List[AuditOutcome] = []
        if lost:
            gap = AuditOutcome(
                None,
                (),
                None,
                error=(
                    f"{lost} commit(s) evicted from the bounded log before "
                    f"being audited; raise CommitLog capacity or drain more "
                    f"often"
                ),
                mode="gap",
                executor=None,
            )
            completed.append(gap)
            if asynchronous:
                # Async consumers collect through wait(): the gap must
                # travel the same path or eviction becomes a silent drop.
                with self._lock:
                    self._outstanding.append(gap)
            else:
                self._record(gap)
        for batch in take_batches(records, coalesce):
            completed.extend(self._drain_batch(batch, asynchronous))
        return completed

    def _drain_batch(self, batch, asynchronous: bool) -> List[AuditOutcome]:
        if len(batch) == 1:
            differentials = batch[0].differentials
        else:
            differentials = coalesce_differentials(batch, self.database)
        sequences = batch_sequences(batch)
        tasks = self.controller.audit_tasks(self.database, differentials)
        completed: List[AuditOutcome] = []
        delta_sizes = _delta_sizes(differentials)
        # Pin the batch's pre/post epochs so every in-process task audits
        # exactly the states its commits transitioned between, even while
        # the owning session keeps committing under the worker threads.
        # None when the batch's entries are no longer retained (e.g. a
        # scheduler attached long after the commits); tasks then fall back
        # to the live-state audit.
        span = None
        epochs = getattr(self.database, "epochs", None)
        if epochs is not None and sequences:
            span = epochs.pin_span(sequences[0], sequences[-1])
        try:
            for task in tasks:
                predicted = (
                    self.predicted_audit_seconds(task, delta_sizes)
                    if asynchronous
                    else None
                )
                if (
                    asynchronous
                    and self.executor != "inline"
                    and self._prefer_fanout(task, predicted)
                ):
                    self.fanned_out += 1
                    if self.executor == "process":
                        # Process workers rebuild the task against their
                        # FIFO-replayed replica (already strictly at the
                        # drain-time state); no span crosses the pipe.
                        future = self._processes().submit(
                            task, sequences, mode="async", predicted=predicted
                        )
                    else:
                        if span is not None:
                            task.span = span.retain()
                        future = self._pool().submit(
                            _execute, task, sequences, "async", "thread", predicted
                        )
                    with self._lock:
                        self._outstanding.append(future)
                else:
                    self.ran_inline += 1
                    if span is not None:
                        task.span = span.retain()
                    mode = "async" if asynchronous else "sync"
                    outcome = _execute(task, sequences, mode, "inline", predicted)
                    completed.append(outcome)
                    if asynchronous:
                        with self._lock:
                            self._outstanding.append(outcome)
                    else:
                        self._record(outcome)
        finally:
            if span is not None:
                span.release()  # the creator's reference; tasks hold their own
        return completed

    def wait(self) -> List[AuditOutcome]:
        """Block until all submitted audits finish; return them in order.

        The returned list covers everything handed out by asynchronous
        drains since the last :meth:`wait` (inline and pool outcomes
        alike), ordered by submission — i.e. by (commit sequence, rule
        registration order) — no matter which worker finished first; the
        merged order is also what lands in :attr:`history`.
        """
        with self._lock:
            slots = self._outstanding
            self._outstanding = []
        outcomes = [
            slot.result() if hasattr(slot, "result") else slot
            for slot in slots
        ]
        for outcome in outcomes:
            self._record(outcome)
        return outcomes

    def start(self) -> "AuditScheduler":
        """Eagerly create the configured executor's pool.

        Useful before timed regions: process-pool creation ships a full
        database replica and rebuilds every rule plan per worker, a cost
        that belongs to setup, not to the first drain.
        """
        if self.executor == "thread":
            self._pool()
        elif self.executor == "process":
            self._processes()
        return self

    def close(self) -> None:
        """Deterministic shutdown: drain in-flight audits, stop executors.

        Outstanding asynchronous tasks are collected into
        :attr:`history` first (same deterministic order as :meth:`wait`),
        then whichever pools are live — thread, process, or both — are shut
        down; no worker threads or processes are leaked.  The scheduler
        remains usable afterwards: the next drain lazily recreates its
        pool.
        """
        self.wait()
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            # Drop the retention hold; a later drain re-registers it.
            wal.release_consumer(self._consumer_name)

    def __enter__(self) -> "AuditScheduler":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- internals -----------------------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-audit",
            )
        return self._thread_pool

    def _processes(self):
        if self._process_pool is None:
            from repro.core.procpool import ProcessAuditExecutor

            self._process_pool = ProcessAuditExecutor(
                self.controller,
                self.database,
                workers=self.workers,
                start_method=self.start_method,
                shm_min_bytes=self.shm_min_bytes,
            )
        return self._process_pool

    def predicted_audit_seconds(
        self, task: RuleAuditTask, delta_sizes
    ) -> Optional[float]:
        """Predicted net task seconds (model prediction minus startup),
        *before* the EWMA correction; None when the task is unpriceable."""
        program = task.pricing_program()
        if program is None:
            return None
        try:
            predicted = predict_audit_time(
                program,
                model=self.cost_model,
                database=self.database,
                deltas=delta_sizes,
            )
        except Exception:
            return None
        return max(predicted - self.cost_model.startup, 0.0)

    def _prefer_fanout(
        self, task: RuleAuditTask, predicted: Optional[float]
    ) -> bool:
        """Fan out iff the corrected predicted cost amortizes the dispatch."""
        if predicted is None:
            return True  # unpriceable: assume expensive
        with self._lock:
            correction = self._corrections.get(task.rule_name, 1.0)
        return predicted * correction >= self.dispatch_overhead

    def _record(self, outcome: AuditOutcome) -> None:
        with self._lock:
            self.history.append(outcome)
            if (
                outcome.rule is not None
                and not outcome.failed
                and outcome.predicted is not None
                and outcome.predicted > 0.0
                and outcome.seconds > 0.0
            ):
                ratio = outcome.seconds / outcome.predicted
                previous = self._corrections.get(outcome.rule)
                if previous is None:
                    self._corrections[outcome.rule] = ratio
                else:
                    self._corrections[outcome.rule] = (
                        AUDIT_EWMA_ALPHA * ratio
                        + (1.0 - AUDIT_EWMA_ALPHA) * previous
                    )

    def __repr__(self) -> str:
        return (
            f"AuditScheduler(cursor=#{self._cursor}, "
            f"executor={self.executor}, workers={self.workers}, "
            f"{len(self.history)} verdicts, inline={self.ran_inline}, "
            f"fanned_out={self.fanned_out})"
        )


def _execute(
    task: RuleAuditTask,
    sequences: tuple,
    mode: str,
    executor: str = "inline",
    predicted: Optional[float] = None,
) -> AuditOutcome:
    """Run one task, converting any exception into an audit failure."""
    started = time.perf_counter()
    try:
        violated, violations = task.run()
        return AuditOutcome(
            task.rule_name,
            sequences,
            violated,
            violations=violations,
            mode=mode,
            executor=executor,
            seconds=time.perf_counter() - started,
            predicted=predicted,
        )
    except BaseException as error:  # poison task: surface, never drop
        return AuditOutcome(
            task.rule_name,
            sequences,
            None,
            error=f"{type(error).__name__}: {error}",
            mode=mode,
            executor=executor,
            seconds=time.perf_counter() - started,
            predicted=predicted,
        )
    finally:
        # Unpin the task's epoch window as soon as the verdict exists so
        # reclamation never waits on verdict *collection*.
        task.release_span()


def _delta_sizes(differentials) -> dict:
    """``{"R@plus": |Δ⁺|, "R@minus": |Δ⁻|}`` for cost-model pricing."""
    sizes: dict = {}
    for base, (plus, minus) in differentials.items():
        if plus is not None:
            sizes[f"{base}@plus"] = float(len(plus))
        if minus is not None:
            sizes[f"{base}@minus"] = float(len(minus))
    return sizes
