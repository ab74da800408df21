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
    Expensive tasks fan out to a thread pool.  Overlaps audit
    work with the committing session, but CPU-bound Python audits still
    serialize on the GIL.
``process``
    Expensive tasks ship to a pool of worker *processes*
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
O(Δ)); process workers audit replicas a drain brings to each batch's
post-state just before its tasks ship.  Batched drains may still
*coalesce* consecutive commits into one audited delta; the audited
states remain the pinned batch boundaries.

Scheduling policy: a simplified check costs in proportion to its |Δ|, so
the scheduler prices a rule's audit by what that rule's audits have cost:
an EWMA of measured seconds per Δ-row (the Δ sides the rule is triggered
by; a full check, whose cost follows |R|, counts one row per audit),
settled from every successful outcome, sync drains included.  Audits
priced under one dispatch run *inline* on the draining thread — a pool
handoff costs more than a vacuous or tiny delta check — while the rest
fan out, as does a rule with no history yet.  Worker exceptions are never
dropped: a poisoned task surfaces as an :class:`AuditOutcome` with
``error`` set, and an interrupt raised during an inline audit propagates
after handing its batch, and the drain's later ones, back to the next
drain.

No commit goes unaudited: a scheduler is a *cursor* the commit stream
keeps its commits for (:mod:`repro.engine.epochs`), and a commit that
leaves it more than ``epochs.retain`` commits behind drains it on the
committing thread (:meth:`AuditScheduler.catch_up`) — safe, since an
audit is a side-effect-free check of (rule, Δ).  Those verdicts reach the
caller's next synchronous drain or :meth:`~AuditScheduler.wait`.

Verdict merging is deterministic: outcomes are ordered by (first covered
commit sequence, rule registration order), regardless of worker completion
order — identical across all three executors.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.algebra.statements import INS
from repro.engine.commitlog import (
    batch_sequences,
    coalesce_differentials,
    take_batches,
)
from repro.engine.database import DatabaseSnapshot
from repro.engine.session import DeltaView

#: Estimated cost of handing one task to a pool worker (queue + wakeup).
#: Audits priced cheaper than this run inline on the draining thread.
DISPATCH_OVERHEAD_SECONDS = 1.5e-4

#: Default worker count for the audit pool.
DEFAULT_WORKERS = 4

#: The dispatch arms a scheduler can run audit tasks on.
EXECUTORS = ("inline", "thread", "process")

#: Smoothing for each rule's settled audit seconds per Δ-row.
AUDIT_EWMA_ALPHA = 0.5

#: A scheduler's retention-hold name on the database's write-ahead log.
WAL_CONSUMER = "audit-scheduler"


class RuleAuditTask:
    """One independent, side-effect-free audit unit: a rule and a delta.

    ``program`` is the rule's matched Δ-checks, or None for the full-check
    fallback (non-incrementalizable shapes, compensating rules whose action
    keeps its full-state read).
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

    @property
    def rows(self) -> int:
        """What the audit's cost scales with, the unit its rule is priced in.

        A differential program reads only the Δ sides its rule is triggered
        by, so a delta task counts |Δ⁺| of each ``INS`` trigger and |Δ⁻| of
        each ``DEL`` trigger.  A full check costs in |R|, not |Δ|: it counts
        as one row, so its rule's rate is seconds per audit.
        """
        if self.program is None:
            return 1
        rows = 0
        for kind, base in self.rule.triggers:
            plus, minus = self.differentials.get(base, (None, None))
            side = plus if kind == INS else minus
            if side is not None:
                rows += len(side)
        return rows

    def run(self) -> Tuple[bool, tuple]:
        """Execute the audit; returns ``(violated, violating_sample)``."""
        # A held span keeps every record it brackets, so its pinned states
        # stay readable for the whole audit.
        view = DeltaView(self.database, self.differentials, span=self.span)
        program = self.program
        if program is None:
            program = self.controller._audit_program(self.rule)
        return self.controller._program_outcome(program, view)

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
    strict per-commit, ``"async"`` batched/deferred); ``executor`` records
    the dispatch arm that physically ran it (``"inline"``, ``"thread"`` or
    ``"process"``).  ``rows`` is the task's
    :attr:`RuleAuditTask.rows`: ``seconds`` over it is what the outcome
    settles into its rule's price.
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
        "rows",
    )

    def __init__(
        self,
        rule: str,
        sequences: tuple,
        violated: Optional[bool],
        violations: tuple = (),
        error: Optional[str] = None,
        mode: str = "sync",
        executor: str = "inline",
        seconds: float = 0.0,
        rows: int = 0,
    ):
        self.rule = rule
        self.sequences = sequences
        self.violated = violated
        self.violations = violations
        self.error = error
        self.mode = mode
        self.executor = executor
        self.seconds = seconds
        self.rows = rows

    @property
    def failed(self) -> bool:
        """True when the audit itself failed (a poison task)."""
        return self.error is not None

    @property
    def ok(self) -> bool:
        return not self.failed and not self.violated

    def __repr__(self) -> str:
        span = (
            f"#{self.sequences[0]}"
            if len(self.sequences) == 1
            else f"#{self.sequences[0]}..{self.sequences[-1]}"
        )
        if self.failed:
            state = f"FAILED: {self.error}"
        elif self.violated:
            state = f"VIOLATED ({len(self.violations)} sample tuple(s))"
        else:
            state = "ok"
        return (
            f"AuditOutcome({self.rule}, {span}, {state}, "
            f"{self.mode}/{self.executor})"
        )


class AuditScheduler:
    """Drains a database's commit log into concurrent per-rule audits."""

    def __init__(
        self,
        controller,
        database,
        workers: int = DEFAULT_WORKERS,
        coalesce: bool = True,
        dispatch_overhead: float = DISPATCH_OVERHEAD_SECONDS,
        start_sequence: Optional[int] = None,
        executor: str = "thread",
        start_method: Optional[str] = None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.controller = controller
        self.database = database
        self.workers = max(int(workers), 1)
        self.coalesce = coalesce
        self.dispatch_overhead = dispatch_overhead
        self.executor = executor
        self.start_method = start_method
        self._lock = threading.Lock()
        # One drain at a time: the cursor moves past a batch only once its
        # verdicts exist, so a cut batch stays in the stream for the next.
        self._drain_lock = threading.Lock()
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool = None
        # Per-rule EWMA of measured audit seconds per Δ-row, settled by
        # _record; times a task's rows it is the task's price.
        self._rates: Dict[str, float] = {}
        # Submission-ordered (future | outcome) slots not yet collected by
        # wait(); preserving submission order is what makes async verdict
        # merging deterministic.
        self._outstanding: List[object] = []
        self.history: List[AuditOutcome] = []
        self.fanned_out = 0
        self.ran_inline = 0
        # Catch-up verdicts, already in history, for the next drain or wait.
        self._caught_up: List[AuditOutcome] = []
        self._cursor = 0  # holds every commit until placed
        self._cursor = database.epochs.add_cursor(self, start_sequence)

    # -- introspection ---------------------------------------------------------

    @property
    def cursor(self) -> int:
        """Sequence number of the next commit this scheduler will audit."""
        return self._cursor

    def pending(self) -> int:
        """Commits recorded but not yet drained."""
        return len(self.database.commit_log.since(self._cursor)[0])

    @property
    def audit_rates(self) -> Dict[str, float]:
        """Per-rule settled audit seconds per Δ-row (read-only)."""
        with self._lock:
            return dict(self._rates)

    # -- draining ----------------------------------------------------------------

    def drain(
        self,
        asynchronous: bool = False,
        coalesce: Optional[bool] = None,
    ) -> List[AuditOutcome]:
        """Audit every commit recorded since the last drain.

        Synchronous drains (the default) run every task on the calling
        thread and return the completed outcomes, after the verdicts the
        committer's :meth:`catch_up` produced since the last collection.
        Asynchronous drains submit tasks priced at one dispatch or more (or
        not yet priced) to the configured executor's pool, run the cheaper
        ones inline, and return immediately with the already-completed
        outcomes; :meth:`wait` collects the rest, catch-up verdicts
        included.  Either way every outcome also lands in :attr:`history`.
        """
        return self._drain(asynchronous, coalesce)

    def catch_up(self, upto: int) -> None:
        """Audit every commit below ``upto`` on this thread (the committer
        does, once ``epochs.retain`` behind); the verdicts land in
        :attr:`history` and reach the next sync drain or :meth:`wait`.  The
        calling commit stands: an :class:`Exception` becomes a failed
        verdict per rule for the commits left, which the cursor passes."""
        try:
            self._drain(True, None, upto=upto)
        except Exception as raised:
            error = f"{type(raised).__name__}: {raised}"
            with self._drain_lock:
                sequences = tuple(range(self._cursor, upto))
                self._cursor = max(self._cursor, upto)
                self._record([
                    AuditOutcome(rule.name, sequences, None, error=error,
                                 mode="async")
                    for rule in self.controller.rules if sequences
                ], hand_off=True)

    def _drain(self, asynchronous, coalesce, upto=None) -> List[AuditOutcome]:
        if coalesce is None:
            coalesce = self.coalesce
        catching_up = upto is not None
        completed: List[AuditOutcome] = []
        with self._drain_lock:
            records = self.database.commit_log.since(self._cursor)[0]
            if catching_up:
                records = [r for r in records if r.sequence < upto]
            for batch in take_batches(records, coalesce):
                # An interrupt cuts a batch before any of its verdicts
                # lands; the cursor has not passed it, and audits have no
                # side effects, so the next drain audits it and the rest.
                completed.extend(self._drain_batch(batch, asynchronous, catching_up))
                self._cursor = batch[-1].sequence + 1
            if records:  # empty records form no batch: pass them too
                self._cursor = records[-1].sequence + 1
            if not asynchronous:
                # Catch-ups hold this lock too, so theirs precede ours.
                with self._lock:
                    completed[:0] = self._caught_up
                    self._caught_up = []
        wal = self.database.wal
        if wal is not None and not catching_up:
            # Retention hold on the durable log: segments below the audit
            # cursor are replayable without us, so the WAL may purge them.
            # A catch-up leaves it to the next drain: no disk write may
            # fail the committing thread.
            wal.advance_consumer(WAL_CONSUMER, self._cursor)
        return completed

    def _drain_batch(self, batch, asynchronous, catching_up) -> List[AuditOutcome]:
        if len(batch) == 1:
            differentials = batch[0].differentials
        else:
            differentials = coalesce_differentials(batch, self.database)
        sequences = batch_sequences(batch)
        tasks = self.controller.audit_tasks(self.database, differentials)
        fan_out = asynchronous and not catching_up
        processes = self._process_pool
        if processes is not None:
            # The replicas reach this batch's post-state, no later one,
            # before its tasks ship (FIFO inboxes).
            processes.replicate(batch[-1].version)
        completed: List[AuditOutcome] = []
        slots: List[object] = []  # submission-ordered, for wait()
        # Pin the batch's pre/post epochs so every in-process task audits
        # exactly the states its commits transitioned between, even while
        # the owning session keeps committing or loading under the worker
        # threads: the pins reconstruct through a load as through a
        # commit.  None only when a record the span needs was trimmed (no
        # cursor held it); tasks then audit the live state.
        span = self.database.epochs.pin_span(sequences[0], sequences[-1])
        try:
            for task in tasks:
                rows = task.rows
                if (
                    fan_out
                    and self.executor != "inline"
                    and self._prefer_fanout(task.rule_name, rows)
                ):
                    self.fanned_out += 1
                    if self.executor == "process":
                        # Workers rebuild the task against their replica;
                        # no span crosses the pipe.  A new pool starts at
                        # the cursor's state: ship it the batch too.
                        if processes is None:
                            processes = self._processes()
                            processes.replicate(batch[-1].version)
                        future = processes.submit(
                            task, sequences, mode="async", rows=rows
                        )
                    else:
                        if span is not None:
                            task.span = span.retain()
                        future = self._pool().submit(
                            _execute, task, sequences, "async", "thread", rows
                        )
                    slots.append(future)
                else:
                    self.ran_inline += 1
                    if span is not None:
                        task.span = span.retain()
                    mode = "async" if asynchronous else "sync"
                    outcome = _execute(task, sequences, mode, "inline", rows)
                    completed.append(outcome)
                    slots.append(outcome)
        finally:
            if span is not None:
                span.release()  # the creator's reference; tasks hold their own
        # The batch's verdicts land together, after its last task: a batch
        # an interrupt cut short keeps none, so its re-audit duplicates none.
        if fan_out:
            with self._lock:
                self._outstanding.extend(slots)
        else:
            self._record(completed, hand_off=catching_up)
        return completed

    def wait(self) -> List[AuditOutcome]:
        """Block until all submitted audits finish; return them in order.

        The returned list covers everything handed out by asynchronous
        drains and catch-ups since the last collection (inline and pool
        outcomes alike), ordered by (commit sequence, rule registration
        order) no matter which worker finished first.  The pool outcomes
        land in :attr:`history` in that order too.
        """
        with self._lock:
            slots = self._outstanding
            self._outstanding = []
            caught = self._caught_up
            self._caught_up = []
        outcomes: List[AuditOutcome] = []
        try:
            for slot in slots:
                outcomes.append(slot.result() if hasattr(slot, "result") else slot)
        except BaseException:
            # Interrupted while blocked on a worker: hand back what was
            # collected and what was not, in order, for the next wait().
            with self._lock:
                self._outstanding[:0] = outcomes + slots[len(outcomes):]
                self._caught_up[:0] = caught
            raise
        self._record(outcomes)
        # Both lists run in commit order: merge the catch-ups in.
        return list(heapq.merge(caught, outcomes, key=lambda o: o.sequences[0]))

    def start(self) -> "AuditScheduler":
        """Eagerly create the configured executor's pool.

        Useful before timed regions: process-pool creation ships a full
        database replica and rebuilds every rule plan per worker, a cost
        that belongs to setup, not to the first drain.  The replica is the
        cursor's state, not the live one.
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
        if self.database.wal is not None:
            # Drop the retention hold; a later drain re-registers it.
            self.database.wal.release_consumer(WAL_CONSUMER)

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
                replica=self._cursor_state(),
            )
        return self._process_pool

    def _cursor_state(self):
        """A fork at the state the cursor's commit applied to (the head
        when none is pending), where a new process pool's replicas start."""
        database = self.database
        span = database.epochs.pin_span(self._cursor, self._cursor)
        if span is None:
            return database.fork()
        try:
            return database.fork(
                DatabaseSnapshot(span.pre, database.relation_names)
            )
        finally:
            span.release()

    def predicted_audit_seconds(
        self, task: RuleAuditTask, delta_sizes=None
    ) -> Optional[float]:
        """The task's price: its rule's settled seconds per Δ-row times the
        task's :attr:`~RuleAuditTask.rows`; None while the rule has no
        settled history.  ``delta_sizes`` is ignored, since the task carries
        its own Δ; the parameter stays for callers that pass one."""
        with self._lock:
            rate = self._rates.get(task.rule_name)
        return None if rate is None else rate * task.rows

    def _prefer_fanout(self, rule: str, rows: int) -> bool:
        """Fan out iff the audit's price amortizes one dispatch; a rule with
        no history yet fans out."""
        with self._lock:
            rate = self._rates.get(rule)
        return rate is None or rate * rows >= self.dispatch_overhead

    def _record(self, outcomes: List[AuditOutcome], hand_off=False) -> None:
        """Keep the verdicts, a catch-up's also for the next collection; a
        successful rule audit settles its rate."""
        with self._lock:
            self.history.extend(outcomes)
            if hand_off:
                self._caught_up.extend(outcomes)
            for outcome in outcomes:
                if outcome.failed:
                    continue
                rate = outcome.seconds / max(outcome.rows, 1)
                previous = self._rates.get(outcome.rule)
                if previous is not None:
                    rate = AUDIT_EWMA_ALPHA * rate + (1.0 - AUDIT_EWMA_ALPHA) * previous
                self._rates[outcome.rule] = rate

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
    rows: int = 0,
) -> AuditOutcome:
    """Run one task, converting what it raises into an audit failure.

    On the caller's thread only an :class:`Exception` becomes a verdict: an
    interrupt or exit raised during an inline audit propagates.  On a pool
    thread anything the task raises is its verdict, as a process worker's
    death is.
    """
    started = time.perf_counter()
    error = None
    try:
        violated, violations = task.run()
    except BaseException as raised:  # poison task: surface, never drop
        if executor == "inline" and not isinstance(raised, Exception):
            raise
        violated, violations = None, ()
        error = f"{type(raised).__name__}: {raised}"
    finally:
        seconds = time.perf_counter() - started
        # Unpin the task's epoch window as soon as the verdict exists so
        # reclamation never waits on verdict *collection*.
        task.release_span()
    return AuditOutcome(
        task.rule_name,
        sequences,
        violated,
        violations=violations,
        error=error,
        mode=mode,
        executor=executor,
        seconds=seconds,
        rows=rows,
    )
