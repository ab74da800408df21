"""The traced run: per-layer numbers measured from outside the program.

Nothing under ``src/`` is instrumented.  The traced run drives the same
pipeline ``Session.execute`` / ``Session.commit`` / ``Session.query`` run,
one public call at a time — ``parse_transaction`` →
``controller.modify_transaction`` → ``TransactionContext`` with one
``statement.execute`` per statement → ``context.commit()`` →
``scheduler.drain`` — with a span around each call, and it wraps, on the
instances the workload's database owns, the public methods the engine calls
below that: ``Database.apply_deltas``, ``CommitLog.append``,
``EpochManager.begin_write/end_write/pin``,
``WriteAheadLog.append/advance_consumer``, ``AuditScheduler.drain``; fsyncs
are counted by wrapping ``os.fsync`` for the duration of the traced phase.

A span is ``[name, start, end, parent, transaction]`` (``transaction`` is the
ordinal of the op, transaction or read, it belongs to); spans stay in
memory until the run ends.  A span's self time is its duration minus its
children's.  That the stepwise pipeline is the same program as ``Session``
is not assumed: the traced run must end in the same final-state checksum
as an untraced run over the same ops.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from repro.algebra.evaluation import evaluate_expression
from repro.algebra.parser import parse_expression, parse_transaction
from repro.engine.session import DatabaseView
from repro.engine.transaction import (
    TransactionContext,
    TransactionResult,
    TransactionStatus,
)
from repro.errors import ReproError, TransactionAborted

from benchmarks.e2e.harness import (
    COMMIT_SAMPLES,
    READ_SAMPLES,
    REJECT_SAMPLES,
    PassResult,
    Reference,
    run_pass,
    setup,
)
from benchmarks.e2e.spec import PER_LAYER, TRACE_FRACTION
from benchmarks.e2e.workloads import Env

NAME, START, END, PARENT, TRANSACTION = range(5)

#: The span that covers one whole op; its self time is the glue between
#: layers plus the spans' own cost, and counts for no layer.
ROOT = "session"


class Tracer:
    """An in-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: List[list] = []
        self.open: List[int] = []
        self.transaction = 0

    def begin(self, name: str) -> None:
        parent = self.open[-1] if self.open else -1
        self.open.append(len(self.spans))
        self.spans.append([name, 0.0, 0.0, parent, self.transaction])
        self.spans[-1][START] = time.perf_counter()

    def end(self) -> None:
        now = time.perf_counter()
        self.spans[self.open.pop()][END] = now

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        The wrapper is set on the instance, so only this workload's objects
        are timed and the class stays as it is.
        """
        inner = getattr(owner, attribute)

        def timed(*args, **kwargs):
            self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end()

        setattr(owner, attribute, timed)

    def in_op(self, span: list) -> bool:
        """False for the few wrapped calls made outside any op (the pin
        refresh, the fsync of closing the log)."""
        return span[PARENT] >= 0 or span[NAME] == ROOT

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, over the spans of ops."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, children):
            if self.in_op(span):
                totals[span[NAME]] += span[END] - span[START] - covered
        return totals

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name and self.in_op(span))

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "transaction"],
                 "spans": self.spans},
                handle,
            )


class TracedSession:
    """``Session.execute/commit/query``, one public call and one span at a time."""

    def __init__(self, env: Env):
        self.database = env.database
        self.controller = env.controller
        tracer = self.tracer = Tracer()
        self.counts: Dict[str, float] = defaultdict(float)
        self.retained_max = 0
        self._fsync = os.fsync
        database = env.database
        tracer.wrap(database, "apply_deltas", "database.apply")
        tracer.wrap(database.commit_log, "append", "commitlog.append")
        tracer.wrap(database.epochs, "begin_write", "epochs.write")
        tracer.wrap(database.epochs, "end_write", "epochs.write")
        tracer.wrap(database.epochs, "pin", "epochs.pin")
        if database.wal is not None:
            tracer.wrap(database.wal, "append", "wal.append")
            tracer.wrap(database.wal, "advance_consumer", "wal.consumer")
            # The warm-up commits created the scheduler this database's
            # commits drain through.
            tracer.wrap(env.controller.audit_scheduler(database), "drain", "scheduler.drain")
            tracer.wrap(os, "fsync", "wal.fsync")
        self._index_usage = self._usage()

    def close(self) -> None:
        os.fsync = self._fsync

    def _usage(self) -> tuple:
        uses = keys = 0
        for relation in self.database:
            for index in relation.indexes or ():
                uses += index.usage.uses
                keys += index.usage.keys
        return uses, keys

    def index_usage(self) -> tuple:
        """``(uses, probe keys)`` on the database's indexes since tracing began."""
        uses, keys = self._usage()
        return uses - self._index_usage[0], keys - self._index_usage[1]

    # -- transactions ---------------------------------------------------------

    def _run(self, source, modify: bool) -> TransactionResult:
        """``TransactionManager.execute``, statement by statement."""
        tracer, counts = self.tracer, self.counts
        if isinstance(source, str):
            tracer.begin("parser")
            transaction = parse_transaction(source)
            tracer.end()
            counts["statements_parsed"] += len(transaction)
        else:
            transaction = source
        user_statements = len(transaction)
        if modify:
            tracer.begin("modification")
            transaction = self.controller.modify_transaction(transaction)
            tracer.end()
            stats = self.controller.last_stats
            counts["rounds"] += stats.rounds
            counts["rules_selected"] += stats.rules_selected
            counts["statements_appended"] += stats.statements_appended
        context = TransactionContext(self.database)
        pre_time = self.database.logical_time
        try:
            for position, statement in enumerate(transaction.statements):
                tracer.begin(
                    "transaction.user" if position < user_statements else "transaction.check"
                )
                try:
                    statement.execute(context)
                finally:
                    tracer.end()
                context.statements_executed += 1
        except ReproError as error:
            reason = (
                error.reason
                if isinstance(error, TransactionAborted)
                else f"runtime error: {error}"
            )
            tracer.begin("transaction.rollback")
            context.rollback()
            tracer.end()
            counts["aborts"] += 1
            return TransactionResult(
                TransactionStatus.ABORTED,
                transaction,
                reason=reason,
                statements_executed=context.statements_executed,
                pre_time=pre_time,
                post_time=pre_time,
            )
        tracer.begin("transaction.commit")
        context.commit()
        tracer.end()
        counts["delta_rows"] += context.tuples_inserted + context.tuples_deleted
        return TransactionResult(
            TransactionStatus.COMMITTED,
            transaction,
            statements_executed=context.statements_executed,
            tuples_inserted=context.tuples_inserted,
            tuples_deleted=context.tuples_deleted,
            pre_time=pre_time,
            post_time=self.database.logical_time,
            differentials=context.net_differentials(),
        )

    def _start(self) -> None:
        """Open the span of one op; all its spans share the op's ordinal."""
        self.tracer.transaction += 1
        self.tracer.begin(ROOT)

    def _finish(self) -> None:
        tracer = self.tracer
        while tracer.open:  # an op that raised left its inner spans open
            tracer.end()
        self.retained_max = max(self.retained_max, self.database.epochs.retained())

    def execute(self, source) -> TransactionResult:
        self.counts["transactions"] += 1
        self._start()
        try:
            return self._run(source, modify=True)
        finally:
            self._finish()

    def commit(self, source, audit: str = "sync") -> TransactionResult:
        """``Session.commit(source, audit="sync")``: commit unmodified, then
        drain the commit log through the audit scheduler on this thread."""
        counts = self.counts
        counts["transactions"] += 1
        self._start()
        try:
            result = self._run(source, modify=False)
            if not result.committed:
                return result
            scheduler = self.controller.audit_scheduler(self.database)
            sequence = self.database.commit_log.next_sequence - 1
            result.audit = [
                outcome
                for outcome in scheduler.drain(coalesce=False)
                if sequence in outcome.sequences
            ]
        finally:
            self._finish()
        counts["tasks"] += len(result.audit)
        counts["task_seconds"] += sum(outcome.seconds for outcome in result.audit)
        self._price(scheduler, result)
        return result

    def _price(self, scheduler, result: TransactionResult) -> None:
        """What the cost model predicted for the audit tasks that just ran.

        A sync drain does not price its tasks, so the prediction is asked
        for here, outside the op's span, through the scheduler's own
        ``predicted_audit_seconds``.
        """
        differentials = result.differentials
        sizes = {}
        for base, (plus, minus) in differentials.items():
            if plus is not None:
                sizes[f"{base}@plus"] = float(len(plus))
            if minus is not None:
                sizes[f"{base}@minus"] = float(len(minus))
        seconds = {outcome.rule: outcome.seconds for outcome in result.audit}
        for task in self.controller.audit_tasks(self.database, differentials):
            predicted = scheduler.predicted_audit_seconds(task, sizes)
            if predicted and task.rule_name in seconds:
                self.counts["priced_seconds"] += seconds[task.rule_name]
                self.counts["predicted_seconds"] += predicted

    # -- reads ------------------------------------------------------------------

    def query(self, text: str, pinned: bool = True):
        tracer = self.tracer
        self._start()
        try:
            tracer.begin("session.query_parse")
            expression = parse_expression(text)
            tracer.end()
            pin = self.database.epochs.pin()
            tracer.begin("session.query_eval")
            relation = evaluate_expression(
                expression, DatabaseView(self.database, pin=pin)
            )
            self.counts["rows_read"] += len(relation)
            tracer.end()
        finally:
            self._finish()
        self.counts["reads"] += 1
        return relation


def layer_metrics(
    traced: TracedSession, result: PassResult, untraced: PassResult
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by the names in ``spec``.

    Times are calibrated like the end-to-end ones, with one slowdown for
    the whole pass: the spans are not kept by window.
    """
    tracer, counts = traced.tracer, traced.counts
    slowdown = result.slowdown()

    def mean_us(seconds: float, count: float) -> float:
        return seconds / slowdown / count * 1e6 if count else 0.0

    self_time = tracer.self_times()
    transactions = counts["transactions"]
    reads = counts["reads"]
    uses, keys = traced.index_usage()

    def per_txn(value: float) -> float:
        return value / transactions if transactions else 0.0

    task_seconds = counts["task_seconds"]
    # Audit tasks run inside the drain call and are timed by the scheduler
    # itself (AuditOutcome.seconds), not by a span of their own.
    drain_seconds = self_time["scheduler.drain"] - task_seconds
    recovery = result.recovery or {"seconds": 0.0, "replayed": 0, "segment_bytes": 0, "commits": 0}
    layer_seconds = sum(
        seconds for name, seconds in self_time.items() if name != ROOT
    )
    op_seconds = layer_seconds + self_time[ROOT]
    # The same ops, untraced (calibrated window by window).
    untraced_latencies = [
        seconds
        for which in (COMMIT_SAMPLES, REJECT_SAMPLES, READ_SAMPLES)
        for seconds in untraced.samples(which)
    ]
    untraced_us = statistics.fmean(untraced_latencies) * 1e6
    values = {
        "parser.us_per_txn": mean_us(self_time["parser"], transactions),
        "parser.statements_per_txn": per_txn(counts["statements_parsed"]),
        "modification.us_per_txn": mean_us(self_time["modification"], transactions),
        "modification.rounds_per_txn": per_txn(counts["rounds"]),
        "modification.rules_selected_per_txn": per_txn(counts["rules_selected"]),
        "modification.statements_appended_per_txn": per_txn(counts["statements_appended"]),
        "transaction.user_us_per_txn": mean_us(self_time["transaction.user"], transactions),
        "transaction.check_us_per_txn": mean_us(self_time["transaction.check"], transactions),
        "transaction.delta_rows_per_txn": per_txn(counts["delta_rows"]),
        "transaction.rollback_us_per_abort": mean_us(
            self_time["transaction.rollback"], counts["aborts"]
        ),
        "planner.cache_hits": result.cache_hits,
        "planner.cache_misses": result.cache_misses,
        "indexes.uses_per_txn": per_txn(uses),
        "indexes.probe_keys_per_txn": per_txn(keys),
        "database.apply_us_per_txn": mean_us(self_time["database.apply"], transactions),
        "commitlog.append_us_per_txn": mean_us(self_time["commitlog.append"], transactions),
        "epochs.write_us_per_txn": mean_us(self_time["epochs.write"], transactions),
        "epochs.pin_us_per_read": mean_us(self_time["epochs.pin"], reads),
        "epochs.retained_max": traced.retained_max,
        "wal.append_us_per_txn": mean_us(
            self_time["wal.append"] + self_time["wal.fsync"], transactions
        ),
        "wal.bytes_per_txn": (
            recovery["segment_bytes"] / recovery["commits"] if recovery["commits"] else 0.0
        ),
        "wal.fsyncs": tracer.count("wal.fsync"),
        "wal.consumer_us_per_txn": mean_us(self_time["wal.consumer"], transactions),
        "scheduler.drain_us_per_txn": mean_us(drain_seconds, transactions),
        "scheduler.tasks_per_txn": per_txn(counts["tasks"]),
        "scheduler.task_us_per_txn": mean_us(task_seconds, transactions),
        "scheduler.predicted_ratio": (
            counts["priced_seconds"] / slowdown / counts["predicted_seconds"]
            if counts["predicted_seconds"]
            else 0.0
        ),
        "session.query_parse_us_per_read": mean_us(self_time["session.query_parse"], reads),
        "session.query_eval_us_per_read": mean_us(self_time["session.query_eval"], reads),
        "session.rows_per_read": counts["rows_read"] / reads if reads else 0.0,
        "recovery.records_replayed": recovery["replayed"],
        "recovery.us_per_record": (
            recovery["seconds"] / recovery["replayed"] * 1e6 if recovery["replayed"] else 0.0
        ),
        "trace.coverage": layer_seconds / op_seconds if op_seconds else 0.0,
        "trace.overhead_ratio": (
            mean_us(op_seconds, transactions + reads) / untraced_us
            if untraced_us
            else 0.0
        ),
    }
    return {spec.name: float(values[spec.name]) for spec in PER_LAYER}


def run_traced(name: str, seed: int, scale: float, workdir: Path, spans_path=None) -> dict:
    """The traced run over the first ``TRACE_FRACTION`` of the op stream.

    Two passes over the same ops, each on a freshly built workload: an
    untraced one through ``Session`` (the overhead baseline and the
    reference checksum), then the traced, stepwise one.
    """
    scale = scale * TRACE_FRACTION
    reference = Reference()
    env, _ = setup(name, seed, scale, workdir / "untraced", 1, reference)
    untraced = run_pass(name, env, reference)
    env, _ = setup(name, seed, scale, workdir / "traced", 1, reference)
    traced = None

    def instrument(env: Env) -> TracedSession:
        nonlocal traced
        traced = TracedSession(env)
        return traced

    try:
        result = run_pass(name, env, reference, instrument)
    finally:
        if traced is not None:
            traced.close()
    if spans_path is not None:
        traced.tracer.dump(Path(spans_path))
    failures = list(untraced.messages) + list(result.messages)
    failed = untraced.failed + result.failed
    if untraced.checksum != result.checksum:
        failed += 1
        failures.append(
            "the traced pipeline ended in another state than Session: "
            f"{result.checksum[:12]} != {untraced.checksum[:12]}"
        )
    units = {spec.name: spec.unit for spec in PER_LAYER}
    values = layer_metrics(traced, result, untraced)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": 1,
        "attempted": untraced.attempted + result.attempted,
        "failed": failed,
        "failures": failures[:10],
        "checksum": result.checksum,
        "measured_plan_cache_misses": result.cache_misses,
        "spans": len(traced.tracer.spans),
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": None}
            for name, value in values.items()
        },
    }
