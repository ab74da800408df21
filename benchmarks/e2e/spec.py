"""Names, units and sizes of the benchmark: workloads, end-to-end metrics,
per-layer metrics.

This module imports nothing from ``repro`` so the command line can list
workloads and metric names without building a database.  Every name here
is final: later changes are compared row by row against these names.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

#: ``--seconds`` that corresponds to scale 1.0; every op count below was
#: sized so that its measured phase lasts about this long on the 2-core
#: reference sandbox.
REFERENCE_SECONDS = 10.0

#: Share of a workload's op stream the traced run covers.
TRACE_FRACTION = 0.2

#: Set-up is repeated this often per run and ``setup_s`` is the median.
SETUP_REPEATS = 3


class WorkloadSpec(NamedTuple):
    name: str
    ops: int  # operations in the measured phase at scale 1.0
    window: int  # ops per window: about 10 ms
    verify_reads: int  # end-of-run reads checked against the oracle
    why: str


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "oltp_text",
        25_000,
        30,
        5_000,
        "small textual transactions under 8 delta-checked rules on a 100k-row "
        "star schema: parser and ModT are about half the time, so parser or "
        "ModT-cache work shows here",
    ),
    WorkloadSpec(
        "bulk_prebuilt",
        2_400,
        3,
        5_000,
        "prebuilt 500-row insert/delete batches, parse time ~0: overlay "
        "execution, delta-plan kernels, apply_deltas and index maintenance "
        "do the work; parser changes predict no change here",
    ),
    WorkloadSpec(
        "full_check",
        2_000,
        2,
        5_000,
        "aggregate, transition and compensating rules on 5,000 employees: "
        "enforcement is not incrementalizable, so cost scales with |R| not "
        "|delta|; planner/physical/columnar work shows here",
    ),
    WorkloadSpec(
        "durable_audit",
        6_000,
        8,
        5_000,
        "optimistic Session.commit(audit=sync) with a WAL(sync=interval) "
        "attached: commit log, scheduler drain with 8 audit tasks, WAL "
        "append, hash chain, consumer watermark, then recovery",
    ),
    WorkloadSpec(
        "read_write_mix",
        30_000,
        40,
        0,
        "60% pinned point reads, 20% pinned join queries, 20% writes on one "
        "client under a long-lived epoch pin: MVCC reader and writer sides "
        "at once, planner used by queries beside enforcement",
    ),
)

#: All five run from the command line.  BENCHMARK.json lists four:
#: ``durable_audit`` writes to the disk on every commit, and the sandbox's
#: disk cannot repeat its tail latency within the contract's widest bound
#: (README, "Where this departs from ISSUE 11").
WORKLOAD_NAMES = tuple(spec.name for spec in WORKLOADS)


def workload_spec(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(name)


class MetricSpec(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: Optional[float]  # regression bound as a share of the baseline
    what: str


#: Reported by every workload; these are ``end_to_end`` in BENCHMARK.json.
#: Every time is calibrated: divided by the slowdown of the machine while it
#: was taken (``harness.Reference``), so it reads as a time on the
#: undisturbed reference sandbox.
END_TO_END: Tuple[MetricSpec, ...] = (
    MetricSpec("setup_s", "s", "lower", 0.25,
               "build database, controller, indexes, inputs and warm caches; "
               f"median of {SETUP_REPEATS} set-ups"),
    MetricSpec("txn_per_s", "1/s", "higher", 0.25,
               "transactions completed (committed + correctly rejected) per "
               "second of window, median over the windows"),
    MetricSpec("commit_p50_us", "us", "lower", 0.25,
               "median Session.execute/commit latency of committing transactions"),
    MetricSpec("commit_p95_us", "us", "lower", 0.25,
               "95th percentile of the same, median over ten consecutive "
               "blocks of the phase"),
    MetricSpec("abort_p50_us", "us", "lower", 0.25,
               "median latency of rejected transactions: aborted under "
               "execute, violated=True verdict under commit(audit=sync)"),
    MetricSpec("read_p50_us", "us", "lower", 0.25,
               "median pinned Session.query latency: interleaved with writes "
               "on read_write_mix, end-of-run verification reads elsewhere"),
    MetricSpec("read_p95_us", "us", "lower", 0.25,
               "95th percentile of the same, median over ten consecutive blocks"),
    MetricSpec("peak_rss_mb", "MB", "lower", 0.10,
               "ru_maxrss of the workload's process"),
)

#: Reported with the untraced run and rowed by ``compare`` but outside the
#: contract.  The 99th percentiles spread by up to a quarter between runs
#: of the same code on this sandbox, too much for any bound; the other two
#: exist on ``durable_audit`` only, and contract metrics must exist on
#: every workload.
EXTRA: Tuple[MetricSpec, ...] = (
    MetricSpec("commit_p99_us", "us", "lower", None,
               "99th percentile of the committing transactions' latency"),
    MetricSpec("read_p99_us", "us", "lower", None,
               "99th percentile of the pinned Session.query latency"),
    MetricSpec("recovery_s", "s", "lower", 0.10,
               "recover() time over the log the run produced"),
    MetricSpec("wal_bytes_per_txn", "B/txn", "lower", 0.01,
               "segment bytes on disk / commits, an exact count"),
)


class LayerSpec(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric(s) it should move
    on: str  # the workload(s) where it should move them


PER_LAYER: Tuple[LayerSpec, ...] = (
    LayerSpec("parser.us_per_txn", "us/txn", "lower",
              "commit_p50_us, txn_per_s", "oltp_text (~0 on bulk_prebuilt)"),
    LayerSpec("parser.statements_per_txn", "1/txn", "lower",
              "commit_p50_us", "oltp_text"),
    LayerSpec("modification.us_per_txn", "us/txn", "lower",
              "commit_p50_us", "oltp_text, full_check"),
    LayerSpec("modification.rounds_per_txn", "1/txn", "lower",
              "commit_p50_us", "full_check (2 on emp updates)"),
    LayerSpec("modification.rules_selected_per_txn", "1/txn", "lower",
              "commit_p50_us", "oltp_text, full_check"),
    LayerSpec("modification.statements_appended_per_txn", "1/txn", "lower",
              "commit_p50_us", "oltp_text, full_check"),
    LayerSpec("transaction.user_us_per_txn", "us/txn", "lower",
              "txn_per_s, commit_p95_us", "bulk_prebuilt"),
    LayerSpec("transaction.check_us_per_txn", "us/txn", "lower",
              "txn_per_s, commit_p95_us", "bulk_prebuilt, full_check"),
    LayerSpec("transaction.delta_rows_per_txn", "1/txn", "lower",
              "txn_per_s", "bulk_prebuilt"),
    LayerSpec("transaction.rollback_us_per_abort", "us/abort", "lower",
              "abort_p50_us", "oltp_text, full_check"),
    LayerSpec("planner.cache_hits", "count", "higher",
              "commit_p50_us, read_p50_us", "all"),
    LayerSpec("planner.cache_misses", "count", "lower",
              "commit_p50_us, read_p50_us", "all (steady state must be 0)"),
    LayerSpec("indexes.uses_per_txn", "1/txn", "higher",
              "commit_p50_us", "oltp_text, bulk_prebuilt"),
    LayerSpec("indexes.probe_keys_per_txn", "1/txn", "lower",
              "commit_p50_us", "oltp_text, bulk_prebuilt"),
    LayerSpec("database.apply_us_per_txn", "us/txn", "lower",
              "txn_per_s", "bulk_prebuilt"),
    LayerSpec("commitlog.append_us_per_txn", "us/txn", "lower",
              "commit_p50_us", "durable_audit, oltp_text"),
    LayerSpec("epochs.write_us_per_txn", "us/txn", "lower",
              "commit_p50_us", "read_write_mix, oltp_text"),
    LayerSpec("epochs.pin_us_per_read", "us/read", "lower",
              "read_p50_us, read_p95_us", "read_write_mix"),
    LayerSpec("epochs.retained_max", "count", "lower",
              "commit_p50_us, peak_rss_mb", "read_write_mix"),
    LayerSpec("wal.append_us_per_txn", "us/txn", "lower",
              "commit_p50_us, commit_p95_us", "durable_audit"),
    LayerSpec("wal.bytes_per_txn", "B/txn", "lower",
              "wal_bytes_per_txn, recovery_s", "durable_audit"),
    LayerSpec("wal.fsyncs", "count", "lower",
              "commit_p99_us (reported, not gated)",
              "durable_audit (time-triggered, not exact)"),
    LayerSpec("wal.consumer_us_per_txn", "us/txn", "lower",
              "commit_p50_us, txn_per_s", "durable_audit"),
    LayerSpec("scheduler.drain_us_per_txn", "us/txn", "lower",
              "commit_p50_us, txn_per_s", "durable_audit"),
    LayerSpec("scheduler.tasks_per_txn", "1/txn", "lower",
              "commit_p50_us", "durable_audit"),
    LayerSpec("scheduler.task_us_per_txn", "us/txn", "lower",
              "commit_p50_us, txn_per_s", "durable_audit"),
    LayerSpec("scheduler.predicted_ratio", "ratio", "lower",
              "cost-model calibration: measured / predicted audit seconds",
              "durable_audit"),
    LayerSpec("session.query_parse_us_per_read", "us/read", "lower",
              "read_p50_us", "read_write_mix"),
    LayerSpec("session.query_eval_us_per_read", "us/read", "lower",
              "read_p50_us", "read_write_mix"),
    LayerSpec("session.rows_per_read", "1/read", "lower",
              "read_p50_us", "read_write_mix"),
    LayerSpec("recovery.records_replayed", "count", "lower",
              "recovery_s", "durable_audit"),
    LayerSpec("recovery.us_per_record", "us/record", "lower",
              "recovery_s", "durable_audit"),
    LayerSpec("trace.coverage", "ratio", "higher",
              "validity: layer self time / traced op time, target >= 0.9",
              "all"),
    LayerSpec("trace.overhead_ratio", "ratio", "lower",
              "validity: traced / untraced us per op", "all"),
)
