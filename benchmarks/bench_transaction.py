"""E9 — transaction write path: overlay commits vs the eager-copy path.

The PR 4 claim: begin→update→commit for a k-tuple write against an n-tuple
relation is O(k), not O(n).  This bench runs 10-tuple insert transactions
through the real engine (overlay working set, in-place delta-application
commit) against steady states of increasing size, next to a faithful
re-implementation of the pre-overlay write path (full ``Relation.copy`` on
first write, differential maintained beside the copy — exactly what
``TransactionContext`` did before the overlay — with the differential
committed through ``apply_deltas``, the one write path of a base relation,
where the old path installed the copy wholesale), and reports

* commit latency vs relation size at fixed |Δ| (the overlay curve is flat,
  the eager curve grows linearly),
* sustained throughput in transactions/second at the 100k steady state,
* abort cost (O(1) rollback: drop the overlay).

Gated on a >= 10x floor for the full-transaction ratio at n=100k in both
the un-indexed and hash-indexed configurations (measured ~50-80x); the
numbers are emitted as ``benchmarks/bench_transaction.json`` for the CI
build artifact.

A second gated variant prices the set-at-a-time kernels against the
tuple-at-a-time write path they replaced (kept verbatim in
``tests/engine/reference_write_path.py``): begin → write 500 rows → commit
against 100k rows under three built hash indexes, inserts and deletes
alternating so the state stays put.  Both sides share one database and are
timed in interleaved rounds, the ratio taken between the two minima (floor
1.5x; what is left on the kernel side is the index bucket work itself).
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import pytest

from benchmarks import report
from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.programs import Program, bracket
from repro.engine import (
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
    TransactionManager,
)
from repro.engine.transaction import TransactionContext
from repro.engine.types import INT
from tests.engine.reference_write_path import ReferenceContext

EXPERIMENT = "E9 / transaction write path"
SIZES = (1_000, 10_000, 100_000)
GATED_SIZE = 100_000
DELTA_SIZE = 10
OVERLAY_ROUNDS = 200
EAGER_ROUNDS = 20
SPEEDUP_FLOOR = 10.0
BULK_ROWS = 500
BULK_ROUNDS = 5
BULK_TRANSACTIONS = 20  # per round and side: 10 inserts, 10 deletes
BULK_SPEEDUP_FLOOR = 1.5
BULK_VARIANT = (
    f"bulk kernel vs per-row replay, {BULK_ROWS} rows, 3 indexes@{GATED_SIZE}"
)
JSON_PATH = Path(__file__).resolve().parent / "bench_transaction.json"

_FRESH = iter(range(10_000_000, 1 << 60, DELTA_SIZE))


def _database(size: int, indexed: bool) -> Database:
    schema = DatabaseSchema(
        [RelationSchema("fk", [("id", INT), ("ref", INT)])]
    )
    database = Database(schema)
    database.load("fk", [(i, i % 1000) for i in range(size)])
    if indexed:
        database.create_index("fk", ["ref"])
    return database


def _transaction():
    start = next(_FRESH)
    rows = tuple((start + j, j) for j in range(DELTA_SIZE))
    return bracket(Program([S.Insert("fk", E.Literal(rows))]))


def _eager_transaction(database: Database) -> None:
    """The pre-overlay write path, reproduced with surviving primitives: an
    O(n) working copy written row by row, its Δ committed in place."""
    relation = database.relation("fk")
    working = relation.copy()
    plus = Relation(relation.schema)
    start = next(_FRESH)
    for j in range(DELTA_SIZE):
        row = working.schema.validate_tuple((start + j, j))
        if working.insert(row, _validated=True):
            plus.insert(row, _validated=True)
    database.apply_deltas({"fk": (plus, None)}, record=False)


def _bulk_write_path() -> tuple:
    """Seconds per 500-row transaction: (per-row reference, bulk kernels)."""

    def rows(start: int, count: int) -> list:
        return [
            (i, i * 7 % 10_000, i * 13 % 10_000, i % 1_000)
            for i in range(start, start + count)
        ]

    schema = DatabaseSchema(
        [RelationSchema("fact", [("id", INT), ("a", INT), ("b", INT), ("c", INT)])]
    )
    database = Database(schema)
    database.load("fact", rows(0, GATED_SIZE))
    for attribute in ("a", "b", "c"):
        database.create_index("fact", [attribute])
    fresh = itertools.count(GATED_SIZE, BULK_ROWS)

    def round_of(context_type) -> float:
        batches = [
            rows(next(fresh), BULK_ROWS) for _ in range(BULK_TRANSACTIONS // 2)
        ]
        started = time.perf_counter()
        for write in ("insert_rows", "delete_rows"):
            for batch in batches:
                context = context_type(database)
                changed = getattr(context, write)("fact", batch)
                context.commit()
                assert changed == BULK_ROWS
        return (time.perf_counter() - started) / BULK_TRANSACTIONS

    best = [float("inf"), float("inf")]
    for _ in range(BULK_ROUNDS):
        for side, context_type in enumerate((ReferenceContext, TransactionContext)):
            best[side] = min(best[side], round_of(context_type))
    assert len(database.relation("fact")) == GATED_SIZE
    return tuple(best)


def _per_txn(fn, rounds: int) -> float:
    started = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - started) / rounds


@pytest.mark.benchmark(group="transaction")
def test_transaction_write_path_speedup(benchmark):
    report.experiment(
        EXPERIMENT,
        f"{DELTA_SIZE}-tuple insert transactions: overlay engine vs "
        "eager-copy write path",
        ["variant", "n", "eager (ms)", "overlay (ms)", "speedup", "txn/s"],
    )

    def run():
        results = {}
        for indexed in (False, True):
            variant = "indexed" if indexed else "un-indexed"
            for size in SIZES:
                database = _database(size, indexed)
                manager = TransactionManager(database)
                # Transactions are prebuilt: statement construction is
                # identical work on both paths and not part of
                # begin→update→commit.
                prebuilt = [_transaction() for _ in range(OVERLAY_ROUNDS + 1)]
                manager.execute(prebuilt.pop())  # warm caches/plans
                transactions = iter(prebuilt)
                overlay = _per_txn(
                    lambda: manager.execute(next(transactions)),
                    OVERLAY_ROUNDS,
                )
                # The write path in isolation: begin (context) → update
                # (insert_rows) → commit, no statement machinery at all.
                batches = iter(
                    [
                        [(next(_FRESH) + j, j) for j in range(DELTA_SIZE)]
                        for _ in range(OVERLAY_ROUNDS)
                    ]
                )

                def write_path():
                    context = TransactionContext(database)
                    context.insert_rows("fk", next(batches))
                    context.commit()

                writepath = _per_txn(write_path, OVERLAY_ROUNDS)
                _eager_transaction(database)
                eager = _per_txn(
                    lambda: _eager_transaction(database), EAGER_ROUNDS
                )
                results[(variant, size)] = (eager, overlay, writepath)
        # Abort cost at the large size: rollback drops the overlay, O(1).
        database = _database(GATED_SIZE, indexed=False)
        manager = TransactionManager(database)
        aborting = bracket(
            Program(
                [
                    S.Insert("fk", E.Literal(((next(_FRESH), 0),))),
                    S.Abort("forced"),
                ]
            )
        )
        assert manager.execute(aborting).aborted
        results["abort"] = _per_txn(
            lambda: manager.execute(aborting), OVERLAY_ROUNDS
        )
        results["bulk"] = _bulk_write_path()
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    abort_seconds = results.pop("abort")
    per_row, bulk = results.pop("bulk")
    payload = {
        "experiment": EXPERIMENT,
        "delta_size": DELTA_SIZE,
        "sizes": list(SIZES),
        "speedup_floor": SPEEDUP_FLOOR,
        "abort_seconds": abort_seconds,
        "variants": {},
    }
    gated = []
    for (variant, size), (eager, overlay, writepath) in results.items():
        speedup = eager / overlay
        write_speedup = eager / writepath
        throughput = 1.0 / overlay
        payload["variants"][f"{variant}@{size}"] = {
            "eager_seconds": eager,
            "overlay_seconds": overlay,
            "writepath_seconds": writepath,
            "speedup": speedup,
            "writepath_speedup": write_speedup,
            "transactions_per_second": throughput,
        }
        if size == GATED_SIZE:
            gated.append(speedup)
        report.record(
            EXPERIMENT,
            variant,
            f"{size:,}",
            f"{eager * 1000:.3f}",
            f"{overlay * 1000:.4f}",
            f"{speedup:.0f}x ({write_speedup:.0f}x bare)",
            f"{throughput:,.0f}",
        )
    report.note(
        EXPERIMENT,
        "overlay commits apply the net delta in place (O(|Δ|)); the eager "
        "path dict-copies the whole touched relation before any work — "
        f"abort costs {abort_seconds * 1e6:.0f} µs (drop the overlay)",
    )
    payload["variants"][BULK_VARIANT] = {
        "per_row_seconds": per_row,
        "bulk_seconds": bulk,
        "speedup": per_row / bulk,
        "floor": BULK_SPEEDUP_FLOOR,
    }
    report.record(
        EXPERIMENT,
        f"{BULK_ROWS}-row writes, 3 indexes: per-row vs bulk",
        f"{GATED_SIZE:,}",
        f"{per_row * 1000:.3f}",
        f"{bulk * 1000:.4f}",
        f"{per_row / bulk:.2f}x",
        f"{1.0 / bulk:,.0f}",
    )
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert min(gated) >= SPEEDUP_FLOOR, (
        f"transaction write-path speedup {min(gated):.1f}x at n={GATED_SIZE} "
        f"below the {SPEEDUP_FLOOR}x floor"
    )
    assert per_row / bulk >= BULK_SPEEDUP_FLOOR, (
        f"bulk write kernels only {per_row / bulk:.2f}x the per-row replay "
        f"at n={GATED_SIZE}, below the {BULK_SPEEDUP_FLOOR}x floor"
    )
