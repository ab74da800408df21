"""E6 — differential vs. full-state constraint evaluation (paper §5.2.1).

The optimization the paper cites from [18, 5, 7]: after ``INS(R)``, check
only the inserted tuples (``R@plus``) instead of all of ``R``.  This bench
sweeps the base-relation size with a fixed insert batch and measures the
enforcement part of the transaction under both regimes.

Expected shape: full-state checking grows linearly with the base size while
differential checking stays flat; the ratio at 100k tuples is orders of
magnitude.
"""

from __future__ import annotations

import time

import pytest

from benchmarks import report
from repro.core.subsystem import IntegrityController
from repro.engine import Session
from repro.workloads.section7 import (
    SECTION7_DOMAIN,
    SECTION7_REFERENTIAL,
    section7_database,
    section7_insert_batch,
    section7_transaction_text,
)

EXPERIMENT = "E6 / differential"
BASE_SIZES = (1000, 10_000, 100_000)
BATCH = 500


def run_once(fk_size: int, differential: bool) -> float:
    db = section7_database(pk_size=1000, fk_size=fk_size)
    controller = IntegrityController(db.schema, differential=differential)
    controller.add_rule(SECTION7_REFERENTIAL)
    controller.add_rule(SECTION7_DOMAIN)
    session = Session(db, controller)
    batch = section7_insert_batch(
        batch_size=BATCH, pk_size=1000, start_id=fk_size + 10
    )
    transaction = session.transaction(section7_transaction_text(batch))
    modified = controller.modify_transaction(transaction)
    started = time.perf_counter()
    result = session.manager.execute(modified, modify=False)
    elapsed = time.perf_counter() - started
    assert result.committed
    return elapsed


@pytest.mark.benchmark(group="differential")
def test_differential_vs_full_sweep(benchmark):
    report.experiment(
        EXPERIMENT,
        f"Execute a {BATCH}-row insert transaction incl. checks, "
        "full-state vs differential (R@plus) enforcement",
        ["fk base size", "full (ms)", "differential (ms)", "full/diff"],
    )

    def sweep():
        rows = []
        for size in BASE_SIZES:
            full = run_once(size, differential=False)
            diff = run_once(size, differential=True)
            rows.append((size, full, diff))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for size, full, diff in rows:
        report.record(
            EXPERIMENT,
            size,
            f"{full * 1000:.1f}",
            f"{diff * 1000:.1f}",
            f"{full / diff:.1f}x",
        )
    report.note(
        EXPERIMENT,
        "paper shape: differential cost is independent of the base size; "
        "full-state cost grows with it",
    )
    # The advantage must grow with base size.
    small_ratio = rows[0][1] / rows[0][2]
    large_ratio = rows[-1][1] / rows[-1][2]
    assert large_ratio > small_ratio


@pytest.mark.benchmark(group="differential")
def test_indexed_referential_check_sweep():
    """Headline tentpole number: the referential check itself (the algebra
    antijoin the rule translates to), naive tree-walk vs compiled plan over
    persistent hash indexes.  The planned check probes per *distinct* key
    of the fk.ref index instead of per row, so it is orders of magnitude
    faster; the acceptance floor is 10x at the 100k sweep point.
    """
    from repro.engine.session import DatabaseView
    from repro.algebra import planner

    experiment = "E6c / indexed semi-join"
    report.experiment(
        experiment,
        "Evaluate the translated referential check (fk antijoin pk), "
        "naive vs planned with hash indexes on fk.ref / pk.key",
        ["fk base size", "naive (ms)", "indexed plan (ms)", "speedup"],
    )
    speedups = {}
    for size in BASE_SIZES:
        db = section7_database(pk_size=1000, fk_size=size)
        controller = IntegrityController(db.schema)
        controller.add_rule(SECTION7_REFERENTIAL)
        check = controller.store.get("fk_ref").program.statements[0].expr
        controller.install_indexes(db)
        view = DatabaseView(db)
        plan = planner.get_plan(check)
        plan.execute(view)  # warm: build side caches, lazy binds
        rounds = 5
        started = time.perf_counter()
        for _ in range(rounds):
            naive_result = check.evaluate(view)
        naive = (time.perf_counter() - started) / rounds
        started = time.perf_counter()
        for _ in range(rounds):
            planned_result = plan.execute(view)
        planned = (time.perf_counter() - started) / rounds
        assert naive_result == planned_result
        speedups[size] = naive / planned
        report.record(
            experiment,
            size,
            f"{naive * 1000:.2f}",
            f"{planned * 1000:.3f}",
            f"{naive / planned:.0f}x",
        )
    report.note(
        experiment,
        "indexed plans probe per distinct fk.ref key; naive probes per row "
        "and rebuilds the pk hash per evaluation",
    )
    assert speedups[100_000] >= 10, (
        f"indexed semi-join speedup {speedups[100_000]:.1f}x below the 10x floor"
    )


@pytest.mark.benchmark(group="differential")
def test_differential_enforcement_100k(benchmark):
    """Headline number: differential insert batch against a 100k base."""
    db = section7_database(pk_size=1000, fk_size=100_000)
    controller = IntegrityController(db.schema, differential=True)
    controller.add_rule(SECTION7_REFERENTIAL)
    controller.add_rule(SECTION7_DOMAIN)
    session = Session(db, controller)
    batch = section7_insert_batch(batch_size=BATCH, pk_size=1000, start_id=200_000)
    transaction = session.transaction(section7_transaction_text(batch))
    modified = controller.modify_transaction(transaction)
    snapshot = db.snapshot()

    def run():
        db.restore(snapshot)
        return session.manager.execute(modified, modify=False)

    result = benchmark(run)
    assert result.committed


@pytest.mark.benchmark(group="differential")
def test_full_enforcement_100k(benchmark):
    """Counterpart: full-state enforcement of the same transaction."""
    db = section7_database(pk_size=1000, fk_size=100_000)
    controller = IntegrityController(db.schema, differential=False)
    controller.add_rule(SECTION7_REFERENTIAL)
    controller.add_rule(SECTION7_DOMAIN)
    session = Session(db, controller)
    batch = section7_insert_batch(batch_size=BATCH, pk_size=1000, start_id=200_000)
    transaction = session.transaction(section7_transaction_text(batch))
    modified = controller.modify_transaction(transaction)
    snapshot = db.snapshot()

    def run():
        db.restore(snapshot)
        return session.manager.execute(modified, modify=False)

    result = benchmark(run)
    assert result.committed
