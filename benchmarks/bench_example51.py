"""E8 — the paper's worked Example 5.1, end to end.

Times the three phases of the paper's own example on the beer database:
modification (ModT), execution of the modified transaction (including the
appended domain alarm and referential compensation), and the combined
session path.
"""

from __future__ import annotations

import pytest

from benchmarks import report
from repro.algebra.parser import parse_transaction
from repro.algebra.statements import Guard
from repro.engine import Session
from repro.workloads.beer import (
    EXAMPLE_51_TRANSACTION,
    beer_controller,
    beer_database,
)

EXPERIMENT = "E8 / Example 5.1"


@pytest.mark.benchmark(group="example51")
def test_modification_only(benchmark):
    controller = beer_controller()
    transaction = parse_transaction(EXAMPLE_51_TRANSACTION)
    modified = benchmark(lambda: controller.modify_transaction(transaction))
    # The insert, R1's domain alarm, and R2's two-statement repair inside
    # the guard of its Δ-check.
    assert len(modified.statements) == 3
    guard = modified.statements[-1]
    assert isinstance(guard, Guard) and len(guard.body) == 2


@pytest.mark.benchmark(group="example51")
def test_execute_modified(benchmark):
    db = beer_database(beers=1000, breweries=50)
    controller = beer_controller()
    session = Session(db, controller)
    transaction = controller.modify_transaction(
        parse_transaction(EXAMPLE_51_TRANSACTION)
    )
    snapshot = db.snapshot()

    def run():
        db.restore(snapshot)
        return session.manager.execute(transaction, modify=False)

    result = benchmark(run)
    assert result.committed


@pytest.mark.benchmark(group="example51")
def test_full_session_path(benchmark):
    db = beer_database(beers=1000, breweries=50)
    controller = beer_controller()
    session = Session(db, controller)
    snapshot = db.snapshot()
    transaction = parse_transaction(EXAMPLE_51_TRANSACTION)

    def run():
        db.restore(snapshot)
        return session.execute(transaction)

    result = benchmark(run)
    assert result.committed

    report.experiment(
        EXPERIMENT,
        "The paper's worked example on a 1000-beer database",
        ["phase", "mean time"],
    )
    report.record(EXPERIMENT, "modify + execute", f"{report.mean_seconds(benchmark) * 1000:.3f} ms")
    report.note(
        EXPERIMENT,
        "the modified transaction inserts the beer, checks the domain "
        "alarm, and compensates the unknown brewery — Section 5.4",
    )
