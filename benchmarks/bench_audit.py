"""E7 — unified audits: naive model checker vs physical-plan evaluation.

PR 1 planned only pure-alarm integrity programs; compensating-action rules,
``Assign``+``Alarm`` program shapes, and translation fallbacks audited
through the calculus model checker at row-at-a-time speed.  This bench
measures ``violated_constraints`` on the 100k-tuple Section 7 foreign-key
workload with exactly those rule forms registered, naive vs planned, and
gates on the >= 10x floor the unified evaluation path must clear.

The key relation is kept small (50 tuples): the naive model checker's
referential check walks the key relation per foreign-key tuple, so a large
key relation would put the baseline's single measured round into minutes
without changing the comparison's meaning.
"""

from __future__ import annotations

import time

import pytest

from benchmarks import report
from repro.algebra import expressions as E
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm, Assign
from repro.calculus.evaluation import violated_rules
from repro.core.programs import IntegrityProgram
from repro.core.subsystem import IntegrityController
from repro.engine.session import DatabaseView
from repro.workloads.section7 import (
    SECTION7_DOMAIN,
    SECTION7_REFERENTIAL,
    section7_database,
)

EXPERIMENT = "E7 / unified audit"
PK_SIZE = 50
FK_SIZE = 100_000
PLANNED_ROUNDS = 5
SPEEDUP_FLOOR = 10.0


def _controller(db) -> IntegrityController:
    """Referential as a *compensating* rule, domain as aborting, plus an
    ``Assign``+``Alarm`` variant of the domain program — the three shapes
    the unified audit path newly routes through plans."""
    controller = IntegrityController(db.schema)
    condition = SECTION7_REFERENTIAL.split("IF NOT", 1)[1].split("THEN", 1)[0]
    controller.add_constraint(
        "fk_ref_compensating",
        condition.strip(),
        response="delete(fk, select(fk, amount < 0))",
    )
    controller.add_rule(SECTION7_DOMAIN)
    rule = controller.add_constraint(
        "fk_domain_assigned", "(forall x)(x in fk => x.amount <= 1000000)"
    )
    stored = controller.store.get("fk_domain_assigned")
    alarm = stored.program.statements[0]
    controller.store.remove("fk_domain_assigned")
    controller.store.add(
        IntegrityProgram(
            "fk_domain_assigned",
            rule.triggers,
            Program(
                [
                    Assign("audit_viol", alarm.expr),
                    Alarm(E.RelationRef("audit_viol"), message=alarm.message),
                ]
            ),
        )
    )
    return controller


@pytest.mark.benchmark(group="audit")
def test_unified_audit_speedup(benchmark):
    report.experiment(
        EXPERIMENT,
        f"violated_constraints on pk={PK_SIZE}/fk={FK_SIZE:,} with "
        "compensating, aborting, and assign+alarm rules: "
        "naive model checker vs unified planner audits",
        ["variant", "naive (ms)", "planned (ms)", "speedup"],
    )

    def run():
        db = section7_database(pk_size=PK_SIZE, fk_size=FK_SIZE)
        controller = _controller(db)
        results = {}
        for variant, prepare in (("un-indexed", None), ("indexed", "install")):
            if prepare:
                controller.install_indexes(db)
            started = time.perf_counter()
            planned_verdict = None
            for _ in range(PLANNED_ROUNDS):
                planned_verdict = controller.violated_constraints(db)
            planned = (time.perf_counter() - started) / PLANNED_ROUNDS
            results[variant] = (planned, planned_verdict)
        # One naive round: the model checker is the multi-second baseline.
        started = time.perf_counter()
        naive_verdict = violated_rules(controller.rules, DatabaseView(db))
        naive = time.perf_counter() - started
        assert naive_verdict == results["un-indexed"][1]
        assert naive_verdict == results["indexed"][1]
        return naive, results

    naive, results = benchmark.pedantic(run, rounds=1, iterations=1)
    speedups = {}
    for variant, (planned, _) in results.items():
        speedups[variant] = naive / planned
        report.record(
            EXPERIMENT,
            variant,
            f"{naive * 1000:.0f}",
            f"{planned * 1000:.2f}",
            f"{speedups[variant]:.0f}x",
        )
    report.note(
        EXPERIMENT,
        "all three rule shapes audit through compiled plans; the naive "
        "model checker survives as the test oracle only",
    )
    assert min(speedups.values()) >= SPEEDUP_FLOOR, (
        f"unified audit speedup {min(speedups.values()):.1f}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
