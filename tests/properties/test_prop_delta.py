"""Property: delta-plan enforcement agrees with full-plan re-evaluation.

For random transactions over the workload schema, the per-trigger delta
programs produced by the general rewrite must reach the same verdict —
violated / not violated, *and* the same violating-tuple sets for alarm
rules — as re-evaluating the full plans against the post state, in set and
bag mode, with and without hash indexes.  The premise is per-rule pre-state
correctness (paper Def 3.5): rules already violated before the transaction
are outside the differential contract and are skipped.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.statements import Alarm
from repro.core.subsystem import IntegrityController
from repro.engine import Database, Session
from repro.engine.session import DatabaseView, DeltaView
from tests.support.reference import EVALUATORS

from . import strategies as S

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RULES = {
    "domain_r": "(forall x)(x in r => x.a >= 0 or x.b > 2)",
    "ref_rs": "(forall x)(x in r => (exists y)(y in s and x.a = y.c))",
    "excl_rs": "(forall x in r)(forall y in s)(x.b != y.d or x.a != y.c)",
    "conj": "(forall x)(x in r => x.b <= 9) and "
    "(forall x)(x in s => x.d <= 9)",
}


def _database(rows_r, rows_s, bag: bool, indexed: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    if indexed:
        database.create_index("r", ["a"])
        database.create_index("s", ["c"])
    return database


def _controller() -> IntegrityController:
    controller = IntegrityController(S.rs_schema())
    for name, text in RULES.items():
        controller.add_constraint(name, text)
    return controller


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_incremental_audit_agrees_with_full_audit(
    rows_r, rows_s, txn, bag, indexed
):
    database = _database(rows_r, rows_s, bag, indexed)
    controller = _controller()
    pre_violated = set(controller.violated_constraints(database))
    result = Session(database).execute(txn)
    if not result.committed:
        return
    full = set(controller.violated_constraints(database))
    incremental = set(
        controller.violated_constraints_incremental(database, result)
    )
    for name in RULES:
        if name in pre_violated:
            continue  # Def 3.5 premise broken for this rule: no contract
        assert (name in incremental) == (name in full), (
            f"verdict divergence on {name}: "
            f"incremental={sorted(incremental)} full={sorted(full)} "
            f"(pre={sorted(pre_violated)})"
        )


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
    evaluator=st.sampled_from(EVALUATORS),
)
@_SETTINGS
def test_delta_violating_tuples_match_full_plan(
    rows_r, rows_s, txn, bag, indexed, evaluator
):
    """For single-alarm rules with a correct pre-state, the union of the
    matched triggers' delta programs computes exactly the full violation
    set — through compiled plans and through the reference interpreter."""
    backend, evaluate = evaluator
    database = _database(rows_r, rows_s, bag, indexed)
    controller = _controller()
    pre_violated = set(controller.violated_constraints(database))
    result = Session(database).execute(txn)
    if not result.committed:
        return
    view = DeltaView(database, result.differentials)
    full_view = DatabaseView(database)
    performed = view.performed_triggers()
    for stored in controller.store:
        if stored.name in pre_violated or stored.differentials is None:
            continue
        statements = stored.program.statements
        if len(statements) != 1 or not isinstance(statements[0], Alarm):
            continue
        full_rows = evaluate(statements[0].expr, full_view).to_set()
        matched = stored.triggers & performed
        delta_rows: set = set()
        for statement in stored.action_for(matched):
            delta_rows |= set(evaluate(statement.expr, view).to_set())
        assert delta_rows == full_rows, (
            f"violating-tuple divergence on {stored.name} ({backend}): "
            f"delta={sorted(delta_rows)} full={sorted(full_rows)}"
        )
