"""Property: delta-plan enforcement agrees with full-plan re-evaluation.

For random transactions over the workload schema, the per-trigger delta
programs produced by the general rewrite must reach the same verdict —
violated / not violated, *and* the same violating-tuple sets for alarm
rules — as re-evaluating the full plans against the post state, in set and
bag mode, with hash indexes built, only declared, or absent.  A declared
index is built by the first plan that probes it, so the declared state must
also give exactly the verdicts, tuples and committed rows of the built one.
The premise is per-rule pre-state correctness (paper Def 3.5): rules already
violated before the transaction are outside the differential contract and
are skipped.
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


#: The hash indexes on ``r(a)`` and ``s(c)``.
INDEXES = st.sampled_from(["none", "built", "declared"])


def _database(rows_r, rows_s, bag: bool, indexes: str) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    if indexes == "built":
        database.create_index("r", ["a"])
        database.create_index("s", ["c"])
    elif indexes == "declared":
        database.relation("r").declare_index((0,))
        database.relation("s").declare_index((0,))
    return database


def _contents(database: Database) -> dict:
    return {name: dict(database.relation(name).items()) for name in ("r", "s")}


def _controller() -> IntegrityController:
    controller = IntegrityController(S.rs_schema())
    for name, text in RULES.items():
        controller.add_constraint(name, text)
    return controller


def _audits(rows_r, rows_s, txn, bag, indexes):
    """``(pre-violated, full, incremental, committed rows)``; the last three
    are None when the transaction did not commit."""
    database = _database(rows_r, rows_s, bag, indexes)
    controller = _controller()
    pre_violated = set(controller.violated_constraints(database))
    result = Session(database).execute(txn)
    if not result.committed:
        return pre_violated, None, None, None
    full = set(controller.violated_constraints(database))
    incremental = set(
        controller.violated_constraints_incremental(database, result)
    )
    return pre_violated, full, incremental, _contents(database)


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexes=INDEXES,
)
@_SETTINGS
def test_incremental_audit_agrees_with_full_audit(
    rows_r, rows_s, txn, bag, indexes
):
    audits = _audits(rows_r, rows_s, txn, bag, indexes)
    if indexes == "declared":
        assert audits == _audits(rows_r, rows_s, txn, bag, "built")
    pre_violated, full, incremental, _rows = audits
    if full is None:
        return
    for name in RULES:
        if name in pre_violated:
            continue  # Def 3.5 premise broken for this rule: no contract
        assert (name in incremental) == (name in full), (
            f"verdict divergence on {name}: "
            f"incremental={sorted(incremental)} full={sorted(full)} "
            f"(pre={sorted(pre_violated)})"
        )


def _violating_tuples(rows_r, rows_s, txn, bag, indexes, evaluate) -> dict:
    """``{rule: (delta rows, full rows)}`` for the single-alarm rules with a
    correct pre-state; None when the transaction did not commit."""
    database = _database(rows_r, rows_s, bag, indexes)
    controller = _controller()
    pre_violated = set(controller.violated_constraints(database))
    result = Session(database).execute(txn)
    if not result.committed:
        return None
    view = DeltaView(database, result.differentials)
    full_view = DatabaseView(database)
    performed = view.performed_triggers()
    tuples = {}
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
        tuples[stored.name] = (delta_rows, full_rows)
    return tuples


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexes=INDEXES,
    evaluator=st.sampled_from(EVALUATORS),
)
@_SETTINGS
def test_delta_violating_tuples_match_full_plan(
    rows_r, rows_s, txn, bag, indexes, evaluator
):
    """For single-alarm rules with a correct pre-state, the union of the
    matched triggers' delta programs computes exactly the full violation
    set — through compiled plans and through the reference interpreter."""
    backend, evaluate = evaluator
    tuples = _violating_tuples(rows_r, rows_s, txn, bag, indexes, evaluate)
    if indexes == "declared":
        assert tuples == _violating_tuples(rows_r, rows_s, txn, bag, "built", evaluate)
    for name, (delta_rows, full_rows) in (tuples or {}).items():
        assert delta_rows == full_rows, (
            f"violating-tuple divergence on {name} ({backend}): "
            f"delta={sorted(delta_rows)} full={sorted(full_rows)}"
        )
