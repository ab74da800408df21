"""What an index-only projection reads — counted, not timed.

``project(R, [a])`` over a set-mode ``R`` with a built index on ``a`` is the
index's distinct keys.  These tests pin down that the rows of ``R`` are then
never read — on a base relation, mid-transaction through the overlay, and in
the Δ⁻ program of a projection — by making every whole-relation access of
the big relation raise, and by bounding allocations with ``tracemalloc``.
(The pinned-snapshot twin lives in ``tests/engine/test_read_cost.py``.)
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.delta import delta_expression
from repro.algebra.evaluation import StandaloneContext
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine import overlay as overlay_module
from repro.engine.overlay import OverlayRelation
from repro.engine.transaction import TransactionContext
from repro.engine.types import INT, NULL
from repro.workloads.employees import employees_database, employees_schema
from tests.support.modes import index_usage

R2_REPAIR = """
RULE emp_dept_repair
IF NOT (forall e)(e in emp => (exists d)(d in dept and e.dept_id = d.id))
THEN missing := diff(project(emp, [dept_id]), project(dept, [id]));
     insert(dept, project(missing, [dept_id as id, "unassigned" as name, null as city]))
"""


def _project(source, *attrs) -> E.Project:
    return E.Project(source, tuple(E.ProjectItem(P.ColRef(attr)) for attr in attrs))


@pytest.fixture
def forbid_scans(monkeypatch):
    """``forbid_scans(base)``: from now on any whole-relation read of the
    base relation, or of an overlay on it, raises."""

    def forbid(base: Relation) -> None:
        merged_rows = OverlayRelation._merged_rows
        rows_and_counts = Relation.rows_and_counts

        def no_merged_rows(self):
            assert self.base is not base, f"materialized the overlay of {base!r}"
            return merged_rows(self)

        def no_rows_and_counts(self):
            assert self is not base and getattr(self, "base", None) is not base, (
                f"scanned {base!r}"
            )
            return rows_and_counts(self)

        monkeypatch.setattr(OverlayRelation, "_merged_rows", no_merged_rows)
        monkeypatch.setattr(Relation, "rows_and_counts", no_rows_and_counts)

    return forbid


def test_the_r2_repair_reads_no_row_of_emp_once_its_first_run_built_the_index(
    forbid_scans,
):
    controller = IntegrityController(employees_schema())
    controller.add_rule(R2_REPAIR)
    database = employees_database(employees=2_000, departments=40)
    controller.install_indexes(database)
    database.create_index("emp", ["id"])
    repair = controller.store.get("emp_dept_repair").program
    # emp(dept_id) is only declared: the first repair's projection builds it,
    # in the one pass over emp its scan would have made.
    assert database.relation("emp").built_index((2,)) is None
    first = TransactionContext(database)
    first.insert_rows("emp", [(8_000, "first", 76, 3_000, 2)])
    for statement in repair:
        statement.execute(first)
    assert database.relation("emp").built_index((2,)) is not None
    context = TransactionContext(database)
    # A hire into a missing department and a raise (delete + insert).
    context.insert_rows("emp", [(9_000, "new", 77, 3_000, 2)])
    (old,) = database.relation("emp").built_index((0,)).lookup(5)
    context.delete_rows("emp", [old])
    context.insert_rows("emp", [old[:3] + (old[3] + 100,) + old[4:]])
    forbid_scans(database.relation("emp"))
    for statement in repair:
        statement.execute(context)
    assert context.working["emp"]._materialized is None
    assert dict(context.resolve("dept@plus").items()) == {(77, "unassigned", NULL): 1}
    assert sorted(context.resolve("missing").rows()) == [(77,)]


def test_a_projection_over_200k_rows_allocates_for_its_500_keys():
    schema = RelationSchema("big", [("id", INT), ("key", INT)])
    big = Relation(schema, ((i, i % 500) for i in range(200_000)), _validated=True)
    big.index_on((1,))
    context = StandaloneContext({"big": big})
    plan = planner.get_plan(_project(E.RelationRef("big"), "key"))
    plan.execute(context)  # bind the schema outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        result = plan.execute(context)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 500
    # 500 one-tuples, a list and a dict of them: ~100 KB.  The scan kernel's
    # row list alone is 1.6 MB, its 200,000 one-tuples 11 MB more.
    assert peak < 256 * 1024, peak


def _minus_program():
    """Δ⁻π_a(r) with DEL(r) active: π(r@minus) − π(r)."""
    rewritten = delta_expression(
        _project(E.RelationRef("r"), "a"), [("DEL", "r")], E.DELTA_MINUS
    )
    assert rewritten == E.Difference(
        _project(E.Delta("r", "minus"), "a"), _project(E.RelationRef("r"), "a")
    )
    return rewritten


def _r_database(rows: int = 20_000, keys: int = 400) -> Database:
    database = Database(DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])]))
    database.load("r", [(i % keys, i) for i in range(rows)])
    database.create_index("r", ["a"])
    return database


def test_the_delta_minus_of_a_projection_reads_keys_and_touched_buckets(
    forbid_scans, monkeypatch
):
    database = _r_database()
    bucket = 20_000 // 400
    context = TransactionContext(database)
    # Key 7 loses every row, key 8 one of its rows, key 9 one but gets one back.
    gone = [(7, 7 + 400 * j) for j in range(bucket)]
    context.delete_rows("r", gone + [(8, 8), (9, 9)])
    context.insert_rows("r", [(9, 99_999)])
    membership_tests = []
    present = overlay_module._present

    def counting_present(overlay, row):
        membership_tests.append(row)
        return present(overlay, row)

    monkeypatch.setattr(overlay_module, "_present", counting_present)
    forbid_scans(database.relation("r"))
    result = planner.evaluate(_minus_program(), context)
    assert sorted(result.rows()) == [(7,)]
    assert context.working["r"]._materialized is None
    # Keys 7 and 8 are the buckets only Δ⁻ touches: their rows, nothing else.
    assert len(membership_tests) <= 2 * bucket
    usage = database.relation("r").built_index((0,)).usage
    assert usage.by_kind == {"project": 399}


def test_the_delta_minus_program_after_commit_reads_the_base_index(forbid_scans):
    """The same program as a post-commit audit binds ``r`` to the base."""
    from repro.engine.session import DeltaView

    database = _r_database()
    schema = database.relation_schema("r")
    minus = Relation(schema, [(7, 7 + 400 * j) for j in range(50)] + [(8, 8)])
    database.apply_deltas({"r": (None, minus)})
    forbid_scans(database.relation("r"))
    view = DeltaView(database, {"r": (None, minus)})
    assert sorted(planner.evaluate(_minus_program(), view).rows()) == [(7,)]


def test_chains_over_an_overlay_read_the_index_keys_once(forbid_scans):
    database = _r_database(rows=2_000, keys=40)
    database.create_index("r", ["b", "a"])
    chains = (
        E.Select(
            _project(E.RelationRef("r"), "a"),
            P.Comparison("<", P.ColRef("a"), P.Const(10)),
        ),
        _project(_project(E.RelationRef("r"), "a", "b"), "a"),
    )
    forbid_scans(database.relation("r"))
    for expression in chains:
        context = TransactionContext(database)
        context.insert_rows("r", [(41, 5_000)])
        for index in database.relation("r").indexes:
            index.usage.reset()
        result = planner.evaluate(expression, context)
        assert result == expression.evaluate(StandaloneContext({"r": _copy(context)}))
        ledger = index_usage({"r": database.relation("r")})
        assert sum(uses for uses, *_rest in ledger.values()) == 1


def _copy(context: TransactionContext) -> Relation:
    """The transaction's ``r`` as a plain relation, built row by row (so not
    through the whole-relation reads the test forbids)."""
    overlay = context.working["r"]
    rows = [row for row in overlay.base.rows() if row in overlay]
    return Relation(overlay.schema, rows + list(overlay.plus.rows()), _validated=True)
