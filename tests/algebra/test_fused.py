"""Fused pipeline regions: formation rules, decline cases, execution."""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext, TracingContext
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.types import INT
from tests.support.modes import evaluations


@pytest.fixture
def db() -> Database:
    schema = DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )
    database = Database(schema)
    database.load("r", [(i, i % 7) for i in range(40)])
    database.load("s", [(j % 7, j * 2) for j in range(25)])
    return database


@pytest.fixture
def ctx(db) -> StandaloneContext:
    return StandaloneContext({"r": db.relation("r"), "s": db.relation("s")})


def _join() -> E.Expression:
    return E.Join(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
    )


def _select_project_join() -> E.Expression:
    return E.Project(
        E.Select(_join(), P.Comparison("<", P.ColRef(4), P.Const(30))),
        (E.ProjectItem(P.ColRef(1)), E.ProjectItem(P.ColRef(4))),
    )


def _project_select_scan() -> E.Expression:
    return E.Project(
        E.Select(E.RelationRef("r"), P.Comparison("<", P.ColRef(2), P.ColRef(1))),
        (E.ProjectItem(P.ColRef(2)), E.ProjectItem(P.ColRef(1))),
    )


class TestRegionFormation:
    def test_select_project_join_forms_a_region(self):
        plan = planner.compile_expression(_select_project_join())
        assert isinstance(plan, X.FusedPipelineOp)
        assert [stage.op_name for stage in plan.stages] == ["project", "select"]
        assert isinstance(plan.source, X.HashJoinOp)
        assert plan.describe() == "fused[project<-select<-join]"

    def test_single_stage_over_a_join_suffices(self):
        plan = planner.compile_expression(
            E.Project(_join(), (E.ProjectItem(P.ColRef(1)),))
        )
        assert isinstance(plan, X.FusedPipelineOp)
        assert len(plan.stages) == 1
        assert plan.describe() == "fused[project<-join]"

    def test_two_stages_over_a_scan_form_a_region(self):
        plan = planner.compile_expression(_project_select_scan())
        assert isinstance(plan, X.FusedPipelineOp)
        assert isinstance(plan.source, X.ScanOp)
        assert plan.describe() == "fused[project<-select<-scan]"

    def test_single_stage_over_a_scan_declines(self):
        # One batch kernel over a scan already runs without an
        # intermediate; there is no boundary for fusion to remove.
        plan = planner.compile_expression(
            E.Select(E.RelationRef("r"), P.Comparison("<", P.ColRef(2), P.ColRef(1)))
        )
        assert isinstance(plan, X.FilterOp)

    def test_semijoin_sources_fuse_and_antijoin_inherits(self):
        for ctor, tail in ((E.SemiJoin, "semijoin"), (E.AntiJoin, "antijoin")):
            expression = E.Project(
                ctor(
                    E.RelationRef("r"),
                    E.RelationRef("s"),
                    P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
                ),
                (E.ProjectItem(P.ColRef(1)),),
            )
            plan = planner.compile_expression(expression)
            assert isinstance(plan, X.FusedPipelineOp)
            assert plan.describe() == f"fused[project<-{tail}]"

    def test_rename_bounds_a_region(self):
        plan = planner.compile_expression(
            E.Project(
                E.Rename(E.RelationRef("r"), "t"),
                (E.ProjectItem(P.ColRef(1)), E.ProjectItem(P.ColRef(2))),
            )
        )
        assert not isinstance(plan, X.FusedPipelineOp)

    def test_union_bounds_a_region_but_children_still_fuse(self):
        plan = planner.compile_expression(
            E.Union(_select_project_join(), _project_select_scan())
        )
        assert isinstance(plan, X.UnionOp)
        assert isinstance(plan.left, X.FusedPipelineOp)
        assert isinstance(plan.right, X.FusedPipelineOp)

    def test_nested_loop_fallback_declines(self):
        # A non-equi join lowers to a nested loop, which is not a source.
        plan = planner.compile_expression(
            E.Project(
                E.Join(
                    E.RelationRef("r"),
                    E.RelationRef("s"),
                    P.Comparison("<", P.ColRef(1, "left"), P.ColRef(2, "right")),
                ),
                (E.ProjectItem(P.ColRef(1)),),
            )
        )
        assert not isinstance(plan, X.FusedPipelineOp)
        assert isinstance(plan.child, X.NestedLoopJoinOp)

    def test_explain_keeps_the_stage_chain_visible(self):
        text = planner.explain(_select_project_join())
        assert "fused[project<-select<-join]" in text
        for line in ("project[", "select[", "hash_join["):
            assert line in text, text


class TestJoinPushdown:
    """Side analysis of filter stages adjacent to a hash-join source."""

    def _pushdown(self, expression, db):
        plan = planner.compile_expression(expression)
        assert isinstance(plan, X.FusedPipelineOp)
        return plan._join_pushdown(
            db.relation("r").schema, db.relation("s").schema
        )

    def test_right_side_filter_is_pushed(self, db):
        pushed, remaining = self._pushdown(_select_project_join(), db)
        assert [side for side, _ in pushed] == ["right"]
        assert [stage.op_name for stage in remaining] == ["project"]

    def test_left_side_filter_is_pushed(self, db):
        expression = E.Project(
            E.Select(_join(), P.Comparison("<", P.ColRef(1), P.Const(20))),
            (E.ProjectItem(P.ColRef(4)),),
        )
        pushed, remaining = self._pushdown(expression, db)
        assert [side for side, _ in pushed] == ["left"]
        assert [stage.op_name for stage in remaining] == ["project"]

    def test_stacked_side_filters_both_push(self, db):
        expression = E.Project(
            E.Select(
                E.Select(_join(), P.Comparison("<", P.ColRef(4), P.Const(30))),
                P.Comparison("<", P.ColRef(1), P.Const(20)),
            ),
            (E.ProjectItem(P.ColRef(1)),),
        )
        pushed, remaining = self._pushdown(expression, db)
        assert sorted(side for side, _ in pushed) == ["left", "right"]
        assert [stage.op_name for stage in remaining] == ["project"]

    def test_partially_pushable_conjunction_leaves_a_residual(self, db):
        # (d < 30) AND (a < d): the right-side conjunct moves below the
        # pair construction, the mixed one stays as a residual select.
        expression = E.Project(
            E.Select(
                _join(),
                P.And(
                    P.Comparison("<", P.ColRef(4), P.Const(30)),
                    P.Comparison("<", P.ColRef(1), P.ColRef(4)),
                ),
            ),
            (E.ProjectItem(P.ColRef(1)),),
        )
        pushed, remaining = self._pushdown(expression, db)
        assert [side for side, _ in pushed] == ["right"]
        assert [stage.op_name for stage in remaining] == ["project", "select"]

    def test_mixed_side_filter_stays_above_the_join(self, db):
        expression = E.Project(
            E.Select(_join(), P.Comparison("<", P.ColRef(1), P.ColRef(4))),
            (E.ProjectItem(P.ColRef(1)),),
        )
        pushed, remaining = self._pushdown(expression, db)
        assert pushed == ()
        assert [stage.op_name for stage in remaining] == ["project", "select"]

    def test_division_disqualifies_a_filter(self, db):
        # A pushed predicate runs on build/probe rows the join would never
        # have matched; division could raise there where the row path
        # raises nothing, so it must stay above the pair construction.
        expression = E.Project(
            E.Select(
                _join(),
                P.Comparison(
                    "<", P.Arith("/", P.ColRef(4), P.Const(2)), P.Const(10)
                ),
            ),
            (E.ProjectItem(P.ColRef(1)),),
        )
        pushed, remaining = self._pushdown(expression, db)
        assert pushed == ()
        assert [stage.op_name for stage in remaining] == ["project", "select"]

    def test_pushed_execution_matches_unfused_and_reference(self, ctx):
        expression = E.Project(
            E.Select(
                E.Select(_join(), P.Comparison("<", P.ColRef(4), P.Const(30))),
                P.Comparison("<", P.ColRef(1), P.Const(20)),
            ),
            (E.ProjectItem(P.ColRef(1)), E.ProjectItem(P.ColRef(4))),
        )
        results = {label: run(ctx) for label, run in evaluations(expression)}
        assert results["fused"] == results["unfused"] == results["reference"]


class TestRegionExecution:
    def test_fused_matches_unfused_and_reference(self, ctx):
        results = {
            label: run(ctx) for label, run in evaluations(_select_project_join())
        }
        assert results["fused"] == results["reference"]
        assert results["unfused"] == results["reference"]
        assert len(results["fused"]) == len(results["reference"])

    def test_estimate_and_children_delegate_to_the_chain(self):
        plan = planner.compile_expression(_select_project_join())
        assert plan.children() == (plan.root,)
        assert plan.estimate().rows == plan.root.estimate().rows

    def test_delta_sourced_regions_execute_fused(self, db, monkeypatch):
        # A 3-row differential is far below anything an estimate would call
        # a batch; the region over it still runs as one kernel (the stage
        # operators' own ``execute`` is never entered) and agrees with the
        # reference interpreter.
        expression = E.Project(
            E.Select(
                E.Delta("r", "plus"), P.Comparison("<", P.ColRef(2), P.ColRef(1))
            ),
            (E.ProjectItem(P.ColRef(1)),),
        )
        plan = planner.compile_expression(expression)
        assert isinstance(plan, X.FusedPipelineOp)
        assert isinstance(plan.source, X.DeltaScanOp)
        delta = db.relation("r").copy()
        delta.clear()
        delta.insert_many([(5, 1), (2, 6), (9, 3)])
        context = StandaloneContext({"r@plus": delta})
        expected = expression.evaluate(context)
        for stage in (X.FilterOp, X.ProjectOp):
            monkeypatch.setattr(
                stage, "execute", lambda self, context: pytest.fail("unfused")
            )
        result = plan.execute(context)
        assert result == expected
        assert result.sorted_rows() == [(5,), (9,)]

    def test_traced_execution_reports_the_source_operators(self, db):
        # A fused region still traces its source operator (the join emits
        # its own trace from the batch path), so observability of the
        # audit pipeline does not regress inside a region.
        context = TracingContext(
            StandaloneContext({"r": db.relation("r"), "s": db.relation("s")})
        )
        planner.get_plan(_select_project_join()).execute(context)
        traced = [op for op, _, _ in context.tracer.records]
        assert "join" in traced
