"""The physical planner: lowering, caching, reference parity, estimates."""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext, TracingContext, evaluate_expression
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.types import INT
from tests.support.modes import plan_operators


@pytest.fixture
def db() -> Database:
    schema = DatabaseSchema(
        [
            RelationSchema("pk", [("key", INT), ("v", INT)]),
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
        ]
    )
    database = Database(schema)
    database.load("pk", [(k, k * 10) for k in range(10)])
    database.load("fk", [(i, i % 12) for i in range(30)])  # refs 10, 11 dangle
    return database


@pytest.fixture
def ctx(db) -> StandaloneContext:
    return StandaloneContext(
        {"pk": db.relation("pk"), "fk": db.relation("fk")}
    )


REFERENTIAL = E.AntiJoin(
    E.RelationRef("fk"),
    E.RelationRef("pk"),
    P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
)


class TestLowering:
    def test_equi_antijoin_lowers_to_hash_op(self):
        plan = planner.compile_expression(REFERENTIAL)
        assert isinstance(plan, X.HashAntiJoinOp)
        assert isinstance(plan.left, X.ScanOp)
        assert plan.left_keys.attrs == ("ref",)
        assert plan.right_keys.attrs == ("key",)

    def test_non_equi_join_falls_back_to_nested_loop(self):
        expr = E.Join(
            E.RelationRef("fk"),
            E.RelationRef("pk"),
            P.Comparison("<", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        assert isinstance(planner.compile_expression(expr), X.NestedLoopJoinOp)

    def test_semijoin_with_residual_hashes_by_equality_keys(self):
        expr = E.SemiJoin(
            E.RelationRef("fk"),
            E.RelationRef("pk"),
            P.And(
                P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
                P.Comparison("<", P.ColRef("id", "left"), P.ColRef("v", "right")),
            ),
        )
        plan = planner.compile_expression(expr)
        assert isinstance(plan, X.HashSemiJoinOp)
        assert "+residual" in plan.describe()

    def test_semijoin_without_equality_uses_nested_loop(self):
        expr = E.SemiJoin(
            E.RelationRef("fk"),
            E.RelationRef("pk"),
            P.Comparison("<", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        assert isinstance(planner.compile_expression(expr), X.NestedLoopSemiOp)

    def test_semijoin_residual_matches_naive(self, ctx):
        expr = E.SemiJoin(
            E.RelationRef("fk"),
            E.RelationRef("pk"),
            P.And(
                P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
                P.Comparison("<", P.ColRef("id", "left"), P.ColRef("v", "right")),
            ),
        )
        naive = expr.evaluate(ctx)
        planned = planner.get_plan(expr).execute(ctx)
        assert naive == planned

    def test_const_equality_select_lowers_to_index_select(self):
        expr = E.Select(
            E.RelationRef("fk"), P.Comparison("=", P.ColRef("ref"), P.Const(3))
        )
        plan = planner.compile_expression(expr)
        assert isinstance(plan, X.IndexSelectOp)
        assert plan.attrs == ("ref",)
        assert plan.key == 3

    def test_null_equality_stays_in_filter(self):
        from repro.engine.types import NULL

        expr = E.Select(
            E.RelationRef("fk"), P.Comparison("=", P.ColRef("ref"), P.Const(NULL))
        )
        assert isinstance(planner.compile_expression(expr), X.FilterOp)

    def test_explain_renders_tree(self):
        text = planner.explain(REFERENTIAL)
        assert "hash_antijoin" in text
        assert "scan(fk)" in text


class TestExecution:
    def test_planned_matches_naive_referential(self, ctx):
        naive = REFERENTIAL.evaluate(ctx)
        planned = planner.get_plan(REFERENTIAL).execute(ctx)
        assert planned == naive
        assert {row[1] for row in planned} == {10, 11}

    def test_index_select_uses_bucket(self, db, ctx):
        db.create_index("fk", ["ref"])
        expr = E.Select(
            E.RelationRef("fk"), P.Comparison("=", P.ColRef("ref"), P.Const(3))
        )
        planned = planner.get_plan(expr).execute(ctx)
        naive = expr.evaluate(ctx)
        assert planned == naive
        assert all(row[1] == 3 for row in planned)

    def test_antijoin_with_both_sides_indexed(self, db, ctx):
        db.create_index("fk", ["ref"])
        db.create_index("pk", ["key"])
        planned = planner.get_plan(REFERENTIAL).execute(ctx)
        assert {row[1] for row in planned} == {10, 11}

    def test_planned_ops_trace_like_naive(self, ctx):
        tracing = TracingContext(ctx)
        evaluate_expression(REFERENTIAL, tracing)
        summary = tracing.tracer.by_operator()
        assert "antijoin" in summary
        calls, tuples_in, tuples_out = summary["antijoin"]
        assert calls == 1 and tuples_in == 40 and tuples_out == 4


def _fk_pk(ctor=E.Join, op="="):
    return ctor(
        E.RelationRef("fk"),
        E.RelationRef("pk"),
        P.Comparison(op, P.ColRef(2, "left"), P.ColRef(1, "right")),
    )


def _columns(source, *positions):
    return E.Project(source, tuple(E.ProjectItem(P.ColRef(p)) for p in positions))


_SELECT_PROJECT_JOIN = _columns(
    E.Select(_fk_pk(), P.Comparison("<", P.ColRef(4), P.Const(30))), 1, 4
)
_PROJECT_SELECT_SCAN = _columns(
    E.Select(E.RelationRef("fk"), P.Comparison("<", P.ColRef(2), P.ColRef(1))), 2, 1
)

#: Select/project chains over every kind of source, and around the operators
#: that sit between two chains.
CHAINS = {
    "select_project_join": _SELECT_PROJECT_JOIN,
    "project_join": _columns(_fk_pk(), 1),
    "project_select_scan": _PROJECT_SELECT_SCAN,
    "select_scan": _PROJECT_SELECT_SCAN.input,
    "project_semijoin": _columns(_fk_pk(E.SemiJoin), 1),
    "project_antijoin": _columns(_fk_pk(E.AntiJoin), 1),
    "project_rename": _columns(E.Rename(E.RelationRef("fk"), "t"), 1, 2),
    "union_of_chains": E.Union(_SELECT_PROJECT_JOIN, _PROJECT_SELECT_SCAN),
    "project_nested_loop_join": _columns(_fk_pk(op="<"), 1),
    "project_select_delta": _columns(
        E.Select(E.Delta("fk", "plus"), P.Comparison("<", P.ColRef(2), P.ColRef(1))), 1
    ),
}


class TestReferenceParity:
    def test_plan_and_reference_interpreter_produce_equal_results(self, ctx):
        assert evaluate_expression(REFERENTIAL, ctx) == REFERENTIAL.evaluate(ctx)

    @pytest.mark.parametrize("shape", CHAINS)
    def test_select_project_chains_match_the_reference(self, shape, db, ctx):
        delta = Relation(db.relation_schema("fk"), [(5, 1), (2, 6), (9, 3)])
        ctx.bind("fk@plus", delta)
        expected = CHAINS[shape].evaluate(ctx)
        result = planner.evaluate(CHAINS[shape], ctx)
        assert result == expected and len(result) == len(expected)
        assert result.schema.attribute_names == expected.schema.attribute_names
        if shape == "project_select_delta":
            assert result.sorted_rows() == [(5,), (9,)]

    def test_a_chain_traces_every_operator_in_it(self, ctx):
        tracing = TracingContext(ctx)
        planner.get_plan(_SELECT_PROJECT_JOIN).execute(tracing)
        assert [op for op, _in, _out in tracing.tracer.records] == [
            "join",
            "select",
            "project",
        ]


class TestPlanCache:
    def test_structurally_equal_expressions_share_plans(self):
        planner.clear_plan_cache()
        first = planner.get_plan(REFERENTIAL)
        again = planner.get_plan(
            E.AntiJoin(
                E.RelationRef("fk"),
                E.RelationRef("pk"),
                P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
            )
        )
        assert first is again
        info = planner.plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_leaf_expressions_are_not_cached(self):
        planner.clear_plan_cache()
        planner.get_plan(E.RelationRef("fk"))
        planner.get_plan(E.Literal(((1, 2),)))
        assert planner.plan_cache_info()["size"] == 0

    def test_executing_a_warmed_plan_writes_to_no_operator_table(self):
        """A plan shared by every thread is only read by executing it.

        Warmed under two input schemas, each operator's per-schema table
        holds two entries; running the plan twice more under the first
        leaves every table's keys, in order, as they were."""
        expression = E.Project(
            E.Select(
                E.Join(
                    E.RelationRef("fk"),
                    E.RelationRef("pk"),
                    P.And(
                        P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
                        P.Comparison("<", P.ColRef("id", "left"), P.ColRef("v", "right")),
                    ),
                ),
                P.Comparison(">", P.ColRef("v"), P.Const(0)),
            ),
            (E.ProjectItem(P.ColRef("id")),),
        )
        plan = planner.compile_expression(expression)

        def context(fk_columns):
            fk = Relation(RelationSchema("fk", [(name, INT) for name in fk_columns]))
            pk = Relation(RelationSchema("pk", [("key", INT), ("v", INT)]))
            for k in range(4):
                fk.insert((k, k))
                pk.insert((k, k + 1))
            return StandaloneContext({"fk": fk, "pk": pk})

        first, second = context(("id", "ref")), context(("ref", "id"))
        for ctx in (first, second):
            plan.execute(ctx)
        tables = []
        for op in plan_operators(plan):
            for value in vars(op).values():
                slots = getattr(type(value), "__slots__", ())
                owned = [value] + [getattr(value, name, None) for name in slots]
                tables.extend(table for table in owned if isinstance(table, dict))
        warmed = [list(table) for table in tables]
        assert any(len(keys) == 2 for keys in warmed)
        assert plan.execute(first) == plan.execute(first) == expression.evaluate(first)
        assert [list(table) for table in tables] == warmed


class TestEstimates:
    def test_scan_uses_cardinalities(self):
        est = planner.estimate_expression(REFERENTIAL, {"fk": 100_000, "pk": 1000})
        assert est.built == 1000
        assert est.probed == 100_000

    def test_cost_model_prices_plan(self):
        from repro.parallel.cost_model import MODERN_2026
        from repro.parallel.nodes import NodeStats

        def seconds(cards, stats=NodeStats()):
            # What the parallel enforcer charges one node: the plan's
            # estimate over that node's fragments, at the model's rates.
            est = planner.estimate_expression(REFERENTIAL, cards)
            return MODERN_2026.weighted_node_time(
                stats, scanned=est.scanned, built=est.built, probed=est.probed
            )

        cards = {"fk": 100_000, "pk": 1000}
        est = planner.estimate_expression(REFERENTIAL, cards)
        whole = seconds(cards)
        assert whole == pytest.approx(
            est.scanned * MODERN_2026.scan_per_tuple
            + est.built * MODERN_2026.build_per_tuple
            + est.probed * MODERN_2026.probe_per_tuple
        )
        assert whole > 0
        # One of 8 fragments must beat the whole on 1 node...
        eighth = {"fk": 12_500, "pk": 125}
        assert seconds(eighth) < whole
        # ...and the tuples a node ships are charged on top of its work.
        shipped = NodeStats(tuples_sent=125, messages_sent=1)
        assert seconds(eighth, shipped) == pytest.approx(
            seconds(eighth)
            + 125 * MODERN_2026.transfer_per_tuple
            + MODERN_2026.message_latency
        )

    def test_cost_model_prefers_delta_plan(self):
        from repro.algebra.delta import delta_expression

        cards = {"fk": 100_000, "pk": 1000}
        delta = delta_expression(REFERENTIAL, [("INS", "fk")])
        full = planner.estimate_expression(REFERENTIAL, cards)
        delta_estimate = planner.estimate_expression(
            delta, {**cards, "fk@plus": 100}
        )
        # 100 probes against the same 1000-row build side vs 100k probes:
        # the choice is not close.
        assert delta_estimate.work < full.work / 10

    def test_delta_estimate_defaults_without_statistics(self):
        from repro.algebra.delta import delta_expression
        from repro.algebra.physical import DEFAULT_DELTA_CARDINALITY

        delta = delta_expression(REFERENTIAL, [("INS", "fk")])
        est = planner.estimate_expression(delta, {"fk": 100_000, "pk": 1000})
        assert est.probed == DEFAULT_DELTA_CARDINALITY
        assert est.built == 1000

    def test_index_hints_cover_both_antijoin_sides(self):
        hints = planner.index_hints(REFERENTIAL)
        assert ("fk", ("ref",)) in hints
        assert ("pk", ("key",)) in hints

    def test_index_hints_skip_auxiliaries(self):
        expr = E.AntiJoin(
            E.RelationRef("fk@plus"),
            E.RelationRef("pk"),
            P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        hints = planner.index_hints(expr)
        assert hints == {("pk", ("key",))}

    def test_index_hint_on_pre_state_names_the_base(self):
        # A delta plan's build side is pk@old, which inside a transaction is
        # the base relation itself: the hint must not be dropped with the
        # differentials'.
        expr = E.SemiJoin(
            E.Delta("fk", "plus"),
            E.RelationRef("pk@old"),
            P.Comparison("=", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        assert planner.index_hints(expr) == {("pk", ("key",))}


def _project(source: E.Expression, *items) -> E.Project:
    return E.Project(
        source,
        tuple(
            item if isinstance(item, E.ProjectItem) else E.ProjectItem(P.ColRef(item))
            for item in items
        ),
    )


class TestProjectionHints:
    """A plain-column projection over a scan is answered from an index on
    those columns, so it hints one."""

    def test_plain_columns_are_hinted(self):
        assert planner.index_hints(_project(E.RelationRef("fk"), "ref")) == {
            ("fk", ("ref",))
        }
        assert planner.index_hints(_project(E.RelationRef("fk"), "ref", "id")) == {
            ("fk", ("ref", "id"))
        }

    def test_a_renamed_plain_column_is_still_plain(self):
        renamed = E.ProjectItem(P.ColRef("ref"), "key")
        assert planner.index_hints(_project(E.RelationRef("fk"), renamed)) == {
            ("fk", ("ref",))
        }

    @pytest.mark.parametrize(
        "item",
        [
            E.ProjectItem(P.Arith("+", P.ColRef("ref"), P.Const(1))),
            E.ProjectItem(P.Arith("*", P.ColRef("ref"), P.Const(2)), "twice"),
            E.ProjectItem(P.Const(7), "seven"),
        ],
        ids=["scalar", "renamed-expression", "constant"],
    )
    def test_computed_items_are_not(self, item):
        assert planner.index_hints(_project(E.RelationRef("fk"), item)) == set()
        assert planner.index_hints(_project(E.RelationRef("fk"), "ref", item)) == set()

    def test_a_column_named_twice_is_not(self):
        assert planner.index_hints(_project(E.RelationRef("fk"), "ref", "ref")) == set()

    def test_differentials_are_not(self):
        for source in (
            E.Delta("fk", "plus"),
            E.Delta("fk", "minus"),
            E.RelationRef("fk@plus"),
            E.RelationRef("fk@minus"),
        ):
            assert planner.index_hints(_project(source, "ref")) == set()

    def test_the_pre_state_names_the_base(self):
        assert planner.index_hints(_project(E.RelationRef("fk@old"), "ref")) == {
            ("fk", ("ref",))
        }

    def test_only_directly_over_a_scan(self):
        filtered = E.Select(
            E.RelationRef("fk"), P.Comparison("<", P.ColRef("id"), P.ColRef("ref"))
        )
        assert planner.index_hints(_project(filtered, "ref")) == set()

    def test_the_delta_minus_of_a_projection_hints_the_post_state_rescan(self):
        from repro.algebra.delta import delta_expression

        # Δ⁻π(fk) = π(fk@minus) − π(fk): the subtracted term rescans fk
        # whenever the candidate side is non-empty.
        shrunk = delta_expression(
            _project(E.RelationRef("fk"), "ref"), [("DEL", "fk")], E.DELTA_MINUS
        )
        assert planner.index_hints(shrunk) == {("fk", ("ref",))}

    def test_estimate_is_the_distinct_count_when_the_snapshot_has_one(self, db):
        from repro.algebra.statistics import RuntimeStatistics

        expr = _project(E.RelationRef("fk"), "ref")
        before = planner.get_plan(expr).estimate(RuntimeStatistics.capture(db))
        assert before.rows == 30 and before.scanned == 30
        db.create_index("fk", ["ref"])
        after = planner.get_plan(expr).estimate(RuntimeStatistics.capture(db))
        assert after.rows == 12 and after.scanned == 12
