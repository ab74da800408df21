"""The physical planner: lowering, caching, reference parity, index hints."""

from __future__ import annotations

import pytest

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext, evaluate_expression
from repro.algebra.parser import parse_expression
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.schema import Attribute
from repro.engine.session import DatabaseView
from repro.engine.types import INT, NULL
from repro.errors import EvaluationError
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

    def test_a_chain_explains_every_operator_in_it(self):
        lines = planner.explain(_SELECT_PROJECT_JOIN).splitlines()
        operators = [line.strip().split("[")[0].split("(")[0] for line in lines]
        assert operators == ["project", "select", "hash_join", "scan", "scan"]
        # Each operator's inputs are listed one level under it.
        assert [len(line) - len(line.lstrip()) for line in lines] == [0, 2, 4, 6, 6]


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


class TestIndexHints:
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
    """A projection reads rows, so it hints no index: not over plain
    columns, renamed or not, not over the pre-state, and not for any other
    item list or source."""

    def test_plain_columns_are_not_hinted(self):
        renamed = E.ProjectItem(P.ColRef("ref"), "key")
        for source in (E.RelationRef("fk"), E.RelationRef("fk@old")):
            for items in (("ref",), ("ref", "id"), (renamed,)):
                assert planner.index_hints(_project(source, *items)) == set()

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

    def test_not_over_a_filter(self):
        filtered = E.Select(
            E.RelationRef("fk"), P.Comparison("<", P.ColRef("id"), P.ColRef("ref"))
        )
        assert planner.index_hints(_project(filtered, "ref")) == set()

    def test_the_delta_minus_of_a_projection_rescans_the_post_state_unhinted(self):
        from repro.algebra.delta import delta_expression

        # Δ⁻π(fk) = π(fk@minus) − π(fk): the subtracted term rescans fk
        # whenever the candidate side is non-empty, and no index serves it.
        shrunk = delta_expression(
            _project(E.RelationRef("fk"), "ref"), [("DEL", "fk")], E.DELTA_MINUS
        )
        assert planner.index_hints(shrunk) == set()


def _outcome(evaluate) -> tuple:
    """What an evaluation gives: its rows, or the type of its error."""
    try:
        return ("rows", evaluate().sorted_rows())
    except EvaluationError as error:
        return ("error", type(error))


class TestIndexSelectResidual:
    """A residual that can raise is tested on every row, index or not.

    A bucket lookup would test it on the bucket's rows only, so whether
    the query raised would depend on whether an index happened to be
    built when it ran.
    """

    CASES = [
        ("select(r, a = 1 and 6 / c > 1)", [(NULL, 0), (1, 2)]),
        ("select(r, 6 / c > 1 and a = 1)", [(2, 0), (1, 2)]),
        ("select(r, 6 / c > 1 and a = 1)", [(NULL, 0), (1, 2)]),
    ]

    @staticmethod
    def _database(rows, index: str) -> Database:
        database = Database(
            DatabaseSchema(
                [
                    RelationSchema(
                        "r",
                        [Attribute("a", INT, nullable=True), Attribute("c", INT)],
                    )
                ]
            )
        )
        database.load("r", rows)
        relation = database.relation("r")
        if index == "declared":
            relation.declare_index((0,))
        elif index == "built":
            relation.index_on((0,))
        return database

    @pytest.mark.parametrize("index", ["none", "declared", "built"])
    @pytest.mark.parametrize("text, rows", CASES)
    def test_plan_matches_the_reference(self, text, rows, index):
        expression = parse_expression(text)
        reference_view = DatabaseView(self._database(rows, index))
        reference = _outcome(lambda: expression.evaluate(reference_view))
        assert reference[0] == "error"
        view = DatabaseView(self._database(rows, index))
        assert _outcome(lambda: planner.evaluate(expression, view)) == reference

    def test_a_residual_that_can_raise_lowers_to_a_filter(self):
        expression = parse_expression("select(r, a = 1 and 6 / c > 1)")
        assert isinstance(planner.compile_expression(expression), X.FilterOp)
        total = parse_expression("select(r, a = 1 and c > 1)")
        assert isinstance(planner.compile_expression(total), X.IndexSelectOp)


class TestPlansAsWritten:
    """A plan depends on the expression and the schema, never the data."""

    JOIN_CHAIN = E.Join(
        E.Join(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
        ),
        E.RelationRef("t"),
        P.Comparison("=", P.ColRef("b", "left"), P.ColRef("e", "right")),
    )
    SEMI_CHAIN = E.AntiJoin(
        E.SemiJoin(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
        ),
        E.RelationRef("t"),
        P.Comparison("=", P.ColRef("b", "left"), P.ColRef("e", "right")),
    )

    @staticmethod
    def _database(size: int) -> Database:
        database = Database(
            DatabaseSchema(
                [
                    RelationSchema("r", [("a", INT), ("b", INT)]),
                    RelationSchema("s", [("c", INT), ("d", INT)]),
                    RelationSchema("t", [("e", INT), ("f", INT)]),
                ]
            )
        )
        # Two large relations joined first, the small selective one last:
        # the shape a cost-based reorder would rewrite.
        database.load("r", [(i % 500, i) for i in range(size // 2)])
        database.load("s", [(i % 500, i) for i in range(size)])
        database.load("t", [(i, i) for i in range(size // 500)])
        return database

    @pytest.mark.parametrize("chain", ["join", "semi"])
    def test_a_big_and_an_empty_database_share_one_plan(self, chain):
        expression = self.JOIN_CHAIN if chain == "join" else self.SEMI_CHAIN
        big = self._database(10_000)
        empty = self._database(0)
        assert len(empty.relation("s")) == 0
        plan = planner.database_plan(expression, big)
        assert planner.database_plan(expression, empty) is plan
        assert plan is planner.get_plan(expression)
        listing = plan.explain()
        assert listing.index("scan(s)") < listing.index("scan(t)")
        view = DatabaseView(big)
        assert plan.execute(view) == expression.evaluate(view)

    @pytest.mark.parametrize("chain", ["join", "semi"])
    def test_a_miss_reads_no_relation_size(self, chain, monkeypatch):
        expression = self.JOIN_CHAIN if chain == "join" else self.SEMI_CHAIN
        database = self._database(1_000)
        planner.clear_plan_cache()

        def refuse(self):
            raise AssertionError("planning read a relation's size")

        monkeypatch.setattr(Relation, "__len__", refuse)
        plan = planner.database_plan(expression, database)
        monkeypatch.undo()
        assert list(database.plans) == [expression]
        assert database.plans[expression] is plan
