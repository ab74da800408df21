"""Algebraic rewrites preserve semantics and simplify shapes."""

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.algebra.optimizer import (
    optimize_expression,
    optimize_program,
    simplify_predicate,
)
from repro.algebra.parser import parse_expression, parse_program
from repro.engine import Relation, RelationSchema
from repro.engine.types import INT


@pytest.fixture
def ctx():
    schema = RelationSchema("r", [("a", INT), ("b", INT)])
    other = RelationSchema("s", [("c", INT)])
    return StandaloneContext(
        {
            "r": Relation(schema, [(1, 10), (2, 20), (3, 30), (4, 40)]),
            "s": Relation(other, [(1,), (3,)]),
        }
    )


class TestSimplifyPredicate:
    def test_double_negation(self):
        atom = P.Comparison("=", P.ColRef("a"), P.Const(1))
        assert simplify_predicate(P.Not(P.Not(atom))) == atom

    def test_not_comparison_folds(self):
        atom = P.Comparison(">=", P.ColRef("a"), P.Const(1))
        assert simplify_predicate(P.Not(atom)) == P.Comparison(
            "<", P.ColRef("a"), P.Const(1)
        )

    def test_and_constants(self):
        atom = P.Comparison("=", P.ColRef("a"), P.Const(1))
        assert simplify_predicate(P.And(P.TRUE, atom)) == atom
        assert simplify_predicate(P.And(atom, P.FALSE)) == P.FALSE

    def test_or_constants(self):
        atom = P.Comparison("=", P.ColRef("a"), P.Const(1))
        assert simplify_predicate(P.Or(P.FALSE, atom)) == atom
        assert simplify_predicate(P.Or(atom, P.TRUE)) == P.TRUE

    def test_not_true(self):
        assert simplify_predicate(P.Not(P.TRUE)) == P.FALSE


class TestOptimizeExpression:
    def test_select_true_removed(self):
        expr = parse_expression("select(r, true)")
        assert optimize_expression(expr) == E.RelationRef("r")

    def test_cascade_fusion(self):
        expr = parse_expression("select(select(r, a > 1), b < 30)")
        optimized = optimize_expression(expr)
        assert isinstance(optimized, E.Select)
        assert isinstance(optimized.input, E.RelationRef)
        assert isinstance(optimized.predicate, P.And)

    def test_select_pushed_through_union(self):
        expr = parse_expression("select(union(r, r), a > 2)")
        optimized = optimize_expression(expr)
        assert isinstance(optimized, E.Union)
        assert isinstance(optimized.left, E.Select)

    def test_select_stays_above_difference(self):
        # σ[p](A) − σ[p](B) can have an empty left where A − B has not, and
        # ∅ − e skips e and its arity check: the rewrite was not error-exact.
        expr = parse_expression("select(diff(r, r), a > 2)")
        optimized = optimize_expression(expr)
        assert isinstance(optimized, E.Select)
        assert isinstance(optimized.input, E.Difference)

    def test_join_predicate_simplified(self):
        expr = E.Join(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.And(P.TRUE, P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right"))),
        )
        optimized = optimize_expression(expr)
        assert isinstance(optimized.predicate, P.Comparison)

    @pytest.mark.parametrize(
        "text",
        [
            "select(select(r, a > 1), b < 30)",
            "select(union(r, r), a > 2)",
            "select(diff(r, select(r, a = 1)), b >= 20)",
            "select(intersect(r, r), not not a > 2)",
            "project(select(r, true), [a])",
            "cnt(select(select(r, a > 0), a < 4))",
            "sum(select(r, true), b)",
        ],
    )
    def test_semantics_preserved(self, ctx, text):
        expr = parse_expression(text)
        original = expr.evaluate(ctx)
        optimized = optimize_expression(expr).evaluate(ctx)
        assert original.to_set() == optimized.to_set()


class TestRewritesPreserveErrors:
    """A predicate that can raise is never moved onto rows it would not
    have been evaluated on."""

    GUARDED = [
        # The inner selection is *unknown* on (NULL, 0): the row never
        # reaches the division; fused into ``a > 0 and 10 / b > 1`` it would.
        "select(select(u, a > 0), 10 / b > 1)",
        # (5, 0) is subtracted / not shared before the division sees it.
        "select(diff(r, s), 10 / b > 1)",
        "select(intersect(r, t), 10 / b > 1)",
    ]

    @pytest.fixture
    def ctx(self):
        from repro.engine.schema import Attribute
        from repro.engine.types import NULL

        def relation(name, rows):
            schema = RelationSchema(
                name, [Attribute("a", INT, nullable=True), Attribute("b", INT)]
            )
            return Relation(schema, rows)

        return StandaloneContext(
            {
                "u": relation("u", [(NULL, 0), (1, 2)]),
                "r": relation("r", [(5, 0), (1, 2)]),
                "s": relation("s", [(5, 0)]),
                "t": relation("t", [(1, 2)]),
            }
        )

    @pytest.mark.parametrize("text", GUARDED)
    def test_a_dividing_selection_stays_where_it_was_written(self, ctx, text):
        from repro.algebra import planner

        expr = parse_expression(text)
        assert optimize_expression(expr) == expr
        expected = expr.evaluate(ctx)
        assert expected.sorted_rows() == [(1, 2)]
        assert optimize_expression(expr).evaluate(ctx) == expected
        assert planner.evaluate(expr, ctx) == expected

    def test_a_dividing_selection_still_moves_through_a_union(self, ctx):
        from repro.errors import EvaluationError

        expr = parse_expression("select(union(t, t), 10 / b > 1)")
        assert isinstance(optimize_expression(expr), E.Union)
        assert optimize_expression(expr).evaluate(ctx) == expr.evaluate(ctx)
        raising = parse_expression("select(union(t, s), 10 / b > 1)")
        for evaluate in (raising.evaluate, optimize_expression(raising).evaluate):
            with pytest.raises(EvaluationError):
                evaluate(ctx)


class TestOptimizeProgram:
    def test_statements_rewritten(self, ctx):
        program = parse_program(
            "t := select(select(r, a > 0), a < 3); alarm(select(r, true))"
        )
        optimized = optimize_program(program)
        assert isinstance(optimized.statements[0].expr.input, E.RelationRef)
        assert optimized.statements[1].expr == E.RelationRef("r")

    def test_non_triggering_flag_kept(self):
        from repro.algebra.programs import Program

        program = Program(parse_program("insert(r, (1, 2))").statements, non_triggering=True)
        assert optimize_program(program).non_triggering
