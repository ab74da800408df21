"""Relation-valued expression evaluation."""

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Relation, RelationSchema
from repro.engine.types import INT, NULL, STRING
from repro.errors import TypeMismatchError


@pytest.fixture
def ctx():
    r_schema = RelationSchema("r", [("a", INT), ("b", INT)])
    s_schema = RelationSchema("s", [("c", INT), ("d", STRING)])
    return StandaloneContext(
        {
            "r": Relation(r_schema, [(1, 10), (2, 20), (3, 30)]),
            "s": Relation(s_schema, [(1, "one"), (2, "two"), (9, "nine")]),
            "empty": Relation(r_schema.renamed("empty")),
        }
    )


def rows(expr, ctx):
    return expr.evaluate(ctx).sorted_rows()


class TestBasicOperators:
    def test_relation_ref(self, ctx):
        assert rows(E.RelationRef("r"), ctx) == [(1, 10), (2, 20), (3, 30)]

    def test_select(self, ctx):
        expr = E.Select(
            E.RelationRef("r"), P.Comparison(">", P.ColRef("b"), P.Const(15))
        )
        assert rows(expr, ctx) == [(2, 20), (3, 30)]

    def test_project_classical(self, ctx):
        expr = E.project_attributes(E.RelationRef("r"), ["a"])
        assert rows(expr, ctx) == [(1,), (2,), (3,)]

    def test_project_deduplicates(self, ctx):
        expr = E.Project(E.RelationRef("r"), (E.ProjectItem(P.Const(1)),))
        assert rows(expr, ctx) == [(1,)]

    def test_project_generalized_with_nulls(self, ctx):
        expr = E.Project(
            E.RelationRef("s"),
            (E.ProjectItem(P.ColRef("c"), "c"), E.ProjectItem(P.Const(NULL))),
        )
        result = expr.evaluate(ctx)
        assert all(row[1] is NULL for row in result)

    def test_project_arith(self, ctx):
        expr = E.Project(
            E.RelationRef("r"),
            (E.ProjectItem(P.Arith("+", P.ColRef("a"), P.ColRef("b")), "total"),),
        )
        assert rows(expr, ctx) == [(11,), (22,), (33,)]

    def test_union(self, ctx):
        expr = E.Union(E.RelationRef("r"), E.RelationRef("empty"))
        assert len(expr.evaluate(ctx)) == 3

    def test_union_deduplicates(self, ctx):
        expr = E.Union(E.RelationRef("r"), E.RelationRef("r"))
        assert len(expr.evaluate(ctx)) == 3

    def test_union_arity_mismatch(self, ctx):
        expr = E.Union(E.RelationRef("r"), E.Project(E.RelationRef("r"), (E.ProjectItem(P.ColRef("a")),)))
        with pytest.raises(TypeMismatchError):
            expr.evaluate(ctx)

    def test_difference(self, ctx):
        expr = E.Difference(
            E.RelationRef("r"),
            E.Select(E.RelationRef("r"), P.Comparison("=", P.ColRef("a"), P.Const(1))),
        )
        assert rows(expr, ctx) == [(2, 20), (3, 30)]

    def test_intersection(self, ctx):
        expr = E.Intersection(
            E.RelationRef("r"),
            E.Select(E.RelationRef("r"), P.Comparison(">", P.ColRef("a"), P.Const(1))),
        )
        assert rows(expr, ctx) == [(2, 20), (3, 30)]

    def test_product(self, ctx):
        expr = E.Product(E.RelationRef("r"), E.RelationRef("s"))
        assert len(expr.evaluate(ctx)) == 9

    def test_inputs_not_mutated(self, ctx):
        base = ctx.resolve("r").to_set()
        E.Select(E.RelationRef("r"), P.FALSE).evaluate(ctx)
        E.Difference(E.RelationRef("r"), E.RelationRef("r")).evaluate(ctx)
        assert ctx.resolve("r").to_set() == base


class TestJoins:
    PRED = P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right"))

    def test_equijoin_uses_hash_path(self, ctx):
        expr = E.Join(E.RelationRef("r"), E.RelationRef("s"), self.PRED)
        assert rows(expr, ctx) == [(1, 10, 1, "one"), (2, 20, 2, "two")]

    def test_theta_join_nested_loop(self, ctx):
        predicate = P.Comparison("<", P.ColRef("a", "left"), P.ColRef("c", "right"))
        expr = E.Join(E.RelationRef("r"), E.RelationRef("s"), predicate)
        result = expr.evaluate(ctx)
        assert (1, 10, 2, "two") in result
        assert (3, 30, 9, "nine") in result
        assert (2, 20, 1, "one") not in result

    def test_join_with_residual(self, ctx):
        predicate = P.And(
            self.PRED,
            P.Comparison(">", P.ColRef("b", "left"), P.Const(15)),
        )
        expr = E.Join(E.RelationRef("r"), E.RelationRef("s"), predicate)
        assert rows(expr, ctx) == [(2, 20, 2, "two")]

    def test_semijoin(self, ctx):
        expr = E.SemiJoin(E.RelationRef("r"), E.RelationRef("s"), self.PRED)
        assert rows(expr, ctx) == [(1, 10), (2, 20)]

    def test_antijoin(self, ctx):
        expr = E.AntiJoin(E.RelationRef("r"), E.RelationRef("s"), self.PRED)
        assert rows(expr, ctx) == [(3, 30)]

    def test_semijoin_true_predicate(self, ctx):
        expr = E.SemiJoin(E.RelationRef("r"), E.RelationRef("s"), P.TRUE)
        assert len(expr.evaluate(ctx)) == 3
        expr = E.SemiJoin(E.RelationRef("r"), E.RelationRef("empty"), P.TRUE)
        assert len(expr.evaluate(ctx)) == 0

    def test_antijoin_true_predicate(self, ctx):
        expr = E.AntiJoin(E.RelationRef("r"), E.RelationRef("empty"), P.TRUE)
        assert len(expr.evaluate(ctx)) == 3

    def test_antijoin_preserves_left_schema(self, ctx):
        expr = E.AntiJoin(E.RelationRef("r"), E.RelationRef("s"), self.PRED)
        assert expr.evaluate(ctx).schema.attribute_names == ("a", "b")


class TestAggregates:
    def test_sum(self, ctx):
        assert rows(E.Aggregate(E.RelationRef("r"), "SUM", "b"), ctx) == [(60,)]

    def test_avg(self, ctx):
        assert rows(E.Aggregate(E.RelationRef("r"), "AVG", "b"), ctx) == [(20,)]

    def test_min_max(self, ctx):
        assert rows(E.Aggregate(E.RelationRef("r"), "MIN", "a"), ctx) == [(1,)]
        assert rows(E.Aggregate(E.RelationRef("r"), "MAX", "a"), ctx) == [(3,)]

    def test_sum_empty_is_zero(self, ctx):
        assert rows(E.Aggregate(E.RelationRef("empty"), "SUM", "a"), ctx) == [(0,)]

    def test_min_empty_is_null(self, ctx):
        result = rows(E.Aggregate(E.RelationRef("empty"), "MIN", "a"), ctx)
        assert result[0][0] is NULL

    def test_count(self, ctx):
        assert rows(E.Count(E.RelationRef("r")), ctx) == [(3,)]
        assert rows(E.Count(E.RelationRef("empty")), ctx) == [(0,)]

    def test_multiplicity_counts_distinct(self, ctx):
        r_schema = RelationSchema("bag", [("a", INT)])
        ctx.bind("bag", Relation(r_schema, [(1,), (1,), (2,)], bag=True))
        assert rows(E.Count(E.RelationRef("bag")), ctx) == [(3,)]
        assert rows(E.Multiplicity(E.RelationRef("bag")), ctx) == [(2,)]

    def test_unknown_aggregate_rejected(self, ctx):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            E.Aggregate(E.RelationRef("r"), "MEDIAN", "a")


class TestRenameAndLiteral:
    def test_rename_relation(self, ctx):
        expr = E.Rename(E.RelationRef("r"), "renamed")
        assert expr.evaluate(ctx).schema.name == "renamed"

    def test_rename_attributes(self, ctx):
        expr = E.Rename(E.RelationRef("r"), "renamed", ("x", "y"))
        assert expr.evaluate(ctx).schema.attribute_names == ("x", "y")

    def test_rename_attribute_count_mismatch(self, ctx):
        expr = E.Rename(E.RelationRef("r"), "renamed", ("x",))
        with pytest.raises(TypeMismatchError):
            expr.evaluate(ctx)

    def test_literal(self, ctx):
        expr = E.Literal(((1, "a"), (2, "b")))
        assert len(expr.evaluate(ctx)) == 2

    def test_literal_ragged_rows_rejected(self):
        with pytest.raises(TypeMismatchError):
            E.Literal(((1, "a"), (2,)))

    def test_relations_collects_all_names(self):
        expr = E.Union(
            E.Select(E.RelationRef("a"), P.TRUE),
            E.SemiJoin(E.RelationRef("b"), E.RelationRef("c@plus"), P.TRUE),
        )
        assert expr.relations() == {"a", "b", "c@plus"}
