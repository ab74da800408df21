"""Unit tests for the general delta-rewrite transform (algebra.delta)."""

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.delta import (
    NotIncrementalizable,
    delta_expression,
    old_expression,
)
from repro.algebra.evaluation import StandaloneContext
from repro.algebra.physical import DeltaScanOp
from repro.algebra.planner import get_plan
from repro.engine import Relation, RelationSchema
from repro.engine.types import INT
from repro.errors import EvaluationError

INS_R = ("INS", "r")
DEL_R = ("DEL", "r")
INS_S = ("INS", "s")
DEL_S = ("DEL", "s")

LINK = P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right"))
R = E.RelationRef("r")
S = E.RelationRef("s")


class TestDeltaNode:
    def test_name_follows_auxiliary_convention(self):
        assert E.Delta("r", "plus").name == "r@plus"
        assert E.Delta("r", "minus").name == "r@minus"

    def test_invalid_kind_rejected(self):
        with pytest.raises(EvaluationError):
            E.Delta("r", "old")

    def test_auxiliary_base_rejected(self):
        with pytest.raises(EvaluationError):
            E.Delta("r@plus", "plus")

    def test_evaluates_through_name_resolution(self):
        schema = RelationSchema("r", [("a", INT), ("b", INT)])
        ctx = StandaloneContext({"r@plus": Relation(schema, [(1, 2)])})
        assert E.Delta("r", "plus").evaluate(ctx).to_set() == {(1, 2)}

    def test_relations_reports_auxiliary_name(self):
        assert E.Delta("r", "plus").relations() == {"r@plus"}

    def test_lowered_to_delta_scan(self):
        plan = get_plan(E.Select(E.Delta("r", "plus"), P.TRUE))
        # The optimizer strips σ_true, leaving the bare delta scan.
        assert isinstance(plan, DeltaScanOp)


class TestTableEquivalents:
    """The eight rows of the old pattern table, from the general rules."""

    def test_domain_insert(self):
        expr = E.Select(R, P.Comparison("<", P.ColRef("a"), P.Const(0)))
        assert delta_expression(expr, [INS_R]) == E.Select(
            E.Delta("r", "plus"), expr.predicate
        )

    def test_domain_delete_vacuous(self):
        expr = E.Select(R, P.Comparison("<", P.ColRef("a"), P.Const(0)))
        assert delta_expression(expr, [DEL_R]) is None

    def test_referential_insert_referer(self):
        expr = E.AntiJoin(R, S, LINK)
        assert delta_expression(expr, [INS_R]) == E.AntiJoin(
            E.Delta("r", "plus"), S, LINK
        )

    def test_referential_delete_target(self):
        expr = E.AntiJoin(R, S, LINK)
        assert delta_expression(expr, [DEL_S]) == E.AntiJoin(
            E.SemiJoin(R, E.Delta("s", "minus"), LINK), S, LINK
        )

    def test_referential_vacuous_triggers(self):
        expr = E.AntiJoin(R, S, LINK)
        assert delta_expression(expr, [DEL_R]) is None
        assert delta_expression(expr, [INS_S]) is None

    def test_exclusion_inserts(self):
        expr = E.SemiJoin(R, S, LINK)
        assert delta_expression(expr, [INS_R]) == E.SemiJoin(
            E.Delta("r", "plus"), S, LINK
        )
        assert delta_expression(expr, [INS_S]) == E.SemiJoin(
            R, E.Delta("s", "plus"), LINK
        )

    def test_exclusion_deletes_vacuous(self):
        expr = E.SemiJoin(R, S, LINK)
        assert delta_expression(expr, [DEL_R]) is None
        assert delta_expression(expr, [DEL_S]) is None


class TestBeyondTheTable:
    """Shapes the old eight-row table could not incrementalize."""

    def test_union_distributes(self):
        pred = P.Comparison("<", P.ColRef(1), P.Const(0))
        expr = E.Union(E.Select(R, pred), E.Select(S, pred))
        assert delta_expression(expr, [INS_R]) == E.Select(
            E.Delta("r", "plus"), pred
        )
        both = delta_expression(expr, [INS_R, INS_S])
        assert both == E.Union(
            E.Select(E.Delta("r", "plus"), pred),
            E.Select(E.Delta("s", "plus"), pred),
        )

    def test_difference_insert_left(self):
        expr = E.Difference(R, S)
        assert delta_expression(expr, [INS_R]) == E.Difference(
            E.Delta("r", "plus"), S
        )

    def test_difference_delete_right_unblocks(self):
        expr = E.Difference(R, S)
        assert delta_expression(expr, [DEL_S]) == E.Intersection(
            R, E.Delta("s", "minus")
        )

    def test_intersection_insert(self):
        expr = E.Intersection(R, S)
        assert delta_expression(expr, [INS_R]) == E.Intersection(
            E.Delta("r", "plus"), S
        )
        assert delta_expression(expr, [DEL_R]) is None

    def test_join_insert_both_sides(self):
        expr = E.Join(R, S, LINK)
        both = delta_expression(expr, [INS_R, INS_S])
        assert both == E.Union(
            E.Join(E.Delta("r", "plus"), S, LINK),
            E.Join(R, E.Delta("s", "plus"), LINK),
        )

    def test_projection_commutes_with_plus(self):
        items = (E.ProjectItem(P.ColRef(1)),)
        expr = E.Project(E.Select(R, P.TRUE), items)
        assert delta_expression(expr, [INS_R]) == E.Project(
            E.Select(E.Delta("r", "plus"), P.TRUE), items
        )

    def test_nested_antijoin_over_select(self):
        # alarm(σ_p(R) ⊳ S): the pattern table required bare refs.
        pred = P.Comparison(">", P.ColRef("a"), P.Const(0))
        expr = E.AntiJoin(E.Select(R, pred), S, LINK)
        assert delta_expression(expr, [INS_R]) == E.AntiJoin(
            E.Select(E.Delta("r", "plus"), pred), S, LINK
        )
        assert delta_expression(expr, [DEL_S]) == E.AntiJoin(
            E.SemiJoin(E.Select(R, pred), E.Delta("s", "minus"), LINK), S, LINK
        )

    def test_self_referential_antijoin(self):
        # employee.manager references employee.id — both sides move.
        expr = E.AntiJoin(R, R, LINK)
        assert delta_expression(expr, [INS_R]) == E.AntiJoin(
            E.Delta("r", "plus"), R, LINK
        )
        assert delta_expression(expr, [DEL_R]) == E.AntiJoin(
            E.SemiJoin(R, E.Delta("r", "minus"), LINK), R, LINK
        )

    def test_unmentioned_relation_vacuous(self):
        # Triggers on relations the check never reads are provably vacuous.
        expr = E.Select(R, P.TRUE)
        assert delta_expression(expr, [("INS", "unrelated")]) is None

    def test_minus_delta_of_semijoin_uses_old_state(self):
        expr = E.SemiJoin(R, S, LINK)
        minus = delta_expression(expr, [DEL_S], kind="minus")
        assert minus == E.AntiJoin(
            E.SemiJoin(E.RelationRef("r@old"), E.Delta("s", "minus"), LINK),
            S,
            LINK,
        )
        minus_left = delta_expression(expr, [DEL_R], kind="minus")
        # The side this trigger does not touch is read in its pre-state too:
        # another trigger of the same transaction may have changed it.
        assert minus_left == E.SemiJoin(
            E.Delta("r", "minus"), E.RelationRef("s@old"), LINK
        )


class TestHonestFailure:
    def test_aggregate_over_changed_input(self):
        expr = E.Select(
            E.Count(R), P.Comparison("=", P.ColRef(1), P.Const(0))
        )
        with pytest.raises(NotIncrementalizable):
            delta_expression(expr, [INS_R])

    def test_aggregate_over_untouched_input_vacuous_elsewhere(self):
        # σ over r semijoined against an aggregate of s: INS(r) keeps the
        # aggregate side untouched, so it incrementalizes.
        agg = E.Aggregate(S, "SUM", "c")
        pred = P.Comparison("<", P.ColRef("a", "left"), P.ColRef(1, "right"))
        expr = E.SemiJoin(R, agg, pred)
        assert delta_expression(expr, [INS_R]) == E.SemiJoin(
            E.Delta("r", "plus"), agg, pred
        )
        with pytest.raises(NotIncrementalizable):
            delta_expression(expr, [INS_S])

    @pytest.mark.parametrize("name", ["r@plus", "r@minus"])
    def test_differential_read_as_relation_rejected(self, name):
        expr = E.Difference(R, E.RelationRef(name))
        with pytest.raises(NotIncrementalizable):
            delta_expression(expr, [INS_R])


class TestTransitionConstraints:
    """``R@old`` is a transaction constant: Δ⁺ = Δ⁻ = ∅, old(R@old) = R@old."""

    OLD = E.RelationRef("r@old")

    def test_difference_against_pre_state(self):
        # "Nothing may be added": R − R@old  ⇒  r@plus − r@old.
        expr = E.Difference(R, self.OLD)
        assert delta_expression(expr, [INS_R]) == E.Difference(
            E.Delta("r", "plus"), self.OLD
        )

    def test_delete_only_trigger_vacuous(self):
        # Deleting can only shrink R − R@old.
        assert delta_expression(E.Difference(R, self.OLD), [DEL_R]) is None

    def test_semijoin_against_pre_state(self):
        # The salary-monotone shape: only the new rows are compared.
        lower = P.And(
            LINK, P.Comparison("<", P.ColRef("b", "left"), P.ColRef("b", "right"))
        )
        expr = E.SemiJoin(R, self.OLD, lower)
        assert delta_expression(expr, [INS_R]) == E.SemiJoin(
            E.Delta("r", "plus"), self.OLD, lower
        )
        assert delta_expression(expr, [DEL_R]) is None

    def test_antijoin_against_pre_state(self):
        # "Every row descends from a pre-state row": deletes cannot unblock,
        # because the blocker side never changes.
        expr = E.AntiJoin(R, self.OLD, LINK)
        assert delta_expression(expr, [INS_R]) == E.AntiJoin(
            E.Delta("r", "plus"), self.OLD, LINK
        )
        assert delta_expression(expr, [DEL_R]) is None

    def test_pre_state_on_the_left(self):
        # "Nothing may disappear": R@old − R grows only by deletes.
        expr = E.Difference(self.OLD, R)
        assert delta_expression(expr, [INS_R]) is None
        assert delta_expression(expr, [DEL_R]) == E.Intersection(
            self.OLD, E.Delta("r", "minus")
        )

    def test_pre_state_alone_is_untouched(self):
        assert delta_expression(E.Select(self.OLD, P.TRUE), [INS_R, DEL_R]) is None

    def test_old_expression_keeps_pre_state_leaves(self):
        expr = E.SemiJoin(R, self.OLD, LINK)
        assert old_expression(expr) == E.SemiJoin(self.OLD, self.OLD, LINK)


class TestOldExpression:
    def test_touched_relations_become_old(self):
        # Untouched ones too: another trigger may have changed them.
        expr = E.SemiJoin(R, S, LINK)
        assert old_expression(expr) == E.SemiJoin(
            E.RelationRef("r@old"), E.RelationRef("s@old"), LINK
        )

    def test_pre_state_and_relation_free_expressions_are_identity(self):
        pre_state = E.SemiJoin(E.RelationRef("r@old"), E.Literal(((1, 2),)), LINK)
        assert old_expression(pre_state) is pre_state
        literal = E.Literal(((1, 2),))
        assert old_expression(literal) is literal

    def test_witness_chain_pieces_read_each_others_pre_state(self):
        # a ⊳ (b ⋉ c): a transaction deleting both links of a chain must
        # see the chain from each piece, so neither reads the other's
        # post-state.
        a, b, c = E.RelationRef("a"), E.RelationRef("b"), E.RelationRef("c")
        link = P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right"))
        witnessed = E.SemiJoin(b, c, link)
        chain = E.AntiJoin(a, witnessed, LINK)

        def unwitnessed(lost):
            return E.AntiJoin(E.SemiJoin(a, lost, LINK), witnessed, LINK)

        assert delta_expression(chain, [("DEL", "b")]) == unwitnessed(
            E.SemiJoin(E.Delta("b", "minus"), E.RelationRef("c@old"), link)
        )
        assert delta_expression(chain, [("DEL", "c")]) == unwitnessed(
            E.AntiJoin(
                E.SemiJoin(E.RelationRef("b@old"), E.Delta("c", "minus"), link),
                c,
                link,
            )
        )
