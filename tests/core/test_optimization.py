"""OptC simplification and differential program specialization."""

import pytest

from repro.algebra import expressions as E
from repro.algebra.statements import Alarm
from repro.calculus import ast as C
from repro.calculus.parser import parse_constraint
from repro.core.optimization import (
    differential_programs,
    opt_c,
    opt_r,
    vacuous_triggers,
)
from repro.core.rules import IntegrityRule
from repro.core.translation import trans_c, trans_r
from repro.core.triggers import DEL, INS


class TestOptC:
    def test_double_negation(self):
        formula = parse_constraint("not not CNT(r) <= 10")
        assert opt_c(formula) == parse_constraint("CNT(r) <= 10")

    def test_and_true_elimination(self):
        formula = parse_constraint("(forall x in r)(1 = 1 and x.a > 0)")
        optimized = opt_c(formula)
        assert optimized == parse_constraint("(forall x in r)(x.a > 0)")

    def test_or_false_elimination(self):
        formula = parse_constraint("(forall x in r)(1 = 2 or x.a > 0)")
        assert opt_c(formula) == parse_constraint("(forall x in r)(x.a > 0)")

    def test_true_antecedent_elimination(self):
        formula = parse_constraint("(forall x in r)(1 = 1 => x.a > 0)")
        # The guard implication stays; the inner one simplifies.
        assert opt_c(formula) == parse_constraint("(forall x in r)(x.a > 0)")

    def test_false_consequent_becomes_negation(self):
        formula = parse_constraint("CNT(r) > 0 => 1 = 2")
        assert opt_c(formula) == C.Not(parse_constraint("CNT(r) > 0"))

    def test_opt_r_preserves_triggers_and_action(self):
        rule = IntegrityRule(
            parse_constraint("(forall x in r)(not not x.a > 0)"), name="t"
        )
        optimized = opt_r(rule)
        assert optimized.triggers == rule.triggers
        assert optimized.name == rule.name
        assert optimized.is_aborting
        assert optimized.condition == parse_constraint("(forall x in r)(x.a > 0)")


class TestDifferentialDomain:
    def test_domain_rule_specializes_to_plus(self, rs_pair):
        rule = IntegrityRule(parse_constraint("(forall x in r)(x.a > 0)"), name="d")
        program = trans_r(rule, rs_pair)
        variants = differential_programs(rule, program)
        assert variants is not None
        ins_program = variants[(INS, "r")]
        alarm = ins_program.statements[0]
        assert isinstance(alarm, Alarm)
        assert alarm.expr.input == E.Delta("r", "plus")
        assert alarm.expr.input.name == "r@plus"

    def test_domain_rule_del_variant_vacuous(self, rs_pair):
        rule = IntegrityRule(
            parse_constraint("(forall x in r)(x.a > 0)"),
            triggers=[("INS", "r"), ("DEL", "r")],
            name="d2",
        )
        program = trans_r(rule, rs_pair)
        variants = differential_programs(rule, program)
        assert variants[(DEL, "r")].is_empty
        assert vacuous_triggers(rule, program) == [(DEL, "r")]


class TestDifferentialReferential:
    @pytest.fixture
    def rule_and_program(self, rs_pair):
        rule = IntegrityRule(
            parse_constraint("(forall x in r)(exists y in s)(x.a = y.c)"),
            name="fk",
        )
        return rule, trans_r(rule, rs_pair)

    def test_triggers(self, rule_and_program):
        rule, _ = rule_and_program
        assert rule.triggers == {(INS, "r"), (DEL, "s")}

    def test_ins_referer_probes_plus(self, rule_and_program):
        rule, program = rule_and_program
        variants = differential_programs(rule, program)
        alarm = variants[(INS, "r")].statements[0]
        assert isinstance(alarm.expr, E.AntiJoin)
        assert alarm.expr.left == E.Delta("r", "plus")
        assert alarm.expr.right == E.RelationRef("s")

    def test_del_target_checks_affected_referers(self, rule_and_program):
        rule, program = rule_and_program
        variants = differential_programs(rule, program)
        alarm = variants[(DEL, "s")].statements[0]
        expr = alarm.expr
        assert isinstance(expr, E.AntiJoin)
        assert isinstance(expr.left, E.SemiJoin)
        assert expr.left.right == E.Delta("s", "minus")
        assert expr.right == E.RelationRef("s")


class TestDifferentialExclusion:
    def test_exclusion_specializes_both_inserts(self, rs_pair):
        rule = IntegrityRule(
            parse_constraint("(forall x in r)(forall y in s)(x.a != y.c)"),
            name="ex",
        )
        program = trans_r(rule, rs_pair)
        variants = differential_programs(rule, program)
        assert variants is not None
        left = variants[(INS, "r")].statements[0].expr
        assert left.left == E.Delta("r", "plus")
        right = variants[(INS, "s")].statements[0].expr
        assert right.right == E.Delta("s", "plus")


class TestUnsupportedShapes:
    def test_compensating_rules_not_specialized(self, rs_pair):
        from repro.algebra.parser import parse_program

        rule = IntegrityRule(
            parse_constraint("(forall x in r)(x.a > 0)"),
            action=parse_program("delete(r, where a <= 0)"),
            name="comp",
        )
        assert differential_programs(rule, rule.action_program()) is None

    def test_aggregate_rules_not_specialized(self, rs_pair):
        rule = IntegrityRule(parse_constraint("CNT(r) <= 10"), name="agg")
        program = trans_r(rule, rs_pair)
        assert differential_programs(rule, program) is None
        assert vacuous_triggers(rule, program) == []

    def test_multi_statement_program_not_specialized(self, rs_pair):
        from repro.algebra.parser import parse_program

        rule = IntegrityRule(parse_constraint("(forall x in r)(x.a > 0)"), name="m")
        assert (
            differential_programs(rule, parse_program("abort; abort")) is None
        )


class TestBooleanCombinations:
    """A condition outside the one-piece fragment compiles to one alarm per
    CNF clause, and each alarm gets its own per-trigger Δ-programs."""

    DOMAIN = "(forall x in r)(x.a > 0)"
    REFERENTIAL = "(forall x in r)((exists y in s)(x.a = y.c))"

    def test_conjunction_specializes_each_clause(self, rs_pair):
        rule = IntegrityRule(
            parse_constraint(f"{self.DOMAIN} and {self.REFERENTIAL}"), name="both"
        )
        program = trans_r(rule, rs_pair)
        assert [statement.message for statement in program] == ["both", "both"]
        variants = differential_programs(rule, program)
        assert len(variants[(INS, "r")]) == 2  # both clauses read r@plus
        assert len(variants[(DEL, "s")]) == 1  # only the referential one

    def test_disjunction_specializes_its_clause(self, rs_pair):
        rule = IntegrityRule(
            parse_constraint(f"{self.DOMAIN} or {self.REFERENTIAL}"), name="either"
        )
        program = trans_r(rule, rs_pair)
        assert len(program) == 1 and isinstance(program.statements[0], Alarm)
        variants = differential_programs(rule, program)
        assert variants is not None
        for trigger in [(INS, "r"), (DEL, "s")]:
            (alarm,) = variants[trigger].statements
            assert alarm.message == "either"

    def test_residue_keeps_the_full_check(self, rs_pair):
        residue = (
            "(forall x in r)(not (exists y in s)"
            "(x.a = y.c and (exists z in s)(z.c = x.a and z.d = y.d)))"
        )
        rule = IntegrityRule(
            parse_constraint(f"{self.DOMAIN} and {residue}"), name="mixed"
        )
        assert differential_programs(rule, trans_r(rule, rs_pair)) is None
