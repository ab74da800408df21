"""ModT / ModP: the transaction modification fixpoint (Algs 5.1-5.3, 6.2)."""

import pytest

from repro.algebra.parser import parse_program, parse_transaction
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm
from repro.calculus.parser import parse_constraint
from repro.core.modification import (
    DynamicSelector,
    ModificationStats,
    StaticSelector,
    mod_p,
    mod_t,
)
from repro.core.programs import IntegrityProgramStore, get_int_p
from repro.core.rules import IntegrityRule
from repro.core.translation import CheckConstraint
from repro.engine import DatabaseSchema, RelationSchema
from repro.engine.types import INT
from repro.errors import IntegrityError


@pytest.fixture
def abc_schema():
    return DatabaseSchema(
        [
            RelationSchema("a", [("x", INT)]),
            RelationSchema("b", [("x", INT)]),
            RelationSchema("c", [("x", INT)]),
        ]
    )


def make_store(rules, schema, differential=False):
    store = IntegrityProgramStore()
    for rule in rules:
        store.add(get_int_p(rule, schema, differential=differential))
    return store


class TestFixpoint:
    def test_no_rules_returns_same_program(self, abc_schema):
        program = parse_program("insert(a, (1,))")
        selector = StaticSelector(make_store([], abc_schema))
        assert mod_p(program, selector) is program

    def test_no_matching_triggers_returns_same(self, abc_schema):
        rule = IntegrityRule(parse_constraint("(forall x in b)(x.x > 0)"), name="rb")
        selector = StaticSelector(make_store([rule], abc_schema))
        program = parse_program("insert(a, (1,))")
        assert mod_p(program, selector) is program

    def test_aborting_rule_appended_once(self, abc_schema):
        rule = IntegrityRule(parse_constraint("(forall x in a)(x.x > 0)"), name="ra")
        selector = StaticSelector(make_store([rule], abc_schema))
        program = parse_program("insert(a, (1,))")
        stats = ModificationStats()
        modified = mod_p(program, selector, stats=stats)
        assert len(modified) == 2
        assert isinstance(modified.statements[1], Alarm)
        assert stats.rounds == 1
        assert stats.selected_rule_names == ("ra",)

    def test_read_only_transaction_unmodified(self, abc_schema):
        rule = IntegrityRule(parse_constraint("(forall x in a)(x.x > 0)"), name="ra")
        selector = StaticSelector(make_store([rule], abc_schema))
        txn = parse_transaction("begin t := select(a, x > 0); end")
        assert mod_t(txn, selector) is txn

    def test_mod_t_renames(self, abc_schema):
        rule = IntegrityRule(parse_constraint("(forall x in a)(x.x > 0)"), name="ra")
        selector = StaticSelector(make_store([rule], abc_schema))
        txn = parse_transaction("begin insert(a, (1,)); end")
        modified = mod_t(txn, selector)
        assert modified is not txn
        assert modified.name.endswith("+ic")


class TestCascades:
    def chain_rules(self):
        """A compensating chain: updates to a repair into b, b into c."""
        rule_ab = IntegrityRule(
            parse_constraint("(forall x in a)(exists y in b)(x.x = y.x)"),
            action=parse_program("insert(b, diff(a, b))"),
            name="ab",
        )
        rule_bc = IntegrityRule(
            parse_constraint("(forall x in b)(exists y in c)(x.x = y.x)"),
            action=parse_program("insert(c, diff(b, c))"),
            name="bc",
        )
        return [rule_ab, rule_bc]

    def test_transitive_triggering(self, abc_schema):
        selector = StaticSelector(make_store(self.chain_rules(), abc_schema))
        program = parse_program("insert(a, (1,))")
        stats = ModificationStats()
        modified = mod_p(program, selector, stats=stats)
        # Round 1 appends ab's repair (insert into b); round 2 appends bc's
        # repair (insert into c); round 3 finds nothing new.
        assert stats.rounds == 2
        assert stats.selected_rule_names == ("ab", "bc")
        assert len(modified) == 3

    def test_rule_reselected_across_rounds(self, abc_schema):
        # bc's action inserts into c; a second rule on c aborts -> the
        # alarm is appended after bc's repair.
        rules = self.chain_rules() + [
            IntegrityRule(parse_constraint("(forall x in c)(x.x > 0)"), name="cc")
        ]
        selector = StaticSelector(make_store(rules, abc_schema))
        program = parse_program("insert(a, (1,))")
        stats = ModificationStats()
        modified = mod_p(program, selector, stats=stats)
        assert stats.selected_rule_names == ("ab", "bc", "cc")
        assert len(modified) == 4


class TestCycleGuard:
    def cyclic_rules(self):
        # Rule pushes tuples from a to b, rule2 pushes them back: a cycle.
        rule_ab = IntegrityRule(
            parse_constraint("(forall x in a)(exists y in b)(x.x = y.x)"),
            action=parse_program("insert(b, diff(a, b))"),
            name="ab",
        )
        rule_ba = IntegrityRule(
            parse_constraint("(forall x in b)(exists y in a)(x.x = y.x)"),
            action=parse_program("insert(a, diff(b, a))"),
            name="ba",
        )
        return [rule_ab, rule_ba]

    def test_cycle_hits_round_limit(self, abc_schema):
        selector = StaticSelector(make_store(self.cyclic_rules(), abc_schema))
        program = parse_program("insert(a, (1,))")
        with pytest.raises(IntegrityError, match="fixpoint"):
            mod_p(program, selector, max_rounds=10)

    def test_non_triggering_breaks_cycle(self, abc_schema):
        rule_ab, rule_ba = self.cyclic_rules()
        quiet_ba = IntegrityRule(
            rule_ba.condition,
            action=Program(rule_ba.action_program().statements, non_triggering=True),
            name="ba_quiet",
        )
        selector = StaticSelector(make_store([rule_ab, quiet_ba], abc_schema))
        program = parse_program("insert(a, (1,))")
        modified = mod_p(program, selector)
        # ab repairs b, quiet_ba repairs a without re-triggering ab.
        assert len(modified) == 3


class TestSelectors:
    def rule(self):
        return IntegrityRule(parse_constraint("(forall x in a)(x.x > 0)"), name="ra")

    def test_static_and_dynamic_agree(self, abc_schema):
        rule = self.rule()
        static = StaticSelector(make_store([rule], abc_schema))
        dynamic = DynamicSelector([rule], abc_schema)
        program = parse_program("insert(a, (1,))")
        assert mod_p(program, static) == mod_p(program, dynamic)

    def test_dynamic_without_optimization(self, abc_schema):
        rule = self.rule()
        dynamic = DynamicSelector([rule], abc_schema, optimize=False)
        program = parse_program("insert(a, (1,))")
        modified = mod_p(program, dynamic)
        assert len(modified) == 2

    def test_idempotent_for_aborting_rules(self, abc_schema):
        rule = self.rule()
        selector = StaticSelector(make_store([rule], abc_schema))
        program = parse_program("insert(a, (1,))")
        once = mod_p(program, selector)
        twice = mod_p(once, selector)
        # Alarm statements carry no update triggers, so a second
        # modification pass appends the same alarm again only for the
        # original insert; the fixpoint was already reached.
        assert twice == once + Program([once.statements[1]])

    def test_differential_store_appends_specialized_program(self, abc_schema):
        rule = self.rule()
        store = make_store([rule], abc_schema, differential=True)
        program = parse_program("insert(a, (1,))")
        modified = mod_p(program, StaticSelector(store))
        alarm = modified.statements[1]
        from repro.algebra import expressions as E

        assert alarm.expr.input == E.Delta("a", "plus")
