"""The ModT memo: sound, invalidated, and not shared.

``IntegrityController.modify_transaction`` serves the ModP
rounds from ``IntegrityProgramStore.modification`` (key = ``GetTrigPX`` of
the transaction).  The reference is the unmemoised algorithm:
``mod_t(transaction, StaticSelector(store), stats=...)``.
"""

import dataclasses
import itertools

import pytest

from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.parser import parse_transaction
from repro.algebra.programs import Program, bracket
from repro.core.modification import (
    DynamicSelector,
    ModificationStats,
    StaticSelector,
    mod_t,
)
from repro.core.subsystem import IntegrityController
from repro.engine import DatabaseSchema, RelationSchema
from repro.engine.types import INT
from repro.errors import IntegrityError
from repro.workloads.beer import beer_controller
from repro.workloads.employees import employees_controller
from repro.workloads.section7 import section7_controller


def star_controller() -> IntegrityController:
    from benchmarks.e2e.workloads import STAR_RULES, star_schema

    controller = IntegrityController(star_schema())
    for name, condition in STAR_RULES.items():
        controller.add_constraint(name, condition)
    return controller


def trigger_subsets(schema: DatabaseSchema):
    universe = [
        (kind, name) for name in schema.relation_names for kind in (S.INS, S.DEL)
    ]
    for size in range(len(universe) + 1):
        yield from itertools.combinations(universe, size)


def performing(schema: DatabaseSchema, triggers):
    """A transaction whose statements perform exactly ``triggers``."""
    statements = []
    for kind, name in triggers:
        if kind == S.INS:
            row = tuple(range(schema.relation(name).arity))
            statements.append(S.Insert(name, E.Literal((row,))))
        else:
            statements.append(S.Delete(name, E.RelationRef(name)))
    return bracket(Program(statements))


def assert_same_as_fresh_mod_t(controller, transaction):
    modified = controller.modify_transaction(transaction)
    stats = ModificationStats()
    reference = mod_t(transaction, StaticSelector(controller.store), stats=stats)
    assert modified.statements == reference.statements
    assert modified.name == reference.name
    assert (modified is transaction) == (reference is transaction)
    assert dataclasses.asdict(controller.last_stats) == dataclasses.asdict(stats)


@pytest.mark.parametrize(
    "make_controller",
    [beer_controller, employees_controller, section7_controller, star_controller],
)
def test_memoised_equals_fresh_mod_t_on_every_trigger_subset(make_controller):
    controller = make_controller()
    subsets = 0
    for triggers in trigger_subsets(controller.schema):
        transaction = performing(controller.schema, triggers)
        assert_same_as_fresh_mod_t(controller, transaction)  # fills the memo
        assert_same_as_fresh_mod_t(controller, transaction)  # served from it
        subsets += 1
    assert subsets == 4 ** len(controller.schema)


def test_non_triggering_and_empty_transactions_come_back_unchanged():
    controller = beer_controller()
    empty = bracket(Program())
    assert controller.modify_transaction(empty) is empty
    assert controller.last_stats == ModificationStats()
    quiet = bracket(
        Program([S.Delete("beer", E.RelationRef("beer"))], non_triggering=True)
    )
    assert controller.modify_transaction(quiet) is quiet


@pytest.fixture
def rs_controller():
    schema = DatabaseSchema(
        [RelationSchema("r", [("a", INT)]), RelationSchema("s", [("a", INT)])]
    )
    controller = IntegrityController(schema)
    controller.add_constraint("r_positive", "(forall x in r)(x.a > 0)")
    return controller


INSERT_R = "begin insert(r, (1,)); end"


class TestInvalidation:
    def test_add_rule(self, rs_controller):
        before = rs_controller.modify_transaction(parse_transaction(INSERT_R))
        rs_controller.add_constraint("r_small", "(forall x in r)(x.a < 10)")
        transaction = parse_transaction(INSERT_R)
        after = rs_controller.modify_transaction(transaction)
        assert len(after) == len(before) + 1
        assert rs_controller.last_stats.selected_rule_names == ("r_positive", "r_small")
        assert_same_as_fresh_mod_t(rs_controller, transaction)

    def test_remove_rule(self, rs_controller):
        transaction = parse_transaction(INSERT_R)
        assert rs_controller.modify_transaction(transaction) is not transaction
        rs_controller.remove_rule("r_positive")
        assert rs_controller.modify_transaction(transaction) is transaction
        assert rs_controller.last_stats == ModificationStats()

    def test_re_add_under_the_same_name(self, rs_controller):
        transaction = parse_transaction(INSERT_R)
        before = rs_controller.modify_transaction(transaction)
        rs_controller.remove_rule("r_positive")
        rs_controller.add_constraint("r_positive", "(forall x in r)(x.a > 100)")
        after = rs_controller.modify_transaction(transaction)
        assert after.statements != before.statements
        assert_same_as_fresh_mod_t(rs_controller, transaction)

    def test_store_mutation_drops_every_entry(self, rs_controller):
        store = rs_controller.store
        rs_controller.modify_transaction(parse_transaction(INSERT_R))
        rs_controller.modify_transaction(parse_transaction("begin delete(s, (1,)); end"))
        assert len(store._modifications) == 2
        rs_controller.add_constraint("s_positive", "(forall x in s)(x.a > 0)")
        assert not store._modifications
        rs_controller.modify_transaction(parse_transaction(INSERT_R))
        rs_controller.remove_rule("s_positive")
        assert not store._modifications


def test_last_stats_is_the_memos_read_only_record(rs_controller):
    transaction = parse_transaction(INSERT_R)
    rs_controller.modify_transaction(transaction)
    first = rs_controller.last_stats
    pristine = dataclasses.asdict(first)
    for field in dataclasses.fields(ModificationStats):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, field.name, getattr(first, field.name))
    with pytest.raises(AttributeError):
        first.selected_rule_names.append("tampered")
    rs_controller.modify_transaction(transaction)
    assert rs_controller.last_stats is first
    assert dataclasses.asdict(first) == pristine


def test_a_fresh_record_stays_writable():
    # mod_t fills the caller's record; only the memo's records are frozen.
    stats = ModificationStats()
    stats.rounds = 2
    stats.selected_rule_names += ("r",)
    assert stats == ModificationStats(rounds=2, selected_rule_names=("r",))
    assert stats.freeze() is stats
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.rounds = 3


def test_dynamic_selector_translates_on_every_call(monkeypatch):
    from repro.core import translation

    calls = []
    real = translation.trans_r
    monkeypatch.setattr(
        translation, "trans_r", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    controller = beer_controller()
    selector = DynamicSelector(controller.rules, controller.schema)
    defined = len(calls)
    transaction = parse_transaction(
        'begin insert(beer, ("a", "lager", "heineken", 5.0)); end'
    )
    first = mod_t(transaction, selector)
    once = len(calls) - defined
    second = mod_t(transaction, selector)
    assert once > 0 and len(calls) - defined == 2 * once
    assert first.statements == second.statements
    assert not controller.store._modifications


def test_cyclic_store_raises_on_every_call():
    schema = DatabaseSchema(
        [RelationSchema("a", [("x", INT)]), RelationSchema("b", [("x", INT)])]
    )
    controller = IntegrityController(schema)
    # a's repair inserts into b, b's repair inserts into a: no fixpoint.
    controller.add_constraint(
        "ab",
        "(forall x in a)(exists y in b)(x.x = y.x)",
        response="insert(b, project(a, [x]))",
    )
    controller.add_constraint(
        "ba",
        "(forall x in b)(exists y in a)(x.x = y.x)",
        response="insert(a, project(b, [x]))",
    )
    transaction = parse_transaction("begin insert(a, (1,)); end")
    for _ in range(2):
        with pytest.raises(IntegrityError, match="did not reach a fixpoint"):
            controller.modify_transaction(transaction)
    assert not controller.store._modifications
