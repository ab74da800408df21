"""Mode-parity properties: static vs dynamic selectors, view consistency."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.modification import DynamicSelector, StaticSelector, mod_t
from repro.core.programs import IntegrityProgramStore, get_int_p
from repro.core.rules import IntegrityRule
from repro.engine import Session

from tests.properties import strategies as strat


@given(
    constraints=st.lists(strat.constraints(), min_size=1, max_size=4),
    txn=strat.transactions(),
)
@settings(max_examples=150, deadline=None)
def test_static_and_dynamic_modification_identical(constraints, txn):
    """Alg 6.2 is an implementation of Alg 5.1-5.3, not a new semantics:
    the produced transactions must be statement-for-statement equal
    (without differential specialization, which static mode adds)."""
    schema = strat.rs_schema()
    rules = [
        IntegrityRule(constraint, name=f"rule_{index}")
        for index, constraint in enumerate(constraints)
    ]
    store = IntegrityProgramStore()
    for rule in rules:
        store.add(get_int_p(rule, schema, differential=False))
    static = mod_t(txn, StaticSelector(store))
    dynamic = mod_t(txn, DynamicSelector(rules, schema))
    assert static.statements == dynamic.statements


@given(
    db=strat.databases(),
    constraint=strat.abortable_constraints(),
    txn=strat.transactions(),
)
@settings(max_examples=100, deadline=None)
def test_modification_is_deterministic(db, constraint, txn):
    from repro.core.subsystem import IntegrityController

    controller = IntegrityController(db.schema)
    controller.add_rule(IntegrityRule(constraint, name="only"))
    first = controller.modify_transaction(txn)
    second = controller.modify_transaction(txn)
    assert first.statements == second.statements


#: One view of every shape the delta rules cover, over the r/s schema.
VIEWS = {
    "big_r": "select(r, a >= 3)",
    "r_keys": "project(r, [a])",
    "r_join_s": "project(join(r, s, left.a = right.c), [1, 4])",
    "r_semi_s": "semijoin(r, s, left.b = right.c)",
    "r_anti_s": "antijoin(r, s, left.a = right.d)",
    "r_or_s": "union(r, s)",
    "r_not_s": "diff(r, s)",
    "r_and_s": "intersect(r, s)",
}


@given(
    db=strat.databases(),
    txns=st.lists(strat.transactions(), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_views_stay_consistent_under_random_transactions(db, txns):
    """View maintenance via ModT keeps stored views equal to their
    defining expressions after every committed transaction, with every
    shape maintained by its delta pieces."""
    from repro.core.subsystem import IntegrityController
    from repro.views import ViewManager

    controller = IntegrityController(db.schema)
    manager = ViewManager(db, controller)
    for name, expression in VIEWS.items():
        assert manager.define_view(name, expression).mode == "differential"
    session = Session(db, controller)
    for txn in txns:
        result = session.execute(txn)
        assert result.committed  # no integrity rules: only view maintenance
        for name in VIEWS:
            assert manager.verify_view(name), name


#: Compensating rules that undo some of a transaction's inserts, so a base
#: relation changes again after the user's statements.
CAPS = (
    "RULE cap_r WHEN INS(r) IF NOT (forall x)(x in r => x.a <= 3) "
    "THEN t := select(r, a > 3); delete(r, t)",
    "RULE cap_s WHEN INS(s) IF NOT (forall y)(y in s => y.d <= 3) "
    "THEN t := select(s, d > 3); delete(s, t); insert(r, project(t, [c, d]))",
)


@given(db=strat.databases(), txn=strat.transactions())
@settings(max_examples=100, deadline=None)
def test_views_stay_consistent_under_compensating_rules(db, txn):
    """Views defined before compensating rules still equal their
    definitions: their pieces run after the rules' last base write."""
    from repro.core.subsystem import IntegrityController
    from repro.views import ViewManager

    controller = IntegrityController(db.schema)
    manager = ViewManager(db, controller)
    for name, expression in VIEWS.items():
        manager.define_view(name, expression)
    for rule in CAPS:
        controller.add_rule(rule)
    result = Session(db, controller).execute(txn)
    assert result.committed
    for name in VIEWS:
        assert manager.verify_view(name), name


#: An aborting state rule and an aborting transition rule (every old key
#: keeps a row at least as large); the identity transition is legal for the
#: second on any state, so a consistent database is one the first holds on.
PREDICATE_RULES = {
    "cap": "(forall x in r)(x.a <= 4)",
    "keep": "(forall o in r@old)(exists x in r)(x.a = o.a and x.b >= o.b)",
}


@given(
    db=strat.databases(),
    txn=strat.transactions(),
    name=st.sampled_from(sorted(PREDICATE_RULES)),
)
@settings(max_examples=100, deadline=None)
def test_correct_transaction_predicate_matches_outcome(db, txn, name):
    """Def 3.5 classification agrees with modified execution for aborting
    state and transition rules on consistent databases: the predicate
    judges ``R@old`` as the pre-state, as the appended checks do."""
    import copy

    from repro.calculus.parser import parse_constraint
    from repro.core.subsystem import IntegrityController
    from repro.engine.session import DatabaseView
    from repro.calculus.evaluation import evaluate_constraint

    constraint = parse_constraint(PREDICATE_RULES[name])
    assume(evaluate_constraint(constraint, DatabaseView(db)))
    controller = IntegrityController(db.schema)
    controller.add_rule(IntegrityRule(constraint, name=name))

    classified_correct = controller.is_correct_transaction(db, txn)

    runtime_db = copy.deepcopy(db)
    session = Session(runtime_db, controller)
    result = session.execute(txn)
    assert result.committed == classified_correct
