"""Properties of the modification fixpoint itself.

The paper's headline guarantee (Section 5.1): executing a *modified*
transaction can never leave the database in a state violating the rules —
either the transaction commits and the post-state is correct, or it aborts
and the pre-state is kept (atomicity).  We also check the equivalence with
the check-after-execute baseline and the soundness of the differential
optimization.
"""

import pickle

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.algebra.parser import parse_transaction
from repro.calculus.parser import parse_constraint
from repro.core.modification import ModificationStats, StaticSelector, mod_t
from repro.core.programs import IntegrityProgramStore, get_int_p
from repro.core.rules import IntegrityRule
from repro.engine import Database, Session
from repro.engine.session import DatabaseView

from tests.properties import strategies as strat


def build_controller(db, constraints, differential):
    from repro.core.subsystem import IntegrityController

    controller = IntegrityController(db.schema, differential=differential)
    for index, constraint in enumerate(constraints):
        controller.add_rule(IntegrityRule(constraint, name=f"rule_{index}"))
    return controller


def consistent(db, constraints) -> bool:
    from repro.calculus.evaluation import evaluate_constraint

    view = DatabaseView(db)
    return all(evaluate_constraint(c, view, validate=False) for c in constraints)


@given(
    db=strat.databases(),
    constraints=strat.abortable_constraints(),
    txn=strat.transactions(),
)
@settings(max_examples=200, deadline=None)
def test_committed_modified_transactions_preserve_consistency(
    db, constraints, txn
):
    constraints = [constraints]
    assume(consistent(db, constraints))
    controller = build_controller(db, constraints, differential=False)
    session = Session(db, controller)
    result = session.execute(txn)
    if result.committed:
        assert consistent(db, constraints)


@given(
    db=strat.databases(),
    constraint=strat.abortable_constraints(),
    txn=strat.transactions(),
)
@settings(max_examples=200, deadline=None)
def test_abort_preserves_pre_state(db, constraint, txn):
    constraints = [constraint]
    assume(consistent(db, constraints))
    before = db.snapshot()
    controller = build_controller(db, constraints, differential=False)
    session = Session(db, controller)
    result = session.execute(txn)
    if result.aborted:
        for name, relation in before.items():
            assert db.relation(name).to_set() == relation.to_set()


@given(
    db=strat.databases(),
    constraint=strat.abortable_constraints(),
    txn=strat.transactions(),
)
@settings(max_examples=200, deadline=None)
def test_modified_execution_equals_check_after_execute(db, constraint, txn):
    """For aborting state rules, the modified transaction commits exactly
    when executing unmodified and auditing afterwards finds no violation."""
    constraints = [constraint]
    assume(consistent(db, constraints))

    import copy

    baseline_db = copy.deepcopy(db)
    controller = build_controller(db, constraints, differential=False)
    session = Session(db, controller)
    verdict_modified = session.execute(txn).committed

    baseline_session = Session(baseline_db)
    baseline_session.execute(txn)
    verdict_baseline = consistent(baseline_db, constraints)

    assert verdict_modified == verdict_baseline


def _example_database(rows_r, rows_s) -> Database:
    database = Database(strat.rs_schema())
    database.load("r", rows_r)
    database.load("s", rows_s)
    return database


@st.composite
def _aborting_cases(draw):
    constraint = draw(
        st.one_of(
            strat.abortable_constraints(),
            strat.boolean_combinations(),
            strat.boolean_combinations(strat.denial_constraints()),
        )
    )
    rule = IntegrityRule(constraint, name="rule_0")
    return draw(strat.databases()), rule, draw(strat.transactions()), None


@given(case=st.one_of(_aborting_cases(), strat.repair_cases()))
# Two clauses, and the insert violates only the second one's Δ-check.
@example(
    case=(
        _example_database([(1, 1)], [(1, 0)]),
        IntegrityRule(
            parse_constraint(
                "(forall x in r)(x.a >= 0) and "
                "(forall x in r)((exists y in s)(x.a = y.c))"
            ),
            name="rule_0",
        ),
        parse_transaction("begin insert(r, (2, 2)); end"),
        None,
    )
)
@settings(max_examples=300, deadline=None)
def test_differential_and_full_enforcement_agree(case):
    """Soundness of §5.2.1: differential checks give the same verdict as
    full-state checks, given a consistent pre-state (Def 3.5).  Boolean
    combinations compile to one alarm per CNF clause, each with its own
    per-trigger Δ-programs.  An R2-shaped compensating rule's action reads
    the Δ⁺ of its condition's violations where its read is them
    (``recognised``), keeps its full-state read otherwise, and reaches the
    same final state either way.

    A recognised action runs guarded by its matched Δ-checks, so one that
    also writes unconditionally is skipped exactly when none fires: when
    the transaction itself leaves the condition's check program (the
    alarms the Δ-checks derive from) empty.  The full-state action runs on
    every matched trigger."""
    import copy

    from repro.calculus.planned import evaluate_constraint_planned
    from repro.core.subsystem import IntegrityController

    db, rule, txn, recognised = case
    assume(consistent(db, [rule.condition]))
    outcomes = []
    for differential in (False, True):
        database = copy.deepcopy(db)
        controller = IntegrityController(database.schema, differential=differential)
        controller.add_rule(rule)
        if recognised is not None and differential:
            assert (controller.store.get(rule.name).repair is not None) == recognised
        committed = Session(database, controller).execute(txn).committed
        outcomes.append(
            (
                committed,
                committed
                and {
                    name: database.relation(name).to_set()
                    for name in database.relation_names
                },
            )
        )
    unconditional = strat.UNCONDITIONAL_ROW
    if not (recognised and unconditional in _literal_rows(rule.action_program())):
        assert outcomes[0] == outcomes[1]
        return
    raw = copy.deepcopy(db)
    committed = Session(raw).execute(txn).committed
    fired = committed and not evaluate_constraint_planned(
        rule.condition, DatabaseView(raw)
    )
    if fired:
        # (The repair may abort, inserting a NULL into ``s.c``.)
        assert outcomes[0] == outcomes[1]
        assert not outcomes[1][0] or unconditional in outcomes[1][1]["s"]
    else:
        assert outcomes[1] == (
            committed,
            committed
            and {name: raw.relation(name).to_set() for name in raw.relation_names},
        )


def _literal_rows(program) -> set:
    from repro.algebra import expressions as E

    return {
        row
        for statement in program
        if isinstance(getattr(statement, "expr", None), E.Literal)
        for row in statement.expr.rows
    }


@given(db=strat.databases(), constraint=strat.abortable_constraints())
@settings(max_examples=100, deadline=None)
def test_modification_of_readonly_transaction_is_identity(db, constraint):
    from repro.algebra.parser import parse_transaction

    store = IntegrityProgramStore()
    rule = IntegrityRule(constraint, name="only")
    store.add(get_int_p(rule, db.schema))
    txn = parse_transaction("begin t := select(r, a > 0); end")
    assert mod_t(txn, StaticSelector(store)) is txn


@given(
    db=strat.databases(),
    constraint=strat.abortable_constraints(),
    txn=strat.transactions(),
)
@settings(max_examples=100, deadline=None)
def test_modification_statistics_consistent(db, constraint, txn):
    store = IntegrityProgramStore()
    rule = IntegrityRule(constraint, name="only")
    store.add(get_int_p(rule, db.schema))
    stats = ModificationStats()
    modified = mod_t(txn, StaticSelector(store), stats=stats)
    assert len(modified.statements) == len(txn.statements) + stats.statements_appended
    assert stats.rules_selected == len(stats.selected_rule_names)


@given(
    db=strat.databases(),
    other_r=strat.ROWS_R,
    other_s=strat.ROWS_S,
    constraints=st.lists(strat.abortable_constraints(), min_size=1, max_size=3),
    txns=st.lists(strat.transactions(), min_size=1, max_size=4),
    differential=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_one_controller_serves_a_database_its_fork_and_its_pickle(
    db, other_r, other_s, constraints, txns, differential
):
    """One controller's stored programs, run alternately against a database,
    its ``fork()`` and an unpickled copy — each holding different rows —
    give each database's own answer: a database's plan table is its own,
    starts empty in a fork and in a copy, and never answers for another.

    The expected answers come from twins: databases of the same rows built
    from scratch, each behind a controller of its own.
    """
    fork = db.fork()
    fork.load("r", other_r)
    copied = pickle.loads(pickle.dumps(db))
    copied.load("s", other_s)
    controller = build_controller(db, constraints, differential)
    shared = [Session(database, controller) for database in (db, fork, copied)]
    twins = []
    for database in (db, fork, copied):
        twin = Database(database.schema, bag=database.bag)
        for name in database.relation_names:
            twin.load(name, database.relation(name).rows())
        twins.append(Session(twin, build_controller(twin, constraints, differential)))
    for txn in txns:
        for mine, twin in zip(shared, twins):
            result, expected = mine.execute(txn), twin.execute(txn)
            assert result.status == expected.status
            assert result.reason == expected.reason
            assert result.statements_executed == expected.statements_executed
            assert (result.tuples_inserted, result.tuples_deleted) == (
                expected.tuples_inserted,
                expected.tuples_deleted,
            )
            for name in mine.database.relation_names:
                assert (
                    mine.database.relation(name).sorted_rows()
                    == twin.database.relation(name).sorted_rows()
                ), name
            assert mine.verify_integrity() == twin.verify_integrity()


def test_a_plan_table_starts_empty_in_a_fork_and_in_an_unpickled_copy():
    from repro.algebra import planner
    from repro.algebra.parser import parse_expression

    db = Database(strat.rs_schema())
    db.load("r", [(1, 2), (3, 4)])
    expression = parse_expression("semijoin(r, s, left.a = right.c)")
    plan = planner.database_plan(expression, db)
    assert list(db.plans) == [expression]
    assert db.plans[expression] is plan
    text = "select(r, a = 1)"
    rows = Session(db).rows(text)
    parsed = db.query_texts[text]
    for other in (db.fork(), pickle.loads(pickle.dumps(db))):
        assert other.plans == {}
        assert other.query_texts == {}
        # A plan is the expression's and the schema's: the copy serves the
        # same object from its own table.
        assert planner.database_plan(expression, other) is plan
        assert list(other.plans) == [expression]
        assert other.plans[expression] is plan
        assert Session(other).rows(text) == rows
        assert list(other.query_texts) == [text]
        assert other.query_texts[text] is not parsed  # parsed afresh
        other.plans.clear()
        other.query_texts.clear()
    assert list(db.plans) == [expression, parsed]
    assert db.query_texts == {text: parsed}
