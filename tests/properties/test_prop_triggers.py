"""Soundness of trigger-set generation (Alg 5.7).

The property that makes the whole subsystem safe: if executing an update
statement turns a satisfied constraint into a violated one, then that
statement's elementary update type **must** be in the generated trigger
set — otherwise ModT would not append the check and the violation would
slip through.

We test it directly: random constraint, random consistent database, random
single-update statement; whenever the constraint flips to violated, the
statement's triggers intersect ``generate_triggers(condition)``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.programs import Program, bracket
from repro.calculus.evaluation import evaluate_constraint
from repro.core.trigger_generation import generate_triggers
from repro.engine import Session
from repro.engine.session import DatabaseView

from tests.properties import strategies as strat


@st.composite
def single_update_statements(draw):
    relation = draw(st.sampled_from(["r", "s"]))
    rows = tuple(
        draw(
            st.lists(
                st.tuples(strat.VALUES, strat.VALUES), min_size=1, max_size=3
            )
        )
    )
    if draw(st.booleans()):
        return S.Insert(relation, E.Literal(rows))
    return S.Delete(relation, E.Literal(rows))


@given(
    db=strat.databases(),
    constraint=strat.constraints(),
    statement=single_update_statements(),
)
@settings(max_examples=400, deadline=None)
def test_violating_updates_are_always_triggered(db, constraint, statement):
    view = DatabaseView(db)
    assume(evaluate_constraint(constraint, view))

    session = Session(db)  # no integrity control: raw execution
    result = session.execute(bracket(Program([statement])))
    assert result.committed

    still_satisfied = evaluate_constraint(constraint, view)
    if not still_satisfied:
        triggers = generate_triggers(constraint)
        performed = statement.update_triggers()
        assert triggers & performed, (
            f"constraint became violated by {statement!r} but the generated "
            f"trigger set {sorted(triggers)} does not cover it"
        )


@given(constraint=strat.constraints())
@settings(max_examples=200, deadline=None)
def test_generated_triggers_mention_only_constraint_relations(constraint):
    from repro.calculus.analysis import relation_names

    triggers = generate_triggers(constraint)
    mentioned = relation_names(constraint)
    for _, relation in triggers:
        assert relation in mentioned


@given(constraint=strat.constraints())
@settings(max_examples=200, deadline=None)
def test_generated_triggers_nonempty_for_table1_families(constraint):
    assert generate_triggers(constraint)


@given(constraint=strat.constraints())
@settings(max_examples=200, deadline=None)
def test_double_negation_invariance(constraint):
    from repro.calculus import ast as C

    assert generate_triggers(C.Not(C.Not(constraint))) == generate_triggers(
        constraint
    )


@given(
    db=strat.databases(),
    checks=st.lists(st.sampled_from(["r", "s", "r@plus"]), min_size=1, max_size=2),
    body=st.lists(single_update_statements(), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_a_guard_performs_its_bodys_update_types_or_nothing(db, checks, body):
    """A guard may perform exactly its body's update types (GetTrigS), so
    ModP selects for a guarded action what it selects for the action.  Run,
    it performs the body when one check is non-empty, and nothing else."""
    import copy

    guard = S.Guard(tuple(E.RelationRef(name) for name in checks), tuple(body))
    assert guard.update_triggers() == S.statement_update_triggers(body)
    assert guard.relations_read() >= set(checks)

    fires = any(name != "r@plus" and len(db.relation(name)) for name in checks)
    expected = copy.deepcopy(db)
    if fires:
        assert Session(expected).execute(bracket(Program(body))).committed
    result = Session(db).execute(bracket(Program([guard])))
    assert result.committed
    for name in ("r", "s"):
        assert db.relation(name).to_set() == expected.relation(name).to_set()
    written = {name for name, (plus, minus) in result.differentials.items()}
    assert written <= {relation for _, relation in guard.update_triggers()}
    if not fires:
        assert not written
