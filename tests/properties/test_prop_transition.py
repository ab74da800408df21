"""Property: differential enforcement of transition constraints is exact.

``R@old`` is a transaction constant to the delta algebra, so a transition
rule's violation expression ``V(R, R@old)`` incrementalizes like any state
rule's.  The premise is Def 3.5 read for transitions: ``V`` is empty when
post- and pre-state are both the pre-transaction state — *the identity
transition is legal*.  On random such states and random transactions, the
delta variant and the full-state program must agree on commit/abort, on the
per-rule verdict, and on the violating-tuple set, for the semijoin,
antijoin (pre-state on either side) and difference shapes — through
``Session.execute``, through ``violated_constraints_incremental`` (``R@old``
rebuilt from the delta), and through a scheduler drain whose audits run
against a pinned epoch span while the live state has moved on.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.core.subsystem import IntegrityController
from repro.engine import Database, Session
from repro.engine.session import DeltaView

from . import strategies as S

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: name -> (constraint, shape of the translated violation expression)
RULES = {
    # values never decrease per key: r ⋉ r@old
    "mono": (
        "(forall x in r)(forall o in r@old)(x.a != o.a or x.b >= o.b)",
        E.SemiJoin,
    ),
    # no new keys: r ⊳ r@old
    "nonew": ("(forall x in r)(exists o in r@old)(x.a = o.a)", E.AntiJoin),
    # every old key keeps a row at least as large: r@old ⊳ r
    "keep": (
        "(forall o in r@old)(exists x in r)(x.a = o.a and x.b >= o.b)",
        E.AntiJoin,
    ),
    # nothing is added: r − r@old
    "frozen": ("(forall x)(x in r => x in r@old)", E.Difference),
}

# A bag difference counts occurrences (a second copy of an old row survives
# ``r − r@old``), which the delta rules' set inclusions do not cover and the
# membership atom it translates does not mean; the shape is set-mode only.
BAG_RULES = [name for name, (_, shape) in RULES.items() if shape is not E.Difference]

#: One row per key: the identity transition is legal for every rule above.
KEYED_ROWS = st.dictionaries(S.VALUES, S.VALUES, max_size=6).map(
    lambda rows: sorted(rows.items())
)


def _database(rows_r, rows_s, bag: bool, indexed: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    if indexed:
        database.create_index("r", ["a"])
    return database


def _controller(bag: bool, differential: bool = True) -> IntegrityController:
    controller = IntegrityController(S.rs_schema(), differential=differential)
    for name in BAG_RULES if bag else RULES:
        controller.add_constraint(name, RULES[name][0])
    return controller


def _full_rows(stored, view) -> set:
    """The rule's violating tuples by its full-state program."""
    return planner.evaluate(stored.program.statements[0].expr, view).to_set()


def test_rule_shapes_and_variants():
    controller = _controller(bag=False)
    for name, (_, shape) in RULES.items():
        stored = controller.store.get(name)
        assert isinstance(stored.program.statements[0].expr, shape)
        assert stored.differentials is not None, name
        # ... and each rule has exactly one trigger that can fire.
        live = [t for t, p in stored.differentials.items() if not p.is_empty]
        assert len(live) == 1 and "@" not in live[0][1]


@given(
    rows_r=KEYED_ROWS,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_modified_transactions_agree(rows_r, rows_s, txn, bag, indexed):
    outcomes = []
    for differential in (True, False):
        database = _database(rows_r, rows_s, bag, indexed)
        controller = _controller(bag, differential)
        assert controller.violated_constraints(database) == []  # the premise
        result = Session(database, controller).execute(txn)
        outcomes.append(
            (
                result.status,
                result.reason,
                database.relation("r").to_set(),
                database.relation("s").to_set(),
            )
        )
    assert outcomes[0] == outcomes[1]


@given(
    rows_r=KEYED_ROWS,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_incremental_audit_agrees_with_full_program(
    rows_r, rows_s, txn, bag, indexed
):
    database = _database(rows_r, rows_s, bag, indexed)
    controller = _controller(bag)
    result = Session(database).execute(txn)
    if not result.committed:
        return
    view = DeltaView(database, result.differentials)
    performed = view.performed_triggers()
    incremental = set(
        controller.violated_constraints_incremental(database, result)
    )
    for stored in controller.store:
        full = _full_rows(stored, view)
        assert (stored.name in incremental) == bool(full), stored.name
        delta: set = set()
        for statement in stored.action_for(stored.triggers & performed):
            delta |= planner.evaluate(statement.expr, view).to_set()
        assert delta == full, (
            f"violating tuples of {stored.name}: delta={sorted(delta)} "
            f"full={sorted(full)}"
        )


@given(
    rows_r=KEYED_ROWS,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    noise=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_span_pinned_audit_agrees_with_full_program(
    rows_r, rows_s, txn, noise, bag, indexed
):
    """The drained audit of a commit reads ``R`` and ``R@old`` from the
    commit's pinned post/pre epochs: a later commit must not change it."""
    database = _database(rows_r, rows_s, bag, indexed)
    controller = _controller(bag)
    with Session(database, controller) as session:
        result = session.commit(txn, audit="deferred")
        if not result.committed:
            return
        sequence = database.commit_log.next_sequence - 1
        view = DeltaView(database, result.differentials)
        truth = {
            stored.name: _full_rows(stored, view) for stored in controller.store
        }
        session.commit(noise, audit="deferred")
        audited = {
            outcome.rule: outcome
            for outcome in session.drain_audits(coalesce=False)
            if outcome.sequences == (sequence,)
        }
    for name, rows in truth.items():
        outcome = audited.get(name)  # no task: the delta cannot violate it
        assert not (outcome and outcome.failed)
        assert bool(outcome and outcome.violated) == bool(rows), name
        if outcome:
            assert set(outcome.violations) <= rows
