"""Property: join and semijoin chains run as written, and match the reference.

For random join and semijoin/antijoin chains over a three-relation schema,
the plan a database serves (:func:`repro.algebra.planner.database_plan`)
must evaluate to exactly the same relation (contents *and* column order)
as the reference interpreter, in set and bag mode, with and without hash
indexes — and it must be the plan of the chain in its written order,
whatever the relations hold.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.session import DatabaseView
from repro.engine.types import INT

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VALUES = st.integers(min_value=0, max_value=4)
ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=10)

#: attribute names per relation — globally unique, so chain predicates
#: may name any column of any input.
ATTRS = {"r": ("a", "b"), "s": ("c", "d"), "t": ("e", "f")}


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema(name, [(attrs[0], INT), (attrs[1], INT)])
            for name, attrs in ATTRS.items()
        ]
    )


def _database(rows_r, rows_s, rows_t, bag: bool, indexed: bool) -> Database:
    database = Database(_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    database.load("t", rows_t)
    if indexed:
        database.create_index("s", ["c"])
        database.create_index("t", ["e"])
    return database


@st.composite
def _eq(draw, left_rel: str, right_rel: str) -> P.Predicate:
    left = draw(st.sampled_from(ATTRS[left_rel]))
    right = draw(st.sampled_from(ATTRS[right_rel]))
    return P.Comparison(
        "=", P.ColRef(left, "left"), P.ColRef(right, "right")
    )


@st.composite
def join_chains(draw) -> E.Expression:
    """A left-deep 3-input equi-join chain, linear or star shaped."""
    p1 = draw(_eq("r", "s"))
    # p2 joins the (r ⋈ s) prefix with t from either prefix relation.
    anchor = draw(st.sampled_from(["r", "s"]))
    p2 = draw(_eq(anchor, "t"))
    extra = draw(st.booleans())
    if extra:  # a second conjunct on the outer join, possibly cross-input
        p2 = P.And(p2, draw(_eq(draw(st.sampled_from(["r", "s"])), "t")))
    return E.Join(
        E.Join(E.RelationRef("r"), E.RelationRef("s"), p1),
        E.RelationRef("t"),
        p2,
    )


@st.composite
def semi_chains(draw) -> E.Expression:
    """A chain of 2-3 semijoins/antijoins over r, with varied predicates."""
    node: E.Expression = E.RelationRef("r")
    count = draw(st.integers(min_value=2, max_value=3))
    for _ in range(count):
        right = draw(st.sampled_from(["s", "t"]))
        ctor = draw(st.sampled_from([E.SemiJoin, E.AntiJoin]))
        predicate: P.Predicate = draw(_eq("r", right))
        if draw(st.booleans()):  # non-equi residuals are chain-safe too
            predicate = P.And(
                predicate,
                P.Comparison(
                    draw(st.sampled_from(["<", "<=", "!="])),
                    P.ColRef(draw(st.sampled_from(ATTRS["r"])), "left"),
                    P.Const(draw(VALUES)),
                ),
            )
        node = ctor(node, E.RelationRef(right), predicate)
    return node


def _assert_runs_as_written(expression, database):
    view = DatabaseView(database)
    plan = planner.database_plan(expression, database)
    assert plan is planner.get_plan(
        planner.push_selections(expression, database.schema)
    )
    baseline = expression.evaluate(view)
    candidate = plan.execute(view)
    assert candidate == baseline, (
        f"the plan changed the result\n  expression: {expression}\n"
        f"  baseline:  {baseline.sorted_rows()}\n"
        f"  candidate: {candidate.sorted_rows()}"
    )
    assert [a.name for a in candidate.schema.attributes] == [
        a.name for a in baseline.schema.attributes
    ]


@given(
    rows_r=ROWS,
    rows_s=ROWS,
    rows_t=ROWS,
    chain=join_chains(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_join_chain_plans_match_the_reference(
    rows_r, rows_s, rows_t, chain, bag, indexed
):
    database = _database(rows_r, rows_s, rows_t, bag, indexed)
    _assert_runs_as_written(chain, database)


@given(
    rows_r=ROWS,
    rows_s=ROWS,
    rows_t=ROWS,
    chain=semi_chains(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_semi_chain_plans_match_the_reference(
    rows_r, rows_s, rows_t, chain, bag, indexed
):
    database = _database(rows_r, rows_s, rows_t, bag, indexed)
    _assert_runs_as_written(chain, database)


def test_a_chain_runs_in_its_written_order():
    """A star chain written large-first is planned large-first: the plan
    is the expression's, however small the last relation is."""
    database = _database(
        [(i % 5, i % 3) for i in range(40)],
        [(i % 5, i % 7) for i in range(200)],
        [(i % 3, 0) for i in range(3)],
        bag=False,
        indexed=False,
    )
    eq = lambda l, r: P.Comparison(  # noqa: E731
        "=", P.ColRef(l, "left"), P.ColRef(r, "right")
    )
    chain = E.Join(
        E.Join(E.RelationRef("r"), E.RelationRef("s"), eq("a", "c")),
        E.RelationRef("t"),
        eq("b", "e"),
    )
    listing = planner.database_plan(chain, database).explain()
    assert listing.index("scan(s)") < listing.index("scan(t)")
    view = DatabaseView(database)
    assert planner.evaluate(chain, view) == chain.evaluate(view)


def test_positional_chains_match_the_reference():
    database = _database([(1, 2)], [(1, 3)], [(2, 4)], False, False)
    join_chain = E.Join(
        E.Join(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.Comparison("=", P.ColRef(1, "left"), P.ColRef(1, "right")),
        ),
        E.RelationRef("t"),
        P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
    )
    semi_chain = E.SemiJoin(
        E.SemiJoin(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.Comparison("=", P.ColRef(1, "left"), P.ColRef(1, "right")),
        ),
        E.RelationRef("t"),
        P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
    )
    for chain in (join_chain, semi_chain):
        _assert_runs_as_written(chain, database)
