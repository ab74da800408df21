"""Property: plan ≡ ``Expression.evaluate``.

For random algebra expressions and random database states, the compiled
plan (whole-column kernels) — as written, under a context without a
database, and after the schema-aware rewrites, under one that exposes the
database — and the reference tree-walk interpreter (the row-semantics
oracle) must produce the exact same relation — tuples *and*
multiplicities — in set mode and bag mode, with and without hash indexes,
over plain and overlay inputs, and over NULL-bearing columns.  When one
raises, both must raise.  Each evaluation starts from a freshly loaded
database.

Also: the same holds over inputs decoded from the wire, and a
:class:`~repro.algebra.columnar.ColumnBatch` (the wire format of both
process executors) and the plain relation it decodes to must survive a
pickle round-trip, including across fork- and spawn-started child
processes.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algebra import columnar
from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.overlay import OverlayRelation
from repro.engine.schema import Attribute
from repro.engine.session import DatabaseView
from repro.engine.types import ANY, INT, NULL
from repro.errors import ReproError

from tests.support.modes import evaluations

from . import strategies as S

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MAYBE_NULL = st.one_of(S.VALUES, st.just(NULL))
NULL_ROWS = st.lists(st.tuples(MAYBE_NULL, MAYBE_NULL), max_size=8)


def _database(rows_r, rows_s, bag: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    return database


def _nullable_rs_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema(
                "r",
                [Attribute("a", INT, nullable=True), Attribute("b", INT, nullable=True)],
            ),
            RelationSchema(
                "s",
                [Attribute("c", INT, nullable=True), Attribute("d", INT, nullable=True)],
            ),
        ]
    )


def _run(fn):
    try:
        return fn(), None
    except ReproError as error:
        return None, error


def _assert_evaluations_agree(expression, make_context):
    """Evaluate the expression both ways over fresh inputs.

    ``make_context`` builds identical inputs per call, so each evaluation
    starts from the same state (index builds during one run cannot leak
    into the next).
    """
    outcomes = {
        label: _run(lambda: evaluate(make_context()))
        for label, evaluate in evaluations(expression)
    }
    ref_result, ref_error = outcomes["reference"]
    result, error = outcomes["plan"]
    if ref_error is not None or error is not None:
        assert ref_error is not None and error is not None, (
            f"error divergence on {expression!r}: "
            f"reference={ref_error!r} plan={error!r}"
        )
        return
    assert result == ref_result, (
        f"result divergence on {expression!r}:\n"
        f"  reference: {ref_result.sorted_rows()}\n"
        f"  plan: {result.sorted_rows()}"
    )
    assert len(result) == len(ref_result)


def _assert_agree_with_and_without_a_database(expression, make_database):
    """The plan as written and the plan after the database's rewrites."""

    def standalone():
        database = make_database()
        return StandaloneContext(
            {name: database.relation(name) for name in ("r", "s")}
        )

    _assert_evaluations_agree(expression, standalone)
    _assert_evaluations_agree(expression, lambda: DatabaseView(make_database()))


@given(
    expression=S.algebra_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_plans_equal_reference(expression, rows_r, rows_s, bag):
    _assert_agree_with_and_without_a_database(
        expression, lambda: _database(rows_r, rows_s, bag)
    )


@given(
    expression=S.algebra_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_plans_equal_reference_with_indexes(expression, rows_r, rows_s, bag):
    """Same property with hash indexes installed on every column.

    Indexed regimes (bucket-lookup selection, distinct-key semijoin
    probing) must agree with the reference.
    """

    def make_database():
        database = _database(rows_r, rows_s, bag)
        database.create_index("r", ["a"])
        database.create_index("s", ["d"])
        return database

    _assert_agree_with_and_without_a_database(expression, make_database)


@given(
    expression=S.algebra_queries(),
    rows_r=S.ROWS_R,
    extra_r=st.lists(st.tuples(S.VALUES, S.VALUES), max_size=4),
    gone_r=st.lists(st.tuples(S.VALUES, S.VALUES), max_size=4),
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_plans_equal_reference_over_overlays(
    expression, rows_r, extra_r, gone_r, rows_s, bag
):
    """Same property when ``r`` is an uncommitted transaction overlay."""

    def make_context():
        database = _database(rows_r, rows_s, bag)
        base = database.relation("r")
        plus = Relation(base.schema, bag=bag)
        minus = Relation(base.schema, bag=bag)
        for row in extra_r:
            if row not in base:
                plus.insert(row)
        for row in gone_r:
            # An overlay never removes more copies of a row than its base has.
            if row not in plus and minus.multiplicity(row) < base.multiplicity(row):
                minus.insert(row)
        overlay = OverlayRelation(base, plus, minus)
        return StandaloneContext({"r": overlay, "s": database.relation("s")})

    _assert_evaluations_agree(expression, make_context)


def _selected_malformed(ctor) -> E.Expression:
    """``cnt(σ[#1 < 0](σ[#1 = 0](s) <ctor> ()))``: the set operator's sides
    have arities 2 and 1, and the outer selection, pushed onto the left
    side, would empty it."""
    inner = E.Select(E.RelationRef("s"), P.Comparison("=", P.ColRef(1), P.Const(0)))
    outer = P.Comparison("<", P.ColRef(1), P.Const(0))
    return E.Count(E.Select(ctor(inner, E.Literal(())), outer))


@given(
    expression=S.algebra_queries(),
    rows_r=NULL_ROWS,
    rows_s=NULL_ROWS,
    bag=st.booleans(),
)
# The reference raises "difference: incompatible arities 2 vs 1"; pushing the
# selection through the difference emptied its left side, and ∅ − e skips e
# and the check (the plan answered [(0,)]).  Union and intersection evaluate
# both sides whatever they hold: pinned to show they do not share the hole.
@example(_selected_malformed(E.Difference), [], [(0, NULL)], False)
@example(_selected_malformed(E.Difference), [], [(0, NULL)], True)
@example(_selected_malformed(E.Intersection), [], [(0, NULL)], False)
@example(_selected_malformed(E.Union), [], [(0, NULL)], False)
@_SETTINGS
def test_plans_equal_reference_with_nulls(expression, rows_r, rows_s, bag):
    """Same property over nullable columns with NULL-bearing rows.

    Exercises the kernels' three-valued-logic branches: NULL propagation
    through arithmetic, unknown comparison outcomes, and the Kleene
    connectives' short-circuit row subsets.
    """

    def make_database():
        database = Database(_nullable_rs_schema(), bag=bag)
        database.load("r", rows_r)
        database.load("s", rows_s)
        return database

    _assert_agree_with_and_without_a_database(expression, make_database)


# -- select/project chains -------------------------------------------------------


@st.composite
def chain_queries(draw):
    """Chain-shaped expressions: select/project stages over scan or join.

    A selection directly over an equi-join is what the planner's pushdown
    rewrites, so drawing these shapes directly (instead of waiting for
    ``algebra_queries`` to stumble onto one) keeps the rewrite and the
    operators under it under constant pressure — including bag-mode joins
    through the counts-aware pair kernel, indexed semijoin regimes, and
    multi-stage stacks.
    """
    from repro.algebra import expressions as E
    from repro.algebra import predicates as P

    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        expression: E.Expression = E.RelationRef(draw(st.sampled_from(["r", "s"])))
        arity = 2
    elif kind == 1:
        expression = E.Join(
            E.RelationRef("r"), E.RelationRef("s"), draw(S.join_predicates())
        )
        arity = 4
    else:
        ctor = E.SemiJoin if kind == 2 else E.AntiJoin
        expression = ctor(
            E.RelationRef("r"), E.RelationRef("s"), draw(S.join_predicates())
        )
        arity = 2
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            expression = E.Select(expression, draw(S.unary_predicates()))
        else:
            items = tuple(
                E.ProjectItem(
                    P.ColRef(draw(st.integers(min_value=1, max_value=arity)))
                )
                for _ in range(2)
            )
            expression = E.Project(expression, items)
            arity = 2
    return expression


@given(
    expression=chain_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_plans_equal_reference_on_chains(expression, rows_r, rows_s, bag, indexed):
    """Chains agree with the reference, as written and with selections pushed."""

    def make_database():
        database = _database(rows_r, rows_s, bag)
        if indexed:
            database.create_index("r", ["b"])
            database.create_index("s", ["c"])
        return database

    _assert_agree_with_and_without_a_database(expression, make_database)


@given(
    expression=chain_queries(),
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    bag=st.booleans(),
)
@_SETTINGS
def test_plans_equal_reference_over_decoded_relations(expression, rows_r, rows_s, bag):
    """Same property when the inputs came through the wire codec.

    This is the state a process worker sees: each relation was packed
    into a ColumnBatch, pickled, and unpickled back into a plain relation.
    """

    def make_context():
        database = _database(rows_r, rows_s, bag)
        return StandaloneContext(
            {
                name: pickle.loads(
                    pickle.dumps(columnar.ColumnBatch(database.relation(name)))
                ).to_relation()
                for name in ("r", "s")
            }
        )

    _assert_evaluations_agree(expression, make_context)



# -- wire-format round-trips ---------------------------------------------------

MIXED_VALUES = st.one_of(
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.booleans(),
    st.just(NULL),
)


def _mixed_relation(rows, counts, bag: bool) -> Relation:
    schema = RelationSchema(
        "m",
        [Attribute("a", ANY, nullable=True), Attribute("b", ANY, nullable=True)],
    )
    relation = Relation(schema, bag=bag)
    for row, count in zip(rows, counts):
        for _ in range(count if bag else 1):
            relation.insert(row)
    return relation


@given(
    rows=st.lists(st.tuples(MIXED_VALUES, MIXED_VALUES), max_size=10, unique=True),
    counts=st.lists(st.integers(min_value=1, max_value=3), min_size=10, max_size=10),
    bag=st.booleans(),
)
@_SETTINGS
def test_column_batch_pickle_round_trip(rows, counts, bag):
    relation = _mixed_relation(rows, counts, bag)
    relation.declare_index((0,))
    batch = columnar.ColumnBatch(relation)
    revived = pickle.loads(pickle.dumps(batch)).to_relation()
    assert revived == relation
    assert len(revived) == len(relation)
    # Values must round-trip with exact types (bool stays bool, int stays
    # int), not merely dict-key-equal ones.
    assert {
        tuple(map(type, row)) for row in revived.rows()
    } == {tuple(map(type, row)) for row in relation.rows()}
    assert tuple(revived.indexes.specs()) == ((0,),)


def _echo_batch(blob, queue):
    batch = pickle.loads(blob)
    queue.put(pickle.dumps(batch))


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_column_batch_pickle_across_start_methods(start_method):
    """The wire format survives both process start methods end to end."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    relation = _mixed_relation(
        [(1, "x"), (2.5, NULL), (True, -300), (1 << 50, 0)], [2, 1, 3, 1], True
    )
    batch = columnar.ColumnBatch(relation)
    context = multiprocessing.get_context(start_method)
    queue = context.Queue()
    worker = context.Process(
        target=_echo_batch, args=(pickle.dumps(batch), queue)
    )
    worker.start()
    try:
        echoed = pickle.loads(queue.get(timeout=30))
    finally:
        worker.join(timeout=10)
    assert echoed.to_relation() == relation


@given(
    rows=st.lists(st.tuples(MIXED_VALUES, MIXED_VALUES), max_size=10, unique=True),
    counts=st.lists(st.integers(min_value=1, max_value=3), min_size=10, max_size=10),
    bag=st.booleans(),
)
@_SETTINGS
def test_a_decoded_relation_pickle_round_trip(rows, counts, bag):
    """A decoded relation re-ships, as rows or as columns, unchanged."""
    relation = _mixed_relation(rows, counts, bag)
    relation.declare_index((1,))
    decoded = pickle.loads(pickle.dumps(columnar.ColumnBatch(relation))).to_relation()
    for revived in (
        pickle.loads(pickle.dumps(decoded)),
        pickle.loads(pickle.dumps(columnar.ColumnBatch(decoded))).to_relation(),
    ):
        assert type(revived) is Relation
        assert len(revived) == len(relation)
        assert revived.distinct_count() == relation.distinct_count()
        assert revived == relation
        assert tuple(revived.indexes.specs()) == ((1,),)
        # Mutation after revival behaves like a plain relation.
        revived.insert((0, "fresh"))
        assert (
            revived.multiplicity((0, "fresh"))
            == relation.multiplicity((0, "fresh")) + 1
        )


def _reship_decoded(blob, queue):
    relation = pickle.loads(blob).to_relation()
    # Read the decoded relation, then re-ship it through the codec: the
    # worker-side round trip of a fragment install and its result.
    queue.put((len(relation), pickle.dumps(columnar.ColumnBatch(relation))))


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_decoded_relation_reships_across_start_methods(start_method):
    """A relation decoded in a child process ships back intact."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    relation = _mixed_relation(
        [(1, "x"), (2.5, NULL), (True, -300), (1 << 50, 0)], [2, 1, 3, 1], True
    )
    relation.declare_index((0,))
    context = multiprocessing.get_context(start_method)
    queue = context.Queue()
    worker = context.Process(
        target=_reship_decoded,
        args=(pickle.dumps(columnar.ColumnBatch(relation)), queue),
    )
    worker.start()
    try:
        cardinality, blob = queue.get(timeout=30)
    finally:
        worker.join(timeout=10)
    assert cardinality == len(relation)
    echoed = pickle.loads(blob).to_relation()
    assert type(echoed) is Relation
    assert echoed == relation
    assert tuple(echoed.indexes.specs()) == ((0,),)
