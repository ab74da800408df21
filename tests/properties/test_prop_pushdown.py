"""Property: selection pushdown below equi-joins is exact.

``planner.push_selections`` rewrites ``σ[p_l ∧ p_r ∧ p](L ⋈ R)`` into
``σ[p](σ[p_l](L) ⋈ σ[p_r](R))`` where a database is in reach.  For drawn
selections over joins — set and bag mode, NULL join keys, nullable
columns, built / declared / no index on the join-key and the selected
columns of either side, predicates mixing left-only, right-only,
mixed-side, constant and division-carrying conjuncts with named *and*
positional references — ``planner.evaluate`` under a ``DatabaseView``, under
a transaction overlay and under an epoch pin must equal
``Expression.evaluate`` on rows and multiplicities, and must raise exactly
when the reference raises.

The explicit examples pin the *shape* of the plan ``database_plan`` returns:
what moves, what stays above the join, what is left exactly as written.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.schema import Attribute
from repro.engine.session import DatabaseView
from repro.engine.transaction import TransactionContext
from repro.engine.types import INT, NULL
from repro.errors import EvaluationError, ReproError
from tests.support.modes import index_usage

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _schema() -> DatabaseSchema:
    def relation(name, *columns):
        return RelationSchema(name, [Attribute(c, INT, nullable=True) for c in columns])

    return DatabaseSchema(
        [relation("r", "a", "b"), relation("s", "c", "d"), relation("t", "e", "f")]
    )


SCHEMA = _schema()
COLUMNS = {"r": ("a", "b"), "s": ("c", "d"), "t": ("e", "f")}

# Zero is a frequent divisor and NULL a frequent join key, on purpose.
VALUE = st.one_of(st.integers(min_value=0, max_value=3), st.just(NULL))
ROWS = st.lists(st.tuples(VALUE, VALUE), max_size=6)
INDEX_STATE = st.sampled_from(["none", "declared", "built"])
_COMPARE = st.sampled_from(["<", "<=", "=", "!=", ">=", ">"])


# -- drawn expressions -----------------------------------------------------------


@st.composite
def _ref(draw, names, offset, named=True):
    """A reference to one of ``names``, the columns starting at ``offset``."""
    position = draw(st.integers(min_value=0, max_value=len(names) - 1))
    if named and draw(st.booleans()):
        return P.ColRef(names[position])
    side = draw(st.sampled_from([None, None, "left"]))  # unary: left == None
    return P.ColRef(offset + position + 1, side)


@st.composite
def _scalar(draw, ref):
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        return P.Const(draw(VALUE))
    if shape == 1:
        return draw(ref)
    op = draw(st.sampled_from(["+", "-", "*"]))
    return P.Arith(op, draw(ref), draw(st.one_of(ref, st.just(P.Const(1)))))


@st.composite
def _total_atom(draw, ref, other=None):
    """A comparison / IS NULL over ``ref`` columns (and ``other``'s, when
    given: a mixed-side atom) that cannot raise."""
    right = other if other is not None else ref
    shape = draw(st.integers(min_value=0, max_value=4))
    if shape == 0 and other is None:
        return P.IsNull(draw(ref))
    atom = P.Comparison(draw(_COMPARE), draw(ref), draw(_scalar(right)))
    if shape == 1:
        return P.Not(atom)
    if shape == 2:
        return P.Or(atom, P.Comparison(draw(_COMPARE), draw(right), P.Const(draw(VALUE))))
    return atom


@st.composite
def _dividing_atom(draw, ref, other=None):
    divisor = draw(other if other is not None else ref)
    quotient = P.Arith("/", draw(st.one_of(ref, st.just(P.Const(6)))), divisor)
    return P.Comparison(draw(_COMPARE), quotient, P.Const(draw(VALUE)))


_CONSTANT_ATOMS = st.sampled_from(
    [
        P.TRUE,
        P.Comparison("=", P.Const(1), P.Const(1)),
        P.Comparison("<", P.Const(2), P.Const(1)),
        P.Comparison("=", P.Const(NULL), P.Const(1)),
    ]
)


def _and_tree(draw, conjuncts):
    """The conjuncts under a randomly associated ``And`` tree, in order."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    cut = draw(st.integers(min_value=1, max_value=len(conjuncts) - 1))
    return P.And(_and_tree(draw, conjuncts[:cut]), _and_tree(draw, conjuncts[cut:]))


@st.composite
def queries(draw, dividing=None):
    """``[π] σ[p] [σ[q]] (L ⋈ R)`` with ``L`` a relation or itself a join.

    ``dividing`` forces (True) or forbids (False) a division-carrying
    conjunct or join key; None leaves it to the draw.
    """
    left: E.Expression = E.RelationRef("r")
    left_names = COLUMNS["r"]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        left = E.Join(
            left,
            E.RelationRef("t"),
            P.Comparison("=", P.ColRef("a", "left"), P.ColRef("e", "right")),
        )
        left_names += COLUMNS["t"]
    # A self-join repeats every name: nothing may move, and a name denotes
    # the left copy's column — so the right copy is read by position only.
    right_name = draw(st.sampled_from(["s", "s", "s", "r"]))
    right_names = COLUMNS[right_name]
    left_ref = _ref(left_names, 0)
    right_ref = _ref(right_names, len(left_names), named=right_name != "r")

    allow_division = dividing is not False
    key = P.Comparison(
        "=",
        draw(st.sampled_from([P.ColRef("b", "left"), P.ColRef(2, "left")])),
        draw(st.sampled_from([P.ColRef(right_names[0], "right"), P.ColRef(1, "right")])),
    )
    join_shape = draw(st.integers(min_value=0, max_value=7))
    if join_shape == 0:  # a residual: the join is not a pure equi-join
        key = P.And(key, P.Comparison("<=", P.ColRef(1, "left"), P.ColRef(2, "right")))
    elif join_shape == 1 and allow_division:  # a key expression that can raise
        key = P.Comparison(
            "=",
            P.Arith("/", P.ColRef("b", "left"), P.ColRef("a", "left")),
            P.ColRef(1, "right"),
        )
    elif join_shape == 2:  # a second, computed, key
        key = P.And(
            key,
            P.Comparison(
                "=",
                P.Arith("+", P.ColRef(1, "left"), P.Const(1)),
                P.ColRef(2, "right"),
            ),
        )
    join = E.Join(left, E.RelationRef(right_name), key)

    kinds = [
        _total_atom(left_ref),
        _total_atom(right_ref),
        _total_atom(left_ref, right_ref),
        _total_atom(right_ref, left_ref),
        _CONSTANT_ATOMS,
    ]
    conjuncts = [
        draw(draw(st.sampled_from(kinds)))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    if dividing or (allow_division and draw(st.integers(min_value=0, max_value=3)) == 0):
        atom = draw(
            st.one_of(
                _dividing_atom(left_ref),
                _dividing_atom(right_ref),
                _dividing_atom(left_ref, right_ref),
            )
        )
        conjuncts.insert(draw(st.integers(min_value=0, max_value=len(conjuncts))), atom)

    expression: E.Expression = join
    if len(conjuncts) > 1 and draw(st.booleans()):  # a cascade of two selections
        cut = draw(st.integers(min_value=1, max_value=len(conjuncts) - 1))
        expression = E.Select(expression, _and_tree(draw, conjuncts[:cut]))
        conjuncts = conjuncts[cut:]
    expression = E.Select(expression, _and_tree(draw, conjuncts))
    if draw(st.booleans()):
        arity = len(left_names) + len(right_names)
        expression = E.Project(
            expression,
            tuple(
                E.ProjectItem(P.ColRef(draw(st.integers(min_value=1, max_value=arity))))
                for _ in range(2)
            ),
        )
    return expression


@st.composite
def states(draw):
    """Rows per relation, set/bag mode, and an index state per column."""
    return {
        "rows": {name: draw(ROWS) for name in COLUMNS},
        "bag": draw(st.booleans()),
        "indexes": {
            (name, position): draw(INDEX_STATE)
            for name in COLUMNS
            for position in (0, 1)
        },
    }


def _database(state) -> Database:
    database = Database(_schema(), bag=state["bag"])
    for name, rows in state["rows"].items():
        database.load(name, rows)
    for (name, position), index_state in state["indexes"].items():
        if index_state == "built":
            database.relation(name).index_on((position,))
        elif index_state == "declared":
            database.relation(name).declare_index((position,))
    return database


def _outcome(evaluate):
    try:
        result = evaluate()
    except ReproError as error:
        return type(error)
    return result.bag, sorted(result.items(), key=repr)


def _assert_plan_equals_reference(expression, make_context, make_reference_context=None):
    """Each side evaluates over inputs built afresh, so an index one run
    builds cannot serve the other."""
    reference = _outcome(
        lambda: expression.evaluate((make_reference_context or make_context)())
    )
    planned = _outcome(lambda: planner.evaluate(expression, make_context()))
    assert planned == reference, (
        f"divergence on {expression!r}:\n"
        f"  reference: {reference}\n"
        f"  plan:      {planned}\n"
        f"  pushed:    {planner.push_selections(expression, SCHEMA)!r}"
    )


# -- the property, under the three kinds of database-bearing context -------------------


@given(expression=queries(), state=states())
@_SETTINGS
def test_pushed_plans_equal_reference_under_a_database_view(expression, state):
    _assert_plan_equals_reference(expression, lambda: DatabaseView(_database(state)))


@given(expression=queries(dividing=True), state=states())
@_SETTINGS
def test_a_selection_that_divides_raises_exactly_when_the_reference_does(
    expression, state
):
    """Zero is a frequent divisor: the reference raises in a good share of
    these, and the plan must raise with it — and only with it."""
    _assert_plan_equals_reference(expression, lambda: DatabaseView(_database(state)))


CHANGES = st.fixed_dictionaries(
    {name: st.tuples(ROWS, ROWS) for name in ("r", "s")}  # (inserted, deleted)
)


def _transaction(database, changes) -> TransactionContext:
    context = TransactionContext(database)
    for name, (inserted, deleted) in changes.items():
        context.delete_rows(name, deleted)
        context.insert_rows(name, inserted)
    return context


@given(expression=queries(), state=states(), changes=CHANGES)
@_SETTINGS
def test_pushed_plans_equal_reference_under_a_transaction_overlay(
    expression, state, changes
):
    _assert_plan_equals_reference(
        expression, lambda: _transaction(_database(state), changes)
    )


@given(expression=queries(), state=states(), changes=CHANGES)
@_SETTINGS
def test_pushed_plans_equal_reference_under_a_pin(expression, state, changes):
    """The plan reads the pinned epoch through snapshot relations while the
    live relations have moved on; the reference reads a database that never
    changed."""
    pins = []

    def pinned_view():
        database = _database(state)
        pin = database.epochs.pin()
        pins.append(pin)
        database.apply_deltas(_transaction(database, changes).net_differentials())
        return DatabaseView(database, pin=pin)

    try:
        _assert_plan_equals_reference(
            expression, pinned_view, lambda: DatabaseView(_database(state))
        )
    finally:
        for pin in pins:
            pin.release()


def test_the_drawn_shapes_reach_both_sides_of_the_rewrite():
    """The strategy draws expressions the rewrite fires on — moving
    conjuncts to the left, to the right, with a rest kept above — and
    expressions it must leave alone because something in them divides."""

    def rewritten(expression):
        pushed = planner.push_selections(expression, SCHEMA)
        return None if pushed is expression else pushed

    def below_the_project(expression):
        return expression.input if isinstance(expression, E.Project) else expression

    def moved(side, kept_above):
        def check(expression):
            pushed = rewritten(expression)
            if pushed is None:
                return False
            top = below_the_project(pushed)
            join = top.input if isinstance(top, E.Select) else top
            return (
                isinstance(join, E.Join)
                and isinstance(getattr(join, side), E.Select)
                and isinstance(top, E.Select) == kept_above
            )

        return check

    for side in ("left", "right"):
        for kept_above in (False, True):
            find(queries(dividing=False), moved(side, kept_above))
    find(queries(dividing=True), lambda expression: rewritten(expression) is None)


# -- plan shapes -----------------------------------------------------------------------


@pytest.fixture
def db() -> Database:
    database = Database(_schema())
    database.load("r", [(i, i % 7) for i in range(40)])
    database.load("s", [(j % 7, j * 2) for j in range(25)])
    return database


def _cmp(op, left, right):
    return P.Comparison(op, left, right)


def _join(right="s") -> E.Expression:
    return E.Join(
        E.RelationRef("r"),
        E.RelationRef(right),
        _cmp("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
    )


def _project(source, *positions) -> E.Expression:
    return E.Project(source, tuple(E.ProjectItem(P.ColRef(p)) for p in positions))


def _shape(op) -> tuple:
    """The plan as nested ``(operator name, *children)`` tuples."""
    return (type(op).__name__, *map(_shape, op.children()))


R_SCAN, S_SCAN = ("ScanOp",), ("ScanOp",)


def _predicates(plan) -> dict:
    """``{operator path: predicate}`` for every selection in the plan."""
    found = {}

    def visit(op, path):
        if isinstance(op, X.FilterOp):
            found[path] = op._pred.predicate
        for position, child in enumerate(op.children()):
            visit(child, path + (position,))

    visit(plan, ())
    return found


class TestPlanShapes:
    def _agrees(self, expression, db):
        view = DatabaseView(db)
        assert planner.evaluate(expression, view) == expression.evaluate(view)

    def test_a_right_side_selection_moves_to_the_build_input(self, db):
        expression = _project(
            E.Select(_join(), _cmp("<", P.ColRef(4), P.Const(30))), 1, 4
        )
        plan = planner.database_plan(expression, db)
        assert _shape(plan) == (
            "ProjectOp",
            ("HashJoinOp", R_SCAN, ("FilterOp", S_SCAN)),
        )
        # Position 4 above the join is position 2 of ``s`` below it.
        assert _predicates(plan) == {(0, 1): _cmp("<", P.ColRef(2), P.Const(30))}
        self._agrees(expression, db)

    def test_a_left_side_selection_moves_to_the_probe_input(self, db):
        expression = _project(E.Select(_join(), _cmp("<", P.ColRef(1), P.Const(20))), 4)
        plan = planner.database_plan(expression, db)
        assert _shape(plan) == (
            "ProjectOp",
            ("HashJoinOp", ("FilterOp", R_SCAN), S_SCAN),
        )
        assert _predicates(plan) == {(0, 0): _cmp("<", P.ColRef(1), P.Const(20))}
        self._agrees(expression, db)

    def test_stacked_selections_move_to_both_inputs(self, db):
        expression = _project(
            E.Select(
                E.Select(_join(), _cmp("<", P.ColRef("d"), P.Const(30))),
                _cmp("<", P.ColRef(1), P.Const(20)),
            ),
            1,
            4,
        )
        plan = planner.database_plan(expression, db)
        assert _shape(plan) == (
            "ProjectOp",
            ("HashJoinOp", ("FilterOp", R_SCAN), ("FilterOp", S_SCAN)),
        )
        assert _predicates(plan) == {
            (0, 0): _cmp("<", P.ColRef(1), P.Const(20)),
            (0, 1): _cmp("<", P.ColRef("d"), P.Const(30)),  # a name stays a name
        }
        self._agrees(expression, db)

    def test_a_partially_pushable_conjunction_leaves_a_residual_above(self, db):
        # (d < 30) AND (a < d): the right-side conjunct moves below the
        # join, the mixed one stays as a selection over it.
        mixed = _cmp("<", P.ColRef(1), P.ColRef(4))
        expression = _project(
            E.Select(_join(), P.And(_cmp("<", P.ColRef(4), P.Const(30)), mixed)), 1
        )
        plan = planner.database_plan(expression, db)
        assert _shape(plan) == (
            "ProjectOp",
            ("FilterOp", ("HashJoinOp", R_SCAN, ("FilterOp", S_SCAN))),
        )
        assert _predicates(plan) == {
            (0,): mixed,
            (0, 0, 1): _cmp("<", P.ColRef(2), P.Const(30)),
        }
        self._agrees(expression, db)

    def test_a_selection_moves_through_a_join_of_joins(self, db):
        db.load("t", [(i, i) for i in range(10)])
        inner = E.Join(
            E.RelationRef("r"),
            E.RelationRef("t"),
            _cmp("=", P.ColRef("a", "left"), P.ColRef("e", "right")),
        )
        outer = E.Join(
            inner, E.RelationRef("s"), _cmp("=", P.ColRef("b", "left"), P.ColRef("c", "right"))
        )
        expression = E.Select(
            outer, P.And(_cmp(">", P.ColRef("f"), P.Const(2)), _cmp("<", P.ColRef(6), P.Const(30)))
        )
        plan = planner.database_plan(expression, db)
        assert _shape(plan) == (
            "HashJoinOp",
            ("HashJoinOp", R_SCAN, ("FilterOp", ("ScanOp",))),
            ("FilterOp", S_SCAN),
        )
        self._agrees(expression, db)

    @pytest.mark.parametrize(
        "predicate",
        [
            _cmp("<", P.ColRef(1), P.ColRef(4)),
            _cmp("<", P.Arith("/", P.ColRef(4), P.Const(2)), P.Const(10)),
            # Something that divides anywhere in the selection pins all of
            # it: moving ``d < 30`` would change which pairs reach the
            # division, and with them whether it raises.
            P.And(
                _cmp("<", P.ColRef(4), P.Const(30)),
                _cmp("<", P.Arith("/", P.Const(10), P.ColRef("a")), P.Const(10)),
            ),
            _cmp("=", P.Const(1), P.Const(1)),
            _cmp("<", P.ColRef(4, "right"), P.Const(30)),
            _cmp("<", P.ColRef("nowhere"), P.Const(30)),
            _cmp("<", P.ColRef(5), P.Const(30)),
        ],
        ids=[
            "mixed-side",
            "division",
            "division-beside-a-pushable-conjunct",
            "constant",
            "right-tagged",
            "unknown-name",
            "out-of-range",
        ],
    )
    def test_what_cannot_move_leaves_the_plan_as_written(self, db, predicate):
        expression = _project(E.Select(_join(), predicate), 1)
        assert planner.push_selections(expression, db.schema) is expression
        assert planner.database_plan(expression, db) is planner.get_plan(expression)

    def test_an_attribute_name_on_both_inputs_is_not_pushed(self, db):
        # r ⋈ r: above the join the right copy's columns are a_2 / b_2, so
        # neither a name nor a position may be read as below it.
        for predicate in (
            _cmp("<", P.ColRef("a"), P.Const(20)),
            _cmp("<", P.ColRef(4), P.Const(3)),
        ):
            expression = E.Select(_join("r"), predicate)
            assert planner.database_plan(expression, db) is planner.get_plan(expression)
            self._agrees(expression, db)

    def test_a_join_with_a_residual_or_a_dividing_key_is_left_alone(self, db):
        residual = E.Join(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.And(
                _cmp("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
                _cmp("<=", P.ColRef(1, "left"), P.ColRef(2, "right")),
            ),
        )
        dividing = E.Join(
            E.RelationRef("r"),
            E.RelationRef("s"),
            _cmp("=", P.Arith("/", P.ColRef(1, "left"), P.ColRef(2, "left")), P.ColRef(1, "right")),
        )
        for join in (residual, dividing):
            expression = E.Select(join, _cmp("<", P.ColRef(4), P.Const(30)))
            assert planner.push_selections(expression, db.schema) is expression

    def test_a_pushed_equality_over_a_bare_relation_is_an_index_lookup(self, db):
        db.create_index("s", ["d"])
        expression = _project(E.Select(_join(), _cmp("=", P.ColRef(4), P.Const(24))), 1, 4)
        plan = planner.database_plan(expression, db)
        assert _shape(plan) == (
            "ProjectOp",
            ("HashJoinOp", R_SCAN, ("IndexSelectOp",)),
        )
        self._agrees(expression, db)
        ledger = index_usage({"s": db.relation("s")})
        assert ledger["s", (1,)][2] == {"lookup": 1}

    def test_without_a_database_the_plan_runs_as_written(self, db, monkeypatch):
        expression = _project(
            E.Select(_join(), _cmp("<", P.ColRef(4), P.Const(30))), 1, 4
        )
        context = StandaloneContext({"r": db.relation("r"), "s": db.relation("s")})
        expected = expression.evaluate(context)
        monkeypatch.setattr(
            planner, "push_selections", lambda *_: pytest.fail("no schema in reach")
        )
        assert planner.evaluate(expression, context) == expected
        assert _shape(planner.get_plan(expression)) == (
            "ProjectOp",
            ("FilterOp", ("HashJoinOp", R_SCAN, S_SCAN)),
        )

    def test_a_second_evaluation_is_a_table_hit_that_derives_nothing(self, db, monkeypatch):
        expression = _project(
            E.Select(_join(), _cmp("<", P.ColRef(4), P.Const(30))), 1, 4
        )
        view = DatabaseView(db)
        first = planner.evaluate(expression, view)
        plan = planner.database_plan(expression, db)
        hits = planner.plan_cache_info()["hits"]

        def derived_again(*_args, **_kwargs):
            raise AssertionError("the table hit re-derived the rewrite")

        for name in ("push_selections", "_push_below_join", "_visible_columns", "optimize_expression"):
            monkeypatch.setattr(planner, name, derived_again)
        assert planner.evaluate(expression, view) == first
        assert planner.database_plan(expression, db) is plan
        assert planner.plan_cache_info()["hits"] == hits + 2

    def test_a_dividing_conjunct_raises_from_the_plan_as_from_the_reference(self, db):
        """Moving the total conjunct beside a dividing one would take the
        offending pair away before the division sees it."""
        dividing = _cmp("<", P.Arith("/", P.Const(10), P.ColRef("a")), P.Const(10))
        # Row (0, 0) of r divides by zero and joins s.  ``d > 1000`` is
        # false on every pair, but it is evaluated second ...
        after = E.Select(_join(), P.And(dividing, _cmp(">", P.ColRef("d"), P.Const(1000))))
        # ... and here first, but *unknown* on the offending row, which
        # lets a conjunction go on to its second operand.
        nulls = Database(_schema())
        nulls.load("r", [(NULL, 0)])
        nulls.load("s", [(0, 5)])
        before = E.Select(
            _join(),
            P.And(
                _cmp(">", P.ColRef("a"), P.Const(0)),
                _cmp(">", P.Arith("/", P.Const(10), P.ColRef("b")), P.Const(1)),
            ),
        )
        for expression, database in ((after, db), (before, nulls)):
            view = DatabaseView(database)
            with pytest.raises(EvaluationError):
                expression.evaluate(view)
            with pytest.raises(EvaluationError):
                planner.evaluate(expression, view)
        # A guard that is *false* on the row keeps both evaluations from it.
        guarded = E.Select(_join(), P.And(_cmp(">", P.ColRef("a"), P.Const(0)), dividing))
        view = DatabaseView(db)
        assert planner.evaluate(guarded, view) == guarded.evaluate(view)
