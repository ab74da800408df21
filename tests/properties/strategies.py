"""Hypothesis strategies for relations, databases, constraints, transactions.

Everything is generated over a fixed two-relation integer schema
``r(a, b)`` / ``s(c, d)`` so that constraints, algebra, and data compose.
Values are drawn from a small domain to make collisions (joins, set
operations) likely.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.calculus import ast as C
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema
from repro.engine.types import INT, NULL

VALUES = st.integers(min_value=0, max_value=5)
ROWS_R = st.lists(st.tuples(VALUES, VALUES), max_size=8)
ROWS_S = st.lists(st.tuples(VALUES, VALUES), max_size=8)


def rs_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )


@st.composite
def databases(draw) -> Database:
    """A small random database over the r/s schema."""
    database = Database(rs_schema())
    database.load("r", draw(ROWS_R))
    database.load("s", draw(ROWS_S))
    return database


# -- constraint formulas -----------------------------------------------------

_COMPARE_OPS = st.sampled_from(["<", "<=", "=", "!=", ">=", ">"])
_R_ATTR = st.sampled_from(["a", "b"])
_S_ATTR = st.sampled_from(["c", "d"])
_AGG_FUNCS = st.sampled_from(["SUM", "AVG", "MIN", "MAX"])


@st.composite
def _local_atom(draw, var: str, attrs) -> C.Formula:
    """A comparison over one variable's attributes and small constants."""
    left = C.AttrSel(var, draw(attrs))
    choice = draw(st.integers(min_value=0, max_value=2))
    if choice == 0:
        right: C.Term = C.Const(draw(VALUES))
    elif choice == 1:
        right = C.AttrSel(var, draw(attrs))
    else:
        right = C.ArithTerm("+", C.AttrSel(var, draw(attrs)), C.Const(draw(VALUES)))
    return C.Compare(draw(_COMPARE_OPS), left, right)


@st.composite
def _local_condition(draw, var: str, attrs) -> C.Formula:
    """An and/or/not tree of local atoms (depth <= 2)."""
    first = draw(_local_atom(var, attrs))
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        return first
    second = draw(_local_atom(var, attrs))
    if shape == 1:
        return C.And(first, second)
    if shape == 2:
        return C.Or(first, second)
    return C.Not(first)


@st.composite
def _link_atom(draw) -> C.Formula:
    return C.Compare(
        draw(_COMPARE_OPS),
        C.AttrSel("x", draw(_R_ATTR)),
        C.AttrSel("y", draw(_S_ATTR)),
    )


@st.composite
def domain_constraints(draw) -> C.Formula:
    """(forall x in r)(local(x)) — Table 1 row 1 family."""
    return C.forall_in("x", "r", draw(_local_condition("x", _R_ATTR)))


@st.composite
def referential_constraints(draw) -> C.Formula:
    """(forall x in r)(exists y in s)(link and local(y)) — row 2 family."""
    body: C.Formula = draw(_link_atom())
    if draw(st.booleans()):
        body = C.And(body, draw(_local_atom("y", _S_ATTR)))
    return C.forall_in("x", "r", C.exists_in("y", "s", body))


@st.composite
def exclusion_constraints(draw) -> C.Formula:
    """(forall x in r)(forall y in s)(not link) — row 3 family."""
    return C.forall_in(
        "x", "r", C.forall_in("y", "s", C.Not(draw(_link_atom())))
    )


@st.composite
def existential_constraints(draw) -> C.Formula:
    """(exists x in r)(local(x)) — row 5 family."""
    return C.exists_in("x", "r", draw(_local_condition("x", _R_ATTR)))


@st.composite
def aggregate_constraints(draw) -> C.Formula:
    """c(AGGR(R, i)) / c(CNT(R)) — rows 6-7 family."""
    relation = draw(st.sampled_from(["r", "s"]))
    if draw(st.booleans()):
        attr = draw(_R_ATTR if relation == "r" else _S_ATTR)
        term: C.Term = C.AggTerm(draw(_AGG_FUNCS), relation, attr)
    else:
        term = C.CntTerm(relation)
    bound = draw(st.integers(min_value=0, max_value=30))
    return C.Compare(draw(_COMPARE_OPS), term, C.Const(bound))


def constraints():
    """Any constraint from the five Table 1 families."""
    return st.one_of(
        domain_constraints(),
        referential_constraints(),
        exclusion_constraints(),
        existential_constraints(),
        aggregate_constraints(),
    )


@st.composite
def boolean_combinations(draw, parts=None) -> C.Formula:
    """not/and/or/=> combinations of Table 1 family constraints.

    Top-level connectives are exactly what the one-piece translator
    rejects, so these compile to one alarm per CNF clause.
    """
    parts = constraints() if parts is None else parts
    first = draw(parts)
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        return C.Not(first)
    second = draw(parts)
    if shape == 1:
        return C.And(first, second)
    if shape == 2:
        return C.Or(first, second)
    return C.Implies(first, second)


def abortable_constraints():
    """Families whose SUM/AVG/MIN/MAX over empty inputs never go unknown."""
    return st.one_of(
        domain_constraints(),
        referential_constraints(),
        exclusion_constraints(),
        existential_constraints(),
    )


# -- algebra expressions (planner differential testing) -------------------------
#
# Random relation-valued expressions over the r/s schema, built so that every
# non-aggregate node has arity 2 (joins and products are wrapped in a
# projection back to two columns).  This keeps union/difference/intersection
# applicable at any position while still exercising the whole operator set.

_POSITIONS = st.integers(min_value=1, max_value=2)


@st.composite
def _scalar_operands(draw):
    from repro.algebra import predicates as P

    choice = draw(st.integers(min_value=0, max_value=2))
    if choice == 0:
        return P.Const(draw(VALUES))
    if choice == 1:
        return P.ColRef(draw(_POSITIONS))
    return P.Arith("+", P.ColRef(draw(_POSITIONS)), P.Const(draw(VALUES)))


@st.composite
def unary_predicates(draw):
    """A small predicate tree over an arity-2 input (positional refs)."""
    from repro.algebra import predicates as P

    def atom():
        return P.Comparison(
            draw(_COMPARE_OPS), P.ColRef(draw(_POSITIONS)), draw(_scalar_operands())
        )

    first = atom()
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        return first
    second = atom()
    if shape == 1:
        return P.And(first, second)
    if shape == 2:
        return P.Or(first, second)
    return P.Not(first)


@st.composite
def join_predicates(draw):
    """Join predicates: equi (hash path), equi+residual, or non-equi (NL)."""
    from repro.algebra import predicates as P

    left_ref: object = P.ColRef(draw(_POSITIONS), "left")
    if draw(st.booleans()):
        left_ref = P.Arith("+", left_ref, P.Const(draw(VALUES)))
    equality = P.Comparison("=", left_ref, P.ColRef(draw(_POSITIONS), "right"))
    shape = draw(st.integers(min_value=0, max_value=2))
    extra = P.Comparison(
        draw(_COMPARE_OPS),
        P.ColRef(draw(_POSITIONS), "left"),
        P.ColRef(draw(_POSITIONS), "right"),
    )
    if shape == 0:
        return equality
    if shape == 1:
        return P.And(equality, extra)
    return extra


@st.composite
def algebra_expressions(draw, depth: int = 3):
    """A random arity-2 relation-valued expression over r/s."""
    from repro.algebra import expressions as E
    from repro.algebra import predicates as P

    if depth <= 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            rows = draw(st.lists(st.tuples(VALUES, VALUES), max_size=4))
            return E.Literal(tuple(rows))
        return E.RelationRef(draw(st.sampled_from(["r", "s"])))

    def sub():
        return draw(algebra_expressions(depth=depth - 1))

    def two_of_four():
        return tuple(
            E.ProjectItem(P.ColRef(draw(st.integers(min_value=1, max_value=4))))
            for _ in range(2)
        )

    kind = draw(st.integers(min_value=0, max_value=7))
    if kind == 0:
        return E.Select(sub(), draw(unary_predicates()))
    if kind == 1:
        # Equality-on-constant selection directly over a base relation —
        # the shape the planner lowers to an index-accelerated lookup.
        predicate: object = P.Comparison(
            "=", P.ColRef(draw(_POSITIONS)), P.Const(draw(VALUES))
        )
        if draw(st.booleans()):
            predicate = P.And(
                predicate,
                P.Comparison(
                    draw(_COMPARE_OPS), P.ColRef(draw(_POSITIONS)), P.Const(draw(VALUES))
                ),
            )
        return E.Select(E.RelationRef(draw(st.sampled_from(["r", "s"]))), predicate)
    if kind == 2:
        items = tuple(E.ProjectItem(P.ColRef(draw(_POSITIONS))) for _ in range(2))
        return E.Project(sub(), items)
    if kind == 3:
        ctor = draw(st.sampled_from([E.Union, E.Difference, E.Intersection]))
        return ctor(sub(), sub())
    if kind == 4:
        joined = E.Join(sub(), sub(), draw(join_predicates()))
        return E.Project(joined, two_of_four())
    if kind == 5:
        ctor = draw(st.sampled_from([E.SemiJoin, E.AntiJoin]))
        return ctor(sub(), sub(), draw(join_predicates()))
    if kind == 6:
        return E.Project(E.Product(sub(), sub()), two_of_four())
    return E.Rename(sub(), draw(st.sampled_from(["t", "u"])))


@st.composite
def algebra_queries(draw):
    """An expression, possibly capped by an aggregate/counting operator."""
    from repro.algebra import expressions as E

    expression = draw(algebra_expressions())
    top = draw(st.integers(min_value=0, max_value=4))
    if top == 0:
        return E.Count(expression)
    if top == 1:
        return E.Multiplicity(expression)
    if top == 2:
        return E.Aggregate(expression, draw(_AGG_FUNCS), draw(_POSITIONS))
    return expression


# -- transactions --------------------------------------------------------------

@st.composite
def transactions(draw, row=st.tuples(VALUES, VALUES)):
    """A random multi-update transaction over the r/s schema, inserting
    and deleting ``row``-drawn tuples."""
    from repro.algebra import expressions as E
    from repro.algebra import predicates as P
    from repro.algebra import statements as S
    from repro.algebra.programs import Program, bracket

    statements = []
    count = draw(st.integers(min_value=1, max_value=5))
    for _ in range(count):
        relation = draw(st.sampled_from(["r", "s"]))
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            rows = draw(st.lists(row, min_size=1, max_size=3))
            statements.append(S.Insert(relation, E.Literal(tuple(rows))))
        elif kind == 1:
            rows = draw(st.lists(row, min_size=1, max_size=3))
            statements.append(S.Delete(relation, E.Literal(tuple(rows))))
        else:
            position = draw(st.integers(min_value=1, max_value=2))
            pivot = draw(VALUES)
            value = draw(VALUES)
            statements.append(
                S.Update(
                    relation,
                    P.Comparison("=", P.ColRef(position), P.Const(pivot)),
                    ((position, P.Const(value)),),
                )
            )
    return bracket(Program(statements))


def denial_constraints():
    """The families whose checks have a Δ rule (no counting, no aggregate)."""
    return st.one_of(
        domain_constraints(), referential_constraints(), exclusion_constraints()
    )


# -- compensating rules of the paper's R2 shape ----------------------------------

#: The second column of each relation may hold NULL.
NULLABLE = st.one_of(VALUES, st.just(NULL))
NULLABLE_ROW = st.tuples(VALUES, NULLABLE)


def nullable_rs_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT, True)]),
            RelationSchema("s", [("c", INT), ("d", INT, True)]),
        ]
    )


#: The row an action that also writes unconditionally inserts into ``s``,
#: outside :data:`VALUES` so that nothing else writes it.
UNCONDITIONAL_ROW = (100, 0)


@st.composite
def repair_cases(draw):
    """``(database, rule, transaction, recognised)``: a set-mode database
    over :func:`nullable_rs_schema` satisfying an R2-shaped compensating
    rule, a transaction, and whether the action's read is its condition's
    violations.

    The rule is ``IF NOT ∀x∈r ∃y∈s (x.A₁ = y.B₁ ∧ …) THEN temp := READ;
    insert(s, π(temp))``, the insert filling the columns other than the
    ``B``s with 0.  ``READ`` is ``diff(π_A r, π_B s)`` (recognised unless
    a pair is ``(b, d)``, both nullable), the violations ``π_A(r ⊳ s)`` as
    written, or ``diff(π_A r, π_B σ(s))``, which reads something else.
    Half the actions end with ``insert(s, UNCONDITIONAL_ROW)``: a write
    that is not a no-op where the condition holds.
    """
    from repro.algebra import expressions as E
    from repro.algebra import predicates as P
    from repro.algebra import statements as S
    from repro.algebra.programs import Program
    from repro.core.rules import IntegrityRule

    pairs = draw(
        st.sampled_from(
            [
                (("a", "c"),),
                (("a", "d"),),
                (("b", "c"),),
                (("b", "d"),),
                (("a", "c"), ("b", "d")),
                (("a", "d"), ("b", "c")),
            ]
        )
    )
    condition = C.forall_in(
        "x",
        "r",
        C.exists_in(
            "y",
            "s",
            _conjoin(
                C.Compare("=", C.AttrSel("x", a), C.AttrSel("y", b))
                for a, b in pairs
            ),
        ),
    )
    r_items = tuple(E.ProjectItem(P.ColRef(a)) for a, _ in pairs)
    s_items = tuple(E.ProjectItem(P.ColRef(b)) for _, b in pairs)
    read = draw(st.sampled_from(["diff", "antijoin", "other"]))
    if read == "diff":
        expression = E.Difference(
            E.Project(E.RelationRef("r"), r_items),
            E.Project(E.RelationRef("s"), s_items),
        )
    elif read == "antijoin":
        predicate = P.conjoin(
            *(
                P.Comparison("=", P.ColRef(a, "left"), P.ColRef(b, "right"))
                for a, b in pairs
            )
        )
        expression = E.Project(
            E.AntiJoin(E.RelationRef("r"), E.RelationRef("s"), predicate), r_items
        )
    else:
        expression = E.Difference(
            E.Project(E.RelationRef("r"), r_items),
            E.Project(
                E.Select(
                    E.RelationRef("s"),
                    P.Comparison(">=", P.ColRef("c"), P.Const(draw(VALUES))),
                ),
                s_items,
            ),
        )
    targets = {b: position for position, (_, b) in enumerate(pairs, start=1)}
    fill = tuple(
        E.ProjectItem(P.ColRef(targets[column]) if column in targets else P.Const(0))
        for column in ("c", "d")
    )
    statements = [
        S.Assign("temp", expression),
        S.Insert("s", E.Project(E.RelationRef("temp"), fill)),
    ]
    if draw(st.booleans()):
        statements.append(S.Insert("s", E.Literal((UNCONDITIONAL_ROW,))))
    action = Program(statements)
    rule = IntegrityRule(condition, action=action, name="repair")

    # Every r row copies the paired columns of an s row holding no NULL
    # there, so the condition holds before the transaction.
    database = Database(nullable_rs_schema())
    s_rows = draw(st.lists(NULLABLE_ROW, max_size=6))
    database.load("s", s_rows)
    position = {"a": 0, "b": 1, "c": 0, "d": 1}
    witnesses = [
        row for row in s_rows if all(row[position[b]] is not NULL for _, b in pairs)
    ]
    r_rows = []
    if witnesses:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            row = list(draw(NULLABLE_ROW))
            witness = draw(st.sampled_from(witnesses))
            for a, b in pairs:
                row[position[a]] = witness[position[b]]
            r_rows.append(tuple(row))
    database.load("r", r_rows)
    recognised = read == "antijoin" or (read == "diff" and ("b", "d") not in pairs)
    return database, rule, draw(transactions(row=NULLABLE_ROW)), recognised


def _conjoin(parts) -> C.Formula:
    parts = list(parts)
    result = parts[0]
    for part in parts[1:]:
        result = C.And(result, part)
    return result
