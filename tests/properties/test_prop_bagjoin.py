"""Property: bag-mode join semantics — the pinned specification.

Decision (ROADMAP follow-up from PR 1): both backends implement
**build-over-distinct-rows** joins in bag mode — the hash build side
contributes each distinct right row once, and result multiplicities come
from the probe side (plus bucket fan-out over *distinct* right rows).
Semijoin/antijoin/intersection keep the left side's multiplicities
unchanged; membership on the right is at the distinct level.

This is a deliberate deviation from multiplicity-correct bag joins
(|l ⋈ r| multiplicities multiplying): integrity checking only ever tests
emptiness and distinct violating tuples, persistent hash indexes hold
distinct rows (so the distinct-level convention lets plans reuse them), and
the convention makes set mode a special case of bag mode.  What matters is
that *every* backend implements the same convention — asserted here on
duplicate-heavy inputs, which maximize the observable difference between
the conventions: the counts-aware pair kernel is exactly where a
multiplicity-correct implementation would silently diverge from the
convention.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import planner
from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Relation

from . import strategies as S

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Tiny value domain + explicit multiplicities: nearly every row is a
# duplicate and nearly every key collides.
_SMALL = st.integers(min_value=0, max_value=2)
_DUP_ROWS = st.lists(
    st.tuples(st.tuples(_SMALL, _SMALL), st.integers(min_value=1, max_value=4)),
    max_size=6,
)


def _bag_relation(schema, weighted_rows) -> Relation:
    relation = Relation(schema, bag=True)
    for row, multiplicity in weighted_rows:
        for _ in range(multiplicity):
            relation.insert(row)
    return relation


@given(
    weighted_r=_DUP_ROWS,
    weighted_s=_DUP_ROWS,
    op=st.sampled_from(["join", "semijoin", "antijoin", "intersection"]),
    residual=st.booleans(),
    indexed=st.booleans(),
    staged=st.booleans(),
)
@_SETTINGS
def test_bag_join_convention_agrees_on_duplicate_heavy_inputs(
    weighted_r, weighted_s, op, residual, indexed, staged
):
    schema = S.rs_schema()
    r = _bag_relation(schema.relation("r"), weighted_r)
    s = _bag_relation(schema.relation("s"), weighted_s)
    if indexed:
        r.declare_index((0,))
        r.index_on((0,))
        s.declare_index((0,))
        s.index_on((0,))
    predicate = P.Comparison("=", P.ColRef(1, "left"), P.ColRef(1, "right"))
    if residual:
        predicate = P.And(
            predicate,
            P.Comparison("<=", P.ColRef(2, "left"), P.ColRef(2, "right")),
        )
    if op == "join":
        expression: E.Expression = E.Join(
            E.RelationRef("r"), E.RelationRef("s"), predicate
        )
    elif op == "semijoin":
        expression = E.SemiJoin(E.RelationRef("r"), E.RelationRef("s"), predicate)
    elif op == "antijoin":
        expression = E.AntiJoin(E.RelationRef("r"), E.RelationRef("s"), predicate)
    else:
        expression = E.Intersection(E.RelationRef("r"), E.RelationRef("s"))
    if staged:
        # An all-columns projection changes no tuple and no multiplicity,
        # but puts the join/semijoin's output through a second operator.
        arity = 4 if op == "join" else 2
        expression = E.Project(
            expression,
            tuple(E.ProjectItem(P.ColRef(i)) for i in range(1, arity + 1)),
        )
    context = StandaloneContext({"r": r, "s": s})
    naive = expression.evaluate(context)
    planned = planner.evaluate(expression, context)
    assert naive == planned, (
        f"bag convention divergence on {op} (residual={residual}):\n"
        f"  naive:   {naive.sorted_rows()}\n"
        f"  planned: {planned.sorted_rows()}"
    )
    # The convention itself: every distinct matching pair appears exactly
    # probe-side-multiplicity times, independent of right multiplicities.
    if op == "join":
        for row in planned.rows():
            left_part = row[: schema.relation("r").arity]
            assert planned.multiplicity(row) == r.multiplicity(left_part)
