"""Compile algebra expressions into cached physical query plans.

This module is the bridge between the declarative layer (expression trees
produced by parsing or by the calculus-to-algebra translation of Section
5.2.2) and the physical operators of :mod:`repro.algebra.physical`:

* :func:`compile_expression` lowers an expression — after running the
  always-safe rewrites of :mod:`repro.algebra.optimizer` — into a physical
  operator DAG, splitting join predicates into hash keys and recognizing
  index-accelerable shapes once, at plan time;
* :func:`get_plan` adds a **structural plan cache**: expression nodes are
  frozen dataclasses with structural equality, so every occurrence of the
  same expression (a compiled integrity rule appended to thousands of
  transactions, the selection an ``update`` statement re-creates on every
  execution) shares one compiled plan;
* :func:`evaluate` executes the compiled plan — the only evaluation path;
  the reference tree-walk interpreter (``Expression.evaluate``) is what
  the test suite compares it against;
* :func:`index_hints` reports which base-relation hash indexes would
  accelerate a plan (the integrity controller turns these into real indexes
  via :meth:`~repro.core.subsystem.IntegrityController.install_indexes`);
* :func:`push_selections` / :func:`database_plan` are the one schema-aware
  logical rewrite — selections moved below an equi-join onto the input
  whose columns they read — which :func:`evaluate` applies automatically
  when the evaluation context exposes a database.

A plan depends on the expression and the schema only, never on the data:
chains run in the order they are written, and no cardinality or
distinct-key count is read to choose a plan.  What a plan is expected to
cost is the §7 package's question, answered by a walk over the plan tree
in :mod:`repro.parallel.cost_model`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.algebra import expressions as E
from repro.algebra import physical as X
from repro.algebra import predicates as P
from repro.algebra.expressions import _split_equi_predicate
from repro.algebra.optimizer import optimize_expression
from repro.bounded import BoundedTable
from repro.engine import naming
from repro.engine.relation import Relation
from repro.errors import EvaluationError

# Structural plan cache: Expression -> PhysicalOperator.  Bounded —
# integrity programs and statement shapes are few; unbounded literal-heavy
# workloads must not grow it without limit.
_PLAN_CACHE = BoundedTable()
_plan_cache_hits = 0
_plan_cache_misses = 0


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _const_equalities(predicate: P.Predicate):
    """Split a unary predicate into column=constant keys and a residual.

    Returns ``(attrs, values, residual)``; NULL constants stay in the
    residual (NULL compares *unknown*, an index bucket would match it).
    """
    from repro.engine.types import NULL

    attrs: list = []
    values: list = []
    residual: list = []

    def visit(node: P.Predicate) -> None:
        if isinstance(node, P.And):
            visit(node.left)
            visit(node.right)
            return
        if isinstance(node, P.Comparison) and node.op == "=":
            left, right = node.left, node.right
            if isinstance(right, P.ColRef) and isinstance(left, P.Const):
                left, right = right, left
            if (
                isinstance(left, P.ColRef)
                and left.side in (None, "left")
                and isinstance(right, P.Const)
                and right.value is not NULL
                and left.attr not in attrs
            ):
                attrs.append(left.attr)
                values.append(right.value)
                return
        residual.append(node)

    visit(predicate)
    residual_pred = P.conjoin(*residual) if residual else P.TRUE
    return tuple(attrs), tuple(values), residual_pred


def compile_expression(
    expression: E.Expression, optimize: bool = True
) -> X.PhysicalOperator:
    """Lower an expression tree into a physical operator DAG.

    One operator per expression node, in the expression's own shape: a
    plan is never restructured after lowering (what is worth moving is
    moved on the expression, see :func:`database_plan`), and nothing about
    how it executes depends on cardinalities or input sizes, so plans are
    shared through the plan cache and executed concurrently as they are.

    The root carries :attr:`~repro.algebra.physical.PhysicalOperator.probes`
    — what :meth:`Session.query <repro.engine.session.Session.query>` needs
    to know to read the head state without a pin — worked out here, once,
    by the walk that collects :func:`index_hints`.
    """
    if optimize:
        expression = optimize_expression(expression)
    plan = _lower(expression)
    probes: set = set()
    if _collect_hints(plan, probes):
        plan.probes = frozenset(probes)
    return plan


def _lower(expr: E.Expression) -> X.PhysicalOperator:
    if isinstance(expr, E.RelationRef):
        return X.ScanOp(expr.name)
    if isinstance(expr, E.Delta):
        return X.DeltaScanOp(expr.relation, expr.kind)
    if isinstance(expr, E.Literal):
        return X.LiteralOp(expr.rows)
    if isinstance(expr, E.Select):
        child = _lower(expr.input)
        if isinstance(child, X.ScanOp):
            attrs, values, residual = _const_equalities(expr.predicate)
            # A bucket lookup tests the residual on the bucket's rows only:
            # one that can raise must see every row, as the reference does.
            if attrs and not P.can_raise(residual):
                return X.IndexSelectOp(
                    child.name, attrs, values, residual, expr.predicate
                )
        return X.FilterOp(child, expr.predicate)
    if isinstance(expr, E.Project):
        return X.ProjectOp(_lower(expr.input), expr.items)
    if isinstance(expr, E.Union):
        return X.UnionOp(_lower(expr.left), _lower(expr.right))
    if isinstance(expr, E.Difference):
        return X.DifferenceOp(_lower(expr.left), _lower(expr.right))
    if isinstance(expr, E.Intersection):
        return X.IntersectOp(_lower(expr.left), _lower(expr.right))
    if isinstance(expr, E.Product):
        return X.ProductOp(_lower(expr.left), _lower(expr.right))
    if isinstance(expr, E.Join):
        left_keys, right_keys, residual = _split_equi_predicate(expr.predicate)
        left = _lower(expr.left)
        right = _lower(expr.right)
        if left_keys:
            return X.HashJoinOp(left, right, left_keys, right_keys, residual)
        return X.NestedLoopJoinOp(left, right, expr.predicate)
    if isinstance(expr, (E.SemiJoin, E.AntiJoin)):
        anti = isinstance(expr, E.AntiJoin)
        left_keys, right_keys, residual = _split_equi_predicate(expr.predicate)
        left = _lower(expr.left)
        right = _lower(expr.right)
        if left_keys:
            # Unlike the naive backend, a residual does not force nested
            # loops: the residual is tested within hash buckets only.
            ctor = X.HashAntiJoinOp if anti else X.HashSemiJoinOp
            return ctor(left, right, left_keys, right_keys, residual)
        ctor = X.NestedLoopAntiOp if anti else X.NestedLoopSemiOp
        return ctor(left, right, expr.predicate)
    if isinstance(expr, E.Rename):
        return X.RenameOp(_lower(expr.input), expr.name, expr.attributes)
    if isinstance(expr, E.Aggregate):
        return X.AggregateOp(_lower(expr.input), expr.func, expr.attr)
    if isinstance(expr, E.Count):
        return X.CountOp(_lower(expr.input))
    if isinstance(expr, E.Multiplicity):
        return X.MultiplicityOp(_lower(expr.input))
    raise EvaluationError(f"cannot lower expression node {expr!r}")


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------


def _is_cache_exempt(expression: E.Expression) -> bool:
    """Trivial plans that would churn the cache rather than benefit from it.

    Bare leaves, and the ``Rename(leaf)`` shape every ``Assign`` statement
    wraps around its value — distinct literal insert/assign batches must not
    FIFO-evict the integrity rules' precompiled plans.
    """
    if isinstance(expression, (E.RelationRef, E.Delta, E.Literal)):
        return True
    return isinstance(expression, E.Rename) and isinstance(
        expression.input, (E.RelationRef, E.Delta, E.Literal)
    )


def get_plan(expression: E.Expression) -> X.PhysicalOperator:
    """The cached physical plan of ``expression`` (compiling on miss)."""
    global _plan_cache_hits, _plan_cache_misses
    if _is_cache_exempt(expression):
        return _lower(expression)
    plan = _PLAN_CACHE.get(expression)
    if plan is not None:
        _plan_cache_hits += 1
        return plan
    _plan_cache_misses += 1
    plan = compile_expression(expression)
    _PLAN_CACHE.file(expression, plan)
    return plan


def clear_plan_cache() -> None:
    """Empty the process-wide cache and zero the counters.  A database's
    own table (:func:`database_plan`) is the database's: it goes with it."""
    global _plan_cache_hits, _plan_cache_misses
    _PLAN_CACHE.clear()
    _plan_cache_hits = 0
    _plan_cache_misses = 0


def plan_cache_info() -> dict:
    return {
        "size": len(_PLAN_CACHE),
        "hits": _plan_cache_hits,
        "misses": _plan_cache_misses,
    }


# ---------------------------------------------------------------------------
# Schema-aware logical rewrite: selection pushdown
# ---------------------------------------------------------------------------
#
# The planner lowers expression trees as written; this rewrite needs the
# database schema (which input owns which column) and so runs where a
# database is in reach (:func:`database_plan`): :func:`push_selections`
# moves the conjuncts of a selection over an equi-join below it, onto the
# one input they read.  Anything that fails a precondition is left exactly
# as written.


def _visible_columns(expr: E.Expression, schema) -> Optional[tuple]:
    """The output attribute names of ``expr``, or None when not statically
    derivable (temporaries, computed projections, ambiguous concatenations).
    """
    if isinstance(expr, E.RelationRef):
        try:
            base, _suffix = naming.split_auxiliary(expr.name)
        except ValueError:
            return None
        if base not in schema:
            return None
        return tuple(attr.name for attr in schema.relation(base).attributes)
    if isinstance(expr, E.Delta):
        if expr.relation not in schema:
            return None
        return tuple(
            attr.name for attr in schema.relation(expr.relation).attributes
        )
    if isinstance(expr, E.Rename):
        if expr.attributes is not None:
            return tuple(expr.attributes)
        return _visible_columns(expr.input, schema)
    if isinstance(expr, E.Select):
        return _visible_columns(expr.input, schema)
    if isinstance(expr, (E.SemiJoin, E.AntiJoin)):
        return _visible_columns(expr.left, schema)
    if isinstance(expr, (E.Union, E.Difference, E.Intersection)):
        return _visible_columns(expr.left, schema)
    if isinstance(expr, E.Project):
        names = []
        for item in expr.items:
            if item.name is not None:
                names.append(item.name)
            elif isinstance(item.expr, P.ColRef) and isinstance(
                item.expr.attr, str
            ):
                names.append(item.expr.attr)
            else:
                return None
        return tuple(names)
    if isinstance(expr, (E.Join, E.Product)):
        left = _visible_columns(expr.left, schema)
        right = _visible_columns(expr.right, schema)
        if left is None or right is None:
            return None
        combined = left + right
        if len(set(combined)) != len(combined):  # would be uniquified
            return None
        return combined
    return None


def _conjuncts(predicate: P.Predicate) -> list:
    parts: list = []

    def visit(node: P.Predicate) -> None:
        if isinstance(node, P.And):
            visit(node.left)
            visit(node.right)
        else:
            parts.append(node)

    visit(predicate)
    return parts


def _map_refs(node, rewrite):
    """``node`` with every ColRef replaced by ``rewrite(ref)``."""
    if isinstance(node, P.ColRef):
        return rewrite(node)
    if isinstance(node, (P.Arith, P.Comparison)):
        return type(node)(
            node.op, _map_refs(node.left, rewrite), _map_refs(node.right, rewrite)
        )
    if isinstance(node, (P.And, P.Or)):
        return type(node)(
            _map_refs(node.left, rewrite), _map_refs(node.right, rewrite)
        )
    if isinstance(node, (P.Not, P.IsNull)):
        return type(node)(_map_refs(node.operand, rewrite))
    return node


def _column_position(ref: P.ColRef, columns: tuple) -> Optional[int]:
    """The 0-based position among ``columns`` a reference in a selection
    over them reads; None when it does not resolve there."""
    if ref.side == "right":  # raises in a unary context
        return None
    if isinstance(ref.attr, str):
        return columns.index(ref.attr) if ref.attr in columns else None
    return ref.attr - 1 if 1 <= ref.attr <= len(columns) else None


def _push_below_join(select: E.Select, schema) -> E.Expression:
    """One ``σ[p_l ∧ p_r ∧ p](L ⋈ R) → σ[p](σ[p_l](L) ⋈ σ[p_r](R))`` step;
    ``select`` itself when nothing moves."""
    join = select.input
    left_keys, _right_keys, residual = _split_equi_predicate(join.predicate)
    if not left_keys or not isinstance(residual, P.TruePred):
        return select
    # A moved conjunct runs on rows the join would never have paired, and
    # shrinks the set of pairs the conjuncts left above (and the join's own
    # key expressions) run on: either changes *whether an error is raised*
    # unless nothing in reach can raise at all.
    if P.can_raise(select.predicate) or P.can_raise(join.predicate):
        return select
    columns = _visible_columns(join, schema)
    if columns is None:
        return select
    left_arity = len(_visible_columns(join.left, schema))

    def below_right(ref: P.ColRef) -> P.ColRef:
        # Names are unique across both inputs; positions count from the
        # right input's first column once below the join.
        if isinstance(ref.attr, str):
            return ref
        return P.ColRef(ref.attr - left_arity, ref.side)

    to_left, to_right, kept = [], [], []
    for conjunct in _conjuncts(select.predicate):
        positions = {
            _column_position(item, columns)
            for item in P.nodes(conjunct)
            if isinstance(item, P.ColRef)
        }
        if not positions or None in positions:
            kept.append(conjunct)  # constant, or a reference that resolves nowhere
        elif max(positions) < left_arity:
            to_left.append(conjunct)
        elif min(positions) >= left_arity:
            to_right.append(_map_refs(conjunct, below_right))
        else:
            kept.append(conjunct)  # reads both inputs
    if not to_left and not to_right:
        return select

    def selected(source, conjuncts):
        return E.Select(source, P.conjoin(*conjuncts)) if conjuncts else source

    pushed = E.Join(
        selected(join.left, to_left),
        selected(join.right, to_right),
        join.predicate,
    )
    return selected(pushed, kept)


def _push(expr: E.Expression, schema) -> E.Expression:
    if isinstance(expr, E.Select) and isinstance(expr.input, E.Join):
        expr = _push_below_join(expr, schema)
    # Top-down: a selection just placed on a join input is pushed on from
    # there when that input is itself a join.
    return E.rewrite_children(expr, lambda child: _push(child, schema))


def push_selections(expression: E.Expression, schema) -> E.Expression:
    """Move selections over equi-joins onto the join inputs they read.

    ``σ[p_l ∧ p_r ∧ p](L ⋈ R) → σ[p](σ[p_l](L) ⋈ σ[p_r](R))``: pairs a
    selection would discard are never built, a build side shrinks to its
    survivors, and a moved ``column = constant`` over a bare relation
    lowers to an index lookup.  The rewrite looks at the expression the
    lowering will see (after :func:`~repro.algebra.optimizer.
    optimize_expression` has merged selection cascades and pushed
    selections through union and intersection) and fires only where it is
    exact — same rows, same multiplicities, same errors — in set and bag mode:

    * the join is a pure equi-join (hash keys, no residual);
    * no division anywhere in the selection or the join predicate (see
      :func:`_push_below_join`);
    * both inputs' column names are statically derivable under ``schema``
      (:func:`_visible_columns`) and no name occurs twice among them, so
      a reference — by name, or by position, right-side positions shifted
      down by the left arity — denotes the same column above and below;
    * a conjunct moves only when every column it reads belongs to one
      input; constant and mixed-side conjuncts stay above the join.

    Returns ``expression`` itself when nothing moves, so an unrewritten
    expression keeps sharing its :func:`get_plan` entry.
    """
    optimized = optimize_expression(expression)
    pushed = _push(optimized, schema)
    return expression if pushed is optimized else pushed


# Per-database plans live on the database (``Database.plans``, a
# :class:`~repro.bounded.BoundedTable` the engine never interprets):
# {Expression: PhysicalOperator} — the plan of the expression with its
# selections pushed under the database's schema.  An entry depends on the
# expression and the schema only, so it never goes stale: serving it is the
# whole cost of evaluating a stored check — one probe, on an expression that
# hashes once.  A table is as old as its database: a fork or an unpickled
# copy starts empty, and nothing outlives the database.


def database_plan(expression: E.Expression, database) -> X.PhysicalOperator:
    """The plan of ``expression`` with selections pushed below equi-joins
    under the database's schema (:func:`push_selections`), cached per
    (database, expression).  The rewrite runs only on a miss, and reads
    nothing of the database but its schema.

    Serving an entry counts as a plan-cache hit, like the :func:`get_plan`
    call it stands for; a cache-exempt shape is never filed, and is lowered
    afresh, as there.
    """
    global _plan_cache_hits
    plans = database.plans
    plan = plans.get(expression)
    if plan is not None:
        _plan_cache_hits += 1
        return plan
    if _is_cache_exempt(expression):
        return _lower(expression)
    plan = get_plan(push_selections(expression, database.schema))
    plans.file(expression, plan)
    return plan


# ---------------------------------------------------------------------------
# Evaluation entry point
# ---------------------------------------------------------------------------


def context_plan(expression: E.Expression, context) -> X.PhysicalOperator:
    """The plan ``expression`` runs by in ``context``.

    When the context exposes a database, the plan is :func:`database_plan`'s
    — selections pushed below equi-joins under its schema (cached); without
    one the expression runs as written.
    """
    database = getattr(context, "database", None)
    if database is None:
        return get_plan(expression)
    return database_plan(expression, database)


def evaluate(expression: E.Expression, context) -> Relation:
    """Evaluate ``expression`` by executing its compiled plan
    (:func:`context_plan`)."""
    return context_plan(expression, context).execute(context)


def explain(expression: E.Expression) -> str:
    """The compiled physical plan of an expression, as indented text."""
    return get_plan(expression).explain()


# ---------------------------------------------------------------------------
# Program-level helpers (definition-time compilation, index advice)
# ---------------------------------------------------------------------------


def statement_expressions(statement) -> Iterator[E.Expression]:
    """The relation-valued expressions a statement will evaluate, as it
    evaluates them: an assignment's value renamed to its temporary, and a
    guard's checks followed by its body's expressions."""
    from repro.algebra import statements as S

    if isinstance(statement, S.Guard):
        yield from statement.checks
        for inner in statement.body:
            yield from statement_expressions(inner)
        return
    expr = getattr(statement, "expr", None)
    if isinstance(statement, S.Assign):
        yield E.Rename(expr, statement.name)
    elif isinstance(expr, E.Expression):
        yield expr


def precompile_program(program) -> int:
    """Warm the plan cache for every expression of a program.

    Called at rule-definition time (§6.2) so constraint
    enforcement never pays lowering costs inside a transaction.  Returns
    the number of plans compiled or refreshed.
    """
    count = 0
    for statement in program:
        for expression in statement_expressions(statement):
            get_plan(expression)
            count += 1
    return count


def index_hints(expression: E.Expression) -> set:
    """(relation, attrs) pairs whose hash indexes would speed this plan up.

    Reported for the probe and build sides of hash semi/antijoins, the
    build side of hash joins and equality selections — whenever that side
    is a direct scan of a named relation and the keys are plain columns.
    Auxiliary differentials (``R@plus``/``R@minus``) are skipped: they are
    rebuilt per transaction, so a persistent index can never exist.  A hint
    on the pre-state ``R@old`` is a hint on ``R``: inside a transaction
    ``R@old`` *is* the base relation, index and all.
    """
    collected: set = set()
    _collect_hints(get_plan(expression), collected)
    hints = set()
    for name, attrs in collected:
        base, suffix = naming.split_auxiliary(name)
        if suffix in (None, naming.OLD_SUFFIX):
            hints.add((base, attrs))
    return hints


def _collect_hints(op: X.PhysicalOperator, hints: set) -> bool:
    """Add the ``(name, attrs)`` indexes that would serve ``op``'s subtree to
    ``hints``; true when the subtree is *probe-only*.

    Probe-only: every named relation is reached solely by a keyed probe of
    a hinted index — an equality selection's lookup, or the build side of a
    hash join/semijoin/antijoin, whose buckets are only ever asked for the
    probe side's keys.  A scan reached any other way reads the whole
    relation (a semijoin's probe side the whole index), so it makes the
    subtree, hints and all, not probe-only.
    """
    if isinstance(op, X.ScanOp):
        return False
    children = op.children()
    if isinstance(op, X.HashSemiJoinOp):  # covers HashAntiJoinOp too
        left_attrs = op.left_keys.attrs
        right_attrs = op.right_keys.attrs
        if isinstance(op.left, X.ScanOp) and left_attrs:
            hints.add((op.left.name, left_attrs))
        if isinstance(op.right, X.ScanOp) and right_attrs:
            hints.add((op.right.name, right_attrs))
            children = (op.left,)  # a build side is probed, not read
    elif isinstance(op, X.HashJoinOp):
        right_attrs = op.right_keys.attrs
        if isinstance(op.right, X.ScanOp) and right_attrs:
            hints.add((op.right.name, right_attrs))
            children = (op.left,)
    elif isinstance(op, X.IndexSelectOp):
        hints.add((op.name, tuple(op.attrs)))
    # Every child is walked, for its hints, whatever the others answered.
    return all([_collect_hints(child, hints) for child in children])
