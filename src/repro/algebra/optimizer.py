"""Algebraic rewrites for rule actions and translated conditions.

Section 5.2.1 of the paper notes that "optimization of relational algebra
constructs is dealt with extensively in the field of query optimization;
techniques developed in this context can be used for the optimization of
integrity rule actions".  This module implements the standard, always-safe
rewrites used by ``TrOptRS``:

* boolean simplification of predicates (constant folding, double negation);
* cascade fusion of selections: ``σ_p(σ_q(E)) -> σ_{q∧p}(E)``;
* elimination of ``σ_true`` and identity projections;
* pushing selections through union / intersection.

These need nothing but the expression.  The one rewrite that needs a
database schema — pushing selections below equi-joins — lives in
:mod:`repro.algebra.planner` (``push_selections``).  No rewrite reads the
data: join and semijoin chains run in the order they are written.

All rewrites preserve set semantics *and errors*: a rewrite that would
change which rows a predicate is evaluated on (fusing a cascade, moving a
selection below an intersection) is skipped when that predicate can raise
(:func:`~repro.algebra.predicates.can_raise`), and no selection moves below
a difference at all (see :func:`optimize_expression`).  A property test
checks rewritten expressions evaluate identically to their originals.
"""

from __future__ import annotations

from repro.algebra import expressions as E
from repro.algebra import predicates as P


def simplify_predicate(predicate: P.Predicate) -> P.Predicate:
    """Boolean constant folding and double-negation elimination."""
    if isinstance(predicate, P.Not):
        inner = simplify_predicate(predicate.operand)
        if isinstance(inner, P.Not):
            return inner.operand
        if isinstance(inner, P.TruePred):
            return P.FALSE
        if isinstance(inner, P.FalsePred):
            return P.TRUE
        if isinstance(inner, P.Comparison):
            return P.negate(inner)
        return P.Not(inner)
    if isinstance(predicate, P.And):
        left = simplify_predicate(predicate.left)
        right = simplify_predicate(predicate.right)
        if isinstance(left, P.FalsePred) or isinstance(right, P.FalsePred):
            return P.FALSE
        if isinstance(left, P.TruePred):
            return right
        if isinstance(right, P.TruePred):
            return left
        return P.And(left, right)
    if isinstance(predicate, P.Or):
        left = simplify_predicate(predicate.left)
        right = simplify_predicate(predicate.right)
        if isinstance(left, P.TruePred) or isinstance(right, P.TruePred):
            return P.TRUE
        if isinstance(left, P.FalsePred):
            return right
        if isinstance(right, P.FalsePred):
            return left
        return P.Or(left, right)
    return predicate


def optimize_expression(expr: E.Expression) -> E.Expression:
    """Apply the safe rewrites bottom-up; returns a new expression."""
    if isinstance(expr, E.Select):
        source = optimize_expression(expr.input)
        predicate = simplify_predicate(expr.predicate)
        if isinstance(predicate, P.TruePred):
            return source
        # The rewrites below run the predicate on rows it would not have
        # seen (the inner selection's unknowns; the intersected-away side).
        if P.can_raise(predicate) and not isinstance(source, E.Union):
            return E.Select(source, predicate)
        # Cascade fusion.
        if isinstance(source, E.Select):
            return E.Select(
                source.input,
                simplify_predicate(P.And(source.predicate, predicate)),
            )
        # Push selection through union and intersection, which evaluate
        # and compare both sides whatever they hold.  Not through a
        # difference: σ[p](A) can be empty where A is not, and ∅ − e never
        # evaluates e — the arity check of a malformed A − B would go with it.
        if isinstance(source, (E.Union, E.Intersection)):
            ctor = type(source)
            return ctor(
                optimize_expression(E.Select(source.left, predicate)),
                optimize_expression(E.Select(source.right, predicate)),
            )
        return E.Select(source, predicate)
    if isinstance(expr, E.Project):
        source = optimize_expression(expr.input)
        return E.Project(source, expr.items)
    if isinstance(expr, (E.Union, E.Difference, E.Intersection, E.Product)):
        ctor = type(expr)
        return ctor(optimize_expression(expr.left), optimize_expression(expr.right))
    if isinstance(expr, (E.Join, E.SemiJoin, E.AntiJoin)):
        ctor = type(expr)
        return ctor(
            optimize_expression(expr.left),
            optimize_expression(expr.right),
            simplify_predicate(expr.predicate),
        )
    if isinstance(expr, E.Rename):
        return E.Rename(optimize_expression(expr.input), expr.name, expr.attributes)
    if isinstance(expr, E.Aggregate):
        return E.Aggregate(optimize_expression(expr.input), expr.func, expr.attr)
    if isinstance(expr, E.Count):
        return E.Count(optimize_expression(expr.input))
    if isinstance(expr, E.Multiplicity):
        return E.Multiplicity(optimize_expression(expr.input))
    return expr


def optimize_statement(statement):
    """Optimize the expressions inside one statement."""
    from repro.algebra import statements as S

    if isinstance(statement, S.Assign):
        return S.Assign(statement.name, optimize_expression(statement.expr))
    if isinstance(statement, S.Insert):
        return S.Insert(statement.relation, optimize_expression(statement.expr))
    if isinstance(statement, S.Delete):
        return S.Delete(statement.relation, optimize_expression(statement.expr))
    if isinstance(statement, S.Update):
        return S.Update(
            statement.relation,
            simplify_predicate(statement.predicate),
            statement.assignments,
        )
    if isinstance(statement, S.Alarm):
        return S.Alarm(optimize_expression(statement.expr), statement.message)
    return statement


def optimize_program(program):
    """Optimize every statement of a program, keeping its flags."""
    from repro.algebra.programs import Program

    return Program(
        [optimize_statement(statement) for statement in program],
        non_triggering=program.non_triggering,
    )
