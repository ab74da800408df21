"""A CL sentence compiles to its check program: alarms, and residue checks.

:mod:`repro.calculus.evaluation` is the semantic ground truth — a
row-at-a-time model checker.  Every runtime check goes through the paper's
own pipeline instead: ``TransC``/``CalcToAlg`` (Algs 5.5-5.6, Table 1) turn
a condition into ``alarm`` statements, which run by their cached physical
plans against whatever resolver is at hand (a
:class:`~repro.engine.session.DatabaseView`, a transaction context, ...).
:func:`compile_constraint` returns that *check program*, once per schema:

1. a condition the one-piece translator accepts is one ``alarm``;
2. otherwise the formula is normalized (negation pushed down, implication
   expanded, existentials miniscoped) into CNF clauses over closed leaves,
   each leaf a subformula the one-piece translator accepts or genuine
   residue;
3. a clause whose disjuncts ``V₁ … V_k`` all translate becomes
   ``alarm(V₁ ⋉ (V₂ ⋉ (… ⋉ V_k)))`` (every semijoin over ``true``), which
   is non-empty exactly when every disjunct is violated;
4. a clause holding residue becomes one
   :class:`~repro.core.translation.CheckConstraint`, evaluated by the model
   checker.

Verdict semantics match the translated algebra: *satisfied unless definitely
violated*.  A leaf's alarm fires exactly on a definitely false leaf, and
Kleene ``and``/``or`` distribute, so the clauses are definitely false
exactly when the formula is.  A clause's alarm evaluates every disjunct
(its semijoins are plans, not a short-circuiting ``or``), so an error in a
disjunct surfaces even when another disjunct holds.  Because every clause
held before a correct transaction (Def 3.5), each alarm incrementalizes on
its own (:func:`repro.core.optimization.differential_programs`), the
disjunctive clauses included.

The per-schema cache is keyed on formula structure (formulas are frozen
dataclasses) and held weakly per :class:`~repro.engine.schema.
DatabaseSchema`; entries remember the schema's DDL version and recompile
after ``add_relation``-style changes.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.programs import Program
from repro.bounded import BoundedTable
from repro.calculus import ast as C
from repro.calculus.analysis import check_constraint
from repro.calculus.evaluation import evaluate_constraint
from repro.errors import TransactionAborted, TranslationError

#: A closed leaf of the normalized formula and its alarm expression (None
#: for untranslatable residue).
_Leaf = Tuple[C.Formula, Optional[E.Expression]]


def _one_piece(formula: C.Formula, db) -> Optional[E.Expression]:
    """The alarm expression of the one-piece translation, or None."""
    from repro.core.translation import _trans_c_statement

    try:
        return _trans_c_statement(formula, db).expr
    except TranslationError:
        return None


def _clauses(formula: C.Formula, db) -> List[List[_Leaf]]:
    """``formula`` as CNF clauses over closed leaves.

    Subformulas of a closed connective are themselves closed, so each
    recursion stays a well-formed constraint.  Negation pushing, implication
    expansion, distribution and miniscoping are exact in Kleene logic.
    """
    expr = _one_piece(formula, db)
    if expr is not None:
        return [[(formula, expr)]]
    if isinstance(formula, C.And):
        return _clauses(formula.left, db) + _clauses(formula.right, db)
    if isinstance(formula, C.Or):
        right = _clauses(formula.right, db)
        return [
            left + other for left in _clauses(formula.left, db) for other in right
        ]
    if isinstance(formula, C.Implies):
        return _clauses(C.Or(C.Not(formula.left), formula.right), db)
    if isinstance(formula, C.Not):
        operand = formula.operand
        pushed = None
        if isinstance(operand, C.Not):
            pushed = operand.operand
        elif isinstance(operand, C.And):
            pushed = C.Or(C.Not(operand.left), C.Not(operand.right))
        elif isinstance(operand, C.Or):
            pushed = C.And(C.Not(operand.left), C.Not(operand.right))
        elif isinstance(operand, C.Implies):
            pushed = C.And(operand.left, C.Not(operand.right))
        elif isinstance(operand, C.Forall):
            pushed = C.Exists(operand.var, C.Not(operand.body))
        elif isinstance(operand, C.Exists):
            pushed = C.Forall(operand.var, C.Not(operand.body))
        if pushed is not None:
            return _clauses(pushed, db)
    if isinstance(formula, (C.Exists, C.Forall)):
        # Miniscoping can expose top-level boolean structure: pulling
        # bound-variable-free conjuncts out of an existential
        # (∃x(A ∧ B(x)) ⇒ A ∧ ∃x B(x)) splits it into pieces that translate.
        from repro.core.translation import miniscope, nnf

        try:
            normalized = miniscope(nnf(formula))
        except TranslationError:
            normalized = None
        if normalized != formula and isinstance(normalized, (C.And, C.Or)):
            return _clauses(normalized, db)
    return [[(formula, None)]]


def _check_program(formula: C.Formula, db) -> Program:
    """One statement per CNF clause (see the module docs)."""
    from repro.algebra.statements import Alarm
    from repro.core.translation import CheckConstraint

    statements = []
    for clause in _clauses(formula, db):
        if any(expr is None for _, expr in clause):
            disjunction = clause[0][0]
            for leaf, _ in clause[1:]:
                disjunction = C.Or(disjunction, leaf)
            statements.append(CheckConstraint(disjunction))
            continue
        violated = clause[-1][1]
        for _, expr in reversed(clause[:-1]):
            violated = E.SemiJoin(expr, violated, P.TRUE)
        statements.append(Alarm(violated))
    return Program(statements)


# ---------------------------------------------------------------------------
# The per-schema constraint cache
# ---------------------------------------------------------------------------

# DatabaseSchema (weak) -> BoundedTable {formula: (DDL version, Program)}.
# Formula keys are frozen dataclasses, so structurally equal constraints
# share one check program.
_COMPILED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_cache_hits = 0
_cache_misses = 0


def compile_constraint(formula: C.Formula, db) -> Program:
    """The cached check program of ``formula`` under schema ``db``.

    Its statements carry no message.  A formula is validated (closed,
    range-restricted) when it is compiled, so an open one raises
    :class:`~repro.errors.AnalysisError` as the model checker does; a cache
    hit was validated when it was filed.
    """
    global _cache_hits, _cache_misses
    per_schema = _COMPILED.get(db)
    if per_schema is None:
        per_schema = _COMPILED.setdefault(db, BoundedTable())
    version = getattr(db, "version", 0)
    cached = per_schema.get(formula)
    if cached is not None and cached[0] == version:
        _cache_hits += 1
        return cached[1]
    _cache_misses += 1
    check_constraint(formula)
    program = _check_program(formula, db)
    per_schema.file(formula, (version, program))
    return program


def evaluate_constraint_planned(
    formula: C.Formula, resolver, db=None
) -> bool:
    """Plan-backed counterpart of :func:`~repro.calculus.evaluation.
    evaluate_constraint` (same verdict convention): run the check program.

    ``db`` is the :class:`~repro.engine.schema.DatabaseSchema` to compile
    against; when omitted it is discovered from the resolver's ``database``
    attribute.  Without a schema in reach (bare standalone contexts) the
    naive evaluator answers directly.
    """
    if db is None:
        db = getattr(getattr(resolver, "database", None), "schema", None)
    if db is None:
        return evaluate_constraint(formula, resolver, validate=False)
    try:
        for statement in compile_constraint(formula, db):
            statement.execute(resolver)
    except TransactionAborted:
        return False
    return True


def clear_constraint_cache() -> None:
    global _cache_hits, _cache_misses
    _COMPILED.clear()
    _cache_hits = 0
    _cache_misses = 0


def constraint_cache_info() -> dict:
    return {
        "schemas": len(_COMPILED),
        "size": sum(len(per) for per in _COMPILED.values()),
        "hits": _cache_hits,
        "misses": _cache_misses,
    }
