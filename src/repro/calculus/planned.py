"""Plan-backed evaluation of CL constraints: one runtime engine for all.

:mod:`repro.calculus.evaluation` is the semantic ground truth — a
row-at-a-time model checker.  After PR 1 it was still the *runtime* engine
for every constraint outside the pure-alarm shape: compensating-action
rules, translation fallbacks, and post-hoc audits all paid model-checking
prices.  This module retires that slow path: any range-restricted CL
sentence is compiled **once per schema** through the paper's own pipeline —
``TransC``/``CalcToAlg`` (Algs 5.5-5.6) into algebra, then
:mod:`repro.algebra.planner` into cached physical plans — and evaluated by
executing those plans against whatever resolver is at hand (a
:class:`~repro.engine.session.DatabaseView`, a transaction context, ...).

Formulas the monolithic translator rejects are *decomposed* before giving
up: the compiler normalizes the top-level boolean structure (De Morgan,
implication expansion, quantifier negation pushing) and recursively
compiles the closed subformulas, so e.g. a conjunction of two universals —
untranslatable as a whole — becomes two physical plans combined with a
short-circuiting boolean ``and``.  Only the genuinely untranslatable
residue falls back to the model checker, and the compiled artifact reports
that via :attr:`CompiledConstraint.fully_planned`.

Verdict semantics match the translated algebra: *satisfied unless
definitely violated* (an ``alarm``-form plan fires exactly on definite
violations).  Boolean recombination of leaf verdicts preserves that
top-level verdict: collapsing Kleene *unknown* to *satisfied* at the leaves
commutes with ``and``/``or`` (both are monotone, and negations are pushed
into the leaves before compilation).  The NULL-laden corners where alarm
form and model checker can diverge are the same ones PR 1 documented; the
property suite pins agreement on NULL-free databases.

The per-schema cache is keyed on formula structure (formulas are frozen
dataclasses) and held weakly per :class:`~repro.engine.schema.
DatabaseSchema`; entries remember the schema's DDL version and recompile
after ``add_relation``-style changes.
"""

from __future__ import annotations

import weakref
from typing import List

from repro.bounded import BoundedTable
from repro.calculus import ast as C
from repro.calculus.analysis import check_constraint
from repro.calculus.evaluation import evaluate_constraint
from repro.errors import TranslationError

# ---------------------------------------------------------------------------
# Compiled node tree
# ---------------------------------------------------------------------------


class _Node:
    """A compiled verdict node: ``satisfied(resolver) -> bool``."""

    __slots__ = ()
    fully_planned = True

    def satisfied(self, resolver) -> bool:
        raise NotImplementedError

    def leaves(self):
        yield self


class _PlanLeaf(_Node):
    """A translatable subformula, evaluated by its compiled physical plan.

    ``expr`` is the alarm argument TransC produced: non-empty exactly when
    the subformula is definitely violated.
    """

    __slots__ = ("formula", "expr")

    def __init__(self, formula: C.Formula, expr):
        self.formula = formula
        self.expr = expr

    def satisfied(self, resolver) -> bool:
        from repro.algebra import planner

        return len(planner.evaluate(self.expr, resolver)) == 0


class _NaiveLeaf(_Node):
    """Untranslatable residue: the model checker remains the evaluator."""

    __slots__ = ("formula",)
    fully_planned = False

    def __init__(self, formula: C.Formula):
        self.formula = formula

    def satisfied(self, resolver) -> bool:
        return evaluate_constraint(self.formula, resolver, validate=False)


class _BoolNode(_Node):
    __slots__ = ("children",)

    def __init__(self, children: List[_Node]):
        self.children = children

    @property
    def fully_planned(self) -> bool:
        return all(child.fully_planned for child in self.children)

    def leaves(self):
        for child in self.children:
            yield from child.leaves()


class _AndNode(_BoolNode):
    def satisfied(self, resolver) -> bool:
        return all(child.satisfied(resolver) for child in self.children)


class _OrNode(_BoolNode):
    def satisfied(self, resolver) -> bool:
        return any(child.satisfied(resolver) for child in self.children)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _compile_node(formula: C.Formula, db) -> _Node:
    """Compile one closed subformula (see module docs for the strategy)."""
    from repro.algebra.statements import Alarm
    from repro.core.translation import _trans_c_statement

    try:
        statement = _trans_c_statement(formula, db, None)
    except TranslationError:
        statement = None
    if isinstance(statement, Alarm):
        return _PlanLeaf(formula, statement.expr)
    # The whole formula is outside the monolithic translator's fragment:
    # normalize the top-level boolean structure and compile the pieces.
    # Subformulas of a closed connective are themselves closed, so each
    # recursion stays a well-formed constraint.
    if isinstance(formula, C.And):
        return _AndNode(
            [_compile_node(formula.left, db), _compile_node(formula.right, db)]
        )
    if isinstance(formula, C.Or):
        return _OrNode(
            [_compile_node(formula.left, db), _compile_node(formula.right, db)]
        )
    if isinstance(formula, C.Implies):
        return _compile_node(C.Or(C.Not(formula.left), formula.right), db)
    if isinstance(formula, C.Not):
        operand = formula.operand
        # Push the negation one level (exact in Kleene logic), then retry.
        if isinstance(operand, C.Not):
            return _compile_node(operand.operand, db)
        if isinstance(operand, C.And):
            return _compile_node(
                C.Or(C.Not(operand.left), C.Not(operand.right)), db
            )
        if isinstance(operand, C.Or):
            return _compile_node(
                C.And(C.Not(operand.left), C.Not(operand.right)), db
            )
        if isinstance(operand, C.Implies):
            return _compile_node(
                C.And(operand.left, C.Not(operand.right)), db
            )
        if isinstance(operand, C.Forall):
            return _compile_node(
                C.Exists(operand.var, C.Not(operand.body)), db
            )
        if isinstance(operand, C.Exists):
            return _compile_node(
                C.Forall(operand.var, C.Not(operand.body)), db
            )
    if isinstance(formula, (C.Exists, C.Forall)):
        # Last chance before the model checker: miniscope the normalized
        # formula.  Pulling bound-variable-free conjuncts out of
        # existentials (∃x(A ∧ B(x)) ⇒ A ∧ ∃x B(x)) can expose top-level
        # boolean structure the decomposition above then splits into
        # independently-plannable pieces — e.g. an existential whose body
        # carries a closed quantified conjunct.  NNF and miniscoping are
        # exact in Kleene semantics, so leaf verdicts recombine unchanged.
        from repro.core.translation import miniscope, nnf

        try:
            normalized = miniscope(nnf(formula))
        except TranslationError:
            normalized = None
        if normalized is not None and normalized != formula and isinstance(
            normalized, (C.And, C.Or)
        ):
            return _compile_node(normalized, db)
    return _NaiveLeaf(formula)


class CompiledConstraint:
    """A CL sentence compiled for plan-backed evaluation."""

    __slots__ = ("formula", "root", "schema_version")

    def __init__(self, formula: C.Formula, root: _Node, schema_version: int):
        self.formula = formula
        self.root = root
        self.schema_version = schema_version

    @property
    def fully_planned(self) -> bool:
        """True when no subformula needs the naive model checker."""
        return self.root.fully_planned

    def plan_count(self) -> int:
        return sum(
            1 for leaf in self.root.leaves() if isinstance(leaf, _PlanLeaf)
        )

    def plan_expressions(self):
        """The algebra expressions behind the plan leaves (for cost
        estimation and index advice on fallback constraints)."""
        for leaf in self.root.leaves():
            if isinstance(leaf, _PlanLeaf):
                yield leaf.expr

    def conjunctive_plan_expressions(self):
        """The plan-leaf alarm expressions, when the decomposition is a pure
        conjunction of planned leaves — else None.

        This is the shape differential specialization can incrementalize
        per-leaf: pre-state correctness of the whole formula distributes
        over ``and`` (every conjunct held before the transaction), so each
        leaf's violation expression satisfies the Def 3.5 premise on its
        own.  Disjunctions do not distribute that way, and naive residue
        has no plan to rewrite, so both return None.
        """
        expressions: List = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _PlanLeaf):
                expressions.append(node.expr)
            elif isinstance(node, _AndNode):
                stack.extend(node.children)
            else:
                return None
        expressions.reverse()
        return expressions

    def residue(self) -> List[C.Formula]:
        """The untranslatable subformulas still evaluated naively."""
        return [
            leaf.formula
            for leaf in self.root.leaves()
            if isinstance(leaf, _NaiveLeaf)
        ]

    def satisfied(self, resolver) -> bool:
        """The *satisfied unless definitely violated* verdict."""
        return self.root.satisfied(resolver)

    def violated(self, resolver) -> bool:
        return not self.root.satisfied(resolver)

    def __repr__(self) -> str:
        kind = "fully planned" if self.fully_planned else "partial"
        return (
            f"CompiledConstraint({self.plan_count()} plans, "
            f"{len(self.residue())} naive, {kind})"
        )


# ---------------------------------------------------------------------------
# The per-schema constraint cache
# ---------------------------------------------------------------------------

# DatabaseSchema (weak) -> BoundedTable {formula: CompiledConstraint}.
# Formula keys are frozen dataclasses, so structurally equal constraints
# share one compiled artifact.
_COMPILED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_cache_hits = 0
_cache_misses = 0


def compile_constraint(formula: C.Formula, db) -> CompiledConstraint:
    """The cached compiled form of ``formula`` under schema ``db``.

    A formula is validated (closed, range-restricted) when it is compiled,
    so an open one raises :class:`~repro.errors.AnalysisError` as the model
    checker does; a cache hit was validated when it was filed.
    """
    global _cache_hits, _cache_misses
    per_schema = _COMPILED.get(db)
    if per_schema is None:
        per_schema = _COMPILED.setdefault(db, BoundedTable())
    version = getattr(db, "version", 0)
    cached = per_schema.get(formula)
    if cached is not None and cached.schema_version == version:
        _cache_hits += 1
        return cached
    _cache_misses += 1
    check_constraint(formula)
    compiled = CompiledConstraint(formula, _compile_node(formula, db), version)
    per_schema.file(formula, compiled)
    return compiled


def evaluate_constraint_planned(
    formula: C.Formula, resolver, db=None
) -> bool:
    """Plan-backed counterpart of :func:`~repro.calculus.evaluation.
    evaluate_constraint` (same verdict convention).

    ``db`` is the :class:`~repro.engine.schema.DatabaseSchema` to compile
    against; when omitted it is discovered from the resolver's ``database``
    attribute.  Without a schema in reach (bare standalone contexts) the
    naive evaluator answers directly.
    """
    if db is None:
        db = getattr(getattr(resolver, "database", None), "schema", None)
    if db is None:
        return evaluate_constraint(formula, resolver, validate=False)
    return compile_constraint(formula, db).satisfied(resolver)


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
