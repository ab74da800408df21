"""Rule optimization: OptR / OptC (paper Alg 5.4) and differential tests.

Alg 5.4 restricts rule optimization to the *condition*:
``OptR(J) = (triggers(J), OptC(condition(J)), action(J))``.  The paper
leaves OptC's internals open, listing the applicable technique families:

* syntactic manipulation of constraint specifications (Nicolas [14];
  Hsu & Imielinski [11]) — here :func:`opt_c`, a simplification pass;
* differential relations to avoid unnecessary data access (Simon &
  Valduriez [18]; Bernstein et al. [5]; Grefen & Apers [7]) — here
  :func:`differential_programs`, which specializes a *translated* rule
  program per elementary update type so that enforcement touches only the
  tuples the transaction actually changed (``R@plus`` / ``R@minus``);
* semantic manipulation (Qian & Wiederhold [16]) — out of scope, as in the
  paper.

The differential specialization is one call into the *general* delta-rewrite
transform of :mod:`repro.algebra.delta`, which incrementalizes any
translated check built from selections, projections, joins, semi/antijoins
and set operators — with vacuity ("deleting referers is safe", "adding
targets is safe", triggers on unmentioned relations) falling out of the
transform's emptiness propagation instead of being enumerated.

**The premise** is the paper's Def 3.5, which is precisely what
``differential=True`` asserts: the pre-transaction state is correct.  For a
translated violation expression ``V`` that reads ``old(V) = ∅`` — and for a
*transition* constraint, whose ``V`` also reads pre-state leaves ``R@old``,
it reads the same with every ``R`` taken as ``R@old``: the identity
transition is legal.  That is what
:meth:`~repro.core.subsystem.IntegrityController.violated_constraints`
evaluates between transactions, so transition constraints are *in*: ``R@old``
is a constant of the transaction to the delta algebra, ``salaries never
decrease`` (``emp ⋉θ emp@old``) specializes to ``alarm(emp@plus ⋉θ
emp@old)`` for ``INS(emp)``, and triggers that can only shrink the violation
set come out vacuous.  A transition rule the identity transition violates
("every salary strictly rises") is outside the premise, like a state rule
the pre-state already breaks; ``differential=False`` keeps the full-state
programs for those.

What stays on the full-state program: aggregates over a changed input (the
algebra has no rule for them — the *physical* layer makes them cheap
instead, by answering from a sum/extremum the relation maintains, see
:meth:`repro.engine.relation.Relation.aggregate`) and compensating actions
(guarding an action by a delta check of its condition changes behaviour for
actions that are not self-selecting, so it is not done).
:attr:`~repro.core.modification.ModificationStats.full_state_rule_names`
names them per modified transaction.

A vacuous trigger yields an *empty* program: the store simply has nothing to
append for that update type, which is itself a measurable saving (bench E6).

A condition outside the one-piece translator's fragment compiles to one
``alarm`` per CNF clause (:mod:`repro.calculus.planned`).  Pre-state
correctness distributes over ``∧`` (every clause held before the
transaction), so each clause's alarm incrementalizes on its own, the
disjunctive clauses included: a clause's alarm is non-empty exactly when
all its disjuncts are violated, which is one relational expression.  Only a
clause holding untranslatable residue (a
:class:`~repro.core.translation.CheckConstraint`) keeps the full check.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.algebra.delta import NotIncrementalizable, delta_expression
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm
from repro.calculus import ast as C


# ---------------------------------------------------------------------------
# OptC: syntactic condition simplification
# ---------------------------------------------------------------------------


def opt_c(condition: C.Formula) -> C.Formula:
    """Simplify a CL condition, preserving semantics.

    Rewrites: double negation, De-Morgan-directed constant elimination,
    ``a => false`` to ``not a``, ``true => a`` to ``a``, and recursive
    descent through quantifiers.
    """
    if isinstance(condition, C.Not):
        inner = opt_c(condition.operand)
        if isinstance(inner, C.Not):
            return inner.operand
        if isinstance(inner, C.Const):
            pass
        return C.Not(inner)
    if isinstance(condition, C.And):
        left = opt_c(condition.left)
        right = opt_c(condition.right)
        if _is_const(left, True):
            return right
        if _is_const(right, True):
            return left
        return C.And(left, right)
    if isinstance(condition, C.Or):
        left = opt_c(condition.left)
        right = opt_c(condition.right)
        if _is_const(left, False):
            return right
        if _is_const(right, False):
            return left
        return C.Or(left, right)
    if isinstance(condition, C.Implies):
        left = opt_c(condition.left)
        right = opt_c(condition.right)
        if _is_const(left, True):
            return right
        if _is_const(right, False):
            return C.Not(left)
        return C.Implies(left, right)
    if isinstance(condition, C.Forall):
        return C.Forall(condition.var, opt_c(condition.body))
    if isinstance(condition, C.Exists):
        return C.Exists(condition.var, opt_c(condition.body))
    if isinstance(condition, C.Compare):
        folded = _fold_comparison(condition)
        return folded if folded is not None else condition
    return condition


def _is_const(node: C.Formula, value: bool) -> bool:
    return (
        isinstance(node, C.Compare)
        and isinstance(node.left, C.Const)
        and isinstance(node.right, C.Const)
        and _compare_consts(node) is value
    )


def _fold_comparison(node: C.Compare) -> Optional[C.Formula]:
    if isinstance(node.left, C.Const) and isinstance(node.right, C.Const):
        return node  # kept as-is; _is_const reads its truth value
    return None


def _compare_consts(node: C.Compare) -> Optional[bool]:
    left, right = node.left.value, node.right.value
    try:
        return {
            "<": left < right,
            "<=": left <= right,
            "=": left == right,
            "!=": left != right,
            ">=": left >= right,
            ">": left > right,
        }[node.op]
    except TypeError:
        return None


def opt_r(rule):
    """Alg 5.4: optimize a rule's condition, keep triggers and action.

    Returns a new :class:`~repro.core.rules.IntegrityRule`.
    """
    from repro.core.rules import IntegrityRule

    return IntegrityRule(
        opt_c(rule.condition),
        action=rule.action,
        triggers=rule.triggers,
        name=rule.name,
    )


# ---------------------------------------------------------------------------
# Differential specialization of translated programs
# ---------------------------------------------------------------------------


def differential_programs(
    rule, translated: Program
) -> Optional[Dict[tuple, Program]]:
    """Per-trigger differential variants of a translated aborting program.

    Returns ``{trigger_spec: program}`` covering *every* trigger of the rule
    (vacuous triggers map to an empty program), or None when the translated
    program cannot be incrementalized — in which case the caller keeps the
    full-state program for all triggers.

    Each per-trigger program alarms on the general delta rewrite
    (:func:`repro.algebra.delta.delta_expression`) of every translated
    violation expression with exactly that trigger's leaf delta active.  By
    linearity of the delta rules, the union of the matched triggers'
    programs covers the transaction's full delta, and under the
    pre-state-correctness premise (Def 3.5) a non-empty delta is exactly a
    violation of the post-state check.

    Programs made of ``alarm`` statements only (the output of ``trans_c``,
    one per CNF clause of the condition) are specialized.  Violation
    expressions may read pre-state leaves ``R@old`` (transition
    constraints).  Residue checks and compensating actions are left
    untouched, as the paper leaves their analysis out of scope.
    """
    statements = translated.statements
    if not statements or not all(isinstance(s, Alarm) for s in statements):
        return None
    specialized: Dict[tuple, Program] = {}
    for trigger in rule.triggers:
        variants = []
        try:
            for alarm in statements:
                variant = delta_expression(alarm.expr, frozenset([trigger]))
                if variant is not None:
                    variants.append(Alarm(variant, message=alarm.message))
        except NotIncrementalizable:
            return None
        specialized[trigger] = Program(variants)
    return specialized


def vacuous_triggers(rule, translated: Program) -> List[tuple]:
    """Triggers for which the rule's check is provably unnecessary."""
    programs = differential_programs(rule, translated)
    if programs is None:
        return []
    return [trigger for trigger, program in programs.items() if program.is_empty]
