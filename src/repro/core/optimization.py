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
  tuples the transaction actually changed (``R@plus`` / ``R@minus``), and
  :func:`differential_repair`, which makes a compensating action read
  them too;
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

**Compensating actions** (:func:`differential_repair`).  ``IF NOT C THEN
action`` owes the action only when ``C`` fails, and under the premise ``C``
fails only through one of its per-trigger Δ-checks.  An action that reads
the violations ``V`` of one of ``C``'s alarms — the paper's R2,
``diff(π_brewery(beer), π_name(brewery))``, is ``π_brewery(beer ⊳ brewery)``
— reads ``∪_{t∈matched} Δ⁺ₜV`` instead: ``V`` is empty before the
transaction, so the union *is* ``V`` (the sandwich bounds of
:mod:`repro.algebra.delta`), at O(|Δ|) instead of O(|R|).  The action is
appended once however many triggers match, and not at all for a trigger
whose every Δ-check is vacuous.  An orphan older than the rule breaks the
premise exactly as it breaks an aborting rule's Δ-checks: the Δ-read never
sees it, ``differential=False`` repairs it on the next trigger.

What stays on the full-state program: aggregates over a changed input (the
algebra has no rule for them — the *physical* layer makes them cheap
instead, by answering from a sum/extremum the relation maintains, see
:meth:`repro.engine.relation.Relation.aggregate`), and a compensating
action whose condition has such an aggregate or a residue clause, or which
reads no violation expression of its condition.
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

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.delta import NotIncrementalizable, delta_expression
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm
from repro.calculus import ast as C
from repro.engine.schema import DatabaseSchema
from repro.errors import UnknownAttributeError


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
    return condition


def _is_const(node: C.Formula, value: bool) -> bool:
    return (
        isinstance(node, C.Compare)
        and isinstance(node.left, C.Const)
        and isinstance(node.right, C.Const)
        and _compare_consts(node) is value
    )


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


def _alarm_deltas(rule, translated: Program) -> Optional[Dict[tuple, tuple]]:
    """Per trigger of ``rule``, the Δ⁺ of every alarm of ``translated``, in
    order (None where that trigger leaves it provably empty); None unless
    ``translated`` is alarms only and every alarm incrementalizes."""
    alarms = translated.statements
    if not alarms or not all(isinstance(alarm, Alarm) for alarm in alarms):
        return None
    try:
        return {
            trigger: tuple(
                delta_expression(alarm.expr, frozenset([trigger]))
                for alarm in alarms
            )
            for trigger in rule.triggers
        }
    except NotIncrementalizable:
        return None


def _delta_programs(translated: Program, deltas) -> Dict[tuple, Program]:
    return {
        trigger: Program(
            Alarm(variant, message=alarm.message)
            for alarm, variant in zip(translated.statements, variants)
            if variant is not None
        )
        for trigger, variants in deltas.items()
    }


def differential_programs(
    rule, translated: Program
) -> Optional[Dict[tuple, Program]]:
    """Per-trigger differential variants of a translated check program.

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
    constraints).  Residue checks are left untouched.  A compensating
    rule's condition specializes the same way, for its
    :func:`differential_repair`.
    """
    deltas = _alarm_deltas(rule, translated)
    return None if deltas is None else _delta_programs(translated, deltas)


def vacuous_triggers(rule, translated: Program) -> List[tuple]:
    """Triggers for which the rule's check is provably unnecessary."""
    programs = differential_programs(rule, translated)
    if programs is None:
        return []
    return [trigger for trigger, program in programs.items() if program.is_empty]


# ---------------------------------------------------------------------------
# Differential compensation: the action reads Δ⁺ of its condition's violations
# ---------------------------------------------------------------------------


class DeltaRead:
    """A compensating action whose reads of its condition's violations are
    rewritten per matched trigger set.

    ``action`` reads every recognised violation expression ``V`` literally
    (as ``V`` or ``π(V)``); ``deltas[V][t]`` is ``Δ⁺ₜV``, None when trigger
    ``t`` leaves ``V`` provably empty.  Under Def 3.5 ``V`` is empty before
    the transaction, so ``∪_{t∈matched} Δ⁺ₜV = V`` as a set at any point of
    it, and the action computes the rows it computes on the full state.
    """

    __slots__ = ("action", "deltas")

    def __init__(self, action: Program, deltas: Dict[E.Expression, Dict]):
        self.action = action
        self.deltas = deltas

    def action_for(self, matched: Iterable) -> Program:
        """The action reading, for every recognised ``V``, the union of the
        matched triggers' ``Δ⁺ₜV``.  A ``V`` every matched trigger leaves
        empty keeps its full-state read (another clause of the condition
        triggered the action)."""
        substitutions: Dict[E.Expression, E.Expression] = {}
        for violations, per_trigger in self.deltas.items():
            union: Optional[E.Expression] = None
            for trigger in sorted(matched):
                piece = per_trigger[trigger]
                if piece is not None:
                    union = piece if union is None else E.Union(union, piece)
            if union is not None:
                substitutions[violations] = union
        return Program(
            (
                _rewrite_statement(statement, substitutions.get)
                for statement in self.action
            ),
            non_triggering=self.action.non_triggering,
        )


def differential_repair(
    rule, action: Program, check: Program, db: DatabaseSchema
) -> Optional[Tuple[Dict[tuple, Program], DeltaRead]]:
    """The Δ-checks of a compensating rule and its action's :class:`DeltaRead`.

    ``check`` is the translated condition (``trans_c``).  An expression the
    action reads that normalises to one of its alarm expressions ``V``, or
    to ``π_items(V)``, is a *recognised read*; the normalisation is one
    rewrite, ``diff(π_a R, π_b S)`` over plain columns to
    ``π_a(R ⊳[a = b] S)``, the antijoin form ``calc_to_alg`` emits for
    ``∀r∈R ∃s∈S r.a = s.b``.  Returns None — the rule keeps its full-state
    program — when the check does not incrementalize (an aggregate, a
    residue clause) or the action has no recognised read.
    """
    deltas = _alarm_deltas(rule, check)
    if deltas is None:
        return None
    positions = {}
    for position, alarm in enumerate(check.statements):
        key = _antijoin_key(alarm.expr, db)
        if key is not None:
            positions.setdefault(key, position)
    read: Dict[E.Expression, Dict[tuple, Optional[E.Expression]]] = {}

    def recognise(expr: E.Expression) -> Optional[E.Expression]:
        found = _read_key(expr, db)
        if found is None or found[0] not in positions:
            return None
        position = positions[found[0]]
        violations = check.statements[position].expr
        read[violations] = {
            trigger: variants[position] for trigger, variants in deltas.items()
        }
        items = found[1]
        return violations if items is None else E.Project(violations, items)

    template = Program(
        (_rewrite_statement(statement, recognise) for statement in action),
        non_triggering=action.non_triggering,
    )
    if not read:
        return None
    return _delta_programs(check, deltas), DeltaRead(template, read)


def _rewrite_statement(statement, visit):
    expr = getattr(statement, "expr", None)
    if not isinstance(expr, E.Expression):
        return statement
    rewritten = _rewrite(expr, visit)
    return statement if rewritten is expr else replace(statement, expr=rewritten)


def _rewrite(expr: E.Expression, visit) -> E.Expression:
    """``expr`` with every outermost node ``visit`` maps replaced."""
    mapped = visit(expr)
    if mapped is not None:
        return mapped
    return E.rewrite_children(expr, lambda child: _rewrite(child, visit))


def _base_schema(expr: E.Expression, db: DatabaseSchema):
    """The schema of a base relation under selections, else None."""
    while isinstance(expr, E.Select):
        expr = expr.input
    if isinstance(expr, E.RelationRef) and expr.name in db:
        return db.relation(expr.name)
    return None


def _column(item, schema):
    """The attribute a plain-column projection item reads, else None."""
    ref = item.expr
    if not isinstance(ref, P.ColRef) or ref.side not in (None, "left"):
        return None
    try:
        return schema.attribute_at(ref.attr)
    except UnknownAttributeError:
        return None


def _antijoin_key(expr: E.Expression, db: DatabaseSchema):
    """``(R, S, {(a, b) …})`` for ``σ…(R ⊳[a = b ∧ …] S)`` over base
    relations (the selections, which read R's columns, pushed into R), else
    None."""
    selections = []
    while isinstance(expr, E.Select):
        selections.append(expr.predicate)
        expr = expr.input
    if not isinstance(expr, E.AntiJoin):
        return None
    left_schema = _base_schema(expr.left, db)
    right_schema = _base_schema(expr.right, db)
    if left_schema is None or right_schema is None:
        return None
    pairs = set()
    pending = [expr.predicate]
    while pending:
        node = pending.pop()
        if isinstance(node, P.And):
            pending += [node.left, node.right]
            continue
        if not (
            isinstance(node, P.Comparison)
            and node.op == "="
            and isinstance(node.left, P.ColRef)
            and isinstance(node.right, P.ColRef)
            and {node.left.side, node.right.side} == {"left", "right"}
        ):
            return None
        left, right = (
            (node.left, node.right)
            if node.left.side == "left"
            else (node.right, node.left)
        )
        try:
            pairs.add(
                (
                    left_schema.attribute_at(left.attr).name,
                    right_schema.attribute_at(right.attr).name,
                )
            )
        except UnknownAttributeError:
            return None
    left = expr.left
    for predicate in reversed(selections):
        left = E.Select(left, predicate)
    return left, expr.right, frozenset(pairs)


def _antijoin_form(expr: E.Expression, db: DatabaseSchema) -> E.Expression:
    """``diff(π_a R, π_b S)`` over plain columns as ``π_a(R ⊳[a = b ∧ …]
    S)``; any other ``expr`` as it is.

    Both drop an ``r.a`` some ``s.b`` equals, so they are one set where
    the two equalities agree: the difference matches NULL to NULL and
    compares values of any type, where ``=`` is three-valued and typed.
    Each pair therefore needs one side that cannot hold NULL, and equal
    domains.
    """
    if not isinstance(expr, E.Difference):
        return expr
    left, right = expr.left, expr.right
    if not (isinstance(left, E.Project) and isinstance(right, E.Project)):
        return expr
    left_schema = _base_schema(left.input, db)
    right_schema = _base_schema(right.input, db)
    if left_schema is None or right_schema is None:
        return expr
    if len(left.items) != len(right.items):
        return expr
    equalities = []
    for left_item, right_item in zip(left.items, right.items):
        a = _column(left_item, left_schema)
        b = _column(right_item, right_schema)
        if a is None or b is None or a.domain != b.domain:
            return expr
        if a.nullable and b.nullable:
            return expr
        equalities.append(
            P.Comparison("=", P.ColRef(a.name, "left"), P.ColRef(b.name, "right"))
        )
    return E.Project(
        E.AntiJoin(left.input, right.input, P.conjoin(*equalities)), left.items
    )


def _read_key(expr: E.Expression, db: DatabaseSchema):
    """``(antijoin key, projection items or None)`` of an expression that
    normalises to ``V`` or ``π_items(V)`` for an equi-antijoin ``V``, else
    None."""
    expr = _antijoin_form(expr, db)
    items = None
    if isinstance(expr, E.Project):
        expr, items = expr.input, expr.items
    key = _antijoin_key(expr, db)
    return None if key is None else (key, items)
