"""The general delta-rewrite transform: incrementalize any algebra expression.

Differential enforcement (Simon & Valduriez [18]; Grefen & Apers [7]) pays
off because checking touches only what a transaction changed.  Until this
module, the repro incrementalized a *pattern table* of eight alarm shapes;
everything else fell back to full re-evaluation.  Here the rewrite is what
the literature says it is — a recursive transform over the whole algebra
(Qian & Wiederhold-style finite differencing; cf. Griffin & Libkin's
incremental view maintenance rules).

For an expression ``e`` let ``e`` (as written) denote its value in the
*post*-transaction state, ``old(e)`` its value in the *pre*-transaction
state, and let the transaction's net leaf differentials be
``ΔR⁺ = R@plus`` and ``ΔR⁻ = R@minus``.  The transform computes *sandwich
bounds* rather than exact differences:

* ``delta_plus(e)``  satisfies  ``e − old(e)  ⊆  Δ⁺e  ⊆  e``;
* ``delta_minus(e)`` satisfies  ``old(e) − e  ⊆  Δ⁻e``  and  ``Δ⁻e ∩ e = ∅``.

These invariants are exactly what differential *checking* needs: a
translated violation expression ``V`` with ``old(V) = ∅`` (the paper's
Def 3.5 pre-state-correctness assumption) has ``V ≠ ∅  iff  Δ⁺V ≠ ∅`` — and
``Δ⁺V = V`` as a set, so even the violating-tuple sets agree.  Dropping the
difference-correction terms an exact derivative would need keeps the
rewritten plans free of full-relation subtractions.

**Transition constraints.**  A pre-state leaf ``R@old`` is a *transaction
constant*: nothing the transaction does changes it, so ``Δ⁺(R@old) =
Δ⁻(R@old) = ∅`` and ``old(R@old) = R@old``, and the rules below apply to
an expression over ``R`` and ``R@old`` unchanged.  The premise reads the
same way: ``old(V) = ∅`` with every ``R`` read as ``R@old`` — the
violation expression is empty when post-state and pre-state are both the
pre-transaction state, i.e. *the identity transition is legal*.  That is
what a between-transactions audit evaluates
(:class:`~repro.engine.session.DatabaseView` resolves ``R@old`` to the
current state), so it is the same Def 3.5 premise, not a new one.  Under
it ``salaries never decrease`` (``emp ⋉θ emp@old``) checks as
``emp@plus ⋉θ emp@old``; a transition rule whose identity transition is
illegal ("every salary strictly rises") violates the premise, exactly as
a state rule the pre-state already violates does.

Rules (⊳ = antijoin, ⋉ = semijoin; ``old(e)`` rewrites every base ``R`` to
``R@old``)::

    Δ⁺R          = R@plus                    Δ⁻R          = R@minus
    Δ⁺σ_p(e)     = σ_p(Δ⁺e)                  Δ⁻σ_p(e)     = σ_p(Δ⁻e)
    Δ⁺π(e)       = π(Δ⁺e)                    Δ⁻π(e)       = π(Δ⁻e) − π(e)
    Δ⁺(l ∪ r)    = Δ⁺l ∪ Δ⁺r                 Δ⁻(l ∪ r)    = (Δ⁻l ∪ Δ⁻r) − (l ∪ r)
    Δ⁺(l − r)    = (Δ⁺l − r) ∪ (l ∩ Δ⁻r)     Δ⁻(l − r)    = (Δ⁻l − old(r)) ∪ (old(l) ∩ Δ⁺r)
    Δ⁺(l ∩ r)    = (Δ⁺l ∩ r) ∪ (l ∩ Δ⁺r)     Δ⁻(l ∩ r)    = (Δ⁻l ∩ old(r)) ∪ (old(l) ∩ Δ⁻r)
    Δ⁺(l ⋈ r)    = (Δ⁺l ⋈ r) ∪ (l ⋈ Δ⁺r)     Δ⁻(l ⋈ r)    = (Δ⁻l ⋈ old(r)) ∪ (old(l) ⋈ Δ⁻r)
    Δ⁺(l ⋉ r)    = (Δ⁺l ⋉ r) ∪ (l ⋉ Δ⁺r)     Δ⁻(l ⋉ r)    = (Δ⁻l ⋉ old(r)) ∪ ((old(l) ⋉ Δ⁻r) ⊳ r)
    Δ⁺(l ⊳ r)    = (Δ⁺l ⊳ r) ∪ ((l ⋉ Δ⁻r) ⊳ r)
    Δ⁻(l ⊳ r)    = (Δ⁻l ⊳ old(r)) ∪ ((old(l) ⋉ Δ⁺r) ⊳ old(r))

(Products follow the join rules with a true predicate; renames commute with
both deltas.)  Each rule is *linear*: every union term carries exactly one
leaf delta, so restricting the active leaf deltas to a single trigger
specification ``U(R)`` yields that trigger's differential program.  Every
other factor is a post-state ``e`` or a pre-state ``old(e)``, whatever the
trigger: a per-trigger program reads every other relation's pre-state, even
one only another trigger changed, so the union of a transaction's matched
pieces is the whole transaction's delta.  (Deleting both links of a witness
chain ``a ⊳ (b ⋉ c)`` is seen by neither piece if each reads the other link
live, already emptied.)

**Vacuity is emptiness propagation.**  The transform represents a provably
empty subexpression as ``None`` and simplifies on the way up (``σ_p(∅) = ∅``,
``∅ ∪ e = e``, ``∅ ⋈ e = ∅`` ...), so "deleting referers is safe", "adding
targets is safe", and every other row of the old pattern table fall out of
the algebra instead of being enumerated — including for triggers on
relations the expression never mentions.

**Honest failure.**  Aggregates (``SUM``/``CNT``/``MLT`` and friends) over a
*changed* input have no delta rule here, and an expression that itself
reads a differential (``R@plus``/``R@minus`` written as a plain relation
name) is already a statement about the transaction, not a state to
difference; :func:`delta_expression` raises :class:`NotIncrementalizable`
for both and the caller keeps the full-state program.  Aggregates over
untouched inputs simplify to empty like any other unaffected subtree.  The
full-state aggregate program is nevertheless cheap to *run*: the physical
layer answers ``SUM``/``AVG``/``MIN``/``MAX`` from a value the relation
maintains under its own mutations, corrected by the transaction's delta
(:meth:`repro.engine.relation.Relation.aggregate`) — cheap physically, not
algebraically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, Optional

from repro.algebra import expressions as E
from repro.algebra.statements import DEL, INS
from repro.engine import naming

#: trigger kind activating a plus leaf / minus leaf, by delta sign.
_KIND_FOR_SIGN = {E.DELTA_PLUS: INS, E.DELTA_MINUS: DEL}


class NotIncrementalizable(Exception):
    """The expression contains an operator the delta rules cannot handle."""


def delta_expression(
    expr: E.Expression,
    triggers,
    kind: str = E.DELTA_PLUS,
) -> Optional[E.Expression]:
    """The ``kind`` delta of ``expr`` with exactly ``triggers`` active.

    ``triggers`` is an iterable of trigger specifications ``(U, R)`` with
    ``U in {INS, DEL}``: an ``INS(R)`` spec makes the leaf delta ``R@plus``
    available (non-empty), ``DEL(R)`` makes ``R@minus`` available; every
    other leaf delta is treated as empty.  Returns the rewritten expression,
    or ``None`` when the delta is provably empty — the *vacuous* case, where
    the triggers cannot change the expression's value at all.

    Raises :class:`NotIncrementalizable` when ``expr`` contains an
    aggregate/counting operator over an affected input, or reads a
    differential (``R@plus``/``R@minus``) as a plain relation.  Pre-state
    leaves ``R@old`` are transaction constants (see the module docs).
    """
    # Generated trigger sets may name ``R@old`` (its membership atoms look
    # like any other); no update ever reaches a transaction constant.
    active = frozenset(
        trigger for trigger in triggers if not naming.is_auxiliary(trigger[1])
    )
    _check_differential_free(expr)
    return _delta(expr, kind, active)


def old_expression(expr: E.Expression) -> E.Expression:
    """``expr`` evaluated in the pre-transaction state.

    Every base relation becomes ``R@old``, whichever trigger a program is
    specialized for; inside a transaction ``R@old`` is the live,
    index-carrying base relation, so the rewrite costs a plan no index.
    """
    return _old(expr)


# ---------------------------------------------------------------------------
# None-aware constructors (None = provably empty relation)
# ---------------------------------------------------------------------------


def _union(left: Optional[E.Expression], right: Optional[E.Expression]):
    if left is None:
        return right
    if right is None:
        return left
    return E.Union(left, right)


def _is_affected(expr: E.Expression, active: FrozenSet[tuple]) -> bool:
    relations = expr.relations()
    return any(relation in relations for _, relation in active)


def _check_differential_free(expr: E.Expression) -> None:
    for name in expr.relations():
        if naming.split_auxiliary(name)[1] not in (None, naming.OLD_SUFFIX):
            raise NotIncrementalizable(
                f"expression reads the differential {name!r} as a relation; "
                f"only states (R, R@old) can be differenced"
            )


# ---------------------------------------------------------------------------
# The recursive transform
# ---------------------------------------------------------------------------


def _delta(
    expr: E.Expression, sign: str, active: FrozenSet[tuple]
) -> Optional[E.Expression]:
    # Uniform vacuity: a subtree over relations no active trigger touches
    # keeps its value, so its delta (either sign) is empty.  This covers
    # Literal leaves and aggregates over untouched inputs for free.
    if not _is_affected(expr, active):
        return None

    if isinstance(expr, E.RelationRef):
        if (_KIND_FOR_SIGN[sign], expr.name) in active:
            return E.Delta(expr.name, sign)
        return None

    if isinstance(expr, E.Select):
        child = _delta(expr.input, sign, active)
        return None if child is None else E.Select(child, expr.predicate)

    if isinstance(expr, E.Project):
        child = _delta(expr.input, sign, active)
        if child is None:
            return None
        projected = E.Project(child, expr.items)
        if sign == E.DELTA_PLUS:
            return projected
        # A projected row may survive via other source rows; subtract the
        # post-state projection to keep Δ⁻ disjoint from the new value.
        return E.Difference(projected, E.Project(expr.input, expr.items))

    if isinstance(expr, E.Rename):
        child = _delta(expr.input, sign, active)
        if child is None:
            return None
        return E.Rename(child, expr.name, expr.attributes)

    if isinstance(expr, E.Union):
        merged = _union(
            _delta(expr.left, sign, active), _delta(expr.right, sign, active)
        )
        if merged is None or sign == E.DELTA_PLUS:
            return merged
        # A row dropped from one branch may persist through the other.
        return E.Difference(merged, expr)

    if isinstance(expr, E.Difference):
        return _delta_difference(expr, sign, active)

    if isinstance(expr, E.Intersection):
        return _delta_intersection(expr, sign, active)

    if isinstance(expr, (E.Join, E.Product)):
        return _delta_join(expr, sign, active)

    if isinstance(expr, E.SemiJoin):
        return _delta_semijoin(expr, sign, active)

    if isinstance(expr, E.AntiJoin):
        return _delta_antijoin(expr, sign, active)

    raise NotIncrementalizable(
        f"no delta rule for {type(expr).__name__} over a changed input"
    )


def _delta_difference(expr: E.Difference, sign, active):
    if sign == E.DELTA_PLUS:
        plus_left = _delta(expr.left, E.DELTA_PLUS, active)
        minus_right = _delta(expr.right, E.DELTA_MINUS, active)
        grown = None if plus_left is None else E.Difference(plus_left, expr.right)
        # Rows of the (new) left side whose blocker was deleted: Δ⁻r is
        # disjoint from the new right side by invariant, so the
        # intersection lands outside r and inside l − r.
        unblocked = (
            None if minus_right is None else E.Intersection(expr.left, minus_right)
        )
        return _union(grown, unblocked)
    minus_left = _delta(expr.left, E.DELTA_MINUS, active)
    plus_right = _delta(expr.right, E.DELTA_PLUS, active)
    shrunk = (
        None
        if minus_left is None
        else E.Difference(minus_left, _old(expr.right))
    )
    blocked = (
        None
        if plus_right is None
        else E.Intersection(_old(expr.left), plus_right)
    )
    return _union(shrunk, blocked)


def _delta_intersection(expr: E.Intersection, sign, active):
    if sign == E.DELTA_PLUS:
        left_term = _delta(expr.left, sign, active)
        right_term = _delta(expr.right, sign, active)
        return _union(
            None if left_term is None else E.Intersection(left_term, expr.right),
            None if right_term is None else E.Intersection(expr.left, right_term),
        )
    left_term = _delta(expr.left, sign, active)
    right_term = _delta(expr.right, sign, active)
    return _union(
        None
        if left_term is None
        else E.Intersection(left_term, _old(expr.right)),
        None
        if right_term is None
        else E.Intersection(_old(expr.left), right_term),
    )


def _join_like(expr, left, right):
    if isinstance(expr, E.Product):
        return E.Product(left, right)
    return E.Join(left, right, expr.predicate)


def _delta_join(expr, sign, active):
    left_term = _delta(expr.left, sign, active)
    right_term = _delta(expr.right, sign, active)
    if sign == E.DELTA_PLUS:
        return _union(
            None if left_term is None else _join_like(expr, left_term, expr.right),
            None if right_term is None else _join_like(expr, expr.left, right_term),
        )
    return _union(
        None
        if left_term is None
        else _join_like(expr, left_term, _old(expr.right)),
        None
        if right_term is None
        else _join_like(expr, _old(expr.left), right_term),
    )


def _delta_semijoin(expr: E.SemiJoin, sign, active):
    pred = expr.predicate
    if sign == E.DELTA_PLUS:
        plus_left = _delta(expr.left, E.DELTA_PLUS, active)
        plus_right = _delta(expr.right, E.DELTA_PLUS, active)
        return _union(
            None if plus_left is None else E.SemiJoin(plus_left, expr.right, pred),
            # Old left rows whose *first* witness just arrived: any row
            # matching a Δ⁺ witness matches the new right side, so the term
            # stays inside the post-state semijoin.
            None if plus_right is None else E.SemiJoin(expr.left, plus_right, pred),
        )
    minus_left = _delta(expr.left, E.DELTA_MINUS, active)
    minus_right = _delta(expr.right, E.DELTA_MINUS, active)
    first = (
        None
        if minus_left is None
        else E.SemiJoin(minus_left, _old(expr.right), pred)
    )
    # Rows whose witnesses were deleted — but only those with no surviving
    # witness (the trailing antijoin keeps Δ⁻ disjoint from the new value).
    second = (
        None
        if minus_right is None
        else E.AntiJoin(
            E.SemiJoin(_old(expr.left), minus_right, pred),
            expr.right,
            pred,
        )
    )
    return _union(first, second)


def _delta_antijoin(expr: E.AntiJoin, sign, active):
    pred = expr.predicate
    if sign == E.DELTA_PLUS:
        plus_left = _delta(expr.left, E.DELTA_PLUS, active)
        minus_right = _delta(expr.right, E.DELTA_MINUS, active)
        first = (
            None if plus_left is None else E.AntiJoin(plus_left, expr.right, pred)
        )
        # Left rows that lost a blocker: restrict to rows matching a deleted
        # right tuple, then re-check against the surviving right side.  This
        # is the classical "referers of deleted targets" form.
        second = (
            None
            if minus_right is None
            else E.AntiJoin(
                E.SemiJoin(expr.left, minus_right, pred), expr.right, pred
            )
        )
        return _union(first, second)
    minus_left = _delta(expr.left, E.DELTA_MINUS, active)
    plus_right = _delta(expr.right, E.DELTA_PLUS, active)
    first = (
        None
        if minus_left is None
        else E.AntiJoin(minus_left, _old(expr.right), pred)
    )
    second = (
        None
        if plus_right is None
        else E.AntiJoin(
            E.SemiJoin(_old(expr.left), plus_right, pred),
            _old(expr.right),
            pred,
        )
    )
    return _union(first, second)


# ---------------------------------------------------------------------------
# Pre-state rewriting
# ---------------------------------------------------------------------------


def _old(expr: E.Expression) -> E.Expression:
    # ``R@old`` leaves and relation-free subtrees are their own pre-state.
    if all(naming.is_auxiliary(name) for name in expr.relations()):
        return expr
    if isinstance(expr, E.RelationRef):
        return E.RelationRef(naming.old_name(expr.name))
    if isinstance(expr, _UNARY):
        return replace(expr, input=_old(expr.input))
    if isinstance(expr, _BINARY):
        return replace(expr, left=_old(expr.left), right=_old(expr.right))
    raise NotIncrementalizable(
        f"cannot rewrite {type(expr).__name__} to its pre-state form"
    )


_UNARY = (E.Select, E.Project, E.Rename, E.Aggregate, E.Count, E.Multiplicity)
_BINARY = (
    E.Union, E.Difference, E.Intersection, E.Join, E.SemiJoin, E.AntiJoin, E.Product
)
