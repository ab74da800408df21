"""Rule translation: TransR, TransC, CalcToAlg (paper Algs 5.5-5.6, Table 1).

``trans_r`` translates an integrity rule into an extended relational algebra
program.  Aborting rules translate their condition through ``trans_c`` into
an ``alarm`` program (Def 5.1); compensating rules use their violation
response action directly (the paper's ``TransCA``: "in most practical cases
the program produced ... can be equal to the violation response action").

``trans_c`` implements Alg 5.6.  For a universally quantified constraint
``(forall x)(c'(x))`` it emits ``alarm(CalcToAlg({x | not c'(x)}))`` — the
alarm fires exactly when a *violating* tuple exists.  For an existentially
quantified constraint it emits
``alarm(select(CNT(CalcToAlg({x | c'(x)})), cnt = 0))`` — the alarm fires
when no witness exists.  Quantifier-free constraints over aggregate terms
(Table 1's last two rows) select the negated condition over the single-row
aggregate relation(s).

``calc_to_alg`` is the tuple-calculus-to-algebra translation the paper
delegates to the literature ([21, 12, 15]).  It covers the range-restricted
fragment in *guarded normal form*: after negation normalization the set
body is a conjunction of membership anchors, local atoms, (negated)
existential subformulas — producing selections, semijoins, antijoins, set
differences and intersections — and aggregate comparisons (producing
semijoins against single-row aggregate relations).  Formulas outside the
fragment are split into CNF clauses by :mod:`repro.calculus.planned`, one
``alarm`` per clause; only a clause holding genuinely untranslatable residue
falls back to a :class:`CheckConstraint` statement (an honest engineering
fallback, which callers can forbid), evaluated by the model checker.

The produced forms coincide with the paper's Table 1 on all seven construct
families; ``table1_form`` additionally emits the *verbatim* table shapes
(e.g. the θ-join form for row 4) for the regeneration benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm, Statement
from repro.calculus import ast as C
from repro.calculus.analysis import free_variables
from repro.engine import naming
from repro.engine.schema import DatabaseSchema, RelationSchema
from repro.errors import TranslationError, UnknownAttributeError


# ---------------------------------------------------------------------------
# Negation normalization
# ---------------------------------------------------------------------------
#
# Target grammar ("existential NNF"): And/Or trees over
#   Compare (op possibly negated), Member, Not(Member),
#   TupleEq, Not(TupleEq), Exists(var, nnf), Not(Exists(var, nnf)).
# Universal quantifiers are rewritten through ¬∃¬.


def nnf(formula: C.Formula, positive: bool = True) -> C.Formula:
    """Normalize ``formula`` (or its negation, when positive=False)."""
    if isinstance(formula, C.Forall):
        if positive:
            return C.Not(C.Exists(formula.var, nnf(formula.body, False)))
        return C.Exists(formula.var, nnf(formula.body, False))
    if isinstance(formula, C.Exists):
        if positive:
            return C.Exists(formula.var, nnf(formula.body, True))
        return C.Not(C.Exists(formula.var, nnf(formula.body, True)))
    if isinstance(formula, C.Not):
        return nnf(formula.operand, not positive)
    if isinstance(formula, C.And):
        if positive:
            return C.And(nnf(formula.left, True), nnf(formula.right, True))
        return C.Or(nnf(formula.left, False), nnf(formula.right, False))
    if isinstance(formula, C.Or):
        if positive:
            return C.Or(nnf(formula.left, True), nnf(formula.right, True))
        return C.And(nnf(formula.left, False), nnf(formula.right, False))
    if isinstance(formula, C.Implies):
        if positive:
            return C.Or(nnf(formula.left, False), nnf(formula.right, True))
        return C.And(nnf(formula.left, True), nnf(formula.right, False))
    if isinstance(formula, C.Compare):
        if positive:
            return formula
        from repro.algebra.predicates import COMPARISON_NEGATIONS

        return C.Compare(COMPARISON_NEGATIONS[formula.op], formula.left, formula.right)
    if isinstance(formula, (C.Member, C.TupleEq)):
        return formula if positive else C.Not(formula)
    raise TranslationError(f"unknown formula node {formula!r}")


def _flatten_and(formula: C.Formula) -> List[C.Formula]:
    if isinstance(formula, C.And):
        return _flatten_and(formula.left) + _flatten_and(formula.right)
    return [formula]


def _conjoin_formulas(parts: List[C.Formula]) -> C.Formula:
    result = parts[0]
    for part in parts[1:]:
        result = C.And(result, part)
    return result


def miniscope(formula: C.Formula) -> C.Formula:
    """Pull conjuncts that do not mention the bound variable out of
    positive existentials: ``∃y(A ∧ B(y))  ⇒  A ∧ ∃y(B(y))``.

    Standard miniscoping; applied to the NNF violation formula it exposes
    the membership anchors that :func:`calc_to_alg` needs (e.g. for the
    Table 1 row-4 family, where ``x in R`` starts out buried inside the
    existential over ``y``), and it narrows nested existentials so their
    linking predicates mention only adjacent variables.
    """
    if isinstance(formula, C.Exists):
        body = miniscope(formula.body)
        if isinstance(body, C.Or):
            return C.Exists(formula.var, body)
        conjuncts = _flatten_and(body)
        kept = [part for part in conjuncts if formula.var in free_variables(part)]
        pulled = [part for part in conjuncts if formula.var not in free_variables(part)]
        if not pulled or not kept:
            return C.Exists(formula.var, body)
        return _conjoin_formulas(pulled + [C.Exists(formula.var, _conjoin_formulas(kept))])
    if isinstance(formula, C.Not):
        operand = formula.operand
        if isinstance(operand, C.Exists) and not isinstance(operand.body, C.Or):
            # Pulling a conjunct out of a *negated* existential would turn
            # ¬∃y(A ∧ B(y)) into ¬(A ∧ ∃y B(y)) — no longer the antijoin
            # shape.  Miniscope each conjunct in place instead.
            parts = [miniscope(part) for part in _flatten_and(operand.body)]
            return C.Not(C.Exists(operand.var, _conjoin_formulas(parts)))
        return C.Not(miniscope(operand))
    if isinstance(formula, C.And):
        return C.And(miniscope(formula.left), miniscope(formula.right))
    if isinstance(formula, C.Or):
        return C.Or(miniscope(formula.left), miniscope(formula.right))
    if isinstance(formula, C.Forall):  # pragma: no cover - NNF has no foralls
        return C.Forall(formula.var, miniscope(formula.body))
    return formula


# ---------------------------------------------------------------------------
# Static schema inference (for tuple-equality expansion and arity checks)
# ---------------------------------------------------------------------------


def static_schema(expr: E.Expression, db: DatabaseSchema) -> RelationSchema:
    """Infer the output schema of an expression the translator built."""
    if isinstance(expr, E.RelationRef):
        return db.relation(naming.base_of(expr.name))
    if isinstance(expr, E.Delta):
        return db.relation(expr.relation)
    if isinstance(expr, (E.Select, E.SemiJoin, E.AntiJoin)):
        return static_schema(expr.input if isinstance(expr, E.Select) else expr.left, db)
    if isinstance(expr, (E.Union, E.Difference, E.Intersection)):
        return static_schema(expr.left, db)
    if isinstance(expr, (E.Join, E.Product)):
        left = static_schema(expr.left, db)
        right = static_schema(expr.right, db)
        return RelationSchema(
            f"{left.name}_x",
            [
                type(attribute)(f"a{i}", attribute.domain, attribute.nullable)
                for i, attribute in enumerate(
                    list(left.attributes) + list(right.attributes), start=1
                )
            ],
        )
    if isinstance(expr, (E.Aggregate, E.Count, E.Multiplicity)):
        from repro.engine.schema import Attribute
        from repro.engine.types import ANY

        return RelationSchema("aggregate", [Attribute("value", ANY, nullable=True)])
    raise TranslationError(f"cannot infer schema of {expr!r}")


# ---------------------------------------------------------------------------
# Term and atom mapping
# ---------------------------------------------------------------------------


class _AggregateTerm(Exception):
    """Internal: raised when a term contains an aggregate application."""


def _map_term(term: C.Term, sides: Dict[str, Optional[str]]) -> P.ScalarExpr:
    if isinstance(term, C.Const):
        return P.Const(term.value)
    if isinstance(term, C.AttrSel):
        if term.var not in sides:
            raise TranslationError(
                f"variable {term.var!r} not in scope for predicate mapping"
            )
        return P.ColRef(term.attr, sides[term.var])
    if isinstance(term, C.ArithTerm):
        return P.Arith(
            term.op, _map_term(term.left, sides), _map_term(term.right, sides)
        )
    if isinstance(term, (C.AggTerm, C.CntTerm, C.MltTerm)):
        raise _AggregateTerm()
    raise TranslationError(f"unknown term node {term!r}")


def _aggregate_expr(term: C.Term) -> E.Expression:
    """The single-row relation computing an aggregate/counting term."""
    if isinstance(term, C.AggTerm):
        return E.Aggregate(E.RelationRef(term.relation), term.func, term.attr)
    if isinstance(term, C.CntTerm):
        return E.Count(E.RelationRef(term.relation))
    if isinstance(term, C.MltTerm):
        return E.Multiplicity(E.RelationRef(term.relation))
    raise TranslationError(f"{term!r} is not an aggregate term")


def _is_aggregate_term(term: C.Term) -> bool:
    return isinstance(term, (C.AggTerm, C.CntTerm, C.MltTerm))


def _atom_predicate(
    atom: C.Formula,
    sides: Dict[str, Optional[str]],
    arities: Dict[str, int],
) -> P.Predicate:
    """Map an (optionally negated) atom to an algebra predicate."""
    if isinstance(atom, C.Not):
        return P.negate(_atom_predicate(atom.operand, sides, arities))
    if isinstance(atom, C.Compare):
        return P.Comparison(
            atom.op, _map_term(atom.left, sides), _map_term(atom.right, sides)
        )
    if isinstance(atom, C.TupleEq):
        left_arity = arities.get(atom.left)
        right_arity = arities.get(atom.right)
        if left_arity is None or right_arity is None or left_arity != right_arity:
            raise TranslationError(
                f"tuple equality {atom.left} = {atom.right} over relations of "
                f"unknown or different arity"
            )
        comparisons = [
            P.Comparison(
                "=",
                P.ColRef(position, sides[atom.left]),
                P.ColRef(position, sides[atom.right]),
            )
            for position in range(1, left_arity + 1)
        ]
        return P.conjoin(*comparisons)
    raise TranslationError(f"{atom!r} cannot be used as a predicate atom")


def _try_local_predicate(
    formula: C.Formula,
    sides: Dict[str, Optional[str]],
    arities: Dict[str, int],
) -> Optional[P.Predicate]:
    """Convert a quantifier- and membership-free formula to a predicate.

    Returns None when the formula contains quantifiers, membership atoms, or
    aggregate terms (those need relational treatment, not a predicate).
    """
    if isinstance(formula, (C.Exists, C.Forall, C.Member)):
        return None
    if isinstance(formula, C.Not):
        inner = _try_local_predicate(formula.operand, sides, arities)
        return None if inner is None else P.negate(inner)
    if isinstance(formula, (C.And, C.Or)):
        left = _try_local_predicate(formula.left, sides, arities)
        right = _try_local_predicate(formula.right, sides, arities)
        if left is None or right is None:
            return None
        ctor = P.And if isinstance(formula, C.And) else P.Or
        return ctor(left, right)
    if isinstance(formula, C.Implies):
        return _try_local_predicate(
            C.Or(C.Not(formula.left), formula.right), sides, arities
        )
    try:
        return _atom_predicate(formula, sides, arities)
    except _AggregateTerm:
        return None


# ---------------------------------------------------------------------------
# CalcToAlg: {var | formula} for the guarded fragment
# ---------------------------------------------------------------------------


def _needs_relational_split(formula: C.Formula) -> bool:
    """True when a disjunct cannot live inside a tuple predicate — it
    contains membership atoms, quantifiers, tuple equalities, or aggregate
    terms — so a disjunction containing it must be distributed into a union
    of set bodies rather than compiled to a ``P.Or``."""
    if isinstance(formula, (C.Member, C.TupleEq, C.Exists, C.Forall)):
        return True
    if isinstance(formula, C.Not):
        return _needs_relational_split(formula.operand)
    if isinstance(formula, (C.And, C.Or, C.Implies)):
        return _needs_relational_split(formula.left) or _needs_relational_split(
            formula.right
        )
    if isinstance(formula, C.Compare):
        return any(
            _term_has_aggregate(term) for term in (formula.left, formula.right)
        )
    return False


def _term_has_aggregate(term: C.Term) -> bool:
    if _is_aggregate_term(term):
        return True
    if isinstance(term, C.ArithTerm):
        return _term_has_aggregate(term.left) or _term_has_aggregate(term.right)
    return False


def _branch_well_typed(branch: C.Formula, db: DatabaseSchema) -> bool:
    """Every attribute selection resolves against every relation its
    variable is anchored on within ``branch``."""
    from repro.calculus.analysis import variable_ranges

    ranges = variable_ranges(branch)
    schemas = {
        variable: [db.relation(naming.base_of(rel)) for rel in sorted(rels)]
        for variable, rels in ranges.items()
    }
    for term in C.iter_terms(branch):
        if isinstance(term, C.AttrSel):
            for schema in schemas.get(term.var, []):
                try:
                    schema.position_of(term.attr)
                except UnknownAttributeError:
                    return False
    return True


def calc_to_alg(var: str, formula: C.Formula, db: DatabaseSchema) -> E.Expression:
    """Translate the set comprehension ``{var | formula}`` to algebra.

    ``formula`` must already be in existential NNF (see :func:`nnf`).
    """
    formula = miniscope(formula)
    if isinstance(formula, C.Or):
        return E.Union(
            calc_to_alg(var, formula.left, db),
            calc_to_alg(var, formula.right, db),
        )
    conjuncts = _flatten_and(formula)

    # Distribute relational disjunctions:
    # {var | rest ∧ (A ∨ B)} = {var | rest ∧ A} ∪ {var | rest ∧ B} whenever
    # A/B carry memberships or quantifiers and therefore cannot become a
    # tuple predicate.  (Multiplicities of rows satisfying both branches
    # inflate in bag mode; translated checks only test emptiness.)
    for position, conjunct in enumerate(conjuncts):
        if isinstance(conjunct, C.Or) and _needs_relational_split(conjunct):
            rest = conjuncts[:position] + conjuncts[position + 1 :]
            branches = [
                _conjoin_formulas(rest + [conjunct.left]),
                _conjoin_formulas(rest + [conjunct.right]),
            ]
            for branch in branches:
                if not _branch_well_typed(branch, db):
                    # A branch may re-anchor the variable on a relation its
                    # attribute references do not resolve against; only the
                    # fallback's per-relation typing can evaluate that.
                    raise TranslationError(
                        "disjunctive branch is not well-typed against its "
                        "own anchors"
                    )
            left = calc_to_alg(var, branches[0], db)
            right = calc_to_alg(var, branches[1], db)
            if (
                static_schema(left, db).arity
                != static_schema(right, db).arity
            ):
                # Anchors of different arity per branch: the union would be
                # ill-typed; per-branch typing needs the fallback.
                raise TranslationError(
                    "disjunctive branches translate to different arities"
                )
            return E.Union(left, right)

    anchors = [
        conjunct
        for conjunct in conjuncts
        if isinstance(conjunct, C.Member) and conjunct.var == var
    ]
    if not anchors:
        raise TranslationError(
            f"set body for {var!r} has no membership anchor "
            f"'{var} in R' in guarded position"
        )
    base_name = anchors[0].relation
    current: E.Expression = E.RelationRef(base_name)
    base_schema = db.relation(naming.base_of(base_name))
    var_arity = base_schema.arity

    local_predicates: List[P.Predicate] = []

    for conjunct in conjuncts:
        if conjunct is anchors[0]:
            continue
        if isinstance(conjunct, C.Member) and conjunct.var == var:
            other_schema = db.relation(naming.base_of(conjunct.relation))
            if other_schema.arity != var_arity:
                raise TranslationError(
                    f"intersecting memberships of {var!r} over relations of "
                    f"different arity"
                )
            current = E.Intersection(current, E.RelationRef(conjunct.relation))
            continue
        if (
            isinstance(conjunct, C.Not)
            and isinstance(conjunct.operand, C.Member)
            and conjunct.operand.var == var
        ):
            current = E.Difference(current, E.RelationRef(conjunct.operand.relation))
            continue
        if isinstance(conjunct, C.Exists):
            current = _apply_exists(
                current, var, var_arity, conjunct, db, positive=True
            )
            continue
        if isinstance(conjunct, C.Not) and isinstance(conjunct.operand, C.Exists):
            current = _apply_exists(
                current, var, var_arity, conjunct.operand, db, positive=False
            )
            continue
        # Remaining: (negated) atoms local to var, possibly with aggregates,
        # or fully variable-free ("global") conditions.
        handled = _try_atom_with_aggregates(current, var, conjunct, db)
        if handled is not None:
            current = handled
            continue
        predicate = _try_local_predicate(
            conjunct, {var: None}, {var: var_arity}
        )
        if predicate is None:
            raise TranslationError(
                f"conjunct {conjunct!r} is outside the translatable fragment"
            )
        local_predicates.append(predicate)

    if local_predicates:
        current = E.Select(current, P.conjoin(*local_predicates))
    return current


def _try_atom_with_aggregates(
    current: E.Expression, var: str, conjunct: C.Formula, db: DatabaseSchema
) -> Optional[E.Expression]:
    """Handle comparisons involving aggregate terms, and variable-free
    conjuncts, by semijoining against single-row aggregate relations."""
    atom = conjunct.operand if isinstance(conjunct, C.Not) else conjunct
    negated = isinstance(conjunct, C.Not)
    if not isinstance(atom, C.Compare):
        return None
    has_aggregate = any(
        _is_aggregate_term(term)
        for term in (atom.left, atom.right)
    )
    free = free_variables(atom)
    if not has_aggregate and free:
        return None  # plain local atom: handled by predicate path
    if free - {var}:
        raise TranslationError(
            f"atom {atom!r} references out-of-scope variables {free - {var}}"
        )
    op = atom.op
    if negated:
        from repro.algebra.predicates import COMPARISON_NEGATIONS

        op = COMPARISON_NEGATIONS[op]
    left, right = atom.left, atom.right
    if _is_aggregate_term(right) and not _is_aggregate_term(left):
        agg_expr = _aggregate_expr(right)
        left_scalar = _map_term(left, {var: "left"})
        predicate = P.Comparison(op, left_scalar, P.ColRef(1, "right"))
        return E.SemiJoin(current, agg_expr, predicate)
    if _is_aggregate_term(left) and not _is_aggregate_term(right):
        # The aggregate lands on the semijoin's right side, so the
        # comparison keeps its operand order via the right-side ColRef.
        agg_expr = _aggregate_expr(left)
        right_scalar = _map_term(right, {var: "left"})
        predicate = P.Comparison(op, P.ColRef(1, "right"), right_scalar)
        return E.SemiJoin(current, agg_expr, predicate)
    if _is_aggregate_term(left) and _is_aggregate_term(right):
        combined = E.Product(_aggregate_expr(left), _aggregate_expr(right))
        predicate = P.Comparison(op, P.ColRef(1), P.ColRef(2))
        return E.SemiJoin(current, E.Select(combined, predicate), P.TRUE)
    if not free and not has_aggregate:
        # Constant-only comparison: keep or drop everything.
        sides: Dict[str, Optional[str]] = {}
        predicate = P.Comparison(
            op, _map_term(left, sides), _map_term(right, sides)
        )
        return E.Select(current, predicate)
    return None


def _apply_exists(
    current: E.Expression,
    var: str,
    var_arity: int,
    exists: C.Exists,
    db: DatabaseSchema,
    positive: bool,
) -> E.Expression:
    """Translate a (negated) existential conjunct as a semi/antijoin."""
    inner_var = exists.var
    if isinstance(exists.body, C.Or):
        free = free_variables(exists.body)
        if free - {inner_var}:
            # Disjunctive body referencing outer variables: distribute the
            # existential over the disjunction.  Positive:
            # {x ∈ cur | ∃y(A ∨ B)} = (cur where ∃yA) ∪ (cur where ∃yB);
            # negative: ¬∃y(A ∨ B) = ¬∃yA ∧ ¬∃yB applies both sequentially.
            left = C.Exists(inner_var, exists.body.left)
            right = C.Exists(inner_var, exists.body.right)
            if positive:
                return E.Union(
                    _apply_exists(current, var, var_arity, left, db, True),
                    _apply_exists(current, var, var_arity, right, db, True),
                )
            narrowed = _apply_exists(current, var, var_arity, left, db, False)
            return _apply_exists(narrowed, var, var_arity, right, db, False)
        witness = calc_to_alg(inner_var, exists.body, db)
        ctor = E.SemiJoin if positive else E.AntiJoin
        return ctor(current, witness, P.TRUE)

    inner_conjuncts = _flatten_and(exists.body)
    # A relational disjunction among the body's conjuncts (e.g. a linking
    # disjunct mixing a membership with a comparison) cannot become a join
    # predicate; distribute it and retry as a disjunctive body.
    for position, part in enumerate(inner_conjuncts):
        if isinstance(part, C.Or) and _needs_relational_split(part):
            rest = inner_conjuncts[:position] + inner_conjuncts[position + 1 :]
            split = C.Exists(
                inner_var,
                C.Or(
                    _conjoin_formulas(rest + [part.left]),
                    _conjoin_formulas(rest + [part.right]),
                ),
            )
            return _apply_exists(current, var, var_arity, split, db, positive)
    inner_only: List[C.Formula] = []
    linking: List[C.Formula] = []
    for part in inner_conjuncts:
        free = free_variables(part)
        if var in free:
            if positive:
                # Miniscoping already hoisted var-only conjuncts, so this
                # one genuinely links the two variables.
                linking.append(part)
            elif inner_var in free:
                linking.append(part)
            else:
                # ¬∃y(α(x) ∧ β(y)) is ¬α(x) ∨ ¬∃y β(y): not conjunctive.
                raise TranslationError(
                    f"outer-variable conjunct under a negated existential: "
                    f"{part!r}"
                )
        else:
            inner_only.append(part)
    if not inner_only:
        raise TranslationError(
            f"existential variable {inner_var!r} has no local conjuncts "
            f"(missing membership anchor)"
        )
    witness = calc_to_alg(inner_var, _conjoin_formulas(inner_only), db)
    witness_arity = static_schema(witness, db).arity

    if linking:
        sides = {var: "left", inner_var: "right"}
        arities = {var: var_arity, inner_var: witness_arity}
        predicates = []
        for part in linking:
            predicate = _try_local_predicate(part, sides, arities)
            if predicate is None:
                raise TranslationError(
                    f"linking conjunct {part!r} is not a predicate over "
                    f"{var!r} and {inner_var!r}"
                )
            predicates.append(predicate)
        predicate = P.conjoin(*predicates)
    else:
        predicate = P.TRUE
    ctor = E.SemiJoin if positive else E.AntiJoin
    return ctor(current, witness, predicate)


# ---------------------------------------------------------------------------
# TransC (Alg 5.6) and TransR (Alg 5.5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckConstraint(Statement):
    """Residue statement: evaluate a CL constraint by the model checker.

    A condition compiles to alarms (:mod:`repro.calculus.planned`); a CNF
    clause of it holding a subformula outside the translatable fragment
    (the paper's translation algorithm is also partial: "a complete
    translation algorithm is not presented here") becomes this statement
    instead.  It aborts like ``alarm`` on violation.
    """

    formula: C.Formula
    message: Optional[str] = None

    def execute(self, context) -> None:
        from repro.errors import TransactionAborted

        if not self.holds(context):
            raise TransactionAborted(self.message or "constraint check failed")

    def holds(self, context) -> bool:
        from repro.calculus.evaluation import evaluate_constraint

        return evaluate_constraint(self.formula, context, validate=False)

    def relations_read(self) -> set:
        from repro.calculus.analysis import relation_names

        return relation_names(self.formula)


def trans_c(
    condition: C.Formula,
    db: DatabaseSchema,
    name: Optional[str] = None,
    allow_fallback: bool = True,
) -> Program:
    """Alg 5.6: translate a condition into an aborting algebra program.

    The program is the condition's check program
    (:func:`~repro.calculus.planned.compile_constraint`) with every
    statement labelled ``name``.  Without ``allow_fallback`` a condition
    with untranslatable residue raises instead.
    """
    from repro.calculus.planned import compile_constraint

    statements = compile_constraint(condition, db).statements
    if not allow_fallback and any(
        isinstance(statement, CheckConstraint) for statement in statements
    ):
        raise TranslationError(
            f"condition has untranslatable residue: {condition!r}"
        )
    return Program(replace(statement, message=name) for statement in statements)


def _trans_c_statement(condition: C.Formula, db: DatabaseSchema) -> Alarm:
    """The one-piece translation (Alg 5.6) of a whole condition."""
    if isinstance(condition, C.Forall):
        violations = calc_to_alg(condition.var, nnf(condition, False).body, db)
        return Alarm(violations)
    if isinstance(condition, C.Exists):
        witnesses = calc_to_alg(condition.var, nnf(condition, True).body, db)
        guard = E.Select(
            E.Count(witnesses), P.Comparison("=", P.ColRef(1), P.Const(0))
        )
        return Alarm(guard)
    # Quantifier-free (aggregate) constraints: Table 1 rows 6-7 generalized.
    negated = nnf(condition, False)
    violation_expr = _aggregate_condition_expr(negated, db)
    return Alarm(violation_expr)


def _aggregate_condition_expr(
    negated: C.Formula, db: DatabaseSchema
) -> E.Expression:
    """Violation expression for a quantifier-free aggregate condition.

    Collect the distinct aggregate terms, build the product of their
    single-row relations, and select the rows (the single combined row)
    satisfying the *negated* condition.
    """
    terms: List[C.Term] = []

    def collect(node: C.Formula) -> None:
        if isinstance(node, C.Compare):
            for term in (node.left, node.right):
                _collect_agg_terms(term, terms)
        elif isinstance(node, C.Not):
            collect(node.operand)
        elif isinstance(node, (C.And, C.Or, C.Implies)):
            collect(node.left)
            collect(node.right)
        elif isinstance(node, (C.Member, C.TupleEq, C.Exists, C.Forall)):
            raise TranslationError(
                "quantifier-free translation applies to aggregate conditions "
                "only"
            )

    collect(negated)
    if not terms:
        raise TranslationError("condition mentions no relations")
    positions = {term: position for position, term in enumerate(terms, start=1)}
    combined: E.Expression = _aggregate_expr(terms[0])
    for term in terms[1:]:
        combined = E.Product(combined, _aggregate_expr(term))
    predicate = _aggregate_formula_predicate(negated, positions)
    return E.Select(combined, predicate)


def _collect_agg_terms(term: C.Term, accumulator: List[C.Term]) -> None:
    if _is_aggregate_term(term):
        if term not in accumulator:
            accumulator.append(term)
    elif isinstance(term, C.ArithTerm):
        _collect_agg_terms(term.left, accumulator)
        _collect_agg_terms(term.right, accumulator)
    elif isinstance(term, C.AttrSel):
        raise TranslationError(
            "free tuple variable in quantifier-free condition"
        )


def _aggregate_formula_predicate(
    node: C.Formula, positions: Dict[C.Term, int]
) -> P.Predicate:
    if isinstance(node, C.Compare):
        return P.Comparison(
            node.op,
            _aggregate_term_scalar(node.left, positions),
            _aggregate_term_scalar(node.right, positions),
        )
    if isinstance(node, C.Not):
        return P.negate(_aggregate_formula_predicate(node.operand, positions))
    if isinstance(node, C.And):
        return P.And(
            _aggregate_formula_predicate(node.left, positions),
            _aggregate_formula_predicate(node.right, positions),
        )
    if isinstance(node, C.Or):
        return P.Or(
            _aggregate_formula_predicate(node.left, positions),
            _aggregate_formula_predicate(node.right, positions),
        )
    if isinstance(node, C.Implies):
        return P.Or(
            P.negate(_aggregate_formula_predicate(node.left, positions)),
            _aggregate_formula_predicate(node.right, positions),
        )
    raise TranslationError(f"unexpected node in aggregate condition: {node!r}")


def _aggregate_term_scalar(
    term: C.Term, positions: Dict[C.Term, int]
) -> P.ScalarExpr:
    if _is_aggregate_term(term):
        return P.ColRef(positions[term], None)
    if isinstance(term, C.Const):
        return P.Const(term.value)
    if isinstance(term, C.ArithTerm):
        return P.Arith(
            term.op,
            _aggregate_term_scalar(term.left, positions),
            _aggregate_term_scalar(term.right, positions),
        )
    raise TranslationError(f"unexpected term in aggregate condition: {term!r}")


def trans_r(rule, db: DatabaseSchema) -> Program:
    """Alg 5.5: translate an integrity rule into an algebra program.

    Aborting rules: translate the condition (``alarm`` form).  Compensating
    rules: the violation response action itself (``TransCA``), preserving a
    non-triggering flag.
    """
    if rule.is_aborting:
        return trans_c(rule.condition, db, name=rule.name)
    return rule.action_program()


# ---------------------------------------------------------------------------
# Table 1 verbatim forms (for the regeneration benchmark and tests)
# ---------------------------------------------------------------------------


def table1_form(condition: C.Formula, db: DatabaseSchema) -> Optional[Statement]:
    """Return the *verbatim* Table 1 translation when the condition matches
    one of the seven construct families, else None.

    The only family where this differs from :func:`trans_c` is row 4 (the
    two-variable universal), where the paper shows the θ-join form
    ``alarm(σ_{¬c2'}(R ⋈_{c1'} S))`` while the general translator produces
    the equivalent semijoin form.
    """
    row4 = _match_row4(condition, db)
    if row4 is not None:
        return row4
    try:
        return _trans_c_statement(condition, db)
    except TranslationError:
        return None


def _match_row4(condition: C.Formula, db: DatabaseSchema) -> Optional[Statement]:
    """(forall x, y)((x in R and y in S and c1(x,y)) => c2(x,y))."""
    if not isinstance(condition, C.Forall):
        return None
    outer = condition
    if not isinstance(outer.body, C.Forall):
        return None
    inner = outer.body
    if not isinstance(inner.body, C.Implies):
        return None
    antecedent = _flatten_and(inner.body.left)
    consequent = inner.body.right
    members = [part for part in antecedent if isinstance(part, C.Member)]
    rest = [part for part in antecedent if not isinstance(part, C.Member)]
    member_vars = {member.var for member in members}
    if member_vars != {outer.var, inner.var} or len(members) != 2:
        return None
    by_var = {member.var: member.relation for member in members}
    left_rel, right_rel = by_var[outer.var], by_var[inner.var]
    sides = {outer.var: "left", inner.var: "right"}
    arities = {
        outer.var: db.relation(naming.base_of(left_rel)).arity,
        inner.var: db.relation(naming.base_of(right_rel)).arity,
    }
    try:
        join_parts = [_atom_predicate(part, sides, arities) for part in rest]
        join_pred = P.conjoin(*join_parts) if join_parts else P.TRUE
        consequent_pred = _try_local_predicate(consequent, sides, arities)
    except (TranslationError, _AggregateTerm):
        return None
    if consequent_pred is None:
        return None
    joined = E.Join(E.RelationRef(left_rel), E.RelationRef(right_rel), join_pred)
    return Alarm(E.Select(joined, P.negate(consequent_pred)))
