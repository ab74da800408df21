"""Statements of the extended relational algebra (paper Def 2.4, Def 5.1).

Statements are what makes the algebra *extended*: they specify actions
against the database rather than values.  The statement set is the
paper's: assignment, insert, delete, update — plus the ``alarm`` statement
(Def 5.1) that aborts the enclosing transaction when its argument is
non-empty, and the unconditional ``abort`` used by aborting violation
response actions ("THEN abort" in RL).

One statement is added: the ``guard``, which runs a block only when one of
its expressions is non-empty.  It is how a compensating rule ``IF NOT C THEN
action`` is enforced under the differential scheme: under Def 3.5, C can
fail after a transaction only if one of the rule's matched Δ-checks is
non-empty, so the action is guarded by them and a transaction that
leaves C holding pays for the checks alone
(:meth:`~repro.core.programs.IntegrityProgram.action_for`).

Every statement implements:

``execute(context)``
    run against a :class:`~repro.engine.transaction.TransactionContext`;
``update_triggers()``
    the elementary update types it performs, as ``(kind, relation)`` pairs
    with kind in ``{"INS", "DEL"}`` — this is the paper's ``GetTrigS``
    (Alg 5.2): an update counts as a delete plus an insert (Def 4.5);
``relations_read()``
    names of relations whose contents the statement reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union as TypingUnion

from repro.algebra import predicates as P
from repro.algebra.expressions import Expression, Literal, Select, RelationRef
from repro.algebra.planner import context_plan, evaluate
from repro.errors import TransactionAborted

INS = "INS"
DEL = "DEL"


class Statement:
    """Base class for extended relational algebra statements."""

    __slots__ = ()

    def execute(self, context) -> None:
        raise NotImplementedError

    def update_triggers(self) -> frozenset:
        """The paper's GetTrigS: elementary update types of this statement."""
        return frozenset()

    def relations_read(self) -> set:
        return set()


@dataclass(frozen=True)
class Assign(Statement):
    """``name := E`` — bind a temporary relation (dropped at commit)."""

    name: str
    expr: Expression

    def execute(self, context) -> None:
        from repro.algebra.expressions import Rename

        value = evaluate(Rename(self.expr, self.name), context)
        context.set_temp(self.name, value)

    def relations_read(self) -> set:
        return self.expr.relations()


def _source_rows(expr: Expression, context):
    """The rows an ``insert`` / ``delete`` names.  A literal is data, and a
    set: its distinct rows as written, with no plan and no relation built
    around them (the target validates them, as it does any source's)."""
    if type(expr) is Literal:
        return dict.fromkeys(expr.rows)
    return evaluate(expr, context)


@dataclass(frozen=True)
class Insert(Statement):
    """``insert(R, E)`` — add the tuples of E to base relation R."""

    relation: str
    expr: Expression

    def execute(self, context) -> None:
        context.insert_rows(self.relation, _source_rows(self.expr, context))

    def update_triggers(self) -> frozenset:
        return frozenset({(INS, self.relation)})

    def relations_read(self) -> set:
        return self.expr.relations()


@dataclass(frozen=True)
class Delete(Statement):
    """``delete(R, E)`` — remove the tuples of E from base relation R."""

    relation: str
    expr: Expression

    def execute(self, context) -> None:
        context.delete_rows(self.relation, _source_rows(self.expr, context))

    def update_triggers(self) -> frozenset:
        return frozenset({(DEL, self.relation)})

    def relations_read(self) -> set:
        return self.expr.relations()


@dataclass(frozen=True)
class Update(Statement):
    """``update(R, pred, attr := e, ...)`` — transform matching tuples.

    Executed, per Def 4.5, as a delete of the matching tuples followed by an
    insert of their transformed versions; both differentials are maintained
    and the trigger set is ``{INS(R), DEL(R)}``.
    """

    relation: str
    predicate: P.Predicate
    assignments: Tuple[Tuple[TypingUnion[int, str], P.ScalarExpr], ...]

    def execute(self, context) -> None:
        source = context.resolve(self.relation)
        schema = source.schema
        matching = list(
            evaluate(
                Select(RelationRef(self.relation), self.predicate), context
            )
        )
        positions = [
            schema.position_of(attr) - 1 for attr, _ in self.assignments
        ]
        compiled = [
            P.compile_scalar(expr, schema) for _, expr in self.assignments
        ]
        replacements = []
        for row in matching:
            new_row = list(row)
            for position, fn in zip(positions, compiled):
                new_row[position] = fn(row)
            replacements.append(tuple(new_row))
        context.delete_rows(self.relation, matching)
        context.insert_rows(self.relation, replacements)

    def update_triggers(self) -> frozenset:
        return frozenset({(INS, self.relation), (DEL, self.relation)})

    def relations_read(self) -> set:
        return {self.relation}


@dataclass(frozen=True)
class Alarm(Statement):
    """``alarm(E)`` — abort the transaction when E is non-empty (Def 5.1).

    The optional message names the violated constraint, making abort reasons
    actionable; the paper's definition is the unlabelled special case.
    """

    expr: Expression
    message: Optional[str] = None

    def execute(self, context) -> None:
        result = self.violations(context)
        if result is not None:
            reason = self.message or "integrity alarm"
            sample = result.sorted_rows()[:3]
            raise TransactionAborted(
                f"{reason} ({len(result)} violating tuple(s), e.g. {sample})"
            )

    def violations(self, context):
        """The violating rows as a relation, or None when there are none.

        How an alarm is evaluated, in a transaction or in an audit: its plan
        is asked only whether its result is empty
        (:meth:`~repro.algebra.physical.PhysicalOperator.execute_nonempty`),
        and the rows are built only when it is not.
        """
        return context_plan(self.expr, context).execute_nonempty(context)

    def relations_read(self) -> set:
        return self.expr.relations()


@dataclass(frozen=True)
class Guard(Statement):
    """``guard(E1, ..., Ek) { S1; ...; Sn }`` — run the body when some Ei is
    non-empty.

    Each check's plan is asked only whether its result is empty
    (:meth:`~repro.algebra.physical.PhysicalOperator.execute_nonempty`, as
    an alarm is), in order, and the first non-empty one runs the body.  Its
    update types are the body's: the block *may* perform them.
    """

    checks: Tuple[Expression, ...]
    body: Tuple[Statement, ...]

    def execute(self, context) -> None:
        for check in self.checks:
            if context_plan(check, context).execute_nonempty(context) is not None:
                for statement in self.body:
                    statement.execute(context)
                return

    def update_triggers(self) -> frozenset:
        return statement_update_triggers(self.body)

    def relations_read(self) -> set:
        read: set = set()
        for check in self.checks:
            read |= check.relations()
        for statement in self.body:
            read |= statement.relations_read()
        return read


@dataclass(frozen=True)
class Abort(Statement):
    """Unconditional abort — the default violation response."""

    message: Optional[str] = None

    def execute(self, context) -> None:
        raise TransactionAborted(self.message or "explicit abort")


def statement_update_triggers(statements) -> frozenset:
    """GetTrigP over a sequence of statements (Alg 5.2).

    The union of the elementary update types of all statements.
    """
    triggers: set = set()
    for statement in statements:
        triggers |= statement.update_triggers()
    return frozenset(triggers)
