"""Materialized views maintained by transaction modification.

A view ``V = E(R1, ..., Rk)`` is stored as an ordinary base relation.  Its
*maintenance program* is registered in the integrity program store with
trigger set ``{INS(Ri), DEL(Ri) | i}``, so ``ModT`` appends it to every
transaction that updates a base relation of the view.  The program is
declared **non-triggering** (Def 6.2): refreshing a view must not trigger
integrity rules or other views' maintenance recursively — the paper's
cycle-suppression device doing double duty.  It is also *deferred*: ModP
appends it after its fixpoint, once a compensating action can no longer
write a base relation.  Both make a view readable by queries only: a view
over a view would never be refreshed, and a rule's condition over a view
would check its stale contents, so ``define_view`` and
:meth:`~repro.core.subsystem.IntegrityController.add_rule` refuse them.

The pieces are the integrity checks' own delta derivation
(:func:`repro.algebra.delta.delta_expression`): per trigger ``t``,
``delete(V, Δ⁻ₜE); insert(V, Δ⁺ₜE)``, filed as the program's differentials
so a transaction appends only the pieces of the triggers it performs.  The
sandwich bounds (``Δ⁻E`` covers every lost row and no surviving one,
``Δ⁺E`` every new row and nothing outside ``E``) make the refresh exact.
An aggregate over a changed input (no delta rule) and any view over a
bag-mode database (the bounds ignore multiplicities) keep the *recompute*
program instead; :attr:`MaterializedView.mode` reports which a view got.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.delta import NotIncrementalizable, delta_expression
from repro.algebra.evaluation import evaluate_expression
from repro.algebra.parser import parse_expression
from repro.algebra.programs import Program
from repro.core.programs import IntegrityProgram
from repro.core.subsystem import IntegrityController
from repro.core.triggers import DEL, INS
from repro.engine import naming
from repro.engine.database import Database
from repro.engine.schema import RelationSchema
from repro.engine.session import DatabaseView
from repro.errors import RuleError, UnknownRelationError


class MaterializedView:
    """A stored view plus its maintenance metadata.

    ``mode`` reports how the view is maintained: ``"differential"`` (the
    per-trigger delta pieces) or ``"recompute"``.
    """

    def __init__(
        self,
        name: str,
        expression: E.Expression,
        mode: str,
        base_relations: tuple,
    ):
        self.name = name
        self.expression = expression
        self.mode = mode
        self.base_relations = base_relations

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name}, mode={self.mode}, "
            f"over {list(self.base_relations)})"
        )


class ViewManager:
    """Defines views and registers their maintenance programs."""

    def __init__(self, database: Database, controller: IntegrityController):
        self.database = database
        self.controller = controller
        self.views: Dict[str, MaterializedView] = {}

    def define_view(
        self, name: str, expression: Union[str, E.Expression]
    ) -> MaterializedView:
        """Create, populate, and register a materialized view."""
        if isinstance(expression, str):
            expression = parse_expression(expression)
        if name in self.database:
            raise RuleError(f"relation {name!r} already exists")
        base_relations = tuple(sorted(expression.relations()))
        for relation in base_relations:
            if naming.is_auxiliary(relation):
                raise RuleError("view definitions reference base relations only")
            if relation not in self.database:
                raise UnknownRelationError(relation, f"view {name!r}")
            if f"view::{relation}" in self.controller.store:
                # Maintenance programs are non-triggering: nothing would
                # refresh a view over a view.
                raise RuleError(
                    f"view {name!r} may not read the materialized view "
                    f"{relation!r}"
                )

        # Materialize the initial contents (with their multiplicities) and
        # derive the stored schema.
        initial = evaluate_expression(expression, DatabaseView(self.database))
        stored_schema = RelationSchema(
            name,
            [
                type(attribute)(attribute.name, attribute.domain, attribute.nullable)
                for attribute in initial.schema.attributes
            ],
        )
        self.database.add_relation(stored_schema, iter(initial))

        triggers = frozenset(
            (kind, relation)
            for relation in base_relations
            for kind in (INS, DEL)
        )
        pieces = None
        if not self.database.bag:  # the delta rules are set bounds
            pieces = _delta_pieces(name, expression, triggers)
        self.controller.store.add(
            IntegrityProgram(
                f"view::{name}",
                triggers,
                _recompute_program(name, expression),
                pieces,
                deferred=True,
            )
        )
        mode = "recompute" if pieces is None else "differential"
        view = MaterializedView(name, expression, mode, base_relations)
        self.views[name] = view
        return view

    def drop_view(self, name: str) -> None:
        del self.views[name]
        self.controller.store.remove(f"view::{name}")
        # The stored relation stays in the schema (DDL removal is out of
        # scope for the engine); its maintenance stops here.

    def verify_view(self, name: str) -> bool:
        """Audit: stored contents (multiplicities included) equal the
        recomputed expression."""
        view = self.views[name]
        current = evaluate_expression(view.expression, DatabaseView(self.database))
        return self.database.relation(name) == current


def _delta_pieces(
    name: str, expression: E.Expression, triggers
) -> Optional[Dict[tuple, Program]]:
    """``{t: delete(V, Δ⁻ₜE); insert(V, Δ⁺ₜE)}``, or None when ``E`` has no
    delta rule.  A trigger that cannot change ``E`` gets an empty piece."""
    pieces: Dict[tuple, Program] = {}
    try:
        for trigger in triggers:
            statements = []
            lost = delta_expression(expression, [trigger], kind=E.DELTA_MINUS)
            if lost is not None:
                statements.append(S.Delete(name, lost))
            gained = delta_expression(expression, [trigger], kind=E.DELTA_PLUS)
            if gained is not None:
                statements.append(S.Insert(name, gained))
            pieces[trigger] = Program(statements, non_triggering=True)
    except NotIncrementalizable:
        return None
    return pieces


def _recompute_program(name: str, expression: E.Expression) -> Program:
    temp = f"__view_{name}"
    return Program(
        [
            S.Assign(temp, expression),
            S.Delete(name, E.RelationRef(name)),
            S.Insert(name, E.RelationRef(temp)),
        ],
        non_triggering=True,
    )
