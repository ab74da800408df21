"""Materialized views maintained by transaction modification.

A view ``V = E(R1, ..., Rk)`` is stored as an ordinary base relation.  Its
*maintenance program* is registered in the integrity program store with
trigger set ``{INS(Ri), DEL(Ri) | i}``, so ``ModT`` appends it to every
transaction that updates a base relation of the view.  The program is
declared **non-triggering** (Def 6.2): refreshing a view must not trigger
integrity rules or other views' maintenance recursively — the paper's
cycle-suppression device doing double duty.

Two maintenance modes:

* ``recompute`` — evaluate the defining expression and replace the stored
  contents (always applicable);
* ``differential`` — for selection-shaped views ``σ_p(R)``, apply
  ``insert(V, σ_p(R@plus)); delete(V, σ_p(R@minus))`` — the transaction-
  modification analogue of incremental view maintenance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.algebra import expressions as E
from repro.algebra import statements as S
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
    """A stored view plus its maintenance metadata."""

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
        self,
        name: str,
        expression: Union[str, E.Expression],
        mode: str = "auto",
    ) -> MaterializedView:
        """Create, populate, and register a materialized view.

        ``mode``: ``"differential"`` (selection views only), ``"recompute"``,
        or ``"auto"`` (differential when the shape allows).
        """
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

        # Materialize the initial contents and derive the stored schema.
        initial = evaluate_expression(expression, DatabaseView(self.database))
        stored_schema = RelationSchema(
            name,
            [
                type(attribute)(attribute.name, attribute.domain, attribute.nullable)
                for attribute in initial.schema.attributes
            ],
        )
        self.database.add_relation(stored_schema, initial.rows())

        chosen = self._choose_mode(expression, mode)
        program = self._maintenance_program(name, expression, chosen)
        triggers = frozenset(
            (kind, relation)
            for relation in base_relations
            for kind in (INS, DEL)
        )
        self.controller.store.add(
            IntegrityProgram(f"view::{name}", triggers, program)
        )
        view = MaterializedView(name, expression, chosen, base_relations)
        self.views[name] = view
        return view

    def drop_view(self, name: str) -> None:
        del self.views[name]
        self.controller.store.remove(f"view::{name}")
        # The stored relation stays in the schema (DDL removal is out of
        # scope for the engine); its maintenance stops here.

    # -- maintenance program construction ----------------------------------------

    @staticmethod
    def _choose_mode(expression: E.Expression, mode: str) -> str:
        differential_capable = isinstance(expression, E.Select) and isinstance(
            expression.input, E.RelationRef
        )
        if mode == "auto":
            return "differential" if differential_capable else "recompute"
        if mode == "differential" and not differential_capable:
            raise RuleError(
                "differential maintenance supports selection views "
                "select(R, p) only; use mode='recompute'"
            )
        if mode not in ("differential", "recompute"):
            raise RuleError(f"unknown view maintenance mode {mode!r}")
        return mode

    @staticmethod
    def _maintenance_program(
        name: str, expression: E.Expression, mode: str
    ) -> Program:
        if mode == "differential":
            base = expression.input.name
            predicate = expression.predicate
            statements = [
                S.Insert(
                    name,
                    E.Select(E.RelationRef(naming.plus_name(base)), predicate),
                ),
                S.Delete(
                    name,
                    E.Select(E.RelationRef(naming.minus_name(base)), predicate),
                ),
            ]
        else:
            temp = f"__view_{name}"
            statements = [
                S.Assign(temp, expression),
                S.Delete(name, E.RelationRef(name)),
                S.Insert(name, E.RelationRef(temp)),
            ]
        return Program(statements, non_triggering=True)

    def verify_view(self, name: str) -> bool:
        """Audit: stored contents equal the recomputed expression."""
        view = self.views[name]
        current = evaluate_expression(view.expression, DatabaseView(self.database))
        stored = self.database.relation(name)
        return stored.to_set() == current.to_set()
