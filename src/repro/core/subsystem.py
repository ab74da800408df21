"""The integrity controller: the transaction modification subsystem facade.

This is the component a DBMS architecture plugs in front of its transaction
manager (the paper's §7: "the technique can easily be mapped to an abstract
DBMS system architecture").  It owns the rule catalog, compiles every rule
to an integrity program once, at definition time (Alg 6.1-6.2), validates
triggering behaviour (§6.1), and exposes ``modify_transaction`` — the hook
:class:`~repro.engine.transaction.TransactionManager` calls, answered by
one look-up in the program store's memo
(:func:`~repro.core.modification.mod_t_memoised`).  The per-modification
scheme of Alg 5.1-5.3 stays an algorithm, not a mode:
:class:`~repro.core.modification.DynamicSelector` with
:func:`~repro.core.modification.mod_t`.

Typical use::

    controller = IntegrityController(db.schema)
    controller.add_constraint(
        "beer_alcohol", "(forall x in beer)(x.alcohol >= 0)")
    controller.add_rule('''
        RULE beer_fk
        IF NOT (forall x in beer)
               (exists y in brewery)(x.brewery = y.name)
        THEN temp := diff(project(beer, [brewery]), project(brewery, [name]));
             insert(brewery, project(temp, [brewery as name, null, null]))
    ''')
    session = Session(db, controller)
    session.execute('begin insert(beer, (...)); end')
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Union

from repro.algebra import planner
from repro.algebra.parser import parse_program
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm, Assign
from repro.calculus import ast as C
from repro.calculus.analysis import relation_names, variable_ranges
from repro.calculus.parser import parse_constraint
from repro.calculus.planned import compile_constraint
from repro.core.modification import ModificationStats, mod_t_memoised
from repro.core.programs import IntegrityProgramStore, get_int_p
from repro.core.rule_language import parse_rule
from repro.core.rules import ABORT_ACTION, IntegrityRule
from repro.core.scheduler import AuditScheduler, RuleAuditTask
from repro.core.translation import CheckConstraint
from repro.core.triggering_graph import TriggeringGraph
from repro.engine import naming
from repro.engine.database import Database
from repro.engine.schema import DatabaseSchema
from repro.engine.session import DatabaseView
from repro.engine.transaction import (
    Transaction,
    TransactionContext,
    performed_triggers,
)
from repro.errors import (
    AnalysisError,
    ReproError,
    RuleError,
    TransactionAborted,
    UnknownAttributeError,
    UnknownRelationError,
)

# Statement types that are side-effect-free and therefore usable to *audit*
# a database state by executing the stored integrity program directly:
# temporaries, alarms, and direct constraint checks — but no base-relation
# updates.  This is the program-shape analysis behind the planned audit
# path: alarm programs, ``Assign``+``Alarm`` programs, and residue checks
# all qualify.
AUDITABLE_STATEMENTS = (Alarm, Assign, CheckConstraint)

#: Violating tuples retained as a sample by audit outcomes.
AUDIT_SAMPLE = 3


class _AuditContext:
    """Execution context for auditing a stored integrity program.

    Resolves names through a view (a database or delta view, or a running
    transaction's context) and gives ``Assign`` statements a scratch
    temporary namespace — so executing an auditable program is exactly the
    constraint check its rule translation encodes, at physical-plan speed,
    with zero effect on what the view reads.
    """

    __slots__ = ("view", "database", "temps")

    def __init__(self, view):
        self.view = view
        self.database = view.database
        self.temps: Dict[str, object] = {}

    def resolve(self, name: str):
        if name in self.temps:
            return self.temps[name]
        return self.view.resolve(name)

    def set_temp(self, name: str, relation) -> None:
        self.temps[name] = relation


class IntegrityController:
    """Rule catalog + transaction modification engine."""

    def __init__(self, schema: DatabaseSchema, differential: bool = True):
        self.schema = schema
        self.differential = differential
        self.rules: List[IntegrityRule] = []
        self.store = IntegrityProgramStore()
        self.last_stats: Optional[ModificationStats] = None
        self.modifications = 0
        # One AuditScheduler per audited database (weakly held): the
        # concurrent-enforcement counterpart of the program store.
        self._schedulers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- rule management ---------------------------------------------------------

    def add_rule(
        self, rule: Union[str, IntegrityRule], name: Optional[str] = None
    ) -> IntegrityRule:
        """Register a rule (RL text or a prebuilt IntegrityRule)."""
        if isinstance(rule, str):
            rule = parse_rule(rule, name=name)
        if any(existing.name == rule.name for existing in self.rules):
            raise RuleError(f"a rule named {rule.name!r} is already registered")
        self._check_condition_schema(rule.condition)
        self._check_action_schema(rule)
        self.rules.append(rule)
        integrity_program = self.store.add(
            get_int_p(rule, self.schema, differential=self.differential)
        )
        # Section 6.2 taken one layer further: rules compile not just to
        # algebra programs but to physical plans, once, at definition time.
        # The structural plan cache makes this shared with every later
        # enforcement of the same expressions — a guarded repair's body too,
        # though it runs only in the transactions that violate its condition.
        for piece in integrity_program.stored_pieces():
            planner.precompile_program(piece)
        return rule

    def add_constraint(
        self,
        name: str,
        condition: Union[str, C.Formula],
        response: Union[None, str, Program] = None,
        triggers=None,
        non_triggering: bool = False,
    ) -> IntegrityRule:
        """Register a constraint; the default response aborts (Section 4).

        ``response`` may be None (abort), the literal string ``"abort"``, an
        algebra program, or program text for a compensating action.
        """
        if isinstance(condition, str):
            condition = parse_constraint(condition)
        if response is None or (
            isinstance(response, str) and response.strip().lower() == "abort"
        ):
            action = ABORT_ACTION
        elif isinstance(response, Program):
            action = response
        else:
            action = parse_program(response)
        rule = IntegrityRule(
            condition,
            action=action,
            triggers=triggers,
            name=name,
            non_triggering=non_triggering,
        )
        return self.add_rule(rule)

    def remove_rule(self, name: str) -> None:
        self.rules = [rule for rule in self.rules if rule.name != name]
        if name in self.store:
            self.store.remove(name)

    def rule(self, name: str) -> IntegrityRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise RuleError(f"no rule named {name!r}")

    # -- validation ---------------------------------------------------------------

    def _check_condition_schema(self, condition: C.Formula) -> None:
        """Relations exist and are no materialized views; attribute
        references resolve (names, arity).

        A view is refreshed after ModP's fixpoint (its maintenance program
        is deferred), so a check over it would read the view's stale
        contents: a condition reading one is refused.
        """
        for relation in relation_names(condition):
            base = naming.base_of(relation)
            if base not in self.schema:
                raise UnknownRelationError(base, "integrity constraint")
            if f"view::{base}" in self.store:
                raise RuleError(
                    f"a condition may not read the materialized view {base!r}"
                )
        ranges = variable_ranges(condition)
        schemas: Dict[str, list] = {
            var: [self.schema.relation(naming.base_of(rel)) for rel in sorted(rels)]
            for var, rels in ranges.items()
        }
        for term in C.iter_terms(condition):
            if isinstance(term, C.AttrSel):
                candidates = schemas.get(term.var)
                if not candidates:
                    continue  # closedness/safety checks report this better
                if not any(
                    _resolves(schema, term.attr) for schema in candidates
                ):
                    raise AnalysisError(
                        f"attribute {term.attr!r} of variable {term.var!r} "
                        f"does not resolve against "
                        f"{[schema.name for schema in candidates]}"
                    )
            elif isinstance(term, C.AggTerm):
                base = naming.base_of(term.relation)
                if not _resolves(self.schema.relation(base), term.attr):
                    raise AnalysisError(
                        f"attribute {term.attr!r} does not resolve against "
                        f"relation {base!r}"
                    )

    def _check_action_schema(self, rule: IntegrityRule) -> None:
        if rule.is_aborting:
            return
        for relation in rule.action_program().relations_read():
            base = naming.base_of(relation)
            if base not in self.schema and "@" not in relation:
                # Temporaries assigned earlier in the action are legal.
                assigned = {
                    statement.name
                    for statement in rule.action_program()
                    if hasattr(statement, "name")
                }
                if base not in assigned:
                    raise UnknownRelationError(base, f"action of rule {rule.name!r}")

    def validate_rules(self) -> TriggeringGraph:
        """Build the triggering graph and raise on cycles (Section 6.1)."""
        graph = TriggeringGraph(self.rules)
        graph.validate()
        return graph

    def triggering_graph(self) -> TriggeringGraph:
        return TriggeringGraph(self.rules)

    # -- the transaction modification hook --------------------------------------------

    def modify_transaction(self, transaction: Transaction) -> Transaction:
        """ModT (Alg 5.1) over the compiled store (Alg 6.2), through the
        store's per-trigger-set memo."""
        modified, self.last_stats = mod_t_memoised(transaction, self.store)
        self.modifications += 1
        return modified

    # -- direct checking (the audit/baseline path) ---------------------------------------

    def violated_constraints(self, database: Database) -> List[str]:
        """Names of rules whose conditions fail on the current state.

        This bypasses transaction modification entirely — it is the direct
        audit path used for post-hoc checks, tests, and the
        check-after-write baseline in the benchmarks.

        *Every* rule is audited through compiled physical plans — which
        exploit any hash indexes on the database.  Aborting rules whose
        stored integrity program is side-effect-free (alarms,
        ``Assign``+``Alarm`` shapes, residue checks) execute that program
        directly against an audit context; everything else
        (compensating-action rules above all) executes its *condition*'s
        check program the same way.  Only genuinely untranslatable residue
        reaches the naive model checker, which
        otherwise survives purely as the test oracle
        (:func:`repro.calculus.evaluation.violated_rules`).
        """
        view = DatabaseView(database)
        return [rule.name for rule in self.rules if self._is_violated(rule, view)]

    def _audit_program(self, rule: IntegrityRule) -> Program:
        """The program whose execution audits ``rule``.

        Program-shape analysis: an aborting rule's stored program merely
        computes and tests (never updates), so running it against a
        read-only context yields the rule's verdict.  Any other rule
        (compensating rules above all: their program is a repair action,
        not a check) audits by its condition's check program
        (:func:`~repro.calculus.planned.compile_constraint`).
        """
        if rule.is_aborting and rule.name in self.store:
            program = self.store.get(rule.name).program
            if program.statements and all(
                isinstance(statement, AUDITABLE_STATEMENTS)
                for statement in program.statements
            ):
                return program
        return compile_constraint(rule.condition, self.schema)

    @staticmethod
    def _program_outcome(program: Program, view) -> tuple:
        """Run an auditable program against a scratch context over ``view``.

        Returns ``(violated, violating_sample)``: alarm statements are
        evaluated as a transaction evaluates them (``Alarm.violations``,
        collecting a deterministic sample of the violating tuples of the
        one that fires), assignments bind scratch temporaries, and
        direct constraint checks contribute a verdict without tuples.  The
        first violating statement decides — the same short-circuit the
        abort-signal execution path takes.
        """
        context = _AuditContext(view)
        for statement in program:
            if isinstance(statement, Alarm):
                rows = statement.violations(context)
                if rows is not None:
                    return True, tuple(rows.sorted_rows()[:AUDIT_SAMPLE])
            else:
                try:
                    statement.execute(context)
                except TransactionAborted:
                    return True, ()
        return False, ()

    def _is_violated(self, rule: IntegrityRule, view) -> bool:
        """Does ``rule`` fail where ``view`` (a database or delta view, or a
        running transaction's context) resolves names?"""
        return self._program_outcome(self._audit_program(rule), view)[0]

    def violated_constraints_incremental(
        self, database: Database, differentials
    ) -> List[str]:
        """Incremental audit: check only what a committed delta can have
        violated, through per-trigger delta plans.

        ``differentials`` is the committed net delta — a
        :class:`~repro.engine.transaction.TransactionResult` or its
        ``{base: (plus, minus)}`` mapping.  The premise is the paper's
        Def 3.5: the pre-transaction state satisfied every registered rule
        (e.g. it was itself audited, or all writes go through transaction
        modification).  It runs :meth:`audit_tasks` inline, so it and the
        audit scheduler share one per-rule disposition: no task where the
        verdict cannot have changed, the matched delta programs in O(|Δ|)
        where they exist, the full check otherwise.  Returns the names of
        rules the delta violated ([] for an empty delta).
        """
        return [
            task.rule_name
            for task in self.audit_tasks(database, differentials)
            if task.run()[0]
        ]

    def audit_tasks(self, database: Database, differentials) -> List:
        """Independent per-rule audit units for a committed delta.

        One :class:`~repro.core.scheduler.RuleAuditTask` per rule the delta
        can have affected, each side-effect-free and self-contained (it
        builds its own :class:`~repro.engine.session.DeltaView` on ``run``),
        so a worker pool may execute them in any order or concurrently, and
        :meth:`violated_constraints_incremental` runs them inline.  Rules
        the delta provably cannot violate produce no task.
        """
        if hasattr(differentials, "differentials"):
            differentials = differentials.differentials
        performed = performed_triggers(differentials)
        if not performed:
            return []
        tasks = [
            self._rule_audit_task(rule, performed, database, differentials)
            for rule in self.rules
        ]
        return [task for task in tasks if task is not None]

    def _rule_audit_task(self, rule, performed, database, differentials):
        """The :class:`~repro.core.scheduler.RuleAuditTask` auditing
        ``rule`` against a delta with ``performed`` triggers: None when its
        triggers miss them or every matched Δ-check is vacuous, the matched
        Δ-checks where the rule has them (an aborting rule's appended
        program, a compensating rule's condition checks), else the full
        check (no program; non-incrementalizable shapes).

        The one per-rule disposition: :meth:`audit_tasks` calls it on the
        coordinator and :func:`~repro.core.procpool.run_rule_audit` in a
        process worker, so the two agree by construction.
        """
        stored = self.store.get(rule.name) if rule.name in self.store else None
        triggers = stored.triggers if stored is not None else rule.triggers
        matched = triggers & performed
        if not matched:
            return None
        program = stored.differentials_for(matched) if stored is not None else None
        if program is not None and program.is_empty:
            return None  # vacuous for these update types
        return RuleAuditTask(self, rule, program, database, differentials)

    def audit_scheduler(self, database: Database, **options):
        """The per-database :class:`~repro.core.scheduler.AuditScheduler`.

        Created on first use (draining the database's commit log from its
        oldest retained record) and cached weakly, so every session over
        the same database shares one scheduler, one cursor, and one worker
        pool.  The cursor holds every commit it has not drained in the
        commit stream, and a commit that leaves it more than
        ``database.epochs.retain`` commits behind drains it on the
        committing thread, so no commit goes unaudited.  ``options`` are
        forwarded to the constructor on first creation only.
        """
        scheduler = self._schedulers.get(database)
        if scheduler is None:
            scheduler = AuditScheduler(self, database, **options)
            self._schedulers[database] = scheduler
        return scheduler

    def close_schedulers(self) -> None:
        """Deterministically close every cached audit scheduler.

        Each close drains in-flight audits into that scheduler's history
        and shuts down its worker pool (thread or process), so callers —
        tests, the CLI — never leak workers.  Schedulers stay cached and
        usable; the next drain lazily recreates its pool.
        """
        for scheduler in list(self._schedulers.values()):
            scheduler.close()

    def install_indexes(self, database: Database) -> List[tuple]:
        """Declare the hash indexes the compiled plans would probe.

        Walks every stored integrity program (full and differential
        variants, guarded repairs), collects the planner's index hints, and
        *declares* the corresponding hash indexes on ``database``.  Returns the
        ``(relation, attrs)`` pairs declared.  Nothing is built here: a
        declared index costs a commit nothing, and the first plan that
        would otherwise pass over the whole relation builds it (see
        :mod:`repro.engine.indexes`).  From then on it is maintained
        incrementally, so repeated enforcement and audits of equality-keyed
        constraints (referential integrity above all) probe per distinct key
        instead of re-hashing per evaluation — while a hint only a rare
        update type's program reads (a foreign key's check on deleting the
        referenced key) costs nothing until that update comes.
        """
        hints: set = set()
        for integrity_program in self.store:
            for piece in integrity_program.stored_pieces():
                for statement in piece:
                    for expression in planner.statement_expressions(statement):
                        hints.update(planner.index_hints(expression))
        installed = []
        for name, attrs in sorted(hints, key=repr):
            if name not in database:
                continue
            relation = database.relation(name)
            position_of = relation.schema.position_of
            relation.declare_index(position_of(attr) - 1 for attr in attrs)
            installed.append((name, attrs))
        return installed

    def is_correct_transaction(self, database: Database, transaction) -> bool:
        """Def 3.5: is ``transaction`` correct w.r.t. ``database`` and the
        registered rules?

        A transaction is correct when its committed execution violates no
        transition constraint and leaves a state violating no state
        constraint.  Its *unmodified* statements run in a
        :class:`~repro.engine.transaction.TransactionContext` that is never
        committed, where base names are the post-state overlays, ``R@old``
        the untouched pre-state and ``R@plus`` / ``R@minus`` the net delta;
        every rule is checked there, then the context is rolled back.  It
        writes nothing, and holds the writer lock so no commit moves the
        pre-state under it.  (It classifies the transaction *itself*; its
        modified execution is correct by construction.)
        """
        context = TransactionContext(database)
        with database.writer_lock:
            try:
                try:
                    for statement in transaction.statements:
                        statement.execute(context)
                except ReproError:
                    # An abort is the identity transition: vacuously correct.
                    return True
                return not any(
                    self._is_violated(rule, context) for rule in self.rules
                )
            finally:
                context.rollback()

    def __repr__(self) -> str:
        return (
            f"IntegrityController({len(self.rules)} rules, "
            f"differential={self.differential})"
        )


def _resolves(schema, attr) -> bool:
    try:
        schema.position_of(attr)
        return True
    except UnknownAttributeError:
        return False
