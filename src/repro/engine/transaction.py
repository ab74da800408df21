"""Transactions and their execution (paper Definitions 2.4-2.5, Section 2.2).

A transaction is an extended relational algebra program enclosed in
transaction brackets, executed against a database state ``D^t``.  During
execution the database passes through intermediate states ``D^{t.i}`` that
may contain temporary relations; these states have no semantics outside the
transaction.  On commit, temporaries are dropped and the result is installed
as ``D^{t+1}``; on abort, ``D^t`` is kept (atomicity).

The implementation is an *overlay*: base relations of the underlying
:class:`~repro.engine.Database` are never mutated while a transaction runs.
The first write to a relation creates an
:class:`~repro.engine.overlay.OverlayRelation` view over ``(base, Δ⁺, Δ⁻)``
in the transaction's working set; reads prefer the working set, writes
mutate only the differentials.  This gives four things for free:

* atomicity — aborting simply drops the overlays, O(1);
* the pre-transaction auxiliary state ``R@old`` — it is the database's
  untouched relation;
* O(|Δ|) writes — beginning a transaction and updating ``k`` tuples costs
  O(k), independent of the touched relations' sizes (the pre-overlay
  engine dict-copied every touched relation on first write);
* O(|Δ|) commit — the net delta is applied to the base relations in place
  (:meth:`~repro.engine.database.Database.apply_deltas`), one bulk call per
  touched relation and side, built hash indexes following batch by batch.

The differential auxiliary relations ``R@plus`` (net inserted) and
``R@minus`` (net deleted), which the integrity-rule optimizer of Section
5.2.1 relies on, are the very relations the overlays write through — one
source of truth for transaction-local state.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Optional

from repro.engine import naming
from repro.engine.database import Database
from repro.engine.overlay import OverlayRelation
from repro.engine.relation import Relation
from repro.errors import (
    NoActiveTransactionError,
    ReproError,
    TransactionAborted,
    UnknownRelationError,
)


class TransactionStatus(enum.Enum):
    """Outcome of a transaction execution."""

    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A bracketed extended relational algebra program (Def 2.5).

    ``program`` is any object with a ``statements`` sequence whose items
    implement ``execute(context)`` (see :mod:`repro.algebra.statements`); a
    plain sequence of such statements is also accepted.
    """

    _counter = 0

    def __init__(self, program, name: Optional[str] = None):
        Transaction._counter += 1
        self.program = program
        self.name = name or f"txn_{Transaction._counter}"

    @property
    def statements(self) -> tuple:
        statements = getattr(self.program, "statements", None)
        if statements is not None:
            return tuple(statements)
        return tuple(self.program)

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:
        return f"Transaction({self.name}, {len(self)} statements)"


class TransactionResult:
    """What a transaction execution produced."""

    __slots__ = (
        "status",
        "reason",
        "transaction",
        "statements_executed",
        "tuples_inserted",
        "tuples_deleted",
        "pre_time",
        "post_time",
        "differentials",
        "audit",
    )

    def __init__(
        self,
        status: TransactionStatus,
        transaction: Transaction,
        reason: str = "",
        statements_executed: int = 0,
        tuples_inserted: int = 0,
        tuples_deleted: int = 0,
        pre_time: int = 0,
        post_time: int = 0,
        differentials: Optional[dict] = None,
    ):
        self.status = status
        self.reason = reason
        self.transaction = transaction
        self.statements_executed = statements_executed
        self.tuples_inserted = tuples_inserted
        self.tuples_deleted = tuples_deleted
        self.pre_time = pre_time
        self.post_time = post_time
        # The committed net differentials, ``{base: (plus, minus)}`` with
        # empty sides as None — what a transaction "was" to the database
        # state.  Incremental (delta-plan) audits bind these; see
        # IntegrityController.violated_constraints_incremental.
        self.differentials = differentials if differentials is not None else {}
        # Audit outcomes for this commit when executed through
        # ``Session.commit(audit="sync")``; None otherwise (deferred/async
        # verdicts are collected from the scheduler, not the result).
        self.audit = None

    @property
    def committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.status is TransactionStatus.ABORTED

    def __repr__(self) -> str:
        outcome = self.status.value
        if self.aborted and self.reason:
            outcome = f"{outcome}: {self.reason}"
        return f"TransactionResult({self.transaction.name}, {outcome})"


def performed_triggers(differentials: dict) -> frozenset:
    """``(INS, R)`` / ``(DEL, R)`` for every non-empty side of a
    ``{base: (plus, minus)}`` differential map (an empty side is None or an
    empty relation) — the key the per-trigger differential programs are
    selected by."""
    performed = set()
    for base, (plus, minus) in differentials.items():
        if plus is not None and len(plus):
            performed.add(("INS", base))
        if minus is not None and len(minus):
            performed.add(("DEL", base))
    return frozenset(performed)


class TransactionContext:
    """The mutable execution state of one running transaction.

    Resolves relation names for the algebra evaluator (base relations,
    temporaries, and the auxiliary relations ``R@old`` / ``R@plus`` /
    ``R@minus``) and applies updates through overlay relations, so all
    transaction-local state is carried by the differentials — O(|Δ|), never
    O(|R|).
    """

    def __init__(self, database: Database):
        self.database = database
        self.working: dict = {}
        self.temps: dict = {}
        self._plus: dict = {}
        self._minus: dict = {}
        # name -> the relation it denotes, behind ``working``'s overlays.
        self._resolved: dict = {}
        self.tuples_inserted = 0
        self.tuples_deleted = 0
        self.statements_executed = 0

    # -- name resolution -------------------------------------------------------

    def resolve(self, name: str) -> Relation:
        """Return the relation instance ``name`` denotes right now.

        Resolution order: temporaries shadow nothing (they live in a
        separate namespace but are checked first so assignments can be
        re-read), then auxiliary names, then working copies, then the
        underlying database state.  A name is worked out once, and the
        answer stands while the binding does: the first write to a base
        relation puts its overlay in front (``working`` is asked first), an
        assignment rebinds a temporary, a rollback drops everything.
        """
        relation = self.working.get(name)
        if relation is None:
            relation = self._resolved.get(name)
            if relation is None:
                relation = self._resolved[name] = self._lookup(name)
        return relation

    def _lookup(self, name: str) -> Relation:
        """What a name other than a written base relation's denotes."""
        if name in self.temps:
            return self.temps[name]
        base, suffix = naming.split_auxiliary(name)
        if suffix is None:
            return self.database.relation(base)
        if base not in self.database:
            raise UnknownRelationError(base)
        if suffix == naming.OLD_SUFFIX:
            return self.database.relation(base)
        if suffix == naming.PLUS_SUFFIX:
            return self._differential(self._plus, base)
        return self._differential(self._minus, base)

    def _differential(self, table: dict, base: str) -> Relation:
        relation = table.get(base)
        if relation is None:
            relation = Relation(self.database.relation_schema(base), bag=self.database.bag)
            table[base] = relation
        return relation

    def _working_copy(self, base: str) -> OverlayRelation:
        """The overlay carrying this transaction's view of ``base``.

        O(1): no rows are copied — the overlay reads through to the base
        relation and writes into the live ``R@plus`` / ``R@minus``
        differentials, which are shared with auxiliary-name resolution.
        Index probes answer from the base's built indexes corrected by the
        delta (:class:`~repro.engine.overlay.OverlayIndex`), so nothing of
        the old copy's heat/rebuild dance is needed.
        """
        relation = self.working.get(base)
        if relation is None:
            relation = OverlayRelation(
                self.database.relation(base),
                plus=self._differential(self._plus, base),
                minus=self._differential(self._minus, base),
            )
            self.working[base] = relation
        return relation

    # -- updates ------------------------------------------------------------------

    def insert_rows(self, base: str, rows: Iterable[tuple]) -> int:
        """Insert rows into a base relation; returns effective insert count.

        The rows go to the overlay as one set: it validates them all before
        the first one lands and maintains the net differentials itself (an
        insert cancels a pending delete before it grows ``R@plus``).
        """
        changed = self._working_copy(base).insert_many(rows)
        self.tuples_inserted += changed
        return changed

    def delete_rows(self, base: str, rows: Iterable[tuple]) -> int:
        """Delete rows from a base relation; returns effective delete count."""
        changed = self._working_copy(base).delete_many(rows)
        self.tuples_deleted += changed
        return changed

    def set_temp(self, name: str, relation: Relation) -> None:
        """Bind a temporary relation (the assignment statement)."""
        if naming.is_auxiliary(name):
            raise UnknownRelationError(name, "assignment target")
        if name in self.database:
            raise UnknownRelationError(
                name, "assignment target (shadows a base relation)"
            )
        self.temps[name] = relation
        self._resolved.pop(name, None)

    # -- lifecycle ------------------------------------------------------------------

    def commit(self) -> None:
        """Apply the net delta in place as ``D^{t+1}`` (temporaries dropped).

        O(|Δ|): each touched relation's net ``(plus, minus)`` differential
        is applied to the base relation as two sets (deletes, then
        inserts), its built hash indexes following along.  Nothing is
        copied or replaced.
        """
        differentials = {
            base: (self._plus.get(base), self._minus.get(base))
            for base in self.working
        }
        self.database.apply_deltas(differentials)

    def rollback(self) -> None:
        """Discard all transaction-local state — O(1).

        The overlays and their differentials are simply dropped; the base
        relations were never touched, so there is nothing to undo.
        """
        self.working.clear()
        self.temps.clear()
        self._plus.clear()
        self._minus.clear()
        self._resolved.clear()

    def modified_relations(self) -> tuple:
        """Names of base relations with a non-empty net differential."""
        return tuple(self.net_differentials())

    def net_differentials(self) -> dict:
        """The transaction's net deltas as plan-bindable relations.

        Returns ``{base: (plus, minus)}`` for every base relation with a
        non-empty net differential; an empty side is None.  The relations
        are the live ``R@plus`` / ``R@minus`` auxiliaries — O(|Δ|) state the
        delta-plan layer reads directly, both mid-transaction and (captured
        into the :class:`TransactionResult`) after commit.
        """
        out: dict = {}
        for base in self.working:
            plus = self._plus.get(base)
            minus = self._minus.get(base)
            if plus is not None and not len(plus):
                plus = None
            if minus is not None and not len(minus):
                minus = None
            if plus is not None or minus is not None:
                out[base] = (plus, minus)
        return out

    def performed_triggers(self) -> frozenset:
        """The elementary-update trigger specs this transaction performed.

        ``(INS, R)`` for a non-empty net plus, ``(DEL, R)`` for a non-empty
        net minus — the key the per-trigger differential programs are
        selected by.
        """
        return performed_triggers(self.net_differentials())


class TransactionManager:
    """Executes transactions against a database with full atomicity.

    An optional *modifier* hook — the integrity controller's ``ModT`` — is
    applied to every transaction before execution; this is exactly where the
    paper's transaction modification subsystem sits in the DBMS architecture.
    """

    def __init__(
        self,
        database: Database,
        modifier: Optional[Callable[[Transaction], Transaction]] = None,
    ):
        self.database = database
        self.modifier = modifier
        self._active: Optional[TransactionContext] = None
        self.executed = 0
        self.committed = 0
        self.aborted = 0

    def execute(
        self,
        transaction: Transaction,
        modify: bool = True,
    ) -> TransactionResult:
        """Run one transaction to completion (commit or abort).

        When ``modify`` is true and a modifier hook is installed, the
        transaction is first passed through it (transaction modification).
        The statements run one at a time, in order.  An ``alarm`` — each
        integrity check ModT appended — asks its plan only whether its
        result is empty (``Alarm.violations``) and builds the violating
        rows only when it fires, for the abort reason; the first alarm that
        fires aborts the transaction and the rest do not run.

        It holds the database's writer lock throughout: no other write
        lands between its checks and its commit (write skew).
        """
        with self.database.writer_lock:
            if self.modifier is not None and modify:
                transaction = self.modifier(transaction)
            context = TransactionContext(self.database)
            self._active = context
            pre_time = self.database.logical_time
            self.executed += 1
            try:
                for statement in transaction.statements:
                    statement.execute(context)
                    context.statements_executed += 1
            except ReproError as error:
                # An abort, or a runtime error (division by zero, type
                # mismatches, unknown relations), which aborts the transaction
                # like a real DBMS would; the overlay working set guarantees
                # the pre-state survives.
                self.aborted += 1
                context.rollback()
                if isinstance(error, TransactionAborted):
                    reason = error.reason
                else:
                    reason = f"runtime error: {error}"
                return TransactionResult(
                    TransactionStatus.ABORTED,
                    transaction,
                    reason=reason,
                    statements_executed=context.statements_executed,
                    pre_time=pre_time,
                    post_time=pre_time,
                )
            finally:
                self._active = None
            context.commit()
            self.committed += 1
            return TransactionResult(
                TransactionStatus.COMMITTED,
                transaction,
                statements_executed=context.statements_executed,
                tuples_inserted=context.tuples_inserted,
                tuples_deleted=context.tuples_deleted,
                pre_time=pre_time,
                post_time=self.database.logical_time,
                differentials=context.net_differentials(),
            )

    @property
    def active_context(self) -> TransactionContext:
        if self._active is None:
            raise NoActiveTransactionError("no transaction is executing")
        return self._active
