"""A convenience facade over database, parser, and transaction manager.

A :class:`Session` is the "user terminal" of the reproduction: it accepts
transactions and read-only queries in their text forms, routes transactions
through the integrity controller's transaction modification (when one is
attached), and executes them with full atomicity.

The algebra parser and evaluator are imported when a session is created,
not when this module is, so that the engine package stays a pure substrate
with no upward dependencies (``repro.algebra`` imports ``repro.engine``).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine import naming
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.transaction import (
    Transaction,
    TransactionManager,
    TransactionResult,
    performed_triggers,
)
from repro.errors import ReproError


class Session:
    """Execute textual or pre-built transactions against a database."""

    def __init__(self, database: Database, controller=None):
        # Once per session, not per call: the import statements measured
        # ~3 us on every query, a fifth of parsing it.
        from repro.algebra import planner
        from repro.algebra.expressions import RelationRef
        from repro.algebra.parser import parse_expression, shaped_transaction

        self.database = database
        self.controller = controller
        modifier = controller.modify_transaction if controller is not None else None
        self.manager = TransactionManager(database, modifier=modifier)
        self._shaped_transaction = shaped_transaction
        self._parse_expression = parse_expression
        self._database_plan = planner.database_plan
        self._relation_ref = RelationRef

    # -- transactions -----------------------------------------------------------

    def transaction(self, source: Union[str, Transaction]) -> Transaction:
        """Build a Transaction from ``begin ... end`` text (or pass through).

        A text is parsed once per *shape*: what is left of it when its
        digit runs and plain quoted strings are taken out.  The first text
        of a shape is parsed in full and files a
        :class:`~repro.algebra.parser.TransactionShape` in
        ``database.transaction_shapes`` (a :class:`~repro.bounded.
        BoundedTable` like ``database.query_texts``, and like it empty in a
        fork).  A later text of that shape binds its literal rows' numbers
        and strings into it: no lexing, no recursive descent, and a fresh
        Transaction equal to what parsing the text gives.  Any other run
        (digits in a name, a float, a message) must be the first text's,
        or the text is parsed in full; so is one that does not convert (an
        integer too long), and every parse error is the parser's own.  A
        text that fails to parse is never filed.
        """
        if isinstance(source, Transaction):
            return source
        return self._shaped_transaction(source, self.database.transaction_shapes)

    def execute(
        self,
        source: Union[str, Transaction],
        modify: bool = True,
    ) -> TransactionResult:
        """Parse (if needed; once per shape, see :meth:`transaction`),
        modify, and run a transaction."""
        return self.manager.execute(self.transaction(source), modify=modify)

    # -- the audit pipeline (optimistic enforcement) ------------------------------

    AUDIT_MODES = ("sync", "deferred", "async")

    def commit(
        self,
        source: Union[str, Transaction],
        audit: str = "sync",
        modify: bool = False,
    ) -> TransactionResult:
        """Run a transaction through the *audit pipeline*.

        Where :meth:`execute` enforces integrity preventively (transaction
        modification appends the checks to the program, violating
        transactions abort), ``commit`` enforces it *optimistically*: the
        transaction commits unmodified and the committed net delta — as
        recorded in the database's commit log — is audited per rule
        through the attached controller's delta plans.

        ``audit`` selects the consistency/latency trade-off:

        * ``"sync"`` — the commit log is drained on this thread before
          returning; this commit's per-rule verdicts land on
          ``result.audit``.  Strict: every attached verdict describes
          exactly this commit's delta against the state it produced.
          (Any older un-drained commits are audited in the same drain;
          their verdicts go to the scheduler's history, not this result.)
        * ``"deferred"`` — nothing is audited now; a later
          :meth:`drain_audits` call audits all accumulated commits (batched
          and, by default, coalesced) on the calling thread.
        * ``"async"`` — the scheduler drains immediately but fans rule
          audits out to its worker pool (all but those whose rule's
          settled seconds per Δ-row price them under one dispatch) and
          returns without waiting; :meth:`wait_for_audits` collects the
          verdicts.  Strict: each audit pins its commit's pre/post epochs
          (:class:`~repro.engine.epochs.EpochSpan`), so verdicts describe
          exactly the audited commit's states even while the session keeps
          committing.

        ``modify`` may be set to re-enable transaction modification on top
        (belt and braces); by default the pipeline is the enforcement.
        """
        if audit not in self.AUDIT_MODES:
            raise ValueError(f"audit must be one of {self.AUDIT_MODES}")
        result = self.manager.execute(self.transaction(source), modify=modify)
        if not result.committed or self.controller is None:
            return result
        scheduler = self.audit_scheduler()
        if audit == "sync":
            sequence = self.database.commit_log.next_sequence - 1
            result.audit = [
                outcome
                for outcome in scheduler.drain(coalesce=False)
                if sequence in outcome.sequences
            ]
        elif audit == "async":
            scheduler.drain(asynchronous=True)
        return result

    def audit_scheduler(self):
        """The controller's audit scheduler for this database."""
        if self.controller is None:
            raise ValueError("session has no integrity controller to audit with")
        return self.controller.audit_scheduler(self.database)

    def drain_audits(self, coalesce=None) -> list:
        """Audit all commits deferred so far, on this thread."""
        return self.audit_scheduler().drain(coalesce=coalesce)

    def wait_for_audits(self) -> list:
        """Collect the verdicts of all in-flight asynchronous audits."""
        return self.audit_scheduler().wait()

    def close(self) -> None:
        """Deterministic teardown: audits collected, durability flushed.

        Closes the audit scheduler (collecting in-flight verdicts into its
        history and stopping its pools) and, when the database carries a
        write-ahead log, fsyncs and closes it.  The session object stays
        usable — a later commit lazily recreates pools — but a closed WAL
        stays closed: detach or re-attach explicitly to keep committing
        durably.
        """
        if self.controller is not None:
            self.audit_scheduler().close()
        if self.database.wal is not None:
            self.database.detach_wal()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- queries -------------------------------------------------------------------

    def query(
        self, expression_text: str, pinned: Optional[bool] = None
    ) -> Relation:
        """Evaluate a read-only algebra expression against the current state.

        A bare relation name returns an epoch-pinned snapshot view of the
        relation: iterating the result is stable even while later commits
        land (the old behaviour — a live relation instance that mutated
        under a held iterator — was a race).  Pass ``pinned=False`` to get
        the live instance back (a held result then keeps tracking the
        database state), or ``pinned=True`` to have the whole evaluation
        of a composite expression observe one committed state, whatever
        commits meanwhile.  Composite expressions materialize a fresh
        relation either way.

        What ``pinned=True`` costs depends on the plan.  A *probe-only*
        plan — every relation reached by a keyed probe of an index that is
        built right now: an indexed equality selection, joins of one
        against indexed relations — takes no pin: the call begins and ends
        at the head, so it runs on the live relations inside one validated
        seqlock bracket (:meth:`~repro.engine.epochs.EpochManager.
        read_head`), a few microseconds over ``pinned=False``.  Any other
        plan (a scan, a projection, a bare name), and a probe-only one that
        lost every race to the writer, runs against a freshly pinned epoch.
        So does a probe-only plan whose index is only declared — once: that
        pinned read builds the live index (under the writer's gate), and
        the plan's later reads run at the head.  An index is declared again
        after commits have filed more rows into it than its relation holds
        with no plan asking for it (:meth:`~repro.engine.indexes.HashIndex.
        charge`); the next read is then that one pinned read.

        A text is parsed once per database.  Its expression is filed in
        ``database.query_texts`` (a :class:`~repro.bounded.BoundedTable`
        like ``database.plans``, and like it empty in a fork), and a
        repeated text hands that same object to the plan table, which then
        finds its plan by identity instead of comparing a fresh tree.  The
        table holds syntax only, so a text read before its relation exists
        is served once ``add_relation`` creates it; a text that fails to
        parse is never filed and raises the same error every time.
        """
        database = self.database
        texts = database.query_texts
        expression = texts.get(expression_text)
        if expression is None:
            expression = self._parse_expression(expression_text)
            texts.file(expression_text, expression)
        if pinned is None:
            pinned = isinstance(expression, self._relation_ref)
        plan = self._database_plan(expression, database)
        if not pinned:
            return plan.execute(DatabaseView(database))
        if plan.probes is not None:
            result = database.epochs.read_head(lambda: _probe_head(plan, database))
            if result is not None:
                return result
        return plan.execute(DatabaseView(database, pin=database.epochs.pin()))

    def rows(self, expression_text: str) -> list:
        """Evaluate a query and return deterministically sorted rows."""
        return self.query(expression_text).sorted_rows()

    # -- integrity ---------------------------------------------------------------------

    def verify_integrity(self) -> list:
        """Directly evaluate all registered constraints on the current state.

        Returns the list of violated constraint names (empty means the state
        is correct).  Requires an attached integrity controller.
        """
        if self.controller is None:
            return []
        return self.controller.violated_constraints(self.database)


def _probe_head(plan, database) -> Optional[Relation]:
    """A probe-only ``plan`` run on the live relations — or None, nothing
    run, unless every index it probes is built at this moment (without one
    an operator would scan, or build, the live relation instead)."""
    view = DatabaseView(database)
    try:
        for name, attrs in plan.probes:
            relation = view.resolve(name)
            position_of = relation.schema.position_of
            positions = tuple(position_of(attr) - 1 for attr in attrs)
            if relation.built_index(positions) is None:
                return None
    except ReproError:
        return None  # the pinned run raises it, from the operator that meets it
    return plan.execute(view)


class DatabaseView:
    """Read-only name resolution over a database outside any transaction.

    Auxiliary relations resolve to sensible defaults: ``R@old`` is the
    current state (no transaction is running, so pre = current) and the
    differentials are empty.  This lets constraint conditions mentioning
    auxiliaries be evaluated between transactions as well.

    With an :class:`~repro.engine.epochs.EpochPin`, base relations resolve
    to read-only snapshot views of the pinned epoch instead of the live
    instances, so the whole evaluation observes one consistent state.
    """

    def __init__(self, database: Database, pin=None):
        self.database = database
        self.pin = pin

    def resolve(self, name: str) -> Relation:
        base, suffix = naming.split_auxiliary(name)
        if suffix is None or suffix == naming.OLD_SUFFIX:
            if self.pin is not None:
                return self.pin.relation(base)
            return self.database.relation(base)
        schema = self.database.relation_schema(base)
        return Relation(schema, bag=self.database.bag)


class DeltaView(DatabaseView):
    """Name resolution for *incremental* audits over a committed state: the
    view every audit task runs over, inline or on any executor.

    The database holds the post-transaction state; ``differentials`` is the
    committed net delta ``{base: (plus, minus)}`` (either side may be None),
    e.g. :attr:`~repro.engine.transaction.TransactionResult.differentials`.
    ``R@plus`` / ``R@minus`` bind to those O(|Δ|) relations — exactly what
    delta plans read — and ``R@old`` is reconstructed lazily as
    ``(R − R@plus) ∪ R@minus``, so even delta plans whose rewrite rules
    reach into pre-state subexpressions stay executable after commit.  (The
    reconstruction copies the current relation: with in-place delta
    application, the committed relation object *is* the pre-state object,
    so the pre-state must be rebuilt rather than merely retained.)  An
    uncommitted transaction's own context resolves the same names.

    With an :class:`~repro.engine.epochs.EpochSpan` the view is *strict*:
    bare names resolve to the span's pinned post-state and ``R@old`` to
    its pinned pre-state in O(Δ) — the copy-rebuild above becomes the
    fallback for spans that could not be pinned (e.g. records drained from
    a WAL older than this process).  This is what makes thread/inline
    asynchronous audit verdicts per-commit exact under a racing writer.
    """

    def __init__(self, database, differentials, span=None):
        super().__init__(database)
        self.differentials = dict(differentials or {})
        self.span = span
        self._old_cache: dict = {}

    def performed_triggers(self) -> frozenset:
        """``(INS, R)`` / ``(DEL, R)`` specs for the bound differentials."""
        return performed_triggers(self.differentials)

    def resolve(self, name: str) -> Relation:
        base, suffix = naming.split_auxiliary(name)
        if suffix is None:
            if self.span is not None:
                return self.span.post_relation(base)
            return self.database.relation(base)
        plus, minus = self.differentials.get(base, (None, None))
        if suffix == naming.PLUS_SUFFIX:
            if plus is not None:
                return plus
            return Relation(
                self.database.relation_schema(base), bag=self.database.bag
            )
        if suffix == naming.MINUS_SUFFIX:
            if minus is not None:
                return minus
            return Relation(
                self.database.relation_schema(base), bag=self.database.bag
            )
        # R@old: the span's pinned pre-state when available (exact under a
        # racing writer); otherwise untouched relations are their own
        # pre-state and touched ones are rebuilt once per view and cached
        # (audits may consult the same pre-state repeatedly).
        if self.span is not None:
            return self.span.pre_relation(base)
        current = self.database.relation(base)
        if plus is None and minus is None:
            return current
        cached = self._old_cache.get(base)
        if cached is None:
            cached = current.copy()
            if plus is not None:
                cached.delete_many(iter(plus))
            if minus is not None:
                cached.insert_many(iter(minus))
            self._old_cache[base] = cached
        return cached
