"""Database states and transitions (paper Definitions 2.2 and 2.3).

A :class:`Database` is a set of relation instances over a
:class:`~repro.engine.schema.DatabaseSchema`, stamped with a *logical time*
that advances by one on every committed transaction (single-step transitions,
Def 2.3).  Aborted transactions leave the state and its logical time
untouched (atomicity, Section 2.2).

The database object itself knows nothing about transactions in progress;
temporary and auxiliary relations live in the
:class:`~repro.engine.transaction.TransactionContext` layered on top.  Nor
does it keep statistics about its commits: the plans it caches
(:attr:`Database.plans`) depend on the expression and the schema only.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Iterable, Iterator, Mapping, Optional

from repro.bounded import BoundedTable
from repro.engine.commitlog import CommitLog
from repro.engine.epochs import EpochManager
from repro.engine.relation import Relation, absent_rows
from repro.engine.schema import DatabaseSchema, RelationSchema
from repro.errors import (
    EpochUnavailableError,
    ForeignSnapshotError,
    UnknownRelationError,
    WalError,
)


class Database:
    """A database state: relation instances plus a logical time."""

    def __init__(self, schema: DatabaseSchema, bag: bool = False):
        self.schema = schema
        self.bag = bag
        self._relations: dict = {
            relation_schema.name: Relation(relation_schema, bag=bag)
            for relation_schema in schema
        }
        self.logical_time = 0
        # One writer at a time (see repro.engine.epochs); readers never
        # take it.
        self.writer_lock = threading.RLock()
        # The commit stream: every applied net delta in order, filed by
        # `apply_deltas`, drained by audit schedulers, read by pins.
        self.commit_log = CommitLog()
        # Optional durable layer under the in-memory stream; attached via
        # `attach_wal`, never pickled (file handles).
        self.wal = None
        # Epoch-based MVCC over the stream: pinned readers (snapshots,
        # audit spans, bare-name query results) see a stable state
        # reconstructed in O(Δ).  Base relations notify the manager before
        # every mutation, and a write outside `apply_deltas` raises there
        # before it could invalidate pinned state.
        self.epochs = EpochManager(self)
        for relation in self._relations.values():
            relation._observer = self.epochs
        # Compiled plans of the expressions evaluated against this database,
        # filed and read by :mod:`repro.algebra.planner` — opaque here.  They
        # live and die with this object: a fork starts with its own, and a
        # table pickles empty.
        self.plans = BoundedTable()
        # The same for the step before a plan: query text -> its parsed
        # expression, filed by `Session.query`.  Syntax only (parsing reads
        # no schema), so no change of this database invalidates an entry.
        self.query_texts = BoundedTable()
        # And for transaction texts, filed by `Session.transaction`: the
        # segments of a text between its digit and string runs -> the
        # parsed transaction whose literal rows the runs fill.  Syntax only.
        self.transaction_shapes = BoundedTable()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["wal"] = None
        del state["writer_lock"]
        # Pins and seqlock state are process-local; a deserialized copy
        # starts with none, over the commit stream it carries.
        state["epochs"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.writer_lock = threading.RLock()
        self.epochs = EpochManager(self)
        for relation in self._relations.values():
            relation._observer = self.epochs

    # -- relation access ------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """The instance of base relation ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def relation_names(self) -> tuple:
        return tuple(self._relations)

    def relation_schema(self, name: str) -> RelationSchema:
        return self.relation(name).schema

    # -- data loading ----------------------------------------------------------

    def load(self, name: str, rows: Iterable[tuple]) -> int:
        """Bulk-load rows into a base relation outside any transaction.

        Intended for test fixtures and benchmarks; returns the number of rows
        actually inserted (set mode absorbs duplicates, in the batch as in
        the relation).  Every row is validated before the first one lands.

        A load is one :meth:`apply_deltas` batch whose Δ⁺ is the rows not
        already present (in bag mode, every row's count), applied
        unrecorded: no logical time, no sequence number, no write-ahead
        record and no audit.  It is in the commit stream all the same, so a
        pin taken before it reconstructs its own state through it as
        through any commit.
        """
        relation = self.relation(name)
        rows = relation.schema.validate_rows(rows)
        with self.writer_lock:  # no commit between the absence test and the apply
            if self.bag:
                counts = dict(Counter(rows))
            else:
                counts = absent_rows(relation._rows, dict.fromkeys(rows, 1))
            if not counts:
                return 0
            plus = Relation(relation.schema, bag=self.bag)
            plus._rows = counts  # the batch's own dict: adopted, not copied
            self.apply_deltas({name: (plus, None)}, advance_time=False, record=False)
        return len(rows) if self.bag else len(counts)

    def add_relation(self, schema: RelationSchema, rows: Iterable[tuple] = ()) -> Relation:
        """Add a new base relation to a live database (DDL helper)."""
        self.schema.add(schema)
        relation = Relation(schema, rows, bag=self.bag)
        relation._observer = self.epochs
        self._relations[schema.name] = relation
        return relation

    # -- snapshots and transitions ----------------------------------------------

    def snapshot(self) -> "DatabaseSnapshot":
        """The frozen current state, pinned by epoch — O(Δ), not O(n).

        Taking a snapshot copies *nothing*: it pins the current epoch and
        returns a mapping-compatible :class:`DatabaseSnapshot` whose
        relations are O(Δ) :class:`~repro.engine.epochs.SnapshotRelation`
        views reconstructing the pinned state from the live relations and
        the retained commit deltas.  The views are read-only (the state at
        an epoch is immutable); call ``snapshot["r"].copy()`` for a
        mutable standalone relation.  :meth:`DatabaseSnapshot.release`
        drops the pin early; otherwise it is released when the snapshot is
        garbage-collected.
        """
        return DatabaseSnapshot(
            self.epochs.pin(), self.relation_names, self.logical_time
        )

    def restore(self, snapshot: "DatabaseSnapshot") -> None:
        """Roll this database back to one of its own snapshots in O(Δ).

        The batches since the snapshot's pin (commits, loads and restores
        alike) are inverted and composed
        (:meth:`EpochManager.undo_differentials`) and applied in place as
        one unrecorded :meth:`apply_deltas` batch: the live relations are
        never replaced, built indexes follow along, and pins taken before
        the restore still read their own.  Logical time goes back too.

        Anything but a snapshot of *this* database (a plain mapping,
        another database's snapshot) raises
        :class:`~repro.errors.ForeignSnapshotError`; a snapshot whose
        released pin's batches were reclaimed raises
        :class:`~repro.errors.EpochUnavailableError`.
        """
        pin = getattr(snapshot, "pin", None)
        if pin is None or pin._manager is not self.epochs:
            raise ForeignSnapshotError(
                f"{type(snapshot).__name__} is not a snapshot of this database"
            )
        with self.writer_lock:  # no commit between the undo and its apply
            undo = self.epochs.undo_differentials(pin.version)
            if undo is None:
                raise EpochUnavailableError(pin.version, pin.epoch)
            if undo:
                self.apply_deltas(undo, advance_time=False, record=False)
            self.logical_time = snapshot.logical_time

    def fork(self, snapshot: Optional["DatabaseSnapshot"] = None) -> "Database":
        """An independent plain :class:`Database` frozen at a pinned epoch.

        Copies each relation *at the pinned state* (the live database may
        keep committing or loading while the copy proceeds — the pin
        guarantees a consistent cut), and carries over the commit stream
        **up to** the pin, versions included, so every commit the fork
        carries can still be bracketed; ``next_sequence`` continues the
        original numbering.  It carries the records the original held at
        the cut and keeps them under its own window (the default
        ``retain``): a trim of the original after the cut does not reach
        the fork.  This is what epoch-forked WAL checkpoints pickle: a
        checkpointer can fork and serialize without stopping the writer.
        """
        own = snapshot is None
        if own:
            snapshot = self.snapshot()
        try:
            pin = snapshot.pin
            clone = Database(self.schema, bag=self.bag)
            clone.commit_log = self.commit_log.cut(pin.version, pin.epoch)
            clone.epochs = EpochManager(clone)
            for name in self.relation_names:
                copied = snapshot[name].copy()
                copied._observer = clone.epochs
                clone._relations[name] = copied
            clone.logical_time = snapshot.logical_time
            return clone
        finally:
            if own:
                snapshot.release()

    def apply_deltas(
        self,
        differentials: Mapping,
        advance_time: bool = True,
        record: bool = True,
    ) -> None:
        """Apply committed net differentials in place (transaction commit).

        ``differentials`` maps relation names to ``(plus, minus)`` net-delta
        relations (either side may be None).  Each touched relation is
        mutated in place, set-at-a-time — one
        :meth:`~repro.engine.relation.Relation.delete_counts` call with Δ⁻,
        then one ``insert_counts`` call with Δ⁺ — so the work is O(|Δ|),
        never O(|R|), and built hash indexes follow along one pass per
        index.  This is the one write path of a base relation: recovery
        replay (:meth:`replay_record`), audit replicas, :meth:`load` and
        snapshot restore apply their deltas through it too, and any other
        write raises :class:`~repro.errors.OutOfBandMutationError`.

        The batch is filed once in :attr:`commit_log`.  A recorded batch is
        a commit: it takes the next sequence number and it goes to the
        write-ahead log.  An unrecorded one (a load, a snapshot restore, a
        replica's apply) is none of these.  The batch holds the writer lock
        (re-entrantly inside a transaction, which took it first) and takes
        the stream lock once, to file its record and trim the window.
        """
        with self.writer_lock:
            pre_time = self.logical_time
            committed = None
            self.epochs.begin_write()
            try:
                for name, (plus, minus) in differentials.items():
                    relation = self.relation(name)
                    if minus:  # neither None nor empty
                        relation.delete_counts(minus._rows)
                    if plus:
                        relation.insert_counts(plus._rows)
                if advance_time:
                    self.logical_time += 1
                committed = self.commit_log.append(
                    differentials, pre_time, self.logical_time, record,
                    trim=self.epochs._trim_locked,
                )
            finally:
                self.epochs.end_write()
            # Durable append (and its fsync) stays *outside* the seqlock
            # window so concurrent pinned readers never spin on disk I/O;
            # the durability ordering is unchanged (in-memory commit first,
            # WAL append after, exactly as before).
            if record:
                if self.wal is not None:
                    self.wal.append(committed)
                # Outside the window and the gate: an audit cursor ``retain``
                # behind is drained here, which bounds the commits it holds.
                self.epochs.admit(committed.sequence)

    # -- durability (write-ahead log) ---------------------------------------------

    def attach_wal(self, wal, checkpoint: bool = True) -> None:
        """Layer a durable :class:`~repro.engine.wal.WriteAheadLog` under
        the in-memory commit log.

        From this point every committed net delta is also appended —
        hash-chained, CRC-guarded — to the log's segment files, and
        :func:`~repro.engine.recovery.recover` can rebuild this database
        after a crash.  Unless one exists already, a checkpoint anchoring
        replay is written immediately (``checkpoint=False`` skips it —
        recovery re-attaching the same log must not re-anchor).

        A bulk :meth:`load` is an unrecorded batch and never reaches the
        log; load fixtures *before* attaching, or call
        ``wal.write_checkpoint(database)`` afterwards.
        """
        self.wal = wal
        if checkpoint and wal.latest_checkpoint() is None:
            wal.write_checkpoint(self)

    def detach_wal(self) -> None:
        """Stop durable logging; syncs and closes the attached log."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def checkpoint(self):
        """Write a durable checkpoint; returns its path.

        The checkpoint pickles an epoch-forked copy of this database
        (:meth:`fork` — writers are never blocked by serialization);
        recovery loads it and replays only the log records after it.
        """
        if self.wal is None:
            raise WalError("no write-ahead log attached; call attach_wal first")
        return self.wal.write_checkpoint(self)

    def replay_record(
        self,
        sequence: int,
        pre_time: int,
        post_time: int,
        differentials: Mapping,
    ) -> None:
        """Apply one recovered commit record through the live delta path.

        One commit's :meth:`apply_deltas` that keeps the *original* sequence
        number and logical times (audit cursors, retention watermarks and
        the hash chain are keyed on them).  The sequence must not move
        backwards; a gap is skipped here (:func:`~repro.engine.recovery.
        recover` refuses one before it gets this far).  Recovery replays
        before it re-attaches the durable log, so nothing is logged twice.
        """
        log = self.commit_log
        if sequence < log.next_sequence:
            raise ValueError(
                f"cannot replay sequence #{sequence} behind "
                f"next=#{log.next_sequence}"
            )
        log.advance_to(sequence)
        self.logical_time = pre_time
        self.apply_deltas(differentials)
        self.logical_time = post_time

    @classmethod
    def recover(cls, directory, upto: Optional[int] = None, **wal_options):
        """Rebuild a database from its durable commit log directory.

        Full recovery (no ``upto``) returns a live database with the log
        re-attached; ``upto`` gives a detached point-in-time state (see
        :func:`repro.engine.recovery.recover`).  The recovery report is
        available as ``database.last_recovery``.
        """
        from repro.engine.recovery import recover

        database, report = recover(directory, upto=upto, **wal_options)
        database.last_recovery = report
        return database

    # -- hash indexes ----------------------------------------------------------

    def create_index(self, relation_name: str, attributes) -> None:
        """Create (and build) a hash index on a base relation.

        ``attributes`` is a sequence of attribute names or 1-based positions.
        The index starts built and is maintained incrementally by
        inserts/deletes, one batch per transaction commit; the physical
        plan layer uses it for equality selections and as a pre-built side of
        hash semi/anti-joins.  Like any built index of a base relation it goes
        back to declared once it has filed more rows unread than the relation
        holds (:meth:`~repro.engine.indexes.HashIndex.charge`), and the next
        plan that asks rebuilds it.
        """
        relation = self.relation(relation_name)
        positions = tuple(
            relation.schema.position_of(attribute) - 1 for attribute in attributes
        )
        relation.index_on(positions)

    def indexed_positions(self, relation_name: str) -> tuple:
        """The declared index position-tuples of a base relation."""
        indexes = self.relation(relation_name).indexes
        return indexes.specs() if indexes is not None else ()

    # -- sizes --------------------------------------------------------------------

    def cardinalities(self) -> dict:
        """name -> tuple count, for all base relations."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def total_tuples(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}[{len(rel)}]" for name, rel in self._relations.items())
        return f"Database(t={self.logical_time}, {sizes})"


class DatabaseSnapshot:
    """A frozen database state: an epoch pin, read as a lazy mapping.

    Produced by :meth:`Database.snapshot`; consumed by
    :meth:`Database.restore` and :meth:`Database.fork`.  It always carries
    the :class:`~repro.engine.epochs.EpochPin` keeping its reconstruction
    window alive, and maps each relation name to that relation's read-only
    O(Δ) view at the pin, minted on first access and cached on the pin —
    so it serves anywhere a ``{name: Relation}`` mapping does.
    """

    __slots__ = ("pin", "names", "logical_time")

    def __init__(self, pin, names: tuple, logical_time: int = 0):
        self.pin = pin
        self.names = names
        self.logical_time = logical_time

    @property
    def epoch(self) -> int:
        """The pinned commit-log epoch."""
        return self.pin.epoch

    def release(self) -> None:
        """Drop the epoch pin (idempotent).

        Relations already read through the snapshot stay valid; fresh
        reads of never-touched relations, and a restore to it, may fail
        once the pinned epoch's deltas are reclaimed.
        """
        self.pin.release()

    def __getitem__(self, name: str) -> Relation:
        if name not in self.names:
            raise KeyError(name)
        return self.pin.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def keys(self) -> tuple:
        return self.names

    def items(self):
        return ((name, self.pin.relation(name)) for name in self.names)

    def get(self, name: str, default=None):
        return self[name] if name in self.names else default

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}[{len(rel)}]" for name, rel in self.items())
        return f"DatabaseSnapshot(t={self.logical_time}, {sizes})"
