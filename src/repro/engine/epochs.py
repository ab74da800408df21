"""Epoch-based MVCC: O(Δ) pinned snapshots over the live delta stream.

Every committed transaction already *is* its net differential
(:class:`~repro.engine.commitlog.CommitRecord`), and commits apply that
differential to base relations in place.  This module turns that stream
into multi-version concurrency control without copying a relation to
take or keep a snapshot:

* The database carries one :class:`~repro.engine.commitlog.CommitLog`, the
  commit stream, and one :class:`EpochManager` over it.  Each mutation
  batch (``apply_deltas`` — recorded commits, unrecorded loads and restores
  alike) files one record there, and the record's *version* is the state it
  produced.  Recorded commits also carry their sequence number — the
  commit sequence *is* the public epoch counter.  The manager keeps no
  list of its own: it owns the seqlock, the pins, the cursors and the
  trim floor.
* A reader :meth:`~EpochManager.pin`\\ s the current epoch.  Relations
  read through the pin (:class:`SnapshotRelation`) present the state *as of
  the pin*, reconstructed algebraically as ``live − suffixΔ⁺ + suffixΔ⁻``:
  an :class:`~repro.engine.overlay.OverlayRelation` whose base is the live
  relation and whose delta is the *inverse* of every commit after the pin.
  Keeping a snapshot is O(Δ-since-pin), never O(|R|).
* One retention rule trims the stream: **a record stays while a pin, a
  cursor, or the ``retain`` window needs it, and a cursor that falls
  ``retain`` behind is drained by the committer** (:meth:`EpochManager.
  admit`).  A cursor is an audit scheduler, held weakly beside the pins,
  so no commit goes unaudited and ``retain`` bounds what a cursor holds.
  :attr:`EpochManager.reclaimed` counts reclamations for observability.

Writer/reader coordination is a *seqlock*, not a mutex: the one writer
(the holder of the writer lock, below) bumps a stamp to odd before mutating
and back to even after filing the record; readers snapshot the stamp,
compute, and retry iff the stamp moved.  Commits therefore never wait on
readers in the common path, and readers never block commits — the
"lock-free" in lock-free async audits.  Two bounded exceptions take the
writer's gate for a single pass: a reader that loses the validation race
:data:`READ_RETRY_LIMIT` times (a large merge under a hot writer would
otherwise starve), and a materializing copy (below).
Snapshot-internal synchronization (two audit threads catching up the same
snapshot's undo delta) uses a snapshot-local lock that the writer never
touches.

One writer at a time: ``Database.writer_lock`` covers a transaction from
modification through ``apply_deltas``; readers never take it.  Lock
order: writer lock → a scheduler's drain lock (a commit drains a cursor
``retain`` behind) → write gate → a snapshot's ``_sync_lock`` → stream
lock (``CommitLog._lock``).

A snapshot's first whole-relation read (a scan, ``_rows``, equality)
materializes the pinned state once, into a dict of its own, and caches
it permanently — the state at a pinned epoch is immutable — after which
reads stop consulting the live base and answer from the frozen dict.
One rule makes that dict: **adopt a dead reader's dict rolled forward to
the pin, or copy once under the write gate.**  Every materialized dict is
filed for the next reader of its relation, so a reader re-pinning under
a live writer pays one O(n) copy per relation and O(Δ) from then on; the
live row dict is never shared.  The copy takes the gate outright: an
O(n) compute loses the seqlock race whenever any commit lands during it,
while the gate is a single uncontended acquire when the writer is idle.

There is no other way to change a base relation: a bulk load is an
unrecorded batch of the stream like a restore, and a write that bypasses
``apply_deltas`` raises :class:`~repro.errors.OutOfBandMutationError`
(:meth:`EpochManager.note_mutation`) before any row changes.  So no pin
ever has to be fenced off or detached, and a commit a cursor has not
drained is audited against its own pinned states whatever was loaded
since.

Invariants the read path leans on (each is asserted by
``tests/properties/test_prop_epoch_offsets.py``,
``tests/engine/test_read_cost.py`` or, the last,
``tests/properties/test_prop_head_read.py``):

* **Record versions are contiguous.**  A batch files version ``n + 1``
  after version ``n``, nothing else moves the version, and the list is
  trimmed only from the front.  So the records newer than a version ``v``
  are the last ``newest.version - v`` of the list (:func:`_entries_after`,
  an offset from the end), and a snapshot that is already current learns
  so from the last record alone.  Commit *sequences* are not contiguous
  (unrecorded batches carry none), so :meth:`EpochManager.pin_span` walks
  back from the newest record instead.
* **Who reads the list.**  The writer appends in place (the record first,
  then the version bump) and the trim swaps the reference, both under the
  stream's one lock — a reader thread releasing a pin trims too, and must
  not swap out a list a record is being appended to.  Readers take the
  reference once, and its length before its last record, and slice it (a
  stale reference is a superset; a record appended after the reader's
  stamp fails the stamp validation).  ``CommitLog.since`` (the drains),
  ``pin_span``, ``undo_differentials`` and ``_adopt_cached`` read it under
  the lock; ``SnapshotRelation._sync_locked`` reads it under the
  snapshot's own ``_sync_lock`` (the records are immutable once filed).
* **One bracket per operator.**  A physical operator enters the seqlock a
  constant number of times per execution, never once per row or per probe
  key: ``SnapshotIndex.lookup`` serves an equality selection,
  ``_SnapshotBuckets.probe`` a join's or semijoin's whole key set and
  ``SnapshotRelation.multiplicities`` a bag-mode batch of counts, each in
  one :meth:`SnapshotRelation._read`.
* **Ownership runs one way.**  Query result → (nothing); index view
  (:class:`SnapshotIndex`, and the ``_SnapshotBuckets`` minted from it) →
  :class:`SnapshotRelation` → :class:`EpochPin` → :class:`EpochManager`.
  Nothing a snapshot owns points back at it — index views are handles made
  per request, the pin's relation cache and the manager's registries are
  weak — so dropping the last reference releases the pin, and with it the
  retained records, at once.  There is no cycle.
* **One-shot reads take no pin.**  A pin taken at the head and dropped
  when the call returns reconstructs a state that *is* the live state, so
  ``Session.query(text, pinned=True)`` runs a *probe-only* plan (every
  named relation reached solely by keyed probes of indexes that are built
  when the attempt looks — ``PhysicalOperator.probes``) on the live
  relations inside one bracket, :meth:`EpochManager.read_head`.  *What
  validates:* the stamp alone, which every mutation batch moves (commits,
  loads, restores), and nothing else changes a base relation.
  *What a lost attempt is:* nothing.  A bucket torn by the writer can make
  an operator return or raise anything, so the outcome is looked at only
  after validation: a lost attempt's value or exception is dropped, an
  exception under a held stamp is the query's own and is raised at once,
  never re-run.  *What a lost attempt may leave behind:* ``IndexUsage``
  counts (one lookup or build-side touch per attempt, the plain counter
  bumps a lost ``SnapshotIndex`` round leaves too), and an index built —
  every index it wants was built when it looked, but a commit landing
  mid-attempt may have sent one back to declared (``HashIndex.charge``);
  the operator that then asks for it builds it under the write gate
  (:meth:`EpochManager.build_index`), so the build is whole and current
  whatever the attempt's fate.  It registers nothing with the manager.
  *Why never the write gate:* the gate is for a compute that is O(n) and
  would starve (a build holds it only while it files); a probe-only
  compute is O(keys probed), and one that still loses
  :data:`READ_RETRY_LIMIT` times takes a pin and is the pinned read above,
  bounded fallback included.  *An index only declared:* no attempt is
  made; the read runs pinned and builds the live index under the gate
  (``SnapshotRelation.amortized_index`` asks the live relation), so the
  plan's next read runs here.  *Why only probe-only plans:* a 9 ms scan
  loses every race to a 1k commits/s writer and then runs pinned anyway
  (``bench_mvcc``'s gated row reads 0.32-0.35x with every plan bracketed,
  0.93-0.98x as it is).
"""

from __future__ import annotations

import sys
import threading
import weakref
from typing import Callable, Dict, Iterator, List, Optional

from repro.engine.commitlog import CommitRecord
from repro.engine.indexes import HashIndex, IndexSet
from repro.engine.overlay import OverlayIndex, OverlayRelation, _DeltaBuckets
from repro.engine.relation import (
    Relation,
    scan_aggregate_state,
    shifted_aggregate_state,
)
from repro.errors import EpochUnavailableError, OutOfBandMutationError

#: Versions of the commit stream kept when no pin or cursor needs older
#: ones: the window for late pins, and how far a cursor may fall behind
#: before the committer drains it.
DEFAULT_RETAIN = 256

#: Optimistic seqlock attempts before a starving reader falls back to the
#: write gate.  Large merges under a continuously-committing writer can
#: lose the validation race forever; the fallback bounds reader latency
#: at the cost of stalling the writer for one reconstruction.  Kept small:
#: every lost round re-runs the full compute, so for expensive reads the
#: retry budget is wasted work and the gate is the faster path anyway.
READ_RETRY_LIMIT = 2


def fold_inverse(plus: Relation, minus: Relation, delta: tuple) -> None:
    """Fold one newer commit's *inverse* into running undo differentials.

    ``delta`` is the commit's ``(Δ⁺, Δ⁻)`` for one relation (either side
    may be None).  With the undo pair held as net relations, composing
    means ``plus += Δ⁻`` and ``minus += Δ⁺`` under signed cancellation —
    a row the commit re-inserted after the undo re-added it just cancels.
    Cancel-before-insert keeps the overlay invariants (no row on both
    sides, ``minus ⊆ base``) intact.
    """
    dplus, dminus = delta
    if dminus:
        _fold(dminus._rows, grow=plus, shrink=minus)
    if dplus:
        _fold(dplus._rows, grow=minus, shrink=plus)


def _fold(counts: dict, grow: Relation, shrink: Relation) -> None:
    """``grow += counts``, first cancelling against what ``shrink`` holds."""
    held = shrink._rows
    if held and not held.keys().isdisjoint(counts):
        cancelled = {
            row: min(count, held[row]) for row, count in counts.items() if row in held
        }
        shrink.delete_counts(cancelled)
        counts = {
            row: count - cancelled.get(row, 0)
            for row, count in counts.items()
            if count > cancelled.get(row, 0)
        }
    if counts:
        grow.insert_counts(counts)


def _entries_after(records: List[CommitRecord], version: int) -> List[CommitRecord]:
    """The records newer than ``version``, by offset instead of by scan.

    Versions are contiguous (see the module docs), so the first newer
    record sits a computable distance from the end and a caller that is
    already current pays for one comparison.  The caller has established
    that the list reaches back far enough: ``records[0].version <=
    version + 1``.
    The length is read before the last record, so an append racing a
    reader that holds no lock cannot shift the slice.
    """
    count = len(records)
    if not count:
        return []
    newer = records[count - 1].version - version
    if newer <= 0:
        return []
    return records[count - newer : count]


class EpochManager:
    """Per-database epoch bookkeeping over the commit stream: the seqlock,
    the pins, the cursors and the trim floor."""

    def __init__(self, database, retain: int = DEFAULT_RETAIN):
        self._database = database
        # The commit stream: its records and its version (+1 per record).
        # The version is distinct from the public epoch (the commit
        # sequence) because unrecorded batches move state without
        # consuming a sequence.
        self._log = database.commit_log
        self.retain = max(int(retain), 1)
        # Seqlock stamp: even = stable, odd = a mutation batch is in
        # flight.  Written only by the holder of the writer lock.
        self._stamp = 0
        # The writer holds this across its (short) critical section; a
        # reader takes it for one pass against a stable base: a read that
        # lost ``READ_RETRY_LIMIT`` seqlock races, a materializing copy
        # that missed the recycling cache, or an index build.
        self._write_gate = threading.Lock()
        self._pins: Dict[int, int] = {}
        # Audit schedulers, held weakly beside the pins: each keeps every
        # commit from its ``cursor`` on.  A fork or a copy starts with none.
        self._cursors: "weakref.WeakSet" = weakref.WeakSet()
        # The stream's one lock, re-entrant: EpochPin.__del__ may run from
        # the GC at any point, including while this thread already holds it.
        self._lock = self._log._lock
        # Materialization recycling: name -> (version, rows, owner ref),
        # the last snapshot dict materialized.  Once
        # its owner is unreachable, the next materialization adopts the
        # dict and rolls it forward O(Δ) through the retained records
        # instead of copying O(n): a reader re-pinning under a live writer
        # copies once.  Guarded by ``_lock``.
        self._mat_cache: Dict[str, tuple] = {}
        self.reclaimed = 0
        self.pins_taken = 0

    # -- introspection ---------------------------------------------------------

    @property
    def version(self) -> int:
        """The current internal version (mutation batches applied)."""
        return self._log.version

    @property
    def current_epoch(self) -> int:
        """The public epoch counter: the next commit-log sequence number."""
        return self._log.next_sequence

    def retained(self) -> int:
        """Records of the commit stream currently held."""
        return len(self._log._records)

    def pinned_versions(self) -> tuple:
        with self._lock:
            return tuple(sorted(self._pins))

    # -- writer protocol (one writer at a time: the writer lock's holder) ------

    def begin_write(self) -> None:
        """Enter the mutation critical section (stamp goes odd)."""
        self._write_gate.acquire()
        self._stamp += 1

    def end_write(self) -> None:
        """Leave the critical section (stamp goes even).

        The record is already filed and the window trimmed, in one hold
        of the stream lock (``CommitLog.append`` runs :meth:`_trim_locked`):
        a reader releasing its pin trims too, and must not swap out a list
        a record is being appended to.
        """
        self._stamp += 1
        self._write_gate.release()

    def _trim_locked(self) -> None:
        """Drop records below every pin, every cursor and the retention
        window.

        Readers may be iterating the list concurrently, so its reference
        is swapped (copy-on-trim) rather than mutated in place; a reader
        holding the old reference simply sees a superset.
        """
        log = self._log
        floor = log.version - self.retain
        if self._pins:
            # ``default``: a pin's finalizer (run by the collector at any
            # allocation, re-entering under the RLock) may have emptied the
            # dict since the line above looked.
            floor = min(floor, min(self._pins, default=floor))
        held = sys.maxsize  # the lowest cursor: commits from it on stay
        if self._cursors:
            held = min((c.cursor for c in self._cursors), default=held)
        records = log._records
        drop = 0
        for record in records:
            if record.version > floor or (
                record.sequence is not None and record.sequence >= held
            ):
                break
            drop += 1
        if drop:
            log._records = records[drop:]
            self.reclaimed += drop

    # -- cursors ------------------------------------------------------------------

    def add_cursor(self, cursor, start_sequence: Optional[int] = None) -> int:
        """Keep every commit from ``cursor.cursor`` on while ``cursor`` (an
        audit scheduler, whose ``catch_up(upto)`` drains the commits below
        ``upto``) lives; returns where it starts: ``start_sequence``, or the
        oldest retained commit.  A commit already trimmed is refused."""
        with self._lock:  # no trim between the check and the hold
            oldest = self._log.first_sequence
            if start_sequence is None:
                start_sequence = oldest
            elif start_sequence < oldest:
                raise ValueError(
                    f"start_sequence #{start_sequence} is no longer retained: "
                    f"the oldest retained commit is #{oldest}"
                )
            self._cursors.add(cursor)
            return start_sequence

    def admit(self, sequence: int) -> None:
        """After commit ``sequence``, drain every cursor more than
        :attr:`retain` commits behind up to that commit, on this thread.

        The caller has left the seqlock window and the write gate, under
        which an audit may build a declared index.  The commit itself is
        left to its committer's own drain; a catch-up raises no
        :class:`Exception` (it becomes a failed verdict) into it."""
        if not self._cursors:
            return
        behind = sequence + 1 - self.retain
        for cursor in list(self._cursors):
            if cursor.cursor < behind:
                cursor.catch_up(sequence)

    # -- reader protocol --------------------------------------------------------

    def read_begin(self) -> int:
        """A stable (even) stamp; waits out the writer's critical section.

        An odd stamp means the gate is held, so blocking on the gate wakes
        the reader the moment the batch lands — a bare GIL yield here can
        stall for whole scheduler intervals against a CPU-bound writer.
        """
        while True:
            stamp = self._stamp
            if not (stamp & 1):
                return stamp
            gate = self._write_gate
            gate.acquire()
            gate.release()

    def read_validate(self, stamp: int) -> bool:
        return self._stamp == stamp

    def read_head(self, compute: Callable):
        """``compute()`` over the *live* relations in one validated bracket
        (the module docs' *one-shot reads*).

        The value counts iff the stamp did not move while it was computed:
        every batch moves it.  Returns it, or None after
        :data:`READ_RETRY_LIMIT` lost attempts — the caller then takes a
        pin.  The write gate is taken only by an index rebuild inside an
        attempt: a ``compute`` whose index a commit sent back to declared
        builds it through :meth:`build_index`.
        """
        for _attempt in range(READ_RETRY_LIMIT):
            stamp = self.read_begin()
            try:
                value = compute()
            except Exception:
                # Validate first, then decide: a torn state can raise
                # anything, a stable one raised the caller's own error.
                if self.read_validate(stamp):
                    raise
                continue
            if self.read_validate(stamp):
                return value
        return None

    def build_index(self, index: HashIndex, relation: Relation) -> None:
        """Build a declared ``index`` of the live base ``relation`` under
        the write gate, so no commit moves the rows while they are filed
        (``Relation.amortized_index``, from any thread; never from inside
        the writer's critical section, which runs no plan)."""
        with self._write_gate:
            if not index.built:  # another thread may have built it meanwhile
                index.build(relation._rows)

    # -- pinning ----------------------------------------------------------------

    def _available_locked(self, version: int) -> bool:
        log = self._log
        if version >= log.version:
            return version == log.version
        records = log._records
        # Versions are contiguous and trimmed only from the front, so one
        # front check proves every record > ``version`` survives.
        return bool(records) and records[0].version <= version + 1

    def pin(self) -> "EpochPin":
        """Pin the current epoch; reads through the pin see it forever."""
        log = self._log
        while True:
            # (version, epoch) must come from one stable interval — the
            # seqlock brackets both the relation mutations and the commit
            # stream append, so an even-stamp double read is atomic.
            stamp = self.read_begin()
            version = log.version
            epoch = log._next_sequence
            if not self.read_validate(stamp):
                continue
            with self._lock:
                self._pins[version] = self._pins.get(version, 0) + 1
                if self._available_locked(version):
                    self.pins_taken += 1
                    return EpochPin(self, version, epoch)
                # Raced with enough commits to lose the window; rare.
                self._unpin_locked(version)

    def pin_version(self, version: int) -> "EpochPin":
        """Pin the retained stream ``version`` (the current one or an older
        one whose later records all survive), so every record after it
        stays.  Raises :class:`~repro.errors.EpochUnavailableError` when one
        was already trimmed."""
        with self._lock:
            if not self._available_locked(version):
                raise EpochUnavailableError(version)
            log = self._log
            later = _entries_after(log._records, version)
            epoch = log._next_sequence - sum(
                record.sequence is not None for record in later
            )
            self._pins[version] = self._pins.get(version, 0) + 1
            self.pins_taken += 1
            return EpochPin(self, version, epoch)

    def pin_span(self, first_sequence: int, last_sequence: int):
        """Pins bracketing commits ``[first, last]``: an EpochSpan or None.

        ``pre`` is the state the first commit applied to; ``post`` is the
        state the last commit produced.  Returns None when that cannot be
        reconstructed any more — a record was trimmed — letting callers
        fall back to live-state audits.
        """
        with self._lock:
            pre_version = post_version = None
            # Newest first, stopping at the first commit older than the
            # span: audits bracket the commits that just landed, so this
            # visits the span and whatever came after it, not the window.
            for record in reversed(self._log._records):
                sequence = record.sequence
                if sequence is None:
                    continue
                if sequence == last_sequence:
                    post_version = record.version
                if sequence <= first_sequence:
                    if sequence == first_sequence:
                        pre_version = record.version - 1
                    break
            if pre_version is None or post_version is None:
                return None
            if not self._available_locked(pre_version):
                return None
            self._pins[pre_version] = self._pins.get(pre_version, 0) + 1
            self._pins[post_version] = self._pins.get(post_version, 0) + 1
            self.pins_taken += 2
            pre = EpochPin(self, pre_version, first_sequence)
            post = EpochPin(self, post_version, last_sequence + 1)
        return EpochSpan(pre, post)

    def _unpin_locked(self, version: int) -> None:
        count = self._pins.get(version, 0) - 1
        if count <= 0:
            self._pins.pop(version, None)
        else:
            self._pins[version] = count

    def _release(self, version: int) -> None:
        with self._lock:
            self._unpin_locked(version)
            # Reclamation happens opportunistically here and on every
            # write; both paths swap the list, never mutate it.
            self._trim_locked()

    def snapshot_relation(self, name: str, pin: "EpochPin") -> "SnapshotRelation":
        """The state of base relation ``name`` as of ``pin``."""
        live = self._database.relation(name)
        with self._lock:
            if not self._available_locked(pin.version):
                raise EpochUnavailableError(pin.version, pin.epoch)
        return SnapshotRelation(self, pin, name, live)

    def undo_differentials(self, version: int) -> Optional[dict]:
        """Net ``{base: (Δ⁺, Δ⁻)}`` reverting the live state to ``version``.

        The inverse of every retained record after ``version``, composed
        with signed cancellation — applying it through ``apply_deltas``
        restores the pinned state in O(Δ-since-pin).  Returns None when the
        records are no longer retained (restore raises), ``{}``
        when nothing changed.  Under the writer lock only.
        """
        with self._lock:
            if not self._available_locked(version):
                return None
            records = _entries_after(self._log._records, version)
        undo: Dict[str, tuple] = {}
        database = self._database
        for record in records:
            for name, delta in record.differentials.items():
                pair = undo.get(name)
                if pair is None:
                    schema = database.relation_schema(name)
                    pair = (
                        Relation(schema, bag=database.bag),
                        Relation(schema, bag=database.bag),
                    )
                    undo[name] = pair
                fold_inverse(pair[0], pair[1], delta)
        return {
            name: (plus if len(plus) else None, minus if len(minus) else None)
            for name, (plus, minus) in undo.items()
            if len(plus) or len(minus)
        }

    # -- the one write path -----------------------------------------------------

    def note_mutation(self) -> None:
        """A base relation is about to mutate.

        Called by :class:`~repro.engine.relation.Relation` before every
        row change on a database's relation.  Inside the writer's seqlock
        window the change is an ``apply_deltas`` batch, and the stream
        records it; anything else (a direct ``relation.insert(...)``) would
        move the live base under every pin without a record, so it raises
        :class:`~repro.errors.OutOfBandMutationError` before it lands.
        """
        if not self._stamp & 1:
            raise OutOfBandMutationError()

    def _adopt_cached(self, name: str, upto: int) -> Optional[dict]:
        """Recycle a dead owner's materialized dict, rolled forward to
        ``upto``.

        Returns the adopted (now exclusively owned) row dict, or None
        when no cached dict exists, its owner is still reachable, the
        cached state is newer than ``upto`` (states cannot be rewound),
        or the connecting records were reclaimed.  The roll-forward is
        pure private-dict + frozen-record arithmetic, so it needs no
        seqlock bracket — concurrent commits cannot perturb it.
        """
        with self._lock:
            cached = self._mat_cache.pop(name, None)
            if cached is None:
                return None
            version, rows, owner = cached
            if owner() is not None or version > upto:
                self._mat_cache[name] = cached  # still owned, or too new
                return None
            newer = ()
            if version < upto:
                records = self._log._records
                if not records or records[0].version > version + 1:
                    return None  # gap: the chain is broken for good
                newer = _entries_after(records, version)[: upto - version]
        for record in newer:
            delta = record.differentials.get(name)
            if delta is None:
                continue
            plus, minus = delta
            if minus is not None:
                for row, count in minus._rows.items():
                    remaining = rows.get(row, 0) - count
                    if remaining > 0:
                        rows[row] = remaining
                    else:
                        rows.pop(row, None)
            if plus is not None:
                for row, count in plus._rows.items():
                    rows[row] = rows.get(row, 0) + count
        return rows

    def _file_materialized(self, name: str, version: int, rows: dict, owner) -> None:
        """Offer ``owner``'s dict, the state at ``version``, to the next
        materialization of ``name`` once ``owner`` dies."""
        with self._lock:
            self._mat_cache[name] = (version, rows, weakref.ref(owner))

    def __repr__(self) -> str:
        return (
            f"EpochManager(v{self.version}, epoch=#{self.current_epoch}, "
            f"{self.retained()} retained, {len(self._pins)} pinned, "
            f"{self.reclaimed} reclaimed)"
        )


class EpochPin:
    """A refcounted claim on one epoch; holds its reconstruction window."""

    __slots__ = (
        "_manager",
        "version",
        "epoch",
        "_released",
        "_relations",
        "__weakref__",
    )

    def __init__(self, manager: EpochManager, version: int, epoch: int):
        self._manager = manager
        self.version = version
        #: Public epoch number: the commit-log sequence boundary this pin
        #: observes (commits with sequence < epoch are visible).
        self.epoch = epoch
        self._released = False
        # Snapshot relations are cached per pin so every reader of the pin
        # (e.g. all audit tasks of one batch) shares one materialization.
        # Weak values: the snapshot holds the pin (never the reverse), so
        # a dropped snapshot is reclaimed by refcounting immediately — a
        # strong cache here would form a cycle that lingers until the
        # cyclic GC runs, keeping dead materializations "live" and
        # blocking the manager's dict recycling.
        self._relations: "weakref.WeakValueDictionary" = (
            weakref.WeakValueDictionary()
        )

    def relation(self, name: str) -> "SnapshotRelation":
        relation = self._relations.get(name)
        if relation is None:
            relation = self._manager.snapshot_relation(name, self)
            self._relations[name] = relation
        return relation

    def release(self) -> None:
        """Idempotent; reclamation may drop this epoch's records after.

        Already-materialized snapshot relations stay readable forever; a
        *fresh* whole-relation read after release may raise
        :class:`~repro.errors.EpochUnavailableError` once the records are
        reclaimed.
        """
        if not self._released:
            self._released = True
            self._manager._release(self.version)

    def __del__(self):  # safety net: a dropped pin must not retain records
        try:
            self.release()
        except (AttributeError, TypeError):
            # What a half-torn-down interpreter raises (attributes already
            # cleared, globals set to None).  Anywhere else this is a bug
            # like any other failure here, and goes to sys.unraisablehook.
            if not sys.is_finalizing():
                raise

    def __enter__(self) -> "EpochPin":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"EpochPin(epoch=#{self.epoch}, v{self.version}, {state})"


class EpochSpan:
    """A shared pre/post pin pair bracketing one audit batch.

    Audit tasks of the same batch resolve bare names against
    :meth:`post_relation` and ``R@old`` against :meth:`pre_relation`, so
    every rule in the batch audits exactly the states its commits
    transitioned between, no matter when the worker thread runs.  The span
    is refcounted across the batch's tasks; the last release drops both
    pins.
    """

    __slots__ = ("pre", "post", "_refs", "_lock")

    def __init__(self, pre: EpochPin, post: EpochPin):
        self.pre = pre
        self.post = post
        self._refs = 1
        self._lock = threading.Lock()

    def retain(self) -> "EpochSpan":
        with self._lock:
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            drop = self._refs == 0
        if drop:
            self.pre.release()
            self.post.release()

    def pre_relation(self, name: str) -> "SnapshotRelation":
        return self.pre.relation(name)

    def post_relation(self, name: str) -> "SnapshotRelation":
        return self.post.relation(name)

    def __repr__(self) -> str:
        return f"EpochSpan(#{self.pre.epoch} -> #{self.post.epoch})"


def _bracketed(name: str):
    """A :class:`SnapshotRelation` read: ``OverlayRelation``'s method of
    that name in a read bracket, ``Relation``'s once materialized."""
    overlaid, frozen = getattr(OverlayRelation, name), getattr(Relation, name)

    def read(self, *args):
        return self._read(lambda: overlaid(self, *args), lambda: frozen(self, *args))

    read.__name__ = name
    return read


class SnapshotRelation(OverlayRelation):
    """One base relation frozen at a pinned epoch, reconstructed O(Δ).

    An overlay whose *base* is the live relation and whose delta is the
    running **inverse** of every commit after the pin: ``plus`` re-adds
    rows later commits deleted, ``minus`` hides rows they inserted.  The
    overlay invariants hold by construction (:func:`fold_inverse`), so
    every inherited read answers correctly; reads go through a seqlock
    retry loop (:meth:`_read`) that first catches the undo delta up to the
    newest committed version, then validates nothing moved mid-compute.

    Read-only: the state at an epoch is immutable, and the first
    whole-relation materialization is therefore cached permanently,
    detaching the snapshot from the live base for good.
    """

    __slots__ = (
        "_manager",
        "_pin",
        "_name",
        "_synced",
        "_sync_lock",
        "__weakref__",
    )

    def __init__(self, manager: EpochManager, pin: EpochPin, name: str, live: Relation):
        plus = Relation(live.schema, bag=live.bag)
        minus = Relation(live.schema, bag=live.bag)
        OverlayRelation.__init__(self, live, plus, minus)
        self._manager = manager
        self._pin = pin  # keeps the reconstruction window alive
        self._name = name
        self._synced = pin.version
        # Serializes snapshot-internal catch-up between concurrent reader
        # threads; the writer never takes it.  RLock: reads nest (e.g. an
        # index probe membership-checks back through the relation).
        self._sync_lock = threading.RLock()

    # -- reconstruction ---------------------------------------------------------

    def _sync_locked(self) -> None:
        """Catch the undo delta up to the newest retained record."""
        log = self._manager._log
        # The version before the list: the writer files a record before it
        # bumps the version, so an empty list under a newer version means
        # the records are gone, never that one is on its way.
        version = log.version
        records = log._records
        synced = self._synced
        if records and records[0].version > synced + 1:
            # The records between our pin and the retained window were
            # reclaimed — only possible once the pin is released.
            raise EpochUnavailableError(self._pin.version, self._pin.epoch)
        if not records:
            if version > synced:
                raise EpochUnavailableError(self._pin.version, self._pin.epoch)
            return
        newer = _entries_after(records, synced)
        if not newer:
            return  # already current: the common case, and O(1)
        name = self._name
        for record in newer:
            delta = record.differentials.get(name)
            if delta is not None:
                fold_inverse(self.plus, self.minus, delta)
        self._synced = newer[-1].version

    def _read(self, compute: Callable, frozen: Callable):
        """Run ``compute`` against a consistent pinned view (seqlock retry),
        or ``frozen`` once this snapshot is materialized.

        Optimistic first: snapshot the stamp, sync the undo delta,
        compute, and accept iff the stamp never moved.  A compute that
        keeps losing that race (a large merge under a hot writer would
        otherwise starve forever) falls back to holding the manager's
        write gate for one pass, bounded by a single reconstruction.
        ``frozen`` is chosen under ``_sync_lock``, where materialization
        is set: a materialized snapshot's undo stops syncing, so
        ``compute`` would read the live base through a stale undo.
        Neither may materialize: a copy takes the gate the fallback holds.
        """
        if self._materialized is not None:
            return frozen()
        manager = self._manager
        for _attempt in range(READ_RETRY_LIMIT):
            stamp = manager.read_begin()
            with self._sync_lock:
                if self._materialized is not None:
                    return frozen()
                self._sync_locked()
                try:
                    value = compute()
                except RuntimeError as error:
                    # The live base mutated mid-iteration ("dictionary
                    # changed size during iteration"): retry on the next
                    # stable stamp.  Exactly that class — RecursionError
                    # and NotImplementedError are subclasses, and a bug in
                    # ``compute`` is raised, not re-run.
                    if type(error) is not RuntimeError:
                        raise
                    continue
            if manager.read_validate(stamp):
                return value
        with manager._write_gate:  # stamp is even and frozen while held
            with self._sync_lock:
                if self._materialized is not None:
                    return frozen()
                self._sync_locked()
                return compute()

    @property
    def _rows(self) -> dict:
        """The merged pinned state, materialized once and frozen forever."""
        rows = self._materialized
        if rows is None:
            rows = self._materialize()
        return rows

    def _materialize(self) -> dict:
        """The pinned state as a private dict, made once and frozen.

        One rule: adopt a dead reader's dict rolled forward to the pin
        (:meth:`EpochManager._adopt_cached`), otherwise copy the merged
        state once (:meth:`_copied_rows`).  Either way the dict is
        filed for the next reader of this relation.
        """
        manager = self._manager
        version = self._pin.version
        with self._sync_lock:
            if self._materialized is not None:
                return self._materialized
            self._sync_locked()  # an unreadable snapshot adopts nothing
            rows = self._materialized = manager._adopt_cached(self._name, version)
        if rows is None:
            rows = self._copied_rows(freeze=True)
        manager._file_materialized(self._name, version, rows, self)
        return rows

    def _copied_rows(self, freeze: bool = False) -> dict:
        """The pinned state in a dict of the caller's own, or with
        ``freeze`` as this snapshot's frozen dict.  A missing dict is
        merged once under the write gate — taken before ``_sync_lock``, as
        in :meth:`_read` — so no commit moves the base mid-copy.  A copy is
        not a reader and files nothing for recycling: a checkpoint's fork
        would otherwise copy twice and keep one copy."""
        rows = self._materialized
        if rows is None:
            with self._manager._write_gate:  # stamp frozen even while held
                with self._sync_lock:
                    rows = self._materialized
                    if rows is None:
                        self._sync_locked()
                        rows = self._merged_rows()
                        if freeze:
                            self._materialized = rows
                        return rows
        return rows if freeze else dict(rows)

    # -- read protocol ----------------------------------------------------------
    #
    # Each override runs the inherited overlay arithmetic inside the
    # seqlock retry loop, and answers from the frozen dict once the
    # snapshot is materialized.  Whole-relation consumers (__iter__, items,
    # filtered, sorted_rows, equality) inherit from Relation and hit
    # ``_rows``.

    __len__ = _bracketed("__len__")
    __contains__ = _bracketed("__contains__")
    __bool__ = _bracketed("__bool__")
    multiplicity = _bracketed("multiplicity")
    distinct_count = _bracketed("distinct_count")

    def multiplicities(self, rows) -> dict:
        rows = tuple(rows)  # a lost validation race walks them again
        return self._read(
            lambda: OverlayRelation.multiplicities(self, rows),
            lambda: Relation.multiplicities(self, rows),
        )

    def rows_and_counts(self):
        # Only an empty undo is answered inside the bracket (the live
        # base's own rows); otherwise the rows are materialized after it.
        def untouched():
            if self.plus._rows or self.minus._rows:
                return None
            return self.base.rows_and_counts()

        pair = self._read(untouched, lambda: None)
        return Relation.rows_and_counts(self) if pair is None else pair

    def aggregate_state(self, kind: str, position: int) -> tuple:
        # Carry the live base's memoised state back over the undo delta.
        # Only an existing memo is read, never built: a scan of the live
        # rows from a reader thread would race the writer.
        def carried():
            memo = self.base._aggregates
            state = memo.get((kind, position)) if memo else None
            if state is None:
                return None
            return shifted_aggregate_state(
                kind, position, state, self.plus._rows, self.minus._rows
            )

        state = self._read(carried, lambda: None)
        if state is not None:
            return state
        return scan_aggregate_state(kind, self, position)  # the frozen rows

    # -- mutation: forbidden ----------------------------------------------------

    def _readonly(self, *_args, **_kwargs):
        raise TypeError(
            f"SnapshotRelation({self._name!r} at epoch #{self._pin.epoch}) is "
            f"read-only: the state at a pinned epoch is immutable"
        )

    insert = _readonly
    delete = _readonly
    insert_many = _readonly
    delete_many = _readonly
    insert_counts = _readonly
    delete_counts = _readonly
    clear = _readonly
    replace_contents = _readonly

    # -- hash indexes -----------------------------------------------------------
    #
    # Probes are served through SnapshotIndex views over the live base's
    # *built* indexes, corrected by the undo delta under the same seqlock
    # retry.  An index the live base only declares is built by the first
    # request for it (amortized_index), as on any relation: on the live
    # base, holding the write gate, so the rows it scans cannot change
    # under it, and published whole (HashIndex.build), so no other reader
    # finds it half filled.  A plan that goes without would scan, and pin
    # again on every later read instead of running at the head.
    # Whole-index consumption and post-materialization probing use a local
    # index over the frozen rows.

    def declare_index(self, positions) -> None:
        with self._sync_lock:
            if self._indexes is None:
                self._indexes = IndexSet()
            self._indexes.declare(tuple(positions))

    def _local_index(self, positions):
        rows = self._rows  # outside _sync_lock: a copy takes the gate first
        with self._sync_lock:
            if self._indexes is None:
                self._indexes = IndexSet()
            return self._indexes.ensure_built(tuple(positions), rows)

    def index_on(self, positions):
        positions = tuple(positions)
        if self._materialized is None:
            index = self.base.built_index(positions)
            if index is not None:
                return self._index_view(index)
        return self._local_index(positions)

    def built_index(self, positions):
        positions = tuple(positions)
        if self._materialized is None:
            index = self.base.built_index(positions)
            if index is None:
                return None
            return self._index_view(index)
        if self._indexes is not None:
            local = self._indexes.get_built(positions)
            if local is not None:
                return local
        if self.base.built_index(positions) is None:
            return None
        return self._local_index(positions)

    def amortized_index(self, positions):
        positions = tuple(positions)
        if self._materialized is not None:
            # Frozen rows: a local index, on what the live base declares
            # (built there or not) or this snapshot does.
            declared = self.base.indexes
            if (declared is None or declared.get(positions) is None) and (
                self._indexes is None or self._indexes.get(positions) is None
            ):
                return None
            return self._local_index(positions)
        # The live base's request: it builds a declared index under the
        # write gate.  A materialization meanwhile is read by the view,
        # which then answers from the frozen rows.
        index = self.base.amortized_index(positions)
        return None if index is None else self._index_view(index)

    def _index_view(self, index) -> "SnapshotIndex":
        # A handle per request, never cached on the snapshot: the view
        # holds the snapshot (and so its pin), and a snapshot holding its
        # views back would leave the pin to the cyclic collector.
        return SnapshotIndex(index, self)

    def __repr__(self) -> str:
        state = (
            "materialized"
            if self._materialized is not None
            else f"+{len(self.plus._rows)}/-{len(self.minus._rows)} undo"
        )
        return f"SnapshotRelation({self._name}@#{self._pin.epoch}, {state})"


#: Stands in for a :class:`SnapshotIndex`'s delta-side indexes while the
#: snapshot's undo is empty.  It has no buckets, so the inherited
#: correction arithmetic reads "the delta does not touch this key" for
#: every key.  Never attached to a relation, hence never written to.
_NO_UNDO = HashIndex(())

#: What a :class:`SnapshotIndex` bracket returns when it finds the live
#: index unbuilt, or the snapshot materialized: the answer then comes from
#: the snapshot's frozen rows.
_UNBUILT = object()


class SnapshotIndex(OverlayIndex):
    """A live built index corrected to a pinned epoch, probe-safe.

    Same correction arithmetic as :class:`OverlayIndex` (base bucket minus
    undo-hidden rows, plus undo-re-added rows from delta-side indexes on
    the snapshot's own undo relations), with every probe wrapped in the
    snapshot's seqlock retry and every returned bucket detached from the
    live index's storage.  Once the snapshot materializes, probes switch
    to a local index over the frozen rows.

    The delta-side indexes are attached by the first probe that finds the
    undo non-empty (:meth:`_attach_undo`): a fresh pin's undo is empty, and
    its probes are the base index's own answers.
    """

    __slots__ = ("overlay",)

    def __init__(self, base_index, overlay: SnapshotRelation):
        self.base_index = base_index
        self.overlay = overlay
        self.base = overlay.base
        self.plus = overlay.plus
        self.minus = overlay.minus
        self.plus_index = self.minus_index = _NO_UNDO

    @property
    def buckets(self) -> "_SnapshotBuckets":
        return _SnapshotBuckets(self)

    def _attach_undo(self) -> None:
        """Index the undo relations once they hold rows.

        Runs inside a read bracket, after the catch-up and under the
        snapshot's ``_sync_lock`` — the only place the undo relations are
        written — so the build sees a stable undo, and the undo relations
        keep the indexes current from then on.
        """
        if self.plus_index is _NO_UNDO:
            rel = self.overlay
            if rel.plus._rows or rel.minus._rows:
                positions = self.positions
                self.plus_index = rel.plus.index_on(positions)
                self.minus_index = rel.minus.index_on(positions)

    def _local(self):
        return self.overlay._local_index(self.positions)

    def _read(self, corrected: Callable, frozen: Callable):
        """``corrected()`` — the live index, corrected by the undo delta —
        in one read bracket of the snapshot; ``frozen(local index)`` once
        the snapshot is materialized, or when a commit has unbuilt the
        live index (:meth:`HashIndex.charge`) since this view was made."""
        base_index = self.base_index

        def bracketed():
            if not base_index.built:
                return _UNBUILT
            self._attach_undo()
            return corrected()

        value = self.overlay._read(bracketed, lambda: _UNBUILT)
        return frozen(self._local()) if value is _UNBUILT else value

    def lookup(self, key) -> tuple:
        return self._read(
            lambda: OverlayIndex.lookup(self, key), lambda local: local.lookup(key)
        )

    def touch(self, kind: str, keys: int) -> None:
        # Usage evidence still flows to the base ledger (plain counter
        # bumps; a lost racing increment is harmless).
        try:
            self.base_index.touch(kind, keys)
        except RuntimeError as error:  # pragma: no cover - ledger resize race
            if type(error) is not RuntimeError:
                raise

    def __repr__(self) -> str:
        return f"SnapshotIndex(positions={self.positions})"


class _SnapshotBuckets(_DeltaBuckets):
    """Corrected buckets of a :class:`SnapshotIndex`.

    Probes run the inherited correction under the seqlock retry — one
    bracket per :meth:`probe`, however many keys it carries — and always
    return buckets detached from the live index (a handed-out dict must
    stay stable while later commits land).  Their count (``len``) is one
    bracket too.  Wholesale iteration (``items``, and so ``iter``: join
    build sides, distinct-key semijoin probing) materializes the snapshot
    and serves the local index's buckets — the consumer was about to pay
    O(|R|) anyway.
    """

    __slots__ = ()

    def probe(self, keys) -> dict:
        """``keys`` must be a collection: a lost validation race walks it
        again."""

        def corrected():
            found = _DeltaBuckets.probe(self, keys)
            # Detach: untouched keys alias the live index's bucket dicts.
            return {key: dict(bucket) for key, bucket in found.items()}

        def frozen(local):
            buckets = local.buckets
            return {key: buckets[key] for key in keys if key in buckets}

        return self._index._read(corrected, frozen)

    def get(self, key, default=None):
        return self.probe((key,)).get(key, default)

    def items(self):
        local = self._index._local()  # materializes the snapshot
        return iter(local.buckets.items())

    def __len__(self) -> int:
        return self._index._read(
            lambda: _DeltaBuckets.__len__(self), lambda local: len(local.buckets)
        )
