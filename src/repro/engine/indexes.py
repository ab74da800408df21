"""Per-relation hash indexes with incremental maintenance.

The physical query-plan layer (:mod:`repro.algebra.physical`) accelerates
equality selections and the equi-join family (hash join, semijoin, antijoin)
with hash indexes over base relations.  An index maps a *key* — the tuple of
values at a fixed sequence of attribute positions — to the set of distinct
rows carrying that key.

Design points:

* **Distinct-row granularity.**  Buckets hold distinct rows only; bag-mode
  multiplicities stay in :attr:`Relation._rows` and are re-attached by the
  physical operators when they materialize results.  Membership-style
  operators (semijoin, antijoin, equality selection) only ever need the
  distinct level.

* **Declared vs built.**  An index can be *declared* — its key positions
  registered, by the index advisor
  (:meth:`~repro.core.subsystem.IntegrityController.install_indexes`) or
  carried over from a predecessor relation — without being *built*.  A
  declared index costs a commit nothing: only built indexes are filed
  into.  The first plan that asks for it (``Relation.amortized_index``)
  builds it — an equality selection, either side of a semijoin, the build
  side of a hash join: each would otherwise pay a pass over the relation,
  and the build *is* that pass — and from then on the relation maintains
  it incrementally on every insert and delete.
  Write transactions ask through :class:`~repro.engine.overlay.
  OverlayIndex` views and pinned reads through :class:`~repro.engine.
  epochs.SnapshotIndex` views; both build the *base* index, so it keeps
  paying off after the commit or the pin.  A database's base relation builds
  under the epoch manager's write gate, whichever thread asks, and
  :meth:`HashIndex.build` publishes the buckets whole, so no other thread
  ever finds an index built but half filled.

* **Unread goes back to declared.**  A built index on a database's base
  relation counts the rows it files and unfiles since a plan last asked for
  it (:attr:`HashIndex.unread`; ``amortized_index`` zeroes it).  Once they
  outnumber the rows the relation holds — the rows a rebuild would file —
  maintaining it has cost more than the next plan's build would, and it is
  unbuilt in place (:meth:`HashIndex.unbuild`): declared again, filed into
  by nothing, until a plan asks for it.  That is ski rental, priced by the
  relation's own size, so no constant decides it.  An insert-only stream
  never trips it (it grows the relation as fast as the count); turnover —
  deletes beside inserts — does.  Indexes of relations outside a database
  (a transaction's Δ sides, a snapshot's undo) are held by the views that
  built them and are never unbuilt.

* **Incremental, set-at-a-time maintenance.**  A transaction commit applies
  its net differential (``R@plus`` / ``R@minus``) to the base relation *in
  place* (:meth:`Database.apply_deltas`), and the relation's bulk kernels
  tell the index set once per batch which rows became present or left
  (:meth:`IndexSet.rows_added` / :meth:`IndexSet.rows_removed`); each built
  index then files them in one tight loop (:meth:`HashIndex.add_many` /
  :meth:`HashIndex.remove_many`) — O(|delta|), not O(|R|).  Building an
  index is ``add_many`` over all rows, and a single-row insert is
  ``add_many`` over one.  A bulk load is a commit-stream batch like any
  other, so its rows are filed through the same two calls.

* **The probe surface.**  What a physical operator may ask of an index —
  of a :class:`HashIndex` and of the :class:`~repro.engine.overlay.
  OverlayIndex` / :class:`~repro.engine.epochs.SnapshotIndex` views that
  stand in for it inside a transaction or under a pin — is: one bucket
  (``lookup``), and the buckets of a key set or all of them (``buckets``:
  ``get`` / ``probe`` / ``items``, and their count).  A projection reads
  rows, never an index.  Every use lands in the :class:`IndexUsage` ledger
  of the *base* index, whichever view served it (``lookup`` records itself;
  an operator that consumes buckets in bulk says so with ``touch``).

Single-attribute keys (by far the common case: foreign keys, key lookups)
are stored unwrapped (``row[i]`` instead of ``(row[i],)``), which roughly
halves probe cost under CPython.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Collection, Dict, Iterable, Iterator, Optional, Tuple


class IndexUsage:
    """Per-use evidence ledger of one index.

    Every consuming operator execution records one *use* together with the
    exact number of keys it probed or served, broken down by kind
    (``"lookup"`` — an equality-selection bucket probe; ``"probe"`` — a
    semijoin/antijoin probing per distinct key; ``"build"`` — a join or
    semijoin build side, one key per bucket look-up its probe side makes).
    It is observability only: whether an index stays built is decided by
    :attr:`HashIndex.unread`, not by its uses.
    """

    __slots__ = ("uses", "keys", "lookups", "_bulk")

    def __init__(self):
        self.uses = 0
        self.keys = 0
        # Single-key lookups are the hot path: a dedicated integer counter
        # keeps their bookkeeping to plain increments; the per-kind dict is
        # only touched by (rare) bulk consumptions and materialized on read.
        self.lookups = 0
        self._bulk: Dict[str, int] = {}

    def record(self, kind: str, keys: int = 1) -> None:
        self.uses += 1
        self.keys += keys
        self._bulk[kind] = self._bulk.get(kind, 0) + keys

    @property
    def by_kind(self) -> Dict[str, int]:
        """Exact key volume per use kind (``"lookup"`` merged in)."""
        merged = dict(self._bulk)
        if self.lookups:
            merged["lookup"] = merged.get("lookup", 0) + self.lookups
        return merged

    def reset(self) -> None:
        self.uses = 0
        self.keys = 0
        self.lookups = 0
        self._bulk = {}

    def __repr__(self) -> str:
        return f"IndexUsage(uses={self.uses}, keys={self.keys}, {self.by_kind})"


def _empty_key(row: tuple) -> tuple:
    return ()


def _file(buckets: dict, key_of, rows: Iterable[tuple]) -> None:
    """File distinct ``rows`` into ``buckets`` under ``key_of(row)``."""
    get = buckets.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            buckets[key] = {row: None}
        else:
            bucket[row] = None


class HashIndex:
    """A hash index over one relation, keyed by a tuple of 0-based positions."""

    __slots__ = ("positions", "key_of", "buckets", "built", "usage", "unread")

    def __init__(self, positions: Tuple[int, ...]):
        self.positions = tuple(positions)
        # row -> index key, as a C-level callable built once: the bare value
        # for a single-attribute key, the tuple of values for several.
        self.key_of = itemgetter(*self.positions) if self.positions else _empty_key
        # key -> {row: None} (an ordered set of distinct rows)
        self.buckets: Dict[object, dict] = {}
        self.built = False
        # Per-use evidence: what the plans that read this index asked of it.
        self.usage = IndexUsage()
        # Rows filed and unfiled since the last build or plan request.
        self.unread = 0

    # -- construction and maintenance ----------------------------------------

    def build(self, rows: Iterable[tuple]) -> "HashIndex":
        """(Re)build the index from scratch over ``rows`` (distinct rows).

        Published whole: the buckets fill a fresh dict, which replaces
        ``buckets`` before ``built`` is set, so a reader on another thread
        that finds the index built never sees it half filled.
        """
        buckets: Dict[object, dict] = {}
        _file(buckets, self.key_of, rows)
        self.buckets = buckets
        self.unread = 0
        self.built = True
        return self

    def unbuild(self) -> None:
        """Back to declared.  ``built`` goes first, so nothing trusts the
        emptied buckets, and the old dict is swapped out, not cleared: a
        reader still walking it sees a stale state, which its seqlock
        bracket rejects, never one mutated under it."""
        self.built = False
        self.buckets = {}

    def charge(self, filed: int, held: int) -> None:
        """``filed`` rows were just filed or unfiled, leaving the relation
        ``held`` distinct rows: unbuild once the rows filed unread
        outnumber the rows a rebuild would file."""
        unread = self.unread + filed
        if unread > held:
            self.unbuild()
        else:
            self.unread = unread

    def add(self, row: tuple) -> None:
        self.add_many((row,))

    def remove(self, row: tuple) -> None:
        self.remove_many((row,))

    def add_many(self, rows: Iterable[tuple]) -> None:
        """File distinct ``rows`` under their keys."""
        _file(self.buckets, self.key_of, rows)

    def remove_many(self, rows: Iterable[tuple]) -> None:
        """Unfile ``rows``; rows the index does not hold are skipped."""
        buckets = self.buckets
        get = buckets.get
        key_of = self.key_of
        for row in rows:
            key = key_of(row)
            bucket = get(key)
            if bucket is not None:
                bucket.pop(row, None)
                if not bucket:
                    del buckets[key]

    # -- probing --------------------------------------------------------------

    def __contains__(self, key) -> bool:
        return key in self.buckets

    def lookup(self, key) -> tuple:
        """The distinct rows with this key (empty tuple when absent)."""
        usage = self.usage
        usage.uses += 1
        usage.keys += 1
        usage.lookups += 1
        bucket = self.buckets.get(key)
        return tuple(bucket) if bucket else ()

    def touch(self, kind: str, keys: int) -> None:
        """Record a bulk use: an operator reading ``buckets`` directly,
        ``keys`` the exact number of keys it probed or served."""
        self.usage.record(kind, keys)

    def __repr__(self) -> str:
        state = "built" if self.built else "declared"
        return (
            f"HashIndex(positions={self.positions}, {state}, "
            f"{len(self.buckets)} keys)"
        )


class IndexSet:
    """The indexes attached to one relation, keyed by position tuple."""

    __slots__ = ("_indexes",)

    def __init__(self):
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}

    def declare(self, positions: Tuple[int, ...]) -> HashIndex:
        """Register an index spec without building it."""
        positions = tuple(positions)
        index = self._indexes.get(positions)
        if index is None:
            index = HashIndex(positions)
            self._indexes[positions] = index
        return index

    def get(self, positions: Tuple[int, ...]) -> Optional[HashIndex]:
        return self._indexes.get(tuple(positions))

    def get_built(self, positions: Tuple[int, ...]) -> Optional[HashIndex]:
        """The built index on ``positions``, or None."""
        index = self._indexes.get(tuple(positions))
        if index is not None and index.built:
            return index
        return None

    def ensure_built(
        self, positions: Tuple[int, ...], rows: Iterable[tuple]
    ) -> HashIndex:
        """Declare-and-build (idempotent; an already-built index is kept)."""
        index = self.declare(positions)
        if not index.built:
            index.build(rows)
        return index

    def drop(self, positions: Tuple[int, ...]) -> Optional[HashIndex]:
        """Remove an index (declaration and contents); returns it or None."""
        return self._indexes.pop(tuple(positions), None)

    # -- maintenance hooks (called by Relation) -------------------------------

    def row_added(self, row: tuple) -> None:
        """A row became present (newly distinct) in the relation."""
        self.rows_added((row,))

    def row_removed(self, row: tuple) -> None:
        """A row fully left the relation (last occurrence deleted)."""
        self.rows_removed((row,))

    def rows_added(self, rows: Collection[tuple], held: Optional[int] = None) -> None:
        """Distinct rows became present: one pass per built index.

        ``held`` is the relation's distinct row count after the change, on
        a database's base relation (None elsewhere): each index filing the
        rows is charged for them (:meth:`HashIndex.charge`).
        """
        for index in self._indexes.values():
            if index.built:
                index.add_many(rows)
                if held is not None:
                    index.charge(len(rows), held)

    def rows_removed(self, rows: Collection[tuple], held: Optional[int] = None) -> None:
        """Rows fully left the relation: one pass per built index, charged
        as in :meth:`rows_added`."""
        for index in self._indexes.values():
            if index.built:
                index.remove_many(rows)
                if held is not None:
                    index.charge(len(rows), held)

    def invalidate(self) -> None:
        """Drop built contents but keep declarations (wholesale row change)."""
        for index in self._indexes.values():
            index.unbuild()

    def specs(self) -> tuple:
        """The declared position tuples."""
        return tuple(self._indexes)

    def __len__(self) -> int:
        return len(self._indexes)

    def __iter__(self) -> Iterator[HashIndex]:
        return iter(self._indexes.values())

    def __repr__(self) -> str:
        return f"IndexSet({list(self._indexes)})"

