"""Overlay relations: transaction-local state as a view over (base, Δ⁺, Δ⁻).

Before this module, the engine's write path was copy-on-write at relation
granularity: the first update to a relation inside a transaction duplicated
the *whole* relation (``Relation.copy`` — a full ``dict(self._rows)``), and
commit installed the replacement wholesale.  A one-tuple update against a
100k-row relation paid ~100k units of copy work before any enforcement ran —
the exact asymmetry the paper's differential decomposition (``D^t`` plus
``Δ⁺`` / ``Δ⁻``, Section 5.2.1) exists to avoid.

An :class:`OverlayRelation` carries a running transaction's view of one base
relation **without materializing it**: reads answer from the triple
``(base, plus, minus)`` where ``plus``/``minus`` are the transaction's live
differential relations (the same objects ``R@plus`` / ``R@minus`` resolve
to), and writes mutate only the differentials.

Writes are **set-at-a-time**, like the paper's ``insert(R, E)``: a statement
hands its whole row set to :meth:`OverlayRelation.insert_many` /
``delete_many`` (inherited: validate every row first, fold the batch into a
``{row: count}`` mapping), and the kernels
:meth:`OverlayRelation.insert_counts` / :meth:`OverlayRelation.delete_counts`
work out the net-new and net-gone rows by membership in ``(base, plus,
minus)`` and change each differential in one call.  ``insert(row)`` /
``delete(row)`` are the one-element case of the same code.  The invariants
the kernels maintain are

* ``multiplicity(row) = base(row) + plus(row) − minus(row)`` for every row;
* no row has both a plus and a minus count (net differentials);
* ``minus(row) <= base(row)`` (only present tuples are deleted).

Consequences:

* beginning a transaction and updating ``k`` tuples is O(k), independent of
  the base relation's size;
* commit *applies* the net delta to the base relation in place
  (:meth:`repro.engine.database.Database.apply_deltas`) — O(|Δ|): one
  :meth:`~repro.engine.relation.Relation.delete_counts` and one
  ``insert_counts`` per touched relation, each ending in one pass per built
  hash index;
* rollback is O(1): the overlay and its differentials are simply dropped,
  the base was never touched;
* the pre-transaction auxiliary ``R@old`` is the untouched base relation.

Index probes against an overlay keep the physical plan layer's index wins
without the old copy-and-reheat dance: :class:`OverlayIndex` answers from
the base relation's built index corrected by the delta — base bucket minus
the Δ⁻ hits, plus the Δ⁺ hits from small delta-side indexes that the
differential relations maintain themselves, batch by batch.

``OverlayRelation`` subclasses :class:`~repro.engine.relation.Relation` so
that every consumer of the read protocol (both evaluation backends, the
physical operators, equality in tests) accepts it unchanged.  Whole-relation
operations (scans, filters, hash set operations, ``rel._rows`` access)
run over a lazily cached materialization — they are O(|R|) by nature, so
nothing is lost asymptotically, and the cache keeps repeated full-state
checks inside one transaction at plain-relation speed; the sub-linear paths
(length, membership, multiplicity, index probes) never materialize.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Tuple

from repro.engine.relation import (
    Relation,
    absent_rows,
    present_rows,
    scan_aggregate_state,
    shifted_aggregate_state,
)


class OverlayRelation(Relation):
    """A relation view over ``base ∪ plus − minus`` with O(|Δ|) writes."""

    __slots__ = ("base", "plus", "minus", "_materialized", "_index_views")

    def __init__(self, base: Relation, plus: Relation, minus: Relation):
        # Deliberately does NOT call Relation.__init__: the overlay owns no
        # row storage.  The parent's schema/bag/_indexes slots are populated
        # so inherited methods (validation, bag branches) work unchanged.
        self.schema = base.schema
        self.bag = base.bag
        self._indexes = None
        self._observer = None
        self._aggregates = None  # never filled: see aggregate_state()
        self.base = base
        self.plus = plus
        self.minus = minus
        self._materialized: Optional[dict] = None
        self._index_views: dict = {}

    # -- materialization ------------------------------------------------------

    def _merged_items(self):
        """Lazy ``(row, count)`` view over ``base ∪ plus − minus``.

        Only for the early exit of :meth:`__bool__`; everything
        whole-relation goes through :attr:`_rows`.
        """
        base_rows = self.base._rows
        plus_rows = self.plus._rows
        minus_rows = self.minus._rows
        for row, count in base_rows.items():
            removed = minus_rows.get(row)
            if removed is not None:
                count -= removed
                if count <= 0:
                    continue
            else:
                added = plus_rows.get(row)
                if added is not None:  # bag-mode duplicate insertions
                    count += added
            yield row, count
        for row, count in plus_rows.items():
            if row not in base_rows:
                yield row, count

    @property
    def _rows(self) -> dict:
        """The merged row->count dict, materialized lazily and cached.

        Only whole-relation consumers (full scans, filters, hash set
        operations, naive-backend copies) reach this — all O(|R|) by
        nature, so the one-off materialization does not change their
        complexity, and until the next mutation they run at plain-relation
        speed.  The sub-linear paths (length, membership, multiplicity,
        index probes) never touch it.  Mutations invalidate the cache.
        """
        rows = self._materialized
        if rows is None:
            rows = self._materialized = self._merged_rows()
        return rows

    def _merged_rows(self) -> dict:
        """A fresh ``{row: count}`` dict of ``base ∪ plus − minus``.

        One C-speed copy of the base dict corrected by the O(|Δ|) delta —
        never a Python-level per-row merge of the whole relation.  Row
        order is the base's, then the rows ``plus`` adds.
        """
        rows = dict(self.base._rows)
        for row, count in self.minus._rows.items():
            remaining = rows.get(row, 0) - count
            if remaining > 0:
                rows[row] = remaining
            else:
                rows.pop(row, None)
        for row, count in self.plus._rows.items():
            rows[row] = rows.get(row, 0) + count
        return rows

    # -- container protocol (sub-linear: no materialization) -------------------
    #
    # __iter__/rows()/items()/filtered()/to_set()/with_schema() are
    # deliberately *inherited* from Relation: they are whole-relation
    # operations and run over the cached materialization via ``_rows``.

    def __len__(self) -> int:
        return len(self.base) + len(self.plus) - len(self.minus)

    def __contains__(self, row: tuple) -> bool:
        row = tuple(row)
        if row in self.plus._rows:
            return True
        count = self.base._rows.get(row)
        if count is None:
            return False
        return self.minus._rows.get(row, 0) < count

    def __bool__(self) -> bool:
        if self.plus._rows:
            return True
        if not self.minus._rows:
            return bool(self.base._rows)
        return next(self._merged_items(), None) is not None

    def __repr__(self) -> str:
        kind = "bag" if self.bag else "set"
        return (
            f"OverlayRelation({self.schema.name}, base={len(self.base)}, "
            f"+{len(self.plus)}, -{len(self.minus)}, {kind})"
        )

    # -- accessors -------------------------------------------------------------

    def distinct_count(self) -> int:
        base_rows = self.base._rows
        count = len(base_rows) + len(self.plus._rows)
        for row in self.plus._rows:
            if row in base_rows:  # bag-mode extra occurrences of a base row
                count -= 1
        for row, removed in self.minus._rows.items():
            if base_rows.get(row, 0) <= removed:  # fully deleted
                count -= 1
        return count

    def multiplicity(self, row: tuple) -> int:
        row = tuple(row)
        return (
            self.base._rows.get(row, 0)
            + self.plus._rows.get(row, 0)
            - self.minus._rows.get(row, 0)
        )

    def multiplicities(self, rows) -> dict:
        """One pass over the batch against the (base, Δ⁺, Δ⁻) triple."""
        base = self.base._rows.get
        plus = self.plus._rows.get
        minus = self.minus._rows.get
        return {row: base(row, 0) + plus(row, 0) - minus(row, 0) for row in rows}

    def rows_and_counts(self):
        """Batch iteration without materializing untouched overlays.

        Audits routinely scan overlay wrappers whose delta is empty (the
        transaction touched other relations); delegating straight to the
        base skips building a merged copy of the whole row dict.
        """
        if not self.plus._rows and not self.minus._rows:
            return self.base.rows_and_counts()
        return Relation.rows_and_counts(self)

    def aggregate_state(self, kind: str, position: int) -> tuple:
        """The base relation's maintained state carried over the delta.

        O(|Δ|) whenever that is exact; otherwise one scan of the merged
        rows.  The overlay keeps no memo of its own: its writes go to the
        differentials, which would not maintain it.
        """
        state = shifted_aggregate_state(
            kind,
            position,
            self.base.aggregate_state(kind, position),
            self.plus._rows,
            self.minus._rows,
        )
        if state is None:
            state = scan_aggregate_state(kind, self, position)
        return state

    # -- mutation (differential-only) ------------------------------------------

    def insert(self, row: tuple, _validated: bool = False) -> bool:
        return bool(self.insert_many((row,), _validated=_validated))

    def delete(self, row: tuple) -> bool:
        return bool(self.delete_many((row,)))

    # insert_many / delete_many are inherited: they validate, fold the
    # batch into a {row: count} mapping and hand it to the kernels below.

    def insert_counts(self, counts: Mapping) -> int:
        """Grow the net differentials by a ``{row: count}`` batch.

        An insert first cancels pending deletes of the row (``minus``) and
        only what is left over grows ``plus``; set mode absorbs rows the
        overlay already holds.  Each differential is changed in one call.
        """
        plus_rows = self.plus._rows
        minus_rows = self.minus._rows
        if self.bag:
            revived = {
                row: min(count, minus_rows[row])
                for row, count in counts.items()
                if row in minus_rows
            }
            added = {
                row: count - revived.get(row, 0)
                for row, count in counts.items()
                if count > revived.get(row, 0)
            }
        else:
            # A set-mode row is present iff it is in plus, or in the base
            # and not net-deleted; rows in minus are base rows.
            added = absent_rows(self.base._rows, counts)
            if plus_rows:
                added = absent_rows(plus_rows, added)
            revived = present_rows(minus_rows, counts) if minus_rows else None
        if not added and not revived:
            return 0
        self._materialized = None
        changed = 0
        if revived:
            changed += self.minus.delete_counts(revived)
        if added:
            changed += self.plus.insert_counts(added)
        return changed

    def delete_counts(self, counts: Mapping) -> int:
        """Shrink the overlay by a ``{row: count}`` batch of present rows.

        A delete first takes back the transaction's own inserts (``plus``)
        and only then grows ``minus``, by at most what the base still
        holds.
        """
        plus_rows = self.plus._rows
        minus_rows = self.minus._rows
        base_rows = self.base._rows
        if self.bag:
            unmade = {}
            removed = {}
            for row, count in counts.items():
                taken = min(count, plus_rows.get(row, 0))
                if taken:
                    unmade[row] = taken
                    count -= taken
                left = base_rows.get(row, 0) - minus_rows.get(row, 0)
                if count and left > 0:
                    removed[row] = min(count, left)
        else:
            unmade = present_rows(plus_rows, counts) if plus_rows else None
            removed = absent_rows(unmade, counts) if unmade else counts
            removed = present_rows(base_rows, removed)
            if minus_rows:
                removed = absent_rows(minus_rows, removed)
        if not unmade and not removed:
            return 0
        self._materialized = None
        changed = 0
        if unmade:
            changed += self.plus.delete_counts(unmade)
        if removed:
            changed += self.minus.insert_counts(removed)
        return changed

    def clear(self) -> None:
        self._materialized = None
        self.plus.clear()
        self.minus.replace_contents(self.base)
        # Wholesale replacement invalidated the delta-side indexes backing
        # any handed-out OverlayIndex views; rebuild them in place.
        for view in self._index_views.values():
            self.plus.index_on(view.positions)
            self.minus.index_on(view.positions)

    def replace_contents(self, other: "Relation") -> None:
        self.clear()
        self.insert_many(iter(other))

    # -- hash indexes -----------------------------------------------------------

    @property
    def indexes(self):
        """The base relation's index set: that is where declarations live."""
        return self.base.indexes

    def declare_index(self, positions) -> None:
        """Declarations go to the base: they persist past the transaction."""
        self.base.declare_index(positions)

    def index_on(self, positions):
        self.base.index_on(positions)
        return self._index_view(self.base.built_index(tuple(positions)))

    def built_index(self, positions):
        index = self.base.built_index(tuple(positions))
        if index is None:
            return None
        return self._index_view(index)

    def amortized_index(self, positions):
        """Build the base relation's declared index — a base index built
        mid-transaction keeps paying off after commit — and serve it
        through an :class:`OverlayIndex`, so probe answers reflect the
        delta.
        """
        index = self.base.amortized_index(tuple(positions))
        if index is None:
            return None
        return self._index_view(index)

    def _index_view(self, index) -> "OverlayIndex":
        view = self._index_views.get(index.positions)
        if view is None:
            view = OverlayIndex(index, self)
            self._index_views[index.positions] = view
        return view

    # -- value-like derivation ---------------------------------------------------

    def copy(self) -> Relation:
        """Materialize into an independent plain Relation.

        Mirrors :meth:`Relation.copy`: row contents (with multiplicities)
        carry over, as do the base relation's index *declarations*.
        """
        clone = Relation(self.schema, bag=self.bag)
        clone._rows = self._copied_rows()
        indexes = self.base.indexes
        if indexes is not None and len(indexes):
            for positions in indexes.specs():
                clone.declare_index(positions)
        return clone

    def _copied_rows(self) -> dict:
        """A fresh ``{row: count}`` dict for :meth:`copy`."""
        return dict(self._rows)


#: Membership by the (base, Δ⁺, Δ⁻) arithmetic itself, for the index
#: corrections below: it reads only ``base``, ``plus`` and ``minus``, which
#: an :class:`OverlayIndex` holds.  A pinned snapshot's own ``in`` is a read
#: bracket of its own; its index probes already run inside one.
_present = OverlayRelation.__contains__


class OverlayIndex:
    """A built base-relation index corrected by the transaction's delta.

    Presents the probe surface of :class:`~repro.engine.indexes.HashIndex`
    (``lookup``, ``buckets``, ``touch``, ``key_of``, ``positions``,
    ``built``): probes answer from the base relation's built index, with Δ⁻
    hits subtracted (membership-checked against the overlay, so bag-mode
    partial deletes keep the row) and Δ⁺ hits added from small delta-side
    indexes.  The delta-side indexes are real hash indexes attached to the
    differential relations, so the overlay's own inserts and deletes keep
    them current via the ordinary incremental-maintenance hooks — a view
    constructed early in a transaction never goes stale.

    Usage bookkeeping is forwarded to the base index's ledger: a probe
    against the overlay is evidence for keeping the base index.

    The view holds what it reads, the overlay's three relations, and not
    the overlay: the overlay keeps its views, so a view that pointed back
    would make every indexed transaction garbage for the cyclic collector.
    """

    __slots__ = ("base_index", "base", "plus", "minus", "plus_index", "minus_index")

    built = True

    def __init__(self, base_index, overlay: OverlayRelation):
        self.base_index = base_index
        self.base = overlay.base
        self.plus = overlay.plus
        self.minus = overlay.minus
        self.plus_index = overlay.plus.index_on(base_index.positions)
        self.minus_index = overlay.minus.index_on(base_index.positions)

    @property
    def buckets(self) -> "_DeltaBuckets":
        """The corrected buckets, as a mapping view minted per request: the
        view points at the index, the index does not hold its views."""
        return _DeltaBuckets(self)

    @property
    def positions(self) -> Tuple[int, ...]:
        return self.base_index.positions

    @property
    def usage(self):
        return self.base_index.usage

    def key_of(self, row: tuple):
        return self.base_index.key_of(row)

    def __contains__(self, key) -> bool:
        return key in self.buckets

    def lookup(self, key) -> tuple:
        """Distinct overlay rows with this key (records a base-ledger use)."""
        rows = self.base_index.lookup(key)
        if self.minus_index.buckets.get(key):
            rows = tuple(row for row in rows if _present(self, row))
        plus_bucket = self.plus_index.buckets.get(key)
        if plus_bucket:
            base_rows = self.base._rows
            rows += tuple(row for row in plus_bucket if row not in base_rows)
        return rows

    def touch(self, kind: str, keys: int) -> None:
        self.base_index.touch(kind, keys)

    def __repr__(self) -> str:
        return (
            f"OverlayIndex(positions={self.positions}, "
            f"{len(self.buckets)} keys)"
        )


class _DeltaBuckets:
    """Lazy mapping view of an :class:`OverlayIndex`'s corrected buckets.

    Supports the access patterns of the physical operators: per-key ``get``
    / ``in`` (hash join and semijoin probing — O(1) for keys the delta does
    not touch, O(|bucket|) for touched ones) and wholesale ``items()``
    iteration (distinct-key semijoin probing, join build sides) that yields
    the base index's own bucket dicts for untouched keys and freshly
    corrected dicts only for the few keys the delta affects, and their
    count (``len``) by the same arithmetic.  Base buckets are never
    mutated.
    """

    __slots__ = ("_index",)

    def __init__(self, index: OverlayIndex):
        self._index = index

    def _corrected(self, key) -> Optional[dict]:
        """The bucket of ``key`` by the correction arithmetic, or None."""
        index = self._index
        base_bucket = index.base_index.buckets.get(key)
        plus_bucket = index.plus_index.buckets.get(key)
        minus_bucket = index.minus_index.buckets.get(key)
        if plus_bucket is None and minus_bucket is None:
            return base_bucket if base_bucket else None
        corrected: dict = {}
        if base_bucket:
            if minus_bucket:
                for row in base_bucket:
                    if _present(index, row):
                        corrected[row] = None
            else:
                corrected.update(base_bucket)
        if plus_bucket:
            for row in plus_bucket:
                corrected.setdefault(row, None)
        return corrected if corrected else None

    def get(self, key, default=None):
        bucket = self._corrected(key)
        return default if bucket is None else bucket

    def probe(self, keys) -> dict:
        """The buckets of ``keys`` as a plain ``{key: bucket}`` dict.

        The bulk form of :meth:`get` for hash-join and semijoin probing:
        one call per operator execution, after which the probe loop runs
        against a plain dict.  Keys without rows are left out.
        """
        index = self._index
        if index.plus_index.buckets or index.minus_index.buckets:
            get = self._corrected
        else:
            get = index.base_index.buckets.get
        found = {}
        for key in keys:
            bucket = get(key)
            if bucket:
                found[key] = bucket
        return found

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator:
        return (key for key, _bucket in self.items())

    def items(self):
        index = self._index
        base_buckets = index.base_index.buckets
        plus_buckets = index.plus_index.buckets
        minus_buckets = index.minus_index.buckets
        if not plus_buckets and not minus_buckets:
            yield from base_buckets.items()
            return
        touched = set(plus_buckets) | set(minus_buckets)
        for key, bucket in base_buckets.items():
            if key in touched:
                corrected = self._corrected(key)
                if corrected:
                    yield key, corrected
            else:
                yield key, bucket
        for key in plus_buckets:
            if key not in base_buckets:
                corrected = self._corrected(key)
                if corrected:
                    yield key, corrected

    def __len__(self) -> int:
        index = self._index
        count = len(index.base_index.buckets)
        base_buckets = index.base_index.buckets
        for key in index.plus_index.buckets:
            if key not in base_buckets:
                count += 1
        for key in index.minus_index.buckets:
            bucket = base_buckets.get(key)
            if bucket is not None and self._corrected(key) is None:
                count -= 1
        return count
