"""Relation instances (paper Def 2.1) with set and multiset semantics.

The paper's core model is set-based; Section 7 mentions the multi-set
(bag) extension of [8] as important for SQL-like environments.  Both are
supported here: a :class:`Relation` stores tuples with multiplicities and a
``bag`` flag decides whether duplicate insertions accumulate (bag) or are
absorbed (set).  The ``MLT`` counting function of the multiset extension
reads the multiplicities.

Relations are value-like: algebra operators produce new relations and never
mutate their inputs.  Mutating methods (insert/delete) exist for the engine's
update statements and for data loading.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping

from repro.engine.schema import RelationSchema
from repro.engine.types import NULL
from repro.errors import TypeMismatchError


def _value_sort_key(value) -> tuple:
    """A totally ordered key over the engine's value universe.

    Values are ranked by kind (NULL, then numbers, then strings, then
    everything else by repr) so heterogeneous columns (ANY domains, NULLs)
    sort without comparison errors, and numbers sort *numerically* — the old
    ``key=repr`` ordering put ``10`` before ``2`` and cost an O(|repr|)
    string build per row on every test/printing path.
    """
    if value is NULL:
        return (0, "", 0)
    if isinstance(value, (int, float)):  # bool included deliberately
        return (1, "", value)
    if isinstance(value, str):
        return (2, value, 0)
    return (3, repr(value), 0)


def row_sort_key(row: tuple) -> tuple:
    """Deterministic, type-aware sort key for a tuple of engine values."""
    return tuple(_value_sort_key(value) for value in row)


# -- aggregate state ----------------------------------------------------------
#
# The state of an aggregate over one column is ``(value, count)``: the sum
# (kind "SUM", shared by SUM and AVG) or the extremum (kinds "MIN"/"MAX") of
# the non-NULL values, and how many there are (bag occurrences counted).  A
# state can be carried across a row change exactly only in integer
# arithmetic: floats would drift from what a fresh scan sums, in the last
# digits.  Everything else is recomputed from the rows.


def scan_aggregate_state(kind: str, relation, position: int) -> tuple:
    """The ``(value, count)`` state of ``kind`` over a column, from the rows."""
    values = [row[position] for row in relation if row[position] is not NULL]
    if kind == "SUM":
        return sum(values), len(values)
    if not values:
        return None, 0
    return (min(values) if kind == "MIN" else max(values)), len(values)


def shift_aggregate_state(kind: str, state: tuple, item, occurrences: int):
    """``state`` after ``occurrences`` (negative: removed) of a non-NULL
    ``item``, or None when the rows have to be scanned again: a non-integer
    is involved, or the value removed is the extremum (another row may or
    may not still carry it)."""
    value, count = state
    if type(item) is not int or (count and type(value) is not int):
        return None
    if kind == "SUM":
        return value + item * occurrences, count + occurrences
    if occurrences > 0:
        if not count or (item < value if kind == "MIN" else item > value):
            value = item
    elif item == value:
        return None
    return value, count + occurrences


def shifted_aggregate_state(kind: str, position: int, state, plus: dict, minus: dict):
    """``state`` of a base relation carried over a net delta, in O(|Δ|).

    ``plus``/``minus`` are ``{row: count}`` dicts; None as soon as one step
    is not exact (see :func:`shift_aggregate_state`).
    """
    for rows, sign in ((minus, -1), (plus, 1)):
        for row, count in rows.items():
            if state is None:
                return None
            if row[position] is not NULL:
                state = shift_aggregate_state(
                    kind, state, row[position], sign * count
                )
    return state


def absent_rows(rows: dict, candidates: Mapping) -> Mapping:
    """The part of a ``{row: count}`` mapping whose rows are not in ``rows``.

    The whole mapping comes back as it is when none of its rows is (what a
    commit's net Δ⁺ looks like to its base relation), so that callers copy
    it with the hashes it already holds.  Walks the candidates and probes
    ``rows``, never the other way round: ``rows`` may be a base relation.
    """
    if not rows or rows.keys().isdisjoint(candidates):
        return candidates
    return {row: count for row, count in candidates.items() if row not in rows}


def present_rows(rows: dict, candidates: Mapping) -> Mapping:
    """The part of a ``{row: count}`` mapping whose rows are in ``rows``
    (the whole mapping, as it is, when all are)."""
    if candidates.keys() <= rows.keys():
        return candidates
    return {row: count for row, count in candidates.items() if row in rows}


class Relation:
    """A relation state: a (multi)set of typed tuples over a schema."""

    __slots__ = (
        "schema",
        "bag",
        "_rows",
        "_indexes",
        "_observer",
        "_aggregates",
    )

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[tuple] = (),
        bag: bool = False,
        _validated: bool = False,
    ):
        self.schema = schema
        self.bag = bag
        self._rows: dict = {}
        self._indexes = None  # lazily an engine.indexes.IndexSet
        # Mutation observer (the owning database's EpochManager on base
        # relations; None everywhere else): notified *before* every row
        # change, it raises OutOfBandMutationError for a write that
        # bypasses the commit delta path (Database.apply_deltas).
        self._observer = None
        # Memoised aggregate states, {(kind, position): (value, count)}, or
        # None; see aggregate_state().
        self._aggregates = None
        if rows:
            self.insert_many(rows, _validated=_validated)

    # -- basic container protocol -------------------------------------------

    def __len__(self) -> int:
        """Number of tuples (counting multiplicities in bag mode)."""
        if self.bag:
            return sum(self._rows.values())
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        """Iterate tuples; bag mode yields duplicates."""
        if self.bag:
            for row, count in self._rows.items():
                for _ in range(count):
                    yield row
        else:
            yield from self._rows

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        """Equality of contents (schema names are not compared).

        Two relations are equal when they contain the same tuples with the
        same multiplicities; a set relation never equals a bag relation that
        holds duplicates.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        raise TypeError("Relation instances are mutable and unhashable")

    def __repr__(self) -> str:
        kind = "bag" if self.bag else "set"
        return f"Relation({self.schema.name}, {len(self)} tuples, {kind})"

    # -- accessors -----------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self)

    def distinct_count(self) -> int:
        """Number of distinct tuples regardless of bag/set mode."""
        return len(self._rows)

    def multiplicity(self, row: tuple) -> int:
        """The MLT function of the multiset extension: count of ``row``."""
        return self._rows.get(tuple(row), 0)

    def multiplicities(self, rows) -> dict:
        """``{row: multiplicity}`` for a batch of rows: the set-at-a-time
        form of :meth:`multiplicity`, for operators that re-attach counts to
        the distinct rows an index returned."""
        count = self._rows.get
        return {row: count(row, 0) for row in rows}

    def rows(self) -> Iterator[tuple]:
        """Iterate distinct tuples (ignores multiplicities)."""
        return iter(self._rows)

    def to_set(self) -> frozenset:
        """The tuple set, as a frozenset (multiplicities dropped)."""
        return frozenset(self._rows)

    def sorted_rows(self) -> list:
        """Deterministically ordered rows (useful for printing and tests).

        Sorts on the tuples directly with a type-aware key — numeric columns
        order numerically, mixed-type columns order by kind — instead of the
        old O(n log n · |repr|) repr-string sort.
        """
        return sorted(self, key=row_sort_key)

    # -- mutation (engine-internal and data loading) -------------------------

    def insert(self, row: tuple, _validated: bool = False) -> bool:
        """Insert one tuple.

        Returns True when the relation changed (always true in bag mode; in
        set mode a duplicate insert is a no-op returning False).
        """
        if self._observer is not None:
            self._observer.note_mutation()
        row = tuple(row) if _validated else self.schema.validate_tuple(tuple(row))
        rows = self._rows
        count = rows.get(row, 0)
        if count and not self.bag:
            return False
        rows[row] = count + 1
        if self._aggregates:
            self._carry_aggregates({row: 1}, {})
        if not count and self._indexes is not None:
            self._indexes.rows_added((row,), self._held())
        return True

    def delete(self, row: tuple) -> bool:
        """Delete one tuple (one occurrence, in bag mode).

        Returns True when the relation changed.
        """
        if self._observer is not None:
            self._observer.note_mutation()
        row = tuple(row)
        rows = self._rows
        count = rows.get(row)
        if count is None:
            return False
        if count > 1:
            rows[row] = count - 1
        else:
            del rows[row]
            if self._indexes is not None:
                self._indexes.rows_removed((row,), self._held())
        if self._aggregates:
            self._carry_aggregates({}, {row: 1})
        return True

    def insert_many(self, rows: Iterable[tuple], _validated: bool = False) -> int:
        """Insert many tuples, one occurrence per element, as one step.

        Every row is validated before the first one lands, so a bad row
        leaves the relation as it was.  Returns the number of actual
        changes (set mode absorbs duplicates, in the batch as in the
        relation).
        """
        rows = list(map(tuple, rows)) if _validated else self.schema.validate_rows(rows)
        if not rows:
            return 0
        if self.bag:
            return self.insert_counts(Counter(rows))
        return self.insert_counts(dict.fromkeys(rows, 1))

    def delete_many(self, rows: Iterable[tuple]) -> int:
        """Delete many tuples, one occurrence per element, as one step.

        Returns the number of actual changes.
        """
        rows = list(map(tuple, rows))
        if not rows:
            return 0
        if self.bag:
            return self.delete_counts(Counter(rows))
        return self.delete_counts(dict.fromkeys(rows, 1))

    def insert_counts(self, counts: Mapping) -> int:
        """The bulk insert kernel: add ``counts[row]`` occurrences of every
        ``row`` of a ``{row: count}`` mapping of validated tuples.

        One observer notification, one pass over the row dict, the
        aggregate memos carried over the whole batch, and one
        :meth:`~repro.engine.indexes.IndexSet.rows_added` call with the
        rows that became present.  Set mode stores one occurrence of the
        absent rows and ignores the counts.  Returns the number of
        occurrences added.
        """
        if self._observer is not None:
            self._observer.note_mutation()
        rows = self._rows
        fresh = absent_rows(rows, counts)
        if self.bag:
            added = counts
            for row, count in counts.items():
                rows[row] = rows.get(row, 0) + count
        elif fresh:
            added = dict.fromkeys(fresh, 1)
            rows.update(added)
        else:
            return 0
        if self._aggregates:
            self._carry_aggregates(added, {})
        if fresh and self._indexes is not None:
            self._indexes.rows_added(fresh, self._held())
        return sum(added.values()) if self.bag else len(added)

    def delete_counts(self, counts: Mapping) -> int:
        """The bulk delete kernel: remove up to ``counts[row]`` occurrences
        of every ``row`` of a ``{row: count}`` mapping.

        The mirror image of :meth:`insert_counts`; the index hook sees the
        rows whose last occurrence went.  Set mode removes the present rows
        and ignores the counts.  Returns the number of occurrences removed.
        """
        if self._observer is not None:
            self._observer.note_mutation()
        rows = self._rows
        if self.bag:
            removed = {}
            gone = []
            for row, count in counts.items():
                existing = rows.get(row)
                if existing is None:
                    continue
                if existing > count:
                    rows[row] = existing - count
                    removed[row] = count
                else:
                    del rows[row]
                    removed[row] = existing
                    gone.append(row)
            total = sum(removed.values())
        else:
            pop = rows.pop
            gone = [row for row in counts if pop(row, None) is not None]
            total = len(gone)
        if not total:
            return 0
        if self._aggregates:
            self._carry_aggregates({}, removed if self.bag else dict.fromkeys(gone, 1))
        if gone and self._indexes is not None:
            self._indexes.rows_removed(gone, self._held())
        return total

    def clear(self) -> None:
        if self._observer is not None:
            self._observer.note_mutation()
        self._rows.clear()
        self._aggregates = None
        if self._indexes is not None:
            self._indexes.invalidate()

    def replace_contents(self, other: "Relation") -> None:
        """Overwrite this relation's rows with those of ``other``."""
        if self._observer is not None:
            self._observer.note_mutation()
        self._rows = dict(other._rows)
        self._aggregates = None
        if self._indexes is not None:
            self._indexes.invalidate()

    # -- aggregates ------------------------------------------------------------

    def aggregate(self, func: str, position: int):
        """SUM/AVG/MIN/MAX over the column at 0-based ``position``.

        NULLs are skipped and bag occurrences counted; an empty column sums
        to 0 and has NULL for the other three.
        """
        value, count = self.aggregate_state(
            "SUM" if func == "AVG" else func, position
        )
        if func == "SUM":
            return value
        if not count:
            return NULL
        return value / count if func == "AVG" else value

    def aggregate_state(self, kind: str, position: int) -> tuple:
        """The ``(value, count)`` state of ``kind`` ("SUM"/"MIN"/"MAX").

        Scanned once, then memoised and kept current by the insert and
        delete methods (single-row and bulk) for as long as that is exact
        (integer values, and no deleted value equal to the extremum);
        :meth:`clear` and :meth:`replace_contents` drop the memo.  A
        repeated aggregate check over a relation that changes by a few rows
        per commit therefore costs O(1), not O(|R|).
        """
        memo = self._aggregates
        state = memo.get((kind, position)) if memo is not None else None
        if state is None:
            state = scan_aggregate_state(kind, self, position)
            if type(state[0]) is int or not state[1]:
                if memo is None:
                    memo = self._aggregates = {}
                memo[kind, position] = state
        return state

    def _carry_aggregates(self, plus: dict, minus: dict) -> None:
        """Carry every memoised state over a ``{row: count}`` change, or
        drop it when that is not exact."""
        memo = self._aggregates
        for key in tuple(memo):
            state = shifted_aggregate_state(key[0], key[1], memo[key], plus, minus)
            if state is None:
                del memo[key]
            else:
                memo[key] = state

    # -- hash indexes ---------------------------------------------------------

    @property
    def indexes(self):
        """The attached :class:`~repro.engine.indexes.IndexSet`, or None."""
        return self._indexes

    def declare_index(self, positions) -> None:
        """Register an index on 0-based ``positions`` without building it."""
        from repro.engine.indexes import IndexSet

        if self._indexes is None:
            self._indexes = IndexSet()
        self._indexes.declare(positions)

    def index_on(self, positions):
        """The built hash index on 0-based ``positions``, declared and built
        if need be: :meth:`declare_index`, then :meth:`amortized_index`.

        Once built, the index is maintained incrementally by
        :meth:`insert` / :meth:`delete`.
        """
        self.declare_index(positions)
        return self.amortized_index(positions)

    def built_index(self, positions):
        """The built index on ``positions`` if one exists, else None."""
        if self._indexes is None:
            return None
        return self._indexes.get_built(tuple(positions))

    def amortized_index(self, positions):
        """The index on ``positions``, building it if it is only declared.

        What a plan asks for in place of a pass over this relation — a
        scan, a row-wise probe, a hashing pass — so a declared index is
        built by the first plan that asks: the build *is* that pass, and
        every later plan probes.  Returns None when no index is declared on
        ``positions``; never declares one.

        A request is a read: it zeroes the index's unread count (see
        :meth:`~repro.engine.indexes.HashIndex.charge`).  A database's base
        relation builds through its epoch manager, under the write gate, so
        a reader thread's build — a pinned read's, or a one-shot read's
        whose index went back to declared under it — files rows no commit
        is moving.
        """
        if self._indexes is None:
            return None
        index = self._indexes.get(tuple(positions))
        if index is None:
            return None
        if not index.built:
            if self._observer is None:
                index.build(self._rows)
            else:
                self._observer.build_index(index, self)
        index.unread = 0
        return index

    def _held(self):
        """What a filing index is charged against: the distinct row count of
        a database's base relation, None for any other relation (whose
        indexes are held by views and never unbuilt)."""
        return len(self._rows) if self._observer is not None else None

    # -- value-like derivation ------------------------------------------------

    def copy(self) -> "Relation":
        """An independent copy — O(|R|), plus-or-minus tuple immutability.

        Index *declarations* carry over (a clone remembers which indexes
        its source had and can rebuild them lazily); built index contents
        do not — cloning them would double the copy cost.  Transactions no
        longer copy at all: they layer an
        :class:`~repro.engine.overlay.OverlayRelation` over the base.
        """
        clone = Relation(self.schema, bag=self.bag)
        clone._rows = dict(self._rows)
        if self._indexes is not None and len(self._indexes):
            for positions in self._indexes.specs():
                clone.declare_index(positions)
        return clone

    def with_schema(self, schema: RelationSchema) -> "Relation":
        """The same rows viewed under a different (compatible) schema."""
        if schema.arity != self.schema.arity:
            raise TypeMismatchError(
                f"cannot view arity-{self.schema.arity} relation under "
                f"arity-{schema.arity} schema {schema.name!r}"
            )
        clone = Relation(schema, bag=self.bag)
        clone._rows = dict(self._rows)
        return clone

    def filtered(self, predicate: Callable[[tuple], bool]) -> "Relation":
        """A new relation holding the rows satisfying ``predicate``."""
        clone = Relation(self.schema, bag=self.bag)
        clone._rows = {
            row: count for row, count in self._rows.items() if predicate(row)
        }
        return clone

    def items(self):
        """(row, multiplicity) pairs."""
        return self._rows.items()

    def rows_and_counts(self):
        """Batch iteration surface: ``(row_list, counts_or_None)``.

        ``counts`` is ``None`` when every multiplicity is 1 (always in set
        mode), letting columnar consumers use bulk ``dict.fromkeys`` paths.
        """
        rows = self._rows
        if not self.bag:
            return list(rows), None
        counts = list(rows.values())
        if all(count == 1 for count in counts):
            return list(rows), None
        return list(rows), counts

    # -- pickling -------------------------------------------------------------

    def __getstate__(self):
        # The mutation observer is process-local (it points at the owning
        # database's epoch manager) and is re-attached on unpickle by
        # Database.__setstate__.
        state = object.__getstate__(self)
        state[1].pop("_observer", None)
        state[1].pop("_aggregates", None)
        return state

    def __setstate__(self, state):
        for key, value in state[1].items():
            setattr(self, key, value)
        self._observer = None
        self._aggregates = None
