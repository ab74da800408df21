"""The commit stream: every applied net differential, in order.

PRISMA/DB's whole point (Grefen & Apers) was that enforcement need not run
inline with the transaction: the simplified check — not the full constraint
— is the unit of distributable work, and a committed transaction *is* its
net differential.  The commit log makes that unit the engine's one record
of change: every :meth:`~repro.engine.database.Database.apply_deltas`
appends one :class:`CommitRecord` — version, sequence number, logical-time
transition, and the per-relation net ``(Δ⁺, Δ⁻)`` relations by reference,
frozen once the owning transaction commits.

Invariants (:mod:`repro.engine.epochs` says how its readers lean on them):

* **Versions** go up by one per record, and nothing else moves them: every
  change to a base relation (a commit, a load, a restore) is one
  ``apply_deltas`` batch and files one record.  So the retained records
  are versions ``version - len + 1 … version``, contiguous.
* **Sequences** number the recorded commits and increase along the list;
  unrecorded batches (loads, restore undos, replica applies) carry None.  A
  replay may jump them, never rewind.
* **One window**: the epoch manager trims a prefix (swapping the list, so
  an old reference is a superset; in the same hold of the lock as the
  append before it) by its one retention rule — a record
  stays while a pin, a cursor, or the ``retain`` window needs it (see
  :mod:`repro.engine.epochs`) — so an audit scheduler, being a cursor,
  loses no commit.  :meth:`CommitLog.since` still counts the commits a
  reader that holds no cursor lost to the window.
* **Who reads it**: audit drains read the recorded commits
  (:meth:`CommitLog.since`); pinned reads and ``pin_span`` read every
  record.  One re-entrant lock, shared with the epoch manager, covers
  appends and trims; the record goes in before the version moves, so a
  reader that takes no lock and reads the version first finds its record.

:func:`coalesce_differentials` composes consecutive committed deltas into
one net delta (signed multiplicity counters, so an insert-then-delete
cancels), which is what lets a batch of small commits be audited as one
O(|ΣΔ|) unit of work.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.relation import Relation
from repro.errors import EpochUnavailableError


class CommitRecord:
    """One applied batch as the database saw it: a net delta.

    ``version`` is its place in the stream; ``sequence`` is its commit
    number, or None for an unrecorded batch.
    """

    __slots__ = ("version", "sequence", "pre_time", "post_time", "differentials")

    def __init__(
        self,
        version: int,
        sequence: Optional[int],
        pre_time: int,
        post_time: int,
        differentials: Dict[str, Tuple[Optional[Relation], Optional[Relation]]],
    ):
        self.version = version
        self.sequence = sequence
        self.pre_time = pre_time
        self.post_time = post_time
        self.differentials = differentials

    @property
    def is_empty(self) -> bool:
        return not self.differentials

    def sizes(self) -> Dict[str, Tuple[int, int]]:
        """``{base: (|Δ⁺|, |Δ⁻|)}`` for display and pricing."""
        return {
            base: (
                len(plus) if plus is not None else 0,
                len(minus) if minus is not None else 0,
            )
            for base, (plus, minus) in self.differentials.items()
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{base}[+{sizes[0]}/-{sizes[1]}]"
            for base, sizes in self.sizes().items()
        )
        seq = f"#{self.sequence}" if self.sequence is not None else "unrecorded"
        return (
            f"CommitRecord(v{self.version}, {seq}, t={self.pre_time}->"
            f"{self.post_time}, {parts or 'empty'})"
        )


class CommitLog:
    """The commit stream (see the module docs).  Its reads answer for the
    recorded commits; records are never mutated after append."""

    def __init__(self):
        self._records: List[CommitRecord] = []
        self._next_sequence = 0
        #: Version of the newest record (0: nothing applied yet).
        self.version = 0
        self._lock = threading.RLock()

    # The lock is an implementation detail: copies (pickled checkpoints,
    # process replicas, deep-copied databases) carry the records and
    # versions, and get a fresh lock — so every commit they carry can still
    # be bracketed.  A copy starts with no pin, so the unrecorded batches
    # older than its first commit (a fixture's loads) bracket nothing for
    # it: they stay behind instead of being copied beside their rows.
    def __getstate__(self) -> dict:
        with self._lock:
            records = self._records
            first = next(
                (i for i, r in enumerate(records) if r.sequence is not None),
                len(records),
            )
            state = dict(self.__dict__, _records=records[first:])
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # -- writing ---------------------------------------------------------------

    def append(
        self,
        differentials,
        pre_time: int,
        post_time: int,
        recorded: bool = True,
        *,
        trim: Callable[[], None],
    ) -> Optional[CommitRecord]:
        """File one applied batch (the writer, inside its seqlock window).

        Empty sides become None and untouched relations are dropped.  A
        commit takes the next sequence number and is filed even when empty,
        so the sequence mirrors the commit order; an unrecorded batch is
        filed only if it changed something (else None is returned).  A filed
        record is followed by ``trim`` (the epoch manager's window trim)
        in the same hold of the lock.
        """
        normalized: Dict[str, tuple] = {}
        for base, (plus, minus) in dict(differentials or {}).items():
            if plus is not None and not len(plus):
                plus = None
            if minus is not None and not len(minus):
                minus = None
            if plus is not None or minus is not None:
                normalized[base] = (plus, minus)
        if not (recorded or normalized):
            return None
        with self._lock:
            sequence = None
            if recorded:
                sequence = self._next_sequence
                self._next_sequence += 1
            record = CommitRecord(
                self.version + 1, sequence, pre_time, post_time, normalized
            )
            self._records.append(record)
            self.version = record.version  # after the record: see the docs
            trim()
            return record

    def advance_to(self, sequence: int) -> None:
        """Move ``next_sequence`` forward to ``sequence`` (never backward),
        past commits applied without their records (a record replayed
        after a gap), so the numbering continues."""
        with self._lock:
            if sequence > self._next_sequence:
                self._next_sequence = sequence

    def cut(self, version: int, epoch: int) -> "CommitLog":
        """The stream as it stood at ``version``, whose next commit is
        ``epoch``: a forked database's log, every record still versioned
        as it is here."""
        log = CommitLog()
        with self._lock:
            log._records = [r for r in self._records if r.version <= version]
        log.version = version
        log._next_sequence = epoch
        return log

    # -- reading ---------------------------------------------------------------

    def _recorded(self) -> List[CommitRecord]:
        with self._lock:
            return [r for r in self._records if r.sequence is not None]

    def __len__(self) -> int:
        return len(self._recorded())

    def __iter__(self) -> Iterator[CommitRecord]:
        return iter(self._recorded())

    @property
    def next_sequence(self) -> int:
        """The sequence number the next commit will receive."""
        with self._lock:
            return self._next_sequence

    @property
    def first_sequence(self) -> int:
        """Sequence of the oldest retained commit; with none retained, of
        the next commit."""
        with self._lock:
            return next(
                (r.sequence for r in self._records if r.sequence is not None),
                self._next_sequence,
            )

    def since(self, sequence: int) -> Tuple[List[CommitRecord], int]:
        """``(records, lost)``: retained commits with sequence >= the given
        cursor, plus how many such commits were already trimmed.

        The cursor is found from the newest end, so a drain costs what it
        returns however long a held pin keeps the list.
        """
        with self._lock:
            records = self._records
            start = len(records)
            while start and (
                records[start - 1].sequence is None
                or records[start - 1].sequence >= sequence
            ):
                start -= 1
            found = [r for r in records[start:] if r.sequence is not None]
            expected = max(self._next_sequence - max(sequence, 0), 0)
        return found, expected - len(found)

    def between(self, low: int, high: int) -> List[CommitRecord]:
        """Every batch with ``low < version <= high``, oldest first: a slice,
        since versions are contiguous.  Raises
        :class:`~repro.errors.EpochUnavailableError` if one was trimmed."""
        with self._lock:
            records = self._records
        first = records[0].version if records else self.version + 1
        if first > low + 1 and high > low:
            raise EpochUnavailableError(low)
        return records[max(low + 1 - first, 0) : max(high + 1 - first, 0)]

    def tail(self, limit: int = 10) -> List[CommitRecord]:
        """The most recent ``limit`` commits, oldest first."""
        return self._recorded()[-limit:]

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"CommitLog({len(self._records)} records to v{self.version}, "
                f"next=#{self._next_sequence})"
            )


def delta_side(schema, bag: bool, counts: dict) -> Optional[Relation]:
    """One side of a net delta holding ``{row: count}``; None when empty."""
    if not counts:
        return None
    side = Relation(schema, bag=bag)
    side.insert_counts(counts)
    return side


def coalesce_differentials(records, database) -> Dict[str, tuple]:
    """Compose consecutive committed deltas into one net delta.

    ``records`` is an ordered iterable of :class:`CommitRecord` entries (or
    bare ``{base: (plus, minus)}`` mappings).  Per relation, a signed
    multiplicity counter accumulates ``+Δ⁺`` and ``−Δ⁻`` in commit order,
    so a tuple inserted by one commit and deleted by a later one vanishes
    from the coalesced delta entirely.  Returns ``{base: (plus, minus)}``
    with empty sides as None, omitting relations whose net change cancels —
    the same shape :attr:`~repro.engine.transaction.TransactionResult.
    differentials` carries, audit-ready.
    """
    counters: Dict[str, dict] = {}
    for record in records:
        differentials = getattr(record, "differentials", record)
        for base, (plus, minus) in differentials.items():
            counter = counters.setdefault(base, {})
            if minus is not None:
                for row, count in minus.items():
                    counter[row] = counter.get(row, 0) - count
            if plus is not None:
                for row, count in plus.items():
                    counter[row] = counter.get(row, 0) + count
    out: Dict[str, tuple] = {}
    for base, counter in counters.items():
        schema = database.relation_schema(base)
        added = {row: count for row, count in counter.items() if count > 0}
        removed = {row: -count for row, count in counter.items() if count < 0}
        plus_side = delta_side(schema, database.bag, added)
        minus_side = delta_side(schema, database.bag, removed)
        if plus_side is not None or minus_side is not None:
            out[base] = (plus_side, minus_side)
    return out


def take_batches(records, coalesce: bool) -> List[List[CommitRecord]]:
    """Group drained records into audit batches.

    With ``coalesce`` every non-empty record lands in one batch (audited as
    a single composed delta); without it each non-empty record is its own
    batch (per-commit audit granularity).  Empty records are dropped — an
    empty delta audit is free and verdict-less by construction.
    """
    non_empty = [r for r in records if not r.is_empty]
    if not non_empty:
        return []
    if coalesce:
        return [non_empty]
    return [[record] for record in non_empty]


def batch_sequences(batch) -> tuple:
    """The commit sequence numbers an audit batch covers."""
    return tuple(
        record.sequence
        for record in batch
        if isinstance(record, CommitRecord)
    )
