"""The bounded commit log: committed net differentials, in order.

PRISMA/DB's whole point (Grefen & Apers) was that enforcement need not run
inline with the transaction: the simplified check — not the full constraint
— is the unit of distributable work, and a committed transaction *is* its
net differential.  The commit log makes that unit durable inside the
engine: every :meth:`~repro.engine.database.Database.apply_deltas` appends
one :class:`CommitRecord` carrying the sequence number, the logical-time
transition, and the per-relation net ``(Δ⁺, Δ⁻)`` relations — by reference,
O(touched relations), since the differentials are frozen once the owning
transaction commits.

The log is bounded: past ``capacity`` records the oldest are evicted
(retention), and :meth:`CommitLog.since` reports how many records a reader
lost to truncation so a consumer (the
:class:`~repro.core.scheduler.AuditScheduler`) can surface the gap instead
of silently skipping it.

:func:`coalesce_differentials` composes consecutive committed deltas into
one net delta (signed multiplicity counters, so an insert-then-delete
cancels), which is what lets a batch of small commits be audited as one
O(|ΣΔ|) unit of work.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.relation import Relation

#: Default number of commit records retained before the oldest are evicted.
DEFAULT_CAPACITY = 256


class CommitRecord:
    """One committed transaction as the database saw it: a net delta."""

    __slots__ = ("sequence", "pre_time", "post_time", "differentials")

    def __init__(
        self,
        sequence: int,
        pre_time: int,
        post_time: int,
        differentials: Dict[str, Tuple[Optional[Relation], Optional[Relation]]],
    ):
        self.sequence = sequence
        self.pre_time = pre_time
        self.post_time = post_time
        self.differentials = differentials

    @property
    def is_empty(self) -> bool:
        return not self.differentials

    @property
    def touched(self) -> tuple:
        """Names of base relations with a non-empty net differential."""
        return tuple(self.differentials)

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
        return (
            f"CommitRecord(#{self.sequence}, t={self.pre_time}->"
            f"{self.post_time}, {parts or 'empty'})"
        )


class CommitLog:
    """Bounded, thread-safe sequence of :class:`CommitRecord` entries.

    Appends happen on the owning session's thread (inside
    ``apply_deltas``); reads happen from audit-scheduler drains, possibly
    on other threads — a lock keeps the record list consistent.  Record
    payloads are never mutated after append.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("commit log capacity must be >= 1")
        self.capacity = capacity
        self._records: List[CommitRecord] = []
        self._next_sequence = 0
        self._lock = threading.Lock()

    # The lock is an implementation detail: copies (tests deep-copy whole
    # databases) serialize the records and get a fresh lock.
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "_records": list(self._records),
                "_next_sequence": self._next_sequence,
            }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- writing ---------------------------------------------------------------

    def append(
        self,
        differentials,
        pre_time: int,
        post_time: int,
    ) -> CommitRecord:
        """Record one committed transaction's net differentials.

        Empty sides are normalized to None and untouched relations are
        dropped; the (possibly empty) record is appended either way so the
        sequence mirrors the commit order.  Evicts the oldest record past
        capacity.
        """
        normalized: Dict[str, tuple] = {}
        for base, (plus, minus) in dict(differentials or {}).items():
            if plus is not None and not len(plus):
                plus = None
            if minus is not None and not len(minus):
                minus = None
            if plus is not None or minus is not None:
                normalized[base] = (plus, minus)
        with self._lock:
            record = CommitRecord(
                self._next_sequence, pre_time, post_time, normalized
            )
            self._next_sequence += 1
            self._records.append(record)
            if len(self._records) > self.capacity:
                del self._records[: len(self._records) - self.capacity]
            return record

    def append_at(
        self,
        sequence: int,
        differentials,
        pre_time: int,
        post_time: int,
    ) -> CommitRecord:
        """Append a record carrying an explicit sequence number (replay).

        Recovery replays durable commit records through the same delta
        path commits use, and the replayed records must keep their
        *original* sequence numbers (audit cursors, retention watermarks,
        and the hash chain are all keyed on them).  The sequence must not
        move backwards; gaps are allowed (older segments may have been
        purged) and simply advance ``next_sequence``.
        """
        with self._lock:
            if sequence < self._next_sequence:
                raise ValueError(
                    f"cannot replay sequence #{sequence} behind "
                    f"next=#{self._next_sequence}"
                )
            self._next_sequence = sequence
        return self.append(differentials, pre_time, post_time)

    def advance_to(self, sequence: int) -> None:
        """Move ``next_sequence`` forward to ``sequence`` (never backward).

        Used when a database is forked from a pinned epoch: the fork keeps
        only the records below the pin, but its next commit must continue
        the original numbering so audit cursors and the WAL stay aligned.
        """
        with self._lock:
            if sequence > self._next_sequence:
                self._next_sequence = sequence

    def truncate_through(self, sequence: int) -> int:
        """Drop records with ``record.sequence <= sequence``; return count."""
        with self._lock:
            kept = [r for r in self._records if r.sequence > sequence]
            dropped = len(self._records) - len(kept)
            self._records = kept
            return dropped

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[CommitRecord]:
        with self._lock:
            return iter(list(self._records))

    @property
    def next_sequence(self) -> int:
        """The sequence number the next commit will receive."""
        with self._lock:
            return self._next_sequence

    @property
    def first_sequence(self) -> Optional[int]:
        """Sequence of the oldest retained record (None when empty)."""
        with self._lock:
            return self._records[0].sequence if self._records else None

    def since(self, sequence: int) -> Tuple[List[CommitRecord], int]:
        """``(records, lost)``: retained records with sequence >= the given
        cursor, plus how many such records were already evicted."""
        with self._lock:
            records = [r for r in self._records if r.sequence >= sequence]
            expected = max(self._next_sequence - max(sequence, 0), 0)
            return records, expected - len(records)

    def tail(self, limit: int = 10) -> List[CommitRecord]:
        """The most recent ``limit`` records, oldest first."""
        with self._lock:
            return list(self._records[-limit:])

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"CommitLog({len(self._records)}/{self.capacity} records, "
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


# Convenience for tests: flatten an iterable of batches back to records.
def flatten(batches) -> Iterator[CommitRecord]:
    return itertools.chain.from_iterable(batches)
