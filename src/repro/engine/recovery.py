"""Crash recovery and point-in-time restore: replay the durable log.

Recovery is deliberately boring: load the newest applicable checkpoint
that unpickles, then stream the commit records after it through *the
same* ``apply_deltas`` path live commits use (via
:meth:`~repro.engine.database.Database.replay_record`, which preserves the
original sequence numbers and logical times).  There is no separate redo
interpreter to drift out of sync with the engine — the paper's "a
committed transaction *is* its net differential" means replaying the
differentials *is* reconstructing the state.

Failure semantics mirror :mod:`repro.engine.wal`:

* a torn tail (crash mid-write) is repaired — recovery restores exactly
  the prefix of history ending at the last whole committed record;
* a broken hash chain or sealed-region corruption hard-fails with
  :class:`~repro.errors.WalCorruptionError` — never a silent partial
  state;
* a checkpoint that fails to load is skipped for the next older one and
  named in :attr:`RecoveryReport.skipped`;
* a record missing between the anchor and the first surviving record (the
  anchor is older than the purged segments) fails with
  :class:`~repro.errors.WalError` naming the missing range — replay never
  steps over a gap.

``upto`` gives point-in-time restore (``replay_to``): the state after
commit ``upto`` and nothing later, which upgrades ``snapshot()/restore()``
into durable time travel.  Point-in-time databases are *detached* (no WAL
is re-attached): appending new commits after sequence ``S`` while the log
still holds records past ``S`` would fork the hash chain.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.wal import WriteAheadLog
from repro.errors import WalError


class RecoveryReport:
    """What one recovery pass did: anchor, replay extent, tail repair, and
    the ``(file name, exception type name)`` of each checkpoint skipped."""

    __slots__ = (
        "directory",
        "checkpoint_sequence",
        "replayed",
        "first_sequence",
        "last_sequence",
        "torn_tail",
        "upto",
        "logical_time",
        "skipped",
    )

    def __init__(
        self,
        directory,
        checkpoint_sequence: int,
        replayed: int,
        first_sequence: Optional[int],
        last_sequence: Optional[int],
        torn_tail,
        upto: Optional[int],
        logical_time: int,
        skipped,
    ):
        self.directory = directory
        self.checkpoint_sequence = checkpoint_sequence
        self.replayed = replayed
        self.first_sequence = first_sequence
        self.last_sequence = last_sequence
        self.torn_tail = torn_tail
        self.upto = upto
        self.logical_time = logical_time
        self.skipped = skipped

    def __repr__(self) -> str:
        span = (
            f"#{self.first_sequence}..#{self.last_sequence}"
            if self.replayed
            else "(nothing)"
        )
        torn = f", torn tail repaired at {self.torn_tail[0]}@{self.torn_tail[1]}" if self.torn_tail else ""
        skipped = "".join(
            f", skipped {name} ({error})" for name, error in self.skipped
        )
        return (
            f"RecoveryReport(checkpoint=#{self.checkpoint_sequence}, "
            f"replayed {self.replayed} record(s) {span}, "
            f"t={self.logical_time}{torn}{skipped})"
        )


def recover(
    directory,
    upto: Optional[int] = None,
    attach: bool = True,
    **wal_options,
):
    """Rebuild a database from its durable commit log.

    Returns ``(database, report)``.  With ``attach=True`` (the default,
    full recovery) the write-ahead log stays attached to the recovered
    database and new commits append after the replayed history.  With
    ``upto`` the replay stops after that commit sequence (point-in-time
    restore) and the database is always returned detached.

    ``wal_options`` are forwarded to :class:`~repro.engine.wal.
    WriteAheadLog` (sync policy, rotation thresholds, the fault-injection
    ``opener``).  Opening the log performs tail repair; sealed-region
    corruption or a broken hash chain raises
    :class:`~repro.errors.WalCorruptionError` before any state is built,
    and a record missing after the anchor raises
    :class:`~repro.errors.WalError`.
    """
    wal = WriteAheadLog(directory, **wal_options)
    try:
        anchor, skipped = wal.load_newest_checkpoint(before=upto)
        if anchor is None:
            raise WalError(
                f"no usable checkpoint in {directory!s}"
                + (f" at or before sequence #{upto}" if upto is not None else "")
                + "".join(f"; skipped {name} ({error})" for name, error in skipped)
                + " — was the log created by Database.attach_wal?"
            )
        checkpoint_sequence, database = anchor
        replayed = 0
        first_sequence = None
        last_sequence = None
        for record in wal.scan(start_sequence=checkpoint_sequence, upto=upto):
            expected = database.commit_log.next_sequence
            if record.sequence != expected:
                raise WalError(
                    f"replay gap in {directory!s}: records "
                    f"#{expected}..#{record.sequence - 1} after checkpoint "
                    f"#{checkpoint_sequence} are missing"
                )
            database.replay_record(
                record.sequence,
                record.pre_time,
                record.post_time,
                record.differentials,
            )
            if first_sequence is None:
                first_sequence = record.sequence
            last_sequence = record.sequence
            replayed += 1
        report = RecoveryReport(
            directory,
            checkpoint_sequence,
            replayed,
            first_sequence,
            last_sequence,
            wal.tail_repair,
            upto,
            database.logical_time,
            skipped,
        )
        if attach and upto is None:
            database.attach_wal(wal, checkpoint=False)
        else:
            wal.close()
        return database, report
    except BaseException:
        wal.close()
        raise


def replay_to(directory, sequence: int, **wal_options):
    """Point-in-time restore: the state right after commit ``sequence``.

    Returns ``(database, report)`` with the database detached from the
    log (read-only time travel; see module docstring).
    """
    return recover(directory, upto=sequence, attach=False, **wal_options)
