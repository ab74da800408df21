"""The durable, hash-chained commit log: append-only segment files.

The in-memory :class:`~repro.engine.commitlog.CommitLog` is the engine's
source of truth for the enforcement pipeline, but it is bounded and dies
with the process.  This module makes the log *durable*: every committed
:class:`~repro.engine.commitlog.CommitRecord` serializes — reusing the
:class:`~repro.algebra.columnar.ColumnBatch` typed-array wire format for
the Δ⁺/Δ⁻ payloads — into a length-prefixed, CRC-guarded record whose
body carries the SHA-256 of the *previous* record, forming a tamper-evident
hash chain (theory-api's "events as truth" ledger principle, SNIPPETS.md
§1; Wielemaker's commit-log-as-logical-update-view durability story).

On-disk layout, per segment file ``segment-<base>.wal``::

    header  : MAGIC | version | flags | base_sequence | prev_chain_hash | crc
    record* : u32 blob_length | u32 crc32(blob) | blob
    blob    : prev_hash (32 bytes) || pickle((seq, pre_t, post_t, encoded Δ))

``prev_chain_hash`` in the header roots the chain per segment (it is the
chain hash of the last record *before* this segment, or 32 zero bytes for
the very first), so segments verify independently and the chain still
links across them.  The chain hash of a record is ``sha256(blob)``.

Corruption policy — the load-bearing distinction:

* A *torn tail* (short read or CRC mismatch at the end of the **newest**
  segment) is what a crash mid-write legitimately leaves behind.  Opening
  the log repairs it: the file is truncated back to the last whole record
  and appends continue from there.  Recovery therefore always restores an
  exact commit-boundary prefix of history.
* A CRC failure in a *sealed* region, a damaged segment header, or a
  record whose stored predecessor hash breaks the chain is **corruption**
  (bit rot or tampering) and hard-fails with
  :class:`~repro.errors.WalCorruptionError` naming the segment and byte
  offset — never a silent partial state.

Sync policy trades durability for commit latency: ``"commit"`` fsyncs
every append, ``"interval"`` group-commits (flush always, fsync at most
every ``GROUP_INTERVAL`` seconds), ``"none"`` leaves flushing to the OS.
Segments rotate on byte size; sealed segments are dropped only when
every registered *consumer watermark* (the audit scheduler's) and the newest
checkpoint have all passed them — scheduler-driven retention instead of
blind truncation.

A checkpoint (``checkpoint-<next_sequence>.ckpt``) is the one anchor
format: a whole database, pickled from an epoch fork and written
atomically.  Since a committed transaction *is* its net differential, the
records after a checkpoint carry every change since it; nothing else is
stored twice.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import threading
import time
from hashlib import sha256
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from zlib import crc32

from repro.algebra.columnar import decode_differentials, encode_differentials
from repro.errors import WalCorruptionError, WalError

MAGIC = b"RWAL"
VERSION = 1
#: sha256 digest size; the chain root before any record exists.
HASH_SIZE = 32
CHAIN_ROOT = b"\x00" * HASH_SIZE

_HEADER_STRUCT = struct.Struct(f"<4sHHQ{HASH_SIZE}s")
_HEADER_CRC_STRUCT = struct.Struct("<I")
HEADER_SIZE = _HEADER_STRUCT.size + _HEADER_CRC_STRUCT.size
_RECORD_STRUCT = struct.Struct("<II")
RECORD_HEADER_SIZE = _RECORD_STRUCT.size

#: Rotate the active segment past this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: Group-commit fsync interval (seconds) under ``sync="interval"``.
GROUP_INTERVAL = 0.05

SYNC_POLICIES = ("commit", "interval", "none")

PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".wal"
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".ckpt"
CONSUMERS_FILE = "consumers.json"


def _segment_name(base_sequence: int) -> str:
    return f"{SEGMENT_PREFIX}{base_sequence:016d}{SEGMENT_SUFFIX}"


def _segment_base(path) -> int:
    """The base sequence encoded in a segment file name."""
    return int(path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


def _checkpoint_name(next_sequence: int) -> str:
    return f"{CHECKPOINT_PREFIX}{next_sequence:016d}{CHECKPOINT_SUFFIX}"


def _default_opener(path, mode):
    return open(path, mode)


class WalRecord:
    """One commit record as read back from a segment file."""

    __slots__ = (
        "sequence",
        "pre_time",
        "post_time",
        "differentials",
        "segment",
        "offset",
        "length",
        "chain_hash",
    )

    def __init__(
        self,
        sequence: int,
        pre_time: int,
        post_time: int,
        differentials: dict,
        segment: str,
        offset: int,
        length: int,
        chain_hash: bytes,
    ):
        self.sequence = sequence
        self.pre_time = pre_time
        self.post_time = post_time
        self.differentials = differentials
        self.segment = segment
        self.offset = offset
        self.length = length
        self.chain_hash = chain_hash

    def __repr__(self) -> str:
        return (
            f"WalRecord(#{self.sequence}, {self.segment}@{self.offset}, "
            f"{len(self.differentials)} relation(s))"
        )


class ChainVerification:
    """The outcome of a full hash-chain walk (:meth:`WriteAheadLog.verify`).

    ``ok`` is True when no sealed-region corruption or chain break was
    found; a repaired/ignorable torn tail is reported separately in
    ``torn_tail`` (it does not make the chain bad — it is what a crash
    leaves).  ``broken`` is ``(segment, offset, reason)`` for the first
    hard break, or None.
    """

    __slots__ = ("segments", "records", "broken", "torn_tail", "last_sequence")

    def __init__(self, segments, records, broken, torn_tail, last_sequence):
        self.segments = segments
        self.records = records
        self.broken = broken
        self.torn_tail = torn_tail
        self.last_sequence = last_sequence

    @property
    def ok(self) -> bool:
        return self.broken is None

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"BROKEN at {self.broken[0]}@{self.broken[1]}"
        return (
            f"ChainVerification({self.segments} segment(s), "
            f"{self.records} record(s), {state})"
        )


class _TornTail(Exception):
    """Internal: scanning hit a legitimately torn region (crash artifact)."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason


class WriteAheadLog:
    """Append-only, hash-chained, segment-rotated durable commit log.

    ``opener`` is the file-factory hook the fault-injection harness uses
    (``tests/faults``): any callable with the signature of :func:`open`
    returning a binary file object.  It is applied to *segment* files only
    — checkpoints and the consumer sidecar use plain ``open``.
    """

    def __init__(
        self,
        directory,
        sync: str = "commit",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        opener: Optional[Callable] = None,
    ):
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"unknown sync policy {sync!r}; expected one of {SYNC_POLICIES}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_policy = sync
        self.segment_bytes = int(segment_bytes)
        self._opener = opener or _default_opener
        self._lock = threading.RLock()
        self._file = None
        self._active_path: Optional[Path] = None
        self._segment_size = 0
        self._chain_hash = CHAIN_ROOT
        self._last_fsync = 0.0
        #: Highest sequence appended (+1); None until something is known.
        self.next_sequence: Optional[int] = None
        #: Sequence through which appends are known fsync-durable.
        self.durable_through = -1
        self._consumers: Dict[str, int] = self._load_consumers()
        self.tail_repair: Optional[Tuple[str, int, str]] = None
        self._open_tail()

    # -- opening and tail repair -----------------------------------------------

    def segments(self) -> List[Path]:
        """Segment files on disk, oldest first."""
        return sorted(
            path
            for path in self.directory.iterdir()
            if path.name.startswith(SEGMENT_PREFIX)
            and path.name.endswith(SEGMENT_SUFFIX)
        )

    def _open_tail(self) -> None:
        """Scan the newest segment, repair a torn tail, resume the chain."""
        paths = self.segments()
        if not paths:
            return
        # The chain state entering the last segment comes from its header;
        # sealed segments are not re-read on open (verify() walks them all).
        last = paths[-1]
        try:
            records, torn, chain, base = self._scan_segment(
                last, expected_prev=None, is_last=True
            )
        except WalCorruptionError:
            raise
        valid_end = HEADER_SIZE if not records else (
            records[-1].offset + records[-1].length
        )
        if torn is not None:
            self.tail_repair = (last.name, torn.offset, torn.reason)
            if torn.offset == 0 and not records:
                # Crash mid-rotation: the new segment never got a whole
                # header.  Drop the file; the previous segment is the tail.
                last.unlink()
                remaining = self.segments()
                if remaining:
                    previous = remaining[-1]
                    records, torn2, chain, base = self._scan_segment(
                        previous, expected_prev=None, is_last=True
                    )
                    if torn2 is not None:
                        self._truncate_file(
                            previous,
                            records[-1].offset + records[-1].length
                            if records
                            else HEADER_SIZE,
                        )
                    last = previous
                    valid_end = HEADER_SIZE if not records else (
                        records[-1].offset + records[-1].length
                    )
                else:
                    return
            else:
                self._truncate_file(last, valid_end)
        self._active_path = last
        self._chain_hash = chain
        if records:
            self.next_sequence = records[-1].sequence + 1
            self.durable_through = records[-1].sequence
        else:
            self.next_sequence = base
            self.durable_through = base - 1
        self._segment_size = valid_end

    def _truncate_file(self, path: Path, size: int) -> None:
        with self._opener(path, "r+b") as handle:
            handle.truncate(size)

    # -- appending ---------------------------------------------------------------

    def append(self, record) -> int:
        """Durably append one :class:`CommitRecord`; return its byte offset.

        Serialization reuses the columnar typed-array wire format for the
        Δ⁺/Δ⁻ payloads (:func:`~repro.algebra.columnar.
        encode_differentials`), so a large delta ships to disk the same
        way it ships to a process-executor replica.
        """
        body = pickle.dumps(
            (
                record.sequence,
                record.pre_time,
                record.post_time,
                encode_differentials(record.differentials),
            ),
            protocol=PICKLE_PROTOCOL,
        )
        with self._lock:
            if self._file is None and self._active_path is not None:
                self._file = self._opener(self._active_path, "r+b")
                self._file.seek(0, io.SEEK_END)
            if self._file is None or self._segment_size >= self.segment_bytes:
                self._rotate(record.sequence)
            blob = self._chain_hash + body
            frame = _RECORD_STRUCT.pack(len(blob), crc32(blob)) + blob
            offset = self._segment_size
            self._file.write(frame)
            self._chain_hash = sha256(blob).digest()
            self._segment_size += len(frame)
            self.next_sequence = record.sequence + 1
            self._apply_sync_policy(record.sequence)
            return offset

    def _rotate(self, base_sequence: int) -> None:
        """Seal the active segment and start a new one, chained to it."""
        if self._file is not None:
            self._fsync()
            self._file.close()
            self._file = None
        path = self.directory / _segment_name(base_sequence)
        if path.exists():
            raise WalError(f"segment {path.name} already exists")
        handle = self._opener(path, "wb")
        header = _HEADER_STRUCT.pack(
            MAGIC, VERSION, 0, base_sequence, self._chain_hash
        )
        handle.write(header + _HEADER_CRC_STRUCT.pack(crc32(header)))
        self._file = handle
        self._active_path = path
        self._segment_size = HEADER_SIZE
        self.purge()

    def _apply_sync_policy(self, sequence: int) -> None:
        if self.sync_policy == "commit":
            self._fsync()
            self.durable_through = sequence
        elif self.sync_policy == "interval":
            self._file.flush()
            now = time.monotonic()
            if now - self._last_fsync >= GROUP_INTERVAL:
                self._fsync()
                self.durable_through = sequence

    def _fsync(self) -> None:
        if self._file is None:
            return
        self._file.flush()
        try:
            os.fsync(self._file.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # in-memory / faulty files without a real descriptor
        self._last_fsync = time.monotonic()

    def sync(self) -> None:
        """Force an fsync of the active segment (group-commit flush point)."""
        with self._lock:
            if self._file is not None:
                self._fsync()
                if self.next_sequence is not None:
                    self.durable_through = self.next_sequence - 1

    # -- scanning ----------------------------------------------------------------

    def _read_exact(self, handle, n: int):
        data = handle.read(n)
        return data if len(data) == n else None

    def _scan_segment(
        self,
        path: Path,
        expected_prev: Optional[bytes],
        is_last: bool,
        decode: bool = False,
    ):
        """Read one segment; returns (records, torn, chain_hash, base_seq).

        ``expected_prev`` enforces cross-segment chain continuity (None
        accepts the header's root — the first readable segment after a
        purge).  In the last segment a short read or CRC failure is a torn
        tail; anywhere else it is corruption.  A stored predecessor hash
        that fails to match is corruption *everywhere* — a torn write
        cannot forge a valid CRC over a wrong hash.
        """
        records: List[WalRecord] = []
        torn: Optional[_TornTail] = None
        with self._opener(path, "rb") as handle:
            raw_header = self._read_exact(handle, HEADER_SIZE)
            if raw_header is None:
                if is_last:
                    return records, _TornTail(0, "short segment header"), (
                        expected_prev or CHAIN_ROOT
                    ), None
                raise WalCorruptionError(path.name, 0, "short segment header")
            magic, version, _flags, base, prev = _HEADER_STRUCT.unpack(
                raw_header[: _HEADER_STRUCT.size]
            )
            (header_crc,) = _HEADER_CRC_STRUCT.unpack(
                raw_header[_HEADER_STRUCT.size :]
            )
            if (
                magic != MAGIC
                or version != VERSION
                or header_crc != crc32(raw_header[: _HEADER_STRUCT.size])
            ):
                raise WalCorruptionError(
                    path.name, 0, "damaged segment header"
                )
            if expected_prev is not None and prev != expected_prev:
                raise WalCorruptionError(
                    path.name,
                    0,
                    "segment header breaks the hash chain "
                    "(previous-segment hash mismatch)",
                )
            chain = prev
            offset = HEADER_SIZE
            while True:
                raw = handle.read(RECORD_HEADER_SIZE)
                if not raw:
                    break  # clean end of segment
                if len(raw) < RECORD_HEADER_SIZE:
                    torn = _TornTail(offset, "short record header")
                    break
                length, blob_crc = _RECORD_STRUCT.unpack(raw)
                blob = handle.read(length)
                if len(blob) < length:
                    torn = _TornTail(offset, "short record body")
                    break
                if crc32(blob) != blob_crc:
                    torn = _TornTail(offset, "record CRC mismatch")
                    break
                stored_prev = blob[:HASH_SIZE]
                if stored_prev != chain:
                    raise WalCorruptionError(
                        path.name,
                        offset,
                        "record breaks the hash chain "
                        "(stored predecessor hash mismatch)",
                    )
                try:
                    sequence, pre_time, post_time, encoded = pickle.loads(
                        blob[HASH_SIZE:]
                    )
                except Exception:
                    # A valid CRC over an undecodable payload cannot be a
                    # torn write: someone rewrote record *and* checksum.
                    raise WalCorruptionError(
                        path.name, offset, "undecodable record payload"
                    )
                differentials = (
                    decode_differentials(encoded) if decode else encoded
                )
                frame_length = RECORD_HEADER_SIZE + length
                records.append(
                    WalRecord(
                        sequence,
                        pre_time,
                        post_time,
                        differentials,
                        path.name,
                        offset,
                        frame_length,
                        sha256(blob).digest(),
                    )
                )
                chain = records[-1].chain_hash
                offset += frame_length
        if torn is not None and not is_last:
            raise WalCorruptionError(path.name, torn.offset, torn.reason)
        return records, torn, chain, base

    def scan(
        self,
        start_sequence: Optional[int] = None,
        upto: Optional[int] = None,
        decode: bool = True,
    ) -> Iterator[WalRecord]:
        """Stream records (chain-verified) with sequence in [start, upto].

        A torn tail at the very end is silently ignored — by construction
        it holds no whole committed record; any other damage raises
        :class:`~repro.errors.WalCorruptionError`.
        """
        paths = self.segments()
        # Skip whole segments strictly before the start cursor (the next
        # segment's base bounds this one's sequences from above); the first
        # scanned segment then anchors the chain at its own header root.
        if start_sequence is not None:
            while len(paths) > 1 and _segment_base(paths[1]) <= start_sequence:
                paths.pop(0)
        expected_prev: Optional[bytes] = None
        for index, path in enumerate(paths):
            is_last = index == len(paths) - 1
            records, _torn, chain, _base = self._scan_segment(
                path, expected_prev, is_last, decode=decode
            )
            expected_prev = chain
            for record in records:
                if start_sequence is not None and record.sequence < start_sequence:
                    continue
                if upto is not None and record.sequence > upto:
                    return
                yield record

    def verify(self) -> ChainVerification:
        """Walk the full hash chain; report the first broken link, if any.

        Unlike :meth:`scan`, verification never raises: forensics want the
        damage *located* (segment, byte offset, reason), not an exception
        mid-walk.  A torn tail is reported separately and does not fail
        verification — it is the legitimate residue of a crash, holds no
        committed record, and the next open repairs it.
        """
        paths = self.segments()
        total = 0
        torn_tail = None
        last_sequence = None
        expected_prev: Optional[bytes] = None
        for index, path in enumerate(paths):
            is_last = index == len(paths) - 1
            try:
                records, torn, chain, _base = self._scan_segment(
                    path, expected_prev, is_last, decode=False
                )
            except WalCorruptionError as error:
                return ChainVerification(
                    len(paths),
                    total,
                    (error.segment, error.offset, error.reason),
                    None,
                    last_sequence,
                )
            total += len(records)
            if records:
                last_sequence = records[-1].sequence
            if torn is not None:
                torn_tail = (path.name, torn.offset, torn.reason)
            expected_prev = chain
        return ChainVerification(
            len(paths), total, None, torn_tail, last_sequence
        )

    # -- checkpoints ---------------------------------------------------------------

    def write_checkpoint(self, database) -> Path:
        """Persist a full database snapshot anchoring replay.

        The checkpoint captures everything through the database's current
        ``commit_log.next_sequence``; recovery loads the newest applicable
        checkpoint and replays only the records after it.  Checkpoints are
        what make segments purgeable at all — a segment wholly covered by
        a checkpoint (and drained by every consumer) carries no
        information recovery still needs.

        What actually gets pickled is an epoch-*forked* copy
        (:meth:`~repro.engine.database.Database.fork`): the fork is cut at
        a pinned epoch, so a checkpointer thread can serialize while the
        owning session keeps committing — the writer is never stopped and
        the checkpoint is still an exact commit boundary.
        """
        fork = database.fork() if hasattr(database, "fork") else database
        next_sequence = fork.commit_log.next_sequence
        path = self.directory / _checkpoint_name(next_sequence)
        blob = pickle.dumps(fork, protocol=PICKLE_PROTOCOL)
        self._write_atomic(path, blob)
        return path

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        temp = path.with_suffix(".tmp")
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
        os.replace(temp, path)

    def checkpoints(self) -> List[Tuple[int, Path]]:
        """(next_sequence, path) of every checkpoint, oldest first.

        Only ``checkpoint-<sequence>.ckpt`` names count: a stray ``.tmp``
        left by a write cut short, or any other suffix, is ignored.
        """
        found = []
        for path in self.directory.iterdir():
            name = path.name
            if name.startswith(CHECKPOINT_PREFIX) and name.endswith(
                CHECKPOINT_SUFFIX
            ):
                digits = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
                if digits.isdecimal():
                    found.append((int(digits), path))
        return sorted(found)

    def _usable_checkpoints(
        self, before: Optional[int]
    ) -> List[Tuple[int, Path]]:
        """Checkpoints usable for replay up to ``before``, oldest first.

        A checkpoint at sequence ``s`` already contains commits < ``s``, so
        point-in-time recovery to sequence ``S`` needs ``s <= S + 1``.
        """
        return [
            (seq, path)
            for seq, path in self.checkpoints()
            if before is None or seq <= before + 1
        ]

    def latest_checkpoint(
        self, before: Optional[int] = None
    ) -> Optional[Tuple[int, Path]]:
        """The newest checkpoint usable for replay up to ``before``."""
        usable = self._usable_checkpoints(before)
        return usable[-1] if usable else None

    def load_newest_checkpoint(self, before: Optional[int] = None):
        """Load the newest usable checkpoint that unpickles.

        Walks the checkpoints newest-first; one that fails to load (torn
        bytes, a foreign file) is skipped in favour of the next older one,
        whose replay reaches the same state while the log still holds the
        records after it.  Returns ``(anchor, skipped)``: ``anchor`` is
        ``(sequence, database)`` — replay resumes at ``sequence`` — or
        None when nothing loads; ``skipped`` lists ``(file name, exception
        type name)`` for every checkpoint passed over, newest first.
        """
        skipped: List[Tuple[str, str]] = []
        for seq, path in reversed(self._usable_checkpoints(before)):
            try:
                with open(path, "rb") as handle:
                    return (seq, pickle.load(handle)), skipped
            except Exception as error:
                skipped.append((path.name, type(error).__name__))
        return None, skipped

    # -- consumer watermarks and retention ------------------------------------------

    def advance_consumer(self, name: str, sequence: int) -> None:
        """Place or move forward (monotonic) a consumer's retention hold:
        keep records with sequence >= ``sequence``."""
        with self._lock:
            current = self._consumers.get(name, -1)
            if sequence > current:
                self._consumers[name] = int(sequence)
                self._save_consumers()

    def release_consumer(self, name: str) -> None:
        with self._lock:
            if self._consumers.pop(name, None) is not None:
                self._save_consumers()

    @property
    def consumers(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._consumers)

    def retention_floor(self) -> Optional[int]:
        """Lowest sequence any registered consumer still needs (None: no holds)."""
        with self._lock:
            if not self._consumers:
                return None
            return min(self._consumers.values())

    def purge(self) -> List[str]:
        """Drop sealed segments no consumer or checkpoint still needs.

        A segment covering ``[base_i, base_{i+1})`` is purgeable when every
        registered consumer has drained past ``base_{i+1}`` *and* the
        newest checkpoint covers it (recovery will never replay it).  The
        active segment is never dropped.  Returns the removed file names.
        """
        with self._lock:
            checkpoint = self.latest_checkpoint()
            if checkpoint is None:
                return []
            limit = checkpoint[0]
            floor = self.retention_floor()
            if floor is not None:
                limit = min(limit, floor)
            paths = self.segments()
            removed = []
            for index in range(len(paths) - 1):  # never the active tail
                if _segment_base(paths[index + 1]) <= limit:
                    paths[index].unlink()
                    removed.append(paths[index].name)
                else:
                    break
            # A superseded checkpoint stays useful for point-in-time
            # replay only while the segments following it survive; once
            # its records are gone it anchors nothing — drop it.  The
            # newest checkpoint always stays.
            remaining = self.segments()
            oldest_base = (
                _segment_base(remaining[0]) if remaining else limit
            )
            for seq, path in self.checkpoints()[:-1]:
                if seq < oldest_base:
                    path.unlink()
            return removed

    def _consumers_path(self) -> Path:
        return self.directory / CONSUMERS_FILE

    def _load_consumers(self) -> Dict[str, int]:
        try:
            with open(self._consumers_path()) as handle:
                data = json.load(handle)
            return {str(k): int(v) for k, v in data.items()}
        except (OSError, ValueError):
            return {}

    def _save_consumers(self) -> None:
        try:
            with open(self._consumers_path(), "w") as handle:
                json.dump(self._consumers, handle)
        except OSError:  # pragma: no cover - read-only media
            pass

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._fsync()
                if self.next_sequence is not None:
                    self.durable_through = self.next_sequence - 1
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory}, sync={self.sync_policy}, "
            f"{len(self.segments())} segment(s), "
            f"next=#{self.next_sequence}, durable=#{self.durable_through})"
        )


def verify_directory(directory, opener: Optional[Callable] = None) -> ChainVerification:
    """Walk a log directory's full hash chain *without opening the log*.

    Forensics entry point (``python -m repro audit-log --verify``): unlike
    constructing a :class:`WriteAheadLog` — which repairs a torn tail in
    place — this touches nothing on disk.  Returns the same
    :class:`ChainVerification` as :meth:`WriteAheadLog.verify`.
    """
    log = WriteAheadLog.__new__(WriteAheadLog)
    log.directory = Path(directory)
    log._opener = opener or _default_opener
    log._lock = threading.RLock()
    return log.verify()
