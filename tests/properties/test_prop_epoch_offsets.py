"""Property: reads through epoch pins equal eager copies under any
interleaving — driven at the offset arithmetic of the commit stream.

``engine/epochs.py`` finds "the records newer than version v" by offset
(record versions are contiguous) instead of by scanning.  This suite runs
random interleavings of recorded and unrecorded commits (empty ones
included), bulk loads (drawn rows, some already present) while pins are
live, pins taken at random points and read late, releases, ``pin_span``
brackets, audit drains and forks against a small retention window, so the
stream is trimmed and refilled constantly, and checks after every step
that

* the stream holds exactly the versions the retention rule keeps, they
  are contiguous, and the offset slice equals the full scan;
* a load adds exactly the rows ``insert_many`` would, as one unrecorded
  batch: one version, no sequence number, no logical time;
* every readable pin reads exactly the eager copies taken when it was
  pinned — ``len``, membership, multiplicities one by one and in bulk,
  index point probes and bulk bucket probes, planned point/join/semijoin
  queries, whole-relation reads, ``undo_differentials``;
* a pin is unreadable (``EpochUnavailableError``) exactly when a model of
  the retention rules says its entries are gone: released and trimmed
  past — for freshly minted snapshots and for snapshots held since before
  the trim alike;
* ``pin_span`` brackets exactly the states its two commits transitioned
  between, with unrecorded records (loads among them) in between, and is
  ``None`` exactly when an endpoint left no retained record;
* a drain from a scheduler's cursor gets every commit since, returned by
  ``CommitLog.since`` or counted in its ``lost`` exactly once, and can
  bracket every non-empty one it gets, whatever was loaded since;
* a fork, at the head or at a held pin, and an unpickled copy pin and
  bracket the same states as the original.

The model knows the retention *rules* (what a trim may drop), not the
implementation's list handling.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.algebra.evaluation import StandaloneContext
from repro.engine import Database, DatabaseSnapshot, Relation
from repro.engine.epochs import _entries_after
from repro.engine.overlay import _DeltaBuckets
from repro.engine.session import DatabaseView
from repro.errors import EpochUnavailableError

from . import strategies as S

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ("r", "s")
KEYS = range(-1, 7)
GRID = [(a, b) for a in range(0, 6) for b in range(0, 6)]

_ROWS = st.lists(st.tuples(S.VALUES, S.VALUES), max_size=3)
# What a step does, weighted towards what ages a pin: commits between a pin
# and its reads.  (Drawn as one die roll: ``one_of`` cannot weight.)
_KINDS = (
    ["commit"] * 7 + ["pin"] * 3 + ["read"] * 6 + ["release"] * 4 + ["span"] * 2 + ["load"]
    + ["drain"] * 2 + ["fork"]
)
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.tuples(_ROWS, _ROWS, _ROWS, _ROWS),
        st.booleans(),
        st.integers(0, 50),
        st.integers(0, 50),
    ),
    min_size=10,
    max_size=40,
)


def _queries(key: int) -> tuple:
    r_to_s = P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right"))
    s_to_r = P.Comparison("=", P.ColRef("c", "left"), P.ColRef("a", "right"))
    point = E.Select(E.RelationRef("r"), P.Comparison("=", P.ColRef("a"), P.Const(key)))
    return (
        point,
        E.Join(point, E.RelationRef("s"), r_to_s),
        E.SemiJoin(E.RelationRef("s"), E.RelationRef("r"), s_to_r),
        E.AntiJoin(E.RelationRef("r"), E.RelationRef("s"), r_to_s),
    )


class Pinned:
    """One pin, the eager copies taken with it, and what the model knows."""

    def __init__(self, pin, copies, hold: bool):
        self.pin = pin
        self.copies = copies
        self.released = False
        # Snapshots kept alive since pin time (audit tasks hold theirs like
        # this); unheld pins mint a fresh snapshot per read.  Nothing else
        # may keep one alive: the pin's own cache is weak.
        self.held = {name: pin.relation(name) for name in NAMES} if hold else {}
        self.synced = {name: pin.version for name in self.held}


class Model:
    """The retention rules, tracked beside the real manager."""

    def __init__(self, database: Database, retain: int):
        self.database = database
        self.manager = database.epochs
        self.manager.retain = retain
        self.pins: list = []
        # Records at or below this version are gone (trimmed).
        self.dropped_through = self.manager.version
        self.commits: list = []  # recorded, by sequence: (sequence, version, pre, post)
        self.cursor = 0  # a scheduler's: the next commit it will audit

    def copies(self) -> dict:
        return {name: self.database.relation(name).copy() for name in NAMES}

    def trim(self) -> None:
        floor = self.manager.version - self.manager.retain
        active = [entry.pin.version for entry in self.pins if not entry.released]
        if active:
            floor = min(floor, min(active))
        self.dropped_through = max(self.dropped_through, floor)

    def readable(self, entry: Pinned, name: str) -> bool:
        snapshot = entry.held.get(name)
        if snapshot is not None and snapshot._materialized is not None:
            return True  # frozen: needs no entries any more
        at = entry.synced[name] if snapshot is not None else entry.pin.version
        return at >= self.dropped_through

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        manager = self.manager
        records = self.database.commit_log._records
        versions = [record.version for record in records]
        assert versions == list(range(self.dropped_through + 1, manager.version + 1))
        assert manager.retained() == len(versions)
        for version in range(self.dropped_through, manager.version + 1):
            assert _entries_after(records, version) == [
                record for record in records if record.version > version
            ]
        active = {entry.pin.version for entry in self.pins if not entry.released}
        assert manager.pinned_versions() == tuple(sorted(active))


def _net_delta(database: Database, name: str, inserts, deletes):
    """A valid net ``(Δ⁺, Δ⁻)`` for ``name`` from candidate rows (or None)."""
    live = database.relation(name)
    minus = [row for row in dict.fromkeys(deletes) if row in live and row not in inserts]
    if database.bag:
        plus = [row for row in inserts if row not in deletes]
    else:
        plus = [row for row in dict.fromkeys(inserts) if row not in live]
    schema = live.schema
    return (
        Relation(schema, plus, bag=database.bag) if plus else None,
        Relation(schema, minus, bag=database.bag) if minus else None,
    )


def _load(database: Database, model: Model, name: str, rows) -> None:
    """``load`` of ``rows`` into ``name``: what ``insert_many`` would add
    lands as one unrecorded batch, or nothing does."""
    manager, log = database.epochs, database.commit_log
    expected = database.relation(name).copy()
    added = expected.insert_many(rows)
    before, sequence, time = manager.version, log.next_sequence, database.logical_time
    assert database.load(name, rows) == added
    assert database.relation(name) == expected
    assert (log.next_sequence, database.logical_time) == (sequence, time)
    assert manager.version == before + (1 if added else 0)
    if added:
        model.trim()


def _assert_relation_reads(entry: Pinned, name: str, indexed: bool, full: bool) -> None:
    """Every relation-level read of ``name`` through the pin ≡ its eager copy."""
    snapshot, copy = entry.pin.relation(name), entry.copies[name]
    assert len(snapshot) == len(copy)
    assert bool(snapshot) == bool(copy)
    assert snapshot.distinct_count() == copy.distinct_count()
    for row in GRID:
        assert (row in snapshot) == (row in copy), row
        assert snapshot.multiplicity(row) == copy.multiplicity(row), row
    assert snapshot.multiplicities(GRID) == copy.multiplicities(GRID)
    if indexed:
        # As a plan asks: a live index that went back to declared since the
        # last request (its commits filed more rows than ``r`` holds) is
        # built again, under the write gate.
        index = snapshot.amortized_index((0,))
        by_key = {
            key: sorted(row for row in copy.rows() if row[0] == key) for key in KEYS
        }
        for key in KEYS:
            assert sorted(index.lookup(key)) == by_key[key], key
            assert sorted(index.buckets.get(key) or ()) == by_key[key], key
        probed = index.buckets
        if isinstance(probed, _DeltaBuckets):  # as the operators do: one bulk probe
            probed = probed.probe(set(KEYS))
        assert {key: sorted(probed[key]) for key in KEYS if key in probed} == {
            key: rows for key, rows in by_key.items() if rows
        }
    if full:  # whole-relation reads: these materialize the snapshot
        assert Counter(snapshot) == Counter(copy)
        assert snapshot.sorted_rows() == copy.sorted_rows()


def _assert_query_reads(database: Database, entry: Pinned) -> None:
    """Planned point/join/semijoin/antijoin queries ≡ the reference
    interpreter over the eager copies."""
    view = DatabaseView(database, pin=entry.pin)
    oracle = StandaloneContext(entry.copies)
    for key in (0, 3):
        for query in _queries(key):
            mine = planner.evaluate(query, view)
            assert dict(mine.items()) == dict(query.evaluate(oracle).items()), query


def _assert_undo_restores(database: Database, entry: Pinned, available: bool) -> None:
    """``undo_differentials`` rolls the live state back to the pin's copies,
    and is None exactly when the entries since the pin are gone."""
    undo = database.epochs.undo_differentials(entry.pin.version)
    assert (undo is None) == (not available)
    if undo is None:
        return
    for name in NAMES:
        rolled_back = database.relation(name).copy()
        plus, minus = undo.get(name, (None, None))
        if minus is not None:
            rolled_back.delete_counts(dict(minus.items()))
        if plus is not None:
            rolled_back.insert_counts(dict(plus.items()))
        assert rolled_back == entry.copies[name], name


def _assert_brackets(span, commit) -> None:
    _sequence, _version, pre, post = commit
    for name in NAMES:
        assert span.pre_relation(name) == pre[name], name
        assert span.post_relation(name) == post[name], name
    span.release()


def _drain(database: Database, model: Model) -> None:
    """What a scheduler's drain gets from its cursor, and can bracket."""
    log, manager = database.commit_log, database.epochs
    records, lost = log.since(model.cursor)
    # Every commit since the cursor, exactly once: the oldest ``lost`` were
    # trimmed, the rest are returned in order.
    assert [record.sequence for record in records] == list(
        range(model.cursor + lost, log.next_sequence)
    )
    for sequence in range(model.cursor, model.cursor + lost):
        assert model.commits[sequence][1] <= model.dropped_through
    for record in records:
        commit = model.commits[record.sequence]
        assert record.version == commit[1] > model.dropped_through
        if record.is_empty:
            continue  # take_batches audits nothing for it
        span = manager.pin_span(record.sequence, record.sequence)
        assert span is not None
        _assert_brackets(span, commit)
        model.trim()
    model.cursor = log.next_sequence


def _fork(database: Database, model: Model, pickled: bool, i: int, j: int) -> None:
    """A fork (at the head or at a held pin) or an unpickled copy pins and
    brackets what the original does, for every commit it carries.

    It carries the records the original held at the cut, and keeps them
    under its own window from the cut on."""
    held = [entry for entry in model.pins if not entry.released]
    at_cut = database.commit_log.since(0)[0]
    at = None
    if pickled:
        clone = pickle.loads(pickle.dumps(database))
    elif held and j % 2:
        at = held[i % len(held)]
        cut = DatabaseSnapshot(at.pin, NAMES)
        clone = database.fork(cut)
    else:
        clone = database.fork()
        model.trim()  # it pinned the head, and trimmed on the release
    state = at.copies if at is not None else model.copies()
    epoch = at.pin.epoch if at is not None else database.commit_log.next_sequence
    with clone.epochs.pin() as pin:
        for name in NAMES:
            assert pin.relation(name) == state[name], name
    carried = clone.commit_log.since(0)[0]
    assert [record.sequence for record in carried] == [
        record.sequence for record in at_cut if record.sequence < epoch
    ]
    for commit in model.commits[:epoch]:
        mine = database.epochs.pin_span(commit[0], commit[0])
        theirs = clone.epochs.pin_span(commit[0], commit[0])
        assert (theirs is None) == (mine is None)
        if mine is not None:
            _assert_brackets(mine, commit)
            model.trim()
        if theirs is not None:
            _assert_brackets(theirs, commit)


def _step(kind, plus_r=(), minus_r=(), flag=False, i=0, j=0) -> tuple:
    return (kind, (list(plus_r), list(minus_r), [], []), flag, i, j)


@example(  # a fork after a load brackets the commit before it, as its origin does
    rows_r=[],
    rows_s=[],
    steps=[_step("commit", flag=True), _step("load", plus_r=[(1, 1)]), _step("fork")],
    bag=False,
    indexed=False,
    retain=1,
)
@example(  # a pin reads through a load of new and present rows, held or not
    rows_r=[(0, 0)],
    rows_s=[(0, 1)],
    steps=[
        _step("pin", flag=True),
        _step("pin"),
        _step("load", plus_r=[(1, 1), (0, 0)], j=1),
        _step("read", i=0, j=1, flag=True),
        _step("read", i=1, j=1),
        _step("commit", plus_r=[(2, 2)], flag=True),
        _step("load", plus_r=[(2, 2), (3, 3)]),
        _step("drain"),
        _step("read", i=1, j=1, flag=True),
    ],
    bag=True,
    indexed=True,
    retain=1,
)
@example(  # a snapshot held across a release goes stale once the window moves on,
    rows_r=[(0, 0)],  # and stays stale through a load
    rows_s=[(0, 1)],
    steps=[
        _step("pin", flag=True),
        _step("commit", plus_r=[(1, 1)], flag=True),
        _step("release"),
        _step("commit", plus_r=[(2, 2)], flag=True),
        _step("commit", minus_r=[(0, 0)], flag=True),
        _step("read"),
        _step("load", plus_r=[(4, 4)]),
        _step("read"),
        _step("pin"),
        _step("commit", plus_r=[(3, 3)]),
        _step("read", i=1, j=1, flag=True),
    ],
    bag=False,
    indexed=True,
    retain=1,
)
@example(  # a recycled dict never serves a pin whose records were reclaimed
    rows_r=[],
    rows_s=[],
    steps=[
        _step("commit", flag=True),
        _step("pin", flag=True),
        _step("release"),
        _step("span"),  # materializes the pin's state, filed for reuse
        _step("commit", plus_r=[(0, 0)]),
        _step("commit", minus_r=[(0, 0)]),
        _step("read"),
    ],
    bag=False,
    indexed=False,
    retain=1,
)
@example(  # a dead reader's merged rows are recycled and rolled forward
    rows_r=[(0, 0), (1, 1)],
    rows_s=[(0, 1)],
    steps=[
        _step("pin", flag=True),
        _step("read", flag=True),  # materializes: one copy, filed for reuse
        _step("commit", plus_r=[(2, 2)], flag=True),
        _step("release", j=1),  # the only owner dies
        _step("commit", plus_r=[(3, 3)], minus_r=[(0, 0)], flag=True),
        _step("commit", plus_r=[(4, 4)], flag=False),
        _step("pin"),
        _step("read", i=1, j=1, flag=True),  # adopts the cached rows, rolled forward
        _step("commit", minus_r=[(4, 4)], flag=True),
        _step("read", i=1, j=1, flag=True),
    ],
    bag=True,
    indexed=False,
    retain=4,
)
@example(  # a span over an unrecorded entry and a delta-free commit
    rows_r=[(0, 0)],
    rows_s=[],
    steps=[
        _step("pin"),
        _step("commit", plus_r=[(1, 1)], flag=True),
        _step("commit", plus_r=[(2, 2)], flag=False),
        _step("commit", flag=True),
        _step("commit", minus_r=[(1, 1)], flag=True),
        _step("span", i=0, j=2),
        _step("span", i=1, j=2),
        _step("span", i=2, j=2),
        _step("read", flag=True),
    ],
    bag=True,
    indexed=False,
    retain=1,
)
@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    steps=_STEPS,
    bag=st.booleans(),
    indexed=st.booleans(),
    retain=st.sampled_from([1, 2, 4]),
)
@_SETTINGS
def test_late_reads_through_pins_equal_eager_copies_at_any_offset(
    rows_r, rows_s, steps, bag, indexed, retain
):
    database = Database(S.rs_schema(), bag=bag)
    model = Model(database, retain)
    _load(database, model, "r", rows_r)
    _load(database, model, "s", rows_s)
    if indexed:
        database.create_index("r", ["a"])
        database.create_index("s", ["c"])
    manager = database.epochs
    model.check_invariants()

    for kind, (plus_r, minus_r, plus_s, minus_s), flag, i, j in steps:
        if kind == "commit":
            record = flag
            differentials = {
                "r": _net_delta(database, "r", plus_r, minus_r),
                "s": _net_delta(database, "s", plus_s, minus_s),
            }
            before, pre = manager.version, model.copies()
            sequence = database.commit_log.next_sequence
            database.apply_deltas(differentials, record=record)
            advanced = manager.version > before
            # Every commit is a record; an unrecorded batch only if it changes something.
            assert advanced == (record or any(side is not None for pair in differentials.values() for side in pair))
            if record:
                model.commits.append((sequence, manager.version, pre, model.copies()))
            if advanced:
                model.trim()
        elif kind == "pin":
            pin = manager.pin()
            model.pins.append(Pinned(pin, model.copies(), hold=flag))
        elif kind == "read" and model.pins:
            entry = model.pins[i % len(model.pins)]
            if j % 3 == 0:  # the pin released last: the one a trim may have passed
                entry = next((e for e in reversed(model.pins) if e.released), entry)
            readable = {name: model.readable(entry, name) for name in NAMES}
            # A held pin never loses its entries.
            assert all(readable.values()) or entry.released
            for name in NAMES:
                if readable[name]:
                    _assert_relation_reads(entry, name, indexed, full=flag)
                    if name in entry.held:
                        entry.synced[name] = manager.version
                else:
                    with pytest.raises(EpochUnavailableError):
                        len(entry.pin.relation(name))
            if all(readable.values()):
                _assert_query_reads(database, entry)
            else:
                with pytest.raises(EpochUnavailableError):
                    _assert_query_reads(database, entry)
            _assert_undo_restores(
                database, entry, entry.pin.version >= model.dropped_through
            )
        elif kind == "release" and model.pins:
            entry = model.pins[i % len(model.pins)]
            if flag:  # the oldest pin still held: what lets the window move
                entry = next((e for e in model.pins if not e.released), entry)
            again = entry.released
            entry.pin.release()
            entry.released = True
            if j % 2:
                # ... and its snapshots dropped, as a finished audit batch does.
                entry.held, entry.synced = {}, {}
            if not again:  # a second release trims nothing
                model.trim()
        elif kind == "span" and model.commits:
            first = model.commits[i % len(model.commits)]
            last = model.commits[j % len(model.commits)]
            if first[0] > last[0]:
                first, last = last, first
            span = manager.pin_span(first[0], last[0])
            retained = all(
                version > model.dropped_through for version in (first[1], last[1])
            )
            assert (span is not None) == retained
            if span is not None:
                assert (span.pre.version, span.post.version) == (first[1] - 1, last[1])
                for name in NAMES:
                    assert span.pre_relation(name) == first[2][name], name
                    assert span.post_relation(name) == last[3][name], name
                span.release()
                model.trim()
        elif kind == "load":
            # Drawn rows and ``j % 3`` already present, under whatever pins
            # are live: they read through it at their next read.
            for name, drawn in (("r", plus_r), ("s", plus_s)):
                present = list(database.relation(name).rows())[: j % 3]
                _load(database, model, name, list(drawn) + present)
        elif kind == "drain":
            _drain(database, model)
        elif kind == "fork":
            _fork(database, model, flag, i, j)
        model.check_invariants()

    for entry in model.pins:  # every pin still held reads its epoch at the end
        if not entry.released:
            for name in NAMES:
                _assert_relation_reads(entry, name, indexed, full=True)
            _assert_query_reads(database, entry)
            entry.pin.release()
