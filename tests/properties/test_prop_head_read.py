"""Property: a one-shot read observes one committed state, like a pin.

``Session.query(text, pinned=True)`` runs a *probe-only* plan on the live
relations inside one validated seqlock bracket and every other plan through
a pin (``EpochManager.read_head``, ``PhysicalOperator.probes``).  Which of
the two ran must never show in the answer:

* on hypothesis-drawn databases (set and bag, NULL and mixed-spelling keys,
  each index built, only declared, or absent) and expressions on both sides
  of the choice, one-shot ≡ explicit pin ≡ ``Expression.evaluate`` on rows
  and multiplicities, raising exactly when the reference raises; the
  ``IndexUsage`` ledgers equal the pinned path's, no built index is
  unbuilt, a declared index a probe-only plan probes is built by its pinned
  read, and the result shares nothing with the database;
* each drawn text is read twice, so the second read is served from the
  database's query-text table (``Database.query_texts``) instead of
  parsed, and must give what the fresh parse gave;
* **deterministic interleavings** — a commit, and separately the same
  changes as a bulk loader makes them (unrecorded batches: no commit, no
  sequence number), injected *from inside the attempt* (behind the view's ``resolve`` or the index's ``lookup``): the
  answer is the reference's on one commit-boundary state, never a mixture,
  an exception only the torn state provokes never escapes, and no later
  commit changes a result already handed out;
* one short threaded check: a writer commits two rows per key atomically,
  and a reader's one-shot point and join reads only ever see even counts.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluation import evaluate_expression
from repro.algebra.parser import parse_expression
from repro.algebra.planner import database_plan
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.epochs import READ_RETRY_LIMIT
from repro.engine.indexes import HashIndex
from repro.engine.schema import Attribute
from repro.engine.session import DatabaseView
from repro.engine.types import ANY, INT, NULL
from repro.errors import ReproError

_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ``r(a, c)`` is probed by ``a`` and by ``c``; ``s(k, v)`` is the build
#: side of the joins, on ``k``.
INDEXES = (("r", (0,)), ("r", (1,)), ("s", (0,)))
#: Mostly built: the one-shot path needs every index it probes.
STATES = st.tuples(
    *[st.sampled_from(["built"] * 4 + ["declared", "none"])] * len(INDEXES)
)

KEYS = st.sampled_from([0, 1, 1.0, NULL, "x"])  # 1 and 1.0 share a bucket
SMALL = st.integers(0, 2)
ROWS = st.lists(st.tuples(KEYS, SMALL), max_size=8)

#: Probe-only once every index is built and ``{k}`` is not NULL (a NULL
#: constant stays in the residual, so the selection is a scan).
PROBE_ONLY = (
    "select(r, a = {k})",
    "select(r, a = {k} and c > {c})",
    # Divides on exactly the bucket's rows, above the point selection.
    "project(select(r, c = {c}), [6 / (c - 1) as q])",
    "project(select(r, a = {k}), [c])",
    "union(select(r, a = {k}), select(r, c = {c}))",
    "join(select(r, c = {c}), s, left.a = right.k)",
    "join(select(r, a = {k}), s, left.a = right.k and left.c <= right.v)",
    "join(select(r, a = {k}), s, left.a = right.k and left.c / right.v >= 0)",
    "semijoin(select(r, c = {c}), s, left.a = right.k)",
    "antijoin(select(r, c = {c}), s, left.a = right.k)",
    "semijoin(select(r, c = {c}), s, left.a = right.k and left.c < right.v)",
    "cnt(join(select(r, c = {c}), s, left.a = right.k))",
)
#: Each reads a whole relation or a whole index somewhere.
NOT_PROBE_ONLY = (
    "r",
    "select(r, c > {c})",
    "select(r, a = null)",
    # A residual that can raise is tested on every row, as the reference
    # does, so the selection is a scan, index or not.
    "select(r, c = {c} and 6 / (c - 1) >= 0)",
    "project(r, [a])",
    "join(r, s, left.a = right.k)",
    "semijoin(r, s, left.a = right.k)",
    "antijoin(s, r, left.k = right.a)",
    "diff(r, select(r, a = {k}))",
    "join(select(r, a = {k}), project(s, [k, v]), left.a = right.k)",
)
SHAPES = st.sampled_from(PROBE_ONLY + NOT_PROBE_ONLY)
MOSTLY_PROBE_ONLY = st.sampled_from(PROBE_ONLY * 3 + NOT_PROBE_ONLY)


def literal(value) -> str:
    if value is NULL:
        return "null"
    return f'"{value}"' if isinstance(value, str) else repr(value)


def build(rows_r, rows_s, bag: bool, states) -> Database:
    schema = DatabaseSchema(
        [
            RelationSchema("r", [Attribute("a", ANY, nullable=True), Attribute("c", INT)]),
            RelationSchema("s", [Attribute("k", ANY, nullable=True), Attribute("v", INT)]),
        ]
    )
    database = Database(schema, bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    for (name, positions), state in zip(INDEXES, states):
        if state == "built":
            database.relation(name).index_on(positions)
        elif state == "declared":
            database.relation(name).declare_index(positions)
    return database


def outcome(read, keep=None):
    """What a read gave, comparably: ``(bag, {row: count})`` or the raise;
    the relation itself goes into ``keep``."""
    try:
        relation = read()
    except ReproError as error:
        return "raised", type(error)
    if keep is not None:
        keep.append(relation)
    return relation.bag, dict(relation.items())


def reference(database: Database, text: str):
    return outcome(lambda: parse_expression(text).evaluate(DatabaseView(database)))


def through_a_pin(database: Database, text: str):
    view = DatabaseView(database, pin=database.epochs.pin())
    return outcome(lambda: evaluate_expression(parse_expression(text), view))


def ledgers(database: Database) -> dict:
    return {
        (relation.schema.name, index.positions): (
            index.built,
            index.usage.uses,
            index.usage.keys,
            index.usage.by_kind,
        )
        for relation in database
        for index in relation.indexes or ()
    }


@_SETTINGS
@given(ROWS, ROWS, st.booleans(), STATES, SHAPES, KEYS, SMALL)
def test_one_shot_equals_explicit_pin_equals_reference_and_builds_the_declared_probes(
    rows_r, rows_s, bag, states, shape, k, c
):
    text = shape.format(k=literal(k), c=c)
    one_shot, pinned, untouched = (build(rows_r, rows_s, bag, states) for _ in range(3))
    expected = reference(untouched, text)
    before = {key: state[0] for key, state in ledgers(one_shot).items()}

    result = []
    got = outcome(lambda: Session(one_shot).query(text, pinned=True), keep=result)
    assert got == expected
    assert through_a_pin(pinned, text) == expected
    assert ledgers(one_shot) == ledgers(pinned)
    after = {key: state[0] for key, state in ledgers(one_shot).items()}
    probes = database_plan(parse_expression(text), one_shot).probes or ()
    probed = {
        (name, tuple(one_shot.relation_schema(name).position_of(a) - 1 for a in attrs))
        for name, attrs in probes
    }
    for key, built in before.items():
        if built:
            assert after[key], key  # nothing is unbuilt
        elif key in probed and got[0] != "raised":
            assert after[key], key  # the pinned read built what it probes
    assert after.keys() == before.keys()

    pins = one_shot.epochs.pins_taken
    assert pins in (0, 1)
    if shape in NOT_PROBE_ONLY or "built" not in states:
        assert pins == 1
    elif set(states) == {"built"} and k is not NULL:
        assert pins == 0
    # The text again: served from the database's table, not parsed, the
    # read equals the fresh parse's, the explicit pin's and the reference.
    parsed = one_shot.query_texts[text]
    assert outcome(lambda: Session(one_shot).query(text, pinned=True)) == expected
    assert one_shot.query_texts[text] is parsed
    if probed and all(after.get(key) for key in probed):
        # Every index the plan probes is built now: the served read was one-shot.
        assert one_shot.epochs.pins_taken == pins

    # The result is the caller's own: emptying it changes no later answer.
    if result and type(result[0]) is Relation:
        result[0].clear()
        assert outcome(lambda: Session(one_shot).query(text, pinned=True)) == expected


# -- interleavings, injected from inside the attempt ----------------------------

CHANGES = st.tuples(
    st.lists(st.integers(0, 7), max_size=4),  # rows of r to delete, by position
    st.lists(st.integers(0, 7), max_size=4),  # rows of s to delete, by position
    ROWS.filter(lambda rows: len(rows) <= 2),  # rows to insert into r
    ROWS.filter(lambda rows: len(rows) <= 2),  # rows to insert into s
)


def writes(rows_r, rows_s, change) -> list:
    """``[(relation, "delete" | "insert", row)]``, deletes first."""
    drop_r, drop_s, add_r, add_s = change
    ops = [("r", "delete", rows_r[i]) for i in sorted(set(drop_r)) if i < len(rows_r)]
    ops += [("s", "delete", rows_s[i]) for i in sorted(set(drop_s)) if i < len(rows_s)]
    ops += [("r", "insert", row) for row in add_r]
    ops += [("s", "insert", row) for row in add_s]
    return ops


def commit(database: Database, ops) -> None:
    """All of ``ops`` as one transaction."""
    statements = "".join(
        f"{kind}({name}, ({', '.join(map(literal, row))})); " for name, kind, row in ops
    )
    assert Session(database).execute(f"begin {statements}end").committed


def load(database: Database, ops) -> None:
    """The same changes outside any transaction, as a bulk loader makes
    them: the deletes as one unrecorded batch, then one ``Database.load``
    per relation.  No commit and no sequence number: only the stamp tells
    a reader."""
    gone: dict = {}
    for name, kind, row in ops:
        if kind == "delete":
            gone.setdefault(name, []).append(row)
    database.apply_deltas(
        {
            name: (None, Relation(database.relation_schema(name), rows, bag=database.bag))
            for name, rows in gone.items()
        },
        advance_time=False,
        record=False,
    )
    for name in ("r", "s"):
        database.load(name, [row for base, kind, row in ops if base == name and kind == "insert"])


@contextmanager
def injected(target, method: str, nth: int, action):
    """Run ``action()`` once, right after the ``nth`` call of
    ``target.method`` returns — that is, in the middle of whatever called
    it."""
    original = getattr(target, method)
    calls = []

    def wrapper(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == nth:
            action()
        return value

    with mock.patch.object(target, method, wrapper):
        yield calls


POINTS = st.sampled_from([(DatabaseView, "resolve"), (HashIndex, "lookup")])


@_SETTINGS
@given(
    ROWS, ROWS, st.booleans(), STATES, MOSTLY_PROBE_ONLY, KEYS, SMALL,
    CHANGES, st.sampled_from([commit, load]), POINTS, st.integers(1, 3),
)
def test_a_write_landing_inside_the_attempt_never_shows_as_a_mixture(
    rows_r, rows_s, bag, states, shape, k, c, change, write, point, nth
):
    text = shape.format(k=literal(k), c=c)
    ops = writes(rows_r, rows_s, change)
    database, pre, post = (build(rows_r, rows_s, bag, states) for _ in range(3))
    write(post, ops)
    boundary_states = (reference(pre, text), reference(post, text))

    session = Session(database)
    result = []
    with injected(*point, nth, lambda: write(database, ops)) as calls:
        got = outcome(lambda: session.query(text, pinned=True), keep=result)
    assert got in boundary_states
    if len(calls) < nth:  # the write never happened
        assert got == boundary_states[0]
        write(database, ops)
    assert reference(database, text) == boundary_states[1]
    # The text again, served from the table: the state after the write.
    assert outcome(lambda: session.query(text, pinned=True)) == boundary_states[1]

    # A result handed out stays what it was, whatever commits next.
    if result:
        held = outcome(lambda: result[0])
        commit(database, [("r", "insert", (k, c)), ("s", "insert", (k, 0))])
        commit(database, [("r", "delete", (k, c))])
        assert outcome(lambda: result[0]) == held == got


RAISES = "join(select(r, a = 1), s, left.a = right.k and left.c / right.v > 0)"
JOINS = "join(select(r, a = 1), s, left.a = right.k)"
COUNTS = "select(r, a = 1)"


@pytest.mark.parametrize("write", [commit, load], ids=["commit", "load"])
@pytest.mark.parametrize(
    "text, bag",
    [(RAISES, False), (RAISES, True), (JOINS, False), (JOINS, True), (COUNTS, True)],
    ids=["raises-set", "raises-bag", "joins-set", "joins-bag", "counts-bag"],
)
def test_what_only_the_torn_state_shows_never_escapes(text, bag, write):
    """``r`` loses its row and ``s`` turns its ``v`` to 0 in one step, landing
    between an attempt's selection and what it does next.  Before and after,
    no pair divides by zero; the old ``r`` row against the new ``s`` row does
    (``RAISES``), joins to a row it never shared a state with (``JOINS``),
    and in a bag is a row held zero times (``COUNTS``).  Rows under other
    keys keep the step from filing more rows than ``r`` and ``s`` hold, so
    their indexes stay built and the re-run is one-shot too."""
    others = [(key, 9) for key in range(2, 6)]
    database = build([(1, 5)] + others, [(1, 1)] + others, bag, ("built",) * 3)
    ops = [("r", "delete", (1, 5)), ("s", "delete", (1, 1)), ("s", "insert", (1, 0))]
    session = Session(database)
    assert len(session.query(text, pinned=True)) == 1

    brackets = []
    read_begin = database.epochs.read_begin
    database.epochs.read_begin = lambda: brackets.append(1) or read_begin()
    pins = database.epochs.pins_taken
    with injected(HashIndex, "lookup", 1, lambda: write(database, ops)) as calls:
        result = session.query(text, pinned=True)
    assert dict(result.items()) == {}  # the state after the step, nothing torn
    assert len(calls) >= 2  # the discarded attempt's lookup, then the re-run's
    assert len(brackets) == 2 and database.epochs.pins_taken == pins  # re-run, no pin


def test_a_reader_that_loses_every_attempt_reads_through_one_pin():
    database = build([(1, 5)], [(1, 1)], False, ("built",) * 3)
    session = Session(database)
    expected = dict(session.query(RAISES, pinned=True).items())
    landed = []

    def keep_committing():
        # One commit per lookup, for as long as attempts are being made: the
        # pinned re-run sees commits land too and still answers for its pin.
        if len(landed) < READ_RETRY_LIMIT:
            landed.append(1)
            commit(database, [("r", "insert", (7, len(landed)))])

    pins = database.epochs.pins_taken
    original = HashIndex.lookup

    def lookup(self, key):
        value = original(self, key)
        keep_committing()
        return value

    with mock.patch.object(HashIndex, "lookup", lookup):
        result = session.query(RAISES, pinned=True)
    assert dict(result.items()) == expected
    assert len(landed) == READ_RETRY_LIMIT
    assert database.epochs.pins_taken == pins + 1
    assert database.epochs.pinned_versions() == ()


# -- one writer thread, one reader thread ---------------------------------------


def test_a_concurrent_reader_only_sees_whole_commits():
    keys = 4
    database = build([], [(key, 0) for key in range(keys)], False, ("built",) * 3)
    session = Session(database)
    point = [f"select(r, a = {key})" for key in range(keys)]
    join = [f"join(select(r, a = {key}), s, left.a = right.k)" for key in range(keys)]
    for text in point + join:
        session.query(text, pinned=True)  # compile before the race
    schema = database.relation_schema("r")
    commits = 400
    done = threading.Event()
    failures: list = []

    def writer():
        try:
            for i in range(commits):
                key = i % keys
                # Two rows per key, atomically: in, or (every third) out again.
                pair = Relation(schema, [(key, 2 * i), (key, 2 * i + 1)])
                database.apply_deltas({"r": (pair, None)})
                if i % 3 == 0:
                    database.apply_deltas({"r": (None, pair)})
        except Exception as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)
        finally:
            done.set()

    def reader():
        reads = 0
        try:
            while not done.is_set() or reads < 50:
                for text in (point[reads % keys], join[reads % keys]):
                    count = len(session.query(text, pinned=True))
                    if count % 2:
                        failures.append(f"{text} saw {count} rows")
                reads += 1
        except Exception as error:  # noqa: BLE001
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(database.relation("r")) == 2 * (commits - len(range(0, commits, 3)))


def test_readers_racing_to_build_a_declared_index_lose_no_commit():
    """Three reader threads' first pinned reads of a declared index race to
    build it while a writer commits: the build holds the write gate, so the
    built index holds every committed row — a build beside a commit would
    miss the rows the commit filed into no built index — and no read sees
    half a commit."""
    keys, readers, loaded = 4, 3, 20_000
    point = [f"select(r, a = {key})" for key in range(keys)]
    # Loaded in pairs too; big enough that a build spans several commits.
    rows = [(i % keys, -c) for i in range(loaded // 2) for c in (2 * i + 1, 2 * i + 2)]
    failures: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(5):
            database = build(rows, [], False, ("declared", "none", "none"))
            session = Session(database)
            for text in point:
                database_plan(parse_expression(text), database)  # compile first
            schema = database.relation_schema("r")
            started = threading.Barrier(readers + 1)
            done = threading.Event()
            committed = []

            def writer():
                try:
                    started.wait(timeout=10)
                    i = 0
                    while not done.is_set() and i < 5_000:
                        pair = Relation(schema, [(i % keys, 2 * i), (i % keys, 2 * i + 1)])
                        database.apply_deltas({"r": (pair, None)})
                        i += 1
                    committed.append(i)
                except Exception as error:  # noqa: BLE001 - reported below
                    failures.append(error)

            def reader():
                try:
                    started.wait(timeout=10)
                    for n in range(2 * keys):
                        count = len(session.query(point[n % keys], pinned=True))
                        if count % 2:
                            failures.append(f"saw {count} rows")
                except Exception as error:  # noqa: BLE001
                    failures.append(error)

            threads = [threading.Thread(target=reader) for _ in range(readers)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads[:readers]:
                thread.join(timeout=60)
            done.set()
            threads[-1].join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            relation = database.relation("r")
            assert len(relation) == loaded + 2 * committed[0]
            index = relation.built_index((0,))
            assert index is not None
            fresh = HashIndex((0,)).build(relation.rows())
            assert {key: set(rows) for key, rows in index.buckets.items()} == {
                key: set(rows) for key, rows in fresh.buckets.items()
            }
    finally:
        sys.setswitchinterval(interval)
