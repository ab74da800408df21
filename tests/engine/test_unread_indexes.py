"""A built index nobody reads goes back to declared.

An index of a database's base relation counts the rows it files and
unfiles since a plan last asked for it (``HashIndex.unread``); once they
outnumber the rows the relation holds — the rows a rebuild would file — it
is unbuilt in place and filed into by nothing until a plan asks again
(``HashIndex.charge``).  Pinned here: when that happens and when it does
not, that the next request rebuilds it whole, that views handed out before
answer from the state they were made for, and that indexes outside a
database are never unbuilt.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.engine import INT, Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine.indexes import HashIndex
from repro.engine.transaction import TransactionContext

R = RelationSchema("r", [("a", INT), ("b", INT)])
KEYS = 10


def database(rows: int) -> Database:
    """``r`` with ``rows`` rows over :data:`KEYS` keys, indexed on ``a``."""
    db = Database(DatabaseSchema([R]))
    db.load("r", [(i % KEYS, i) for i in range(rows)])
    db.create_index("r", ["a"])
    return db


def turnover(db: Database, step: int, count: int = 10, window: int = 100) -> None:
    """Commit ``step`` of a sliding window over ``database(window)``'s rows:
    the ``count`` oldest out, as many fresh ones in — ``window`` rows held,
    ``window / KEYS`` per key, and ``2 * count`` filings per index."""
    gone, fresh = step * count, window + step * count
    plus = Relation(R, [(i % KEYS, i) for i in range(fresh, fresh + count)])
    minus = Relation(R, [(i % KEYS, i) for i in range(gone, gone + count)])
    db.apply_deltas({"r": (plus, minus)})


def rescan(relation) -> dict:
    fresh = HashIndex((0,)).build(relation.rows())
    return {key: set(rows) for key, rows in fresh.buckets.items()}


def contents(index) -> dict:
    return {key: set(rows) for key, rows in index.buckets.items()}


def test_turnover_unread_sends_the_index_back_to_declared_once_it_outfiles_the_relation():
    db = database(100)
    r = db.relation("r")
    index = r.built_index((0,))
    # Each commit files 10 out and 10 in against 100 held: 20 a commit.
    for step in range(5):
        turnover(db, step)
        assert r.built_index((0,)) is index and index.unread == 20 * (step + 1)
    turnover(db, 5)  # its delete: 110 filed unread > 90 held
    assert r.built_index((0,)) is None
    assert not index.built and index.buckets == {}
    assert r.indexes.get((0,)) is index  # still declared, ledger and all
    assert db.indexed_positions("r") == ((0,),)
    turnover(db, 6)  # filed into by nothing now
    assert index.buckets == {}


def test_a_plan_asking_for_the_index_zeroes_the_count():
    db = database(100)
    r = db.relation("r")
    session = Session(db)
    for step in range(20):  # 400 rows filed, 20 in each stretch between reads
        turnover(db, step)
        assert len(session.query("select(r, a = 3)", pinned=True)) == 10
        assert r.built_index((0,)).unread == 0
    assert contents(r.built_index((0,))) == rescan(r)


def test_an_insert_only_stream_never_sends_it_back():
    """Inserts grow the relation as fast as the count: filed never
    outnumbers held."""
    db = database(0)
    r = db.relation("r")
    for i in range(50):
        db.apply_deltas({"r": (Relation(R, [(i % KEYS, i), (i % KEYS, -i - 1)]), None)})
    assert r.built_index((0,)).unread == 100 == len(r)
    assert contents(r.built_index((0,))) == rescan(r)


def test_the_next_read_builds_it_again_with_every_row_then_reads_at_the_head():
    db = database(100)
    r = db.relation("r")
    for step in range(6):
        turnover(db, step)
    assert r.built_index((0,)) is None
    session = Session(db)
    pins = db.epochs.pins_taken
    assert len(session.query("select(r, a = 3)", pinned=True)) == 10
    assert db.epochs.pins_taken == pins + 1  # the pinned read built it ...
    assert contents(r.built_index((0,))) == rescan(r)
    for key in range(KEYS):
        assert len(session.query(f"select(r, a = {key})", pinned=True)) == 10
    assert db.epochs.pins_taken == pins + 1  # ... and the head path reads it


def test_a_transaction_asking_for_it_builds_it_on_the_base_and_commits_into_it():
    db = database(100)
    r = db.relation("r")
    for step in range(6):
        turnover(db, step)
    assert r.built_index((0,)) is None
    session = Session(db)
    assert session.execute("begin t := select(r, a = 3); insert(r, (3, -1)); end").committed
    assert contents(r.built_index((0,))) == rescan(r)


def test_a_snapshot_view_made_before_it_went_back_reads_the_pinned_state():
    db = database(100)
    r = db.relation("r")
    pin = db.epochs.pin()
    snapshot = pin.relation("r")
    view = snapshot.amortized_index((0,))  # a view over the live index
    pinned = {key: sorted(row for row in r.rows() if row[0] == key) for key in range(KEYS)}
    for step in range(6):
        turnover(db, step)
    assert not view.base_index.built  # the live index went back under the view
    for key in range(KEYS):
        assert sorted(view.lookup(key)) == pinned[key]
    assert {key: sorted(rows) for key, rows in view.buckets.probe(range(KEYS)).items()} == pinned
    assert len(view.buckets) == KEYS
    assert r.built_index((0,)) is None  # answered from the pin's frozen rows
    pin.release()


def test_indexes_outside_a_database_are_never_unbuilt():
    relation = Relation(R, [(i % KEYS, i) for i in range(10)])
    index = relation.index_on((0,))
    relation.delete_many([(i % KEYS, i) for i in range(10)])
    relation.insert_many([(1, -1)])
    assert index.built and contents(index) == {1: {(1, -1)}}


def test_a_transactions_delta_side_indexes_stay_built_across_its_own_churn():
    """``R@plus`` / ``R@minus`` are plain relations: the overlay view holds
    their indexes and relies on them being maintained."""
    db = database(10)
    context = TransactionContext(db)
    context.insert_rows("r", [(5, -5)])
    overlay = context.resolve("r")
    view = overlay.amortized_index((0,))
    for i in range(20):  # insert and take back the same rows, 40 filings
        context.insert_rows("r", [(1, 100 + i), (2, 100 + i)])
        context.delete_rows("r", [(1, 100 + i)])
    assert view.plus_index.built and view.minus_index.built
    assert sorted(view.lookup(2)) == sorted(
        [row for row in db.relation("r").rows() if row[0] == 2]
        + [(2, 100 + i) for i in range(20)]
    )
    assert sorted(view.lookup(1)) == [row for row in db.relation("r").rows() if row[0] == 1]


def test_a_read_rebuilding_the_index_commits_sent_back_loses_no_commit():
    """A writer commits 504-row batches in and out again, nobody reads, and
    ``r(a)`` goes back to declared; the reader then reads, rebuilding it from
    its own thread while the batches keep landing — ten times over.  The
    build holds the write gate, so it files every committed row and no
    half-landed batch (a build beside a commit would miss or keep rows), and
    every read sees whole batches."""
    keys, loaded, batch = 4, 20_000, 504
    whole = {loaded // keys, (loaded + batch) // keys}  # a batch out, or in
    db = Database(DatabaseSchema([R]))
    db.load("r", [(j % keys, j) for j in range(loaded)])
    db.create_index("r", ["a"])
    session = Session(db)
    texts = [f"select(r, a = {key})" for key in range(keys)]
    for text in texts:
        session.query(text, pinned=True)  # compile before the race
    r = db.relation("r")
    done = threading.Event()
    failures: list = []
    rebuilt: list = []

    def writer():
        try:
            i = 0
            while not done.is_set() and i < 5_000:
                rows = Relation(R, [(j % keys, -i * batch - j - 1) for j in range(batch)])
                db.apply_deltas({"r": (rows, None)})
                db.apply_deltas({"r": (None, rows)})
                i += 1
        except Exception as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)
        finally:
            done.set()

    def reader():
        try:
            while len(rebuilt) < 10 and not done.is_set():
                if r.built_index((0,)) is not None:
                    time.sleep(0.0005)  # not a read: the count keeps growing
                    continue
                count = len(session.query(texts[len(rebuilt) % keys], pinned=True))
                if count not in whole:
                    failures.append(f"saw {count} rows")
                rebuilt.append(count)
        except Exception as error:  # noqa: BLE001
            failures.append(error)
        finally:
            done.set()

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
    assert len(rebuilt) == 10 and len(r) == loaded
    index = r.built_index((0,))
    if index is not None:  # the last rebuild, kept current since
        assert contents(index) == rescan(r)
