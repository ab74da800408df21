"""One writer at a time: no write lands between a transaction's last check
and its commit.

Each transaction's appended checks read the live base relations, so two
sessions interleaving a check and a commit could each pass a
cross-relation rule on the state it saw and together commit a violating
state (write skew).  The database's writer lock, held from modification to
the end of ``apply_deltas``, orders them.
"""

import threading

from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT

FK_REF = "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))"

#: Long enough for an unordered delete to commit many times over; the
#: ordered one waits it out, blocked on the writer lock.
GAP_SECONDS = 0.5


def _fk_database():
    schema = DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )
    controller = IntegrityController(schema)
    controller.add_constraint("fk_ref", FK_REF)
    database = Database(schema)
    database.load("pk", [(key,) for key in range(5)])
    return database, controller


def test_a_conflicting_delete_waits_for_a_checked_insert():
    """Session A's insert passes its check and is held before its
    ``apply_deltas``; session B's delete of the referenced key runs in
    that gap.  B must not commit on the state A's check saw: it waits for
    A's commit, then its own check sees A's row and aborts."""
    database, controller = _fk_database()
    checked, go = threading.Event(), threading.Event()
    apply = database.apply_deltas
    results = {}

    def held_apply(*args, **kwargs):
        if threading.current_thread() is inserter:
            checked.set()
            go.wait(10)
        return apply(*args, **kwargs)

    def run(name, text):
        results[name] = Session(database, controller).execute(text)

    database.apply_deltas = held_apply
    inserter = threading.Thread(
        target=run, args=("insert", "begin insert(fk, (1, 3)); end")
    )
    deleter = threading.Thread(
        target=run, args=("delete", "begin delete(pk, (3,)); end")
    )
    inserter.start()
    try:
        assert checked.wait(10)
        deleter.start()
        deleter.join(GAP_SECONDS)
    finally:
        go.set()
        inserter.join(10)
        if deleter.ident is not None:  # started
            deleter.join(10)
    assert not inserter.is_alive() and not deleter.is_alive()
    assert results["insert"].committed
    assert results["delete"].aborted and "fk_ref" in results["delete"].reason
    assert controller.violated_constraints(database) == []
    assert (3,) in database.relation("pk")


def test_the_writer_lock_is_reentrant_and_pickles_fresh():
    """A transaction's commit re-enters the lock its execution holds, and
    a copy of the database gets a lock of its own."""
    import pickle

    database, controller = _fk_database()
    with database.writer_lock:
        assert Session(database, controller).execute(
            "begin insert(fk, (1, 3)); end"
        ).committed
    copy = pickle.loads(pickle.dumps(database))
    assert copy.writer_lock is not database.writer_lock
    assert copy.relation("fk").to_set() == {(1, 3)}
