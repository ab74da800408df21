"""Two writers racing on a foreign key: a stress script, not a pytest module.

Each trial builds a fresh database with ``pk`` keys 0-49 and the ``fk_ref``
rule, then runs two sessions on two threads under a one-microsecond switch
interval: one inserts ``fk`` rows referencing random keys until the other
has deleted every key, one ``delete(pk, (k,))`` at a time.  Every
transaction goes through transaction modification, so a committed state
that violates ``fk_ref`` is write skew between the two sessions, and an
exception that is not a ``ReproError`` escaped ``Session.execute`` untyped.

Run from the repository root::

    PYTHONPATH=src python tests/stress/two_writers.py [trials]

It prints the counts and exits non-zero unless both are 0 (default: 200
trials).
"""

from __future__ import annotations

import random
import sys
import threading

from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT
from repro.errors import ReproError

FK_REF = "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))"
KEYS = 50


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )


#: A trial takes milliseconds; one still running after this has hung.
JOIN_SECONDS = 60


def trial(controller: IntegrityController, seed: int) -> tuple:
    """One race; returns ``(violated, untyped errors)``."""
    database = Database(controller.schema)
    database.load("pk", [(key,) for key in range(KEYS)])
    rng = random.Random(seed)
    done = threading.Event()
    untyped = []

    def guarded(body):
        try:
            body()
        except ReproError:
            pass
        except Exception as error:  # the defect this script counts
            untyped.append(f"{type(error).__name__}: {error}")
        finally:
            done.set()

    def insert():
        session = Session(database, controller)
        row = 0
        while not done.is_set():
            session.execute(f"begin insert(fk, ({row}, {rng.randrange(KEYS)})); end")
            row += 1

    def delete():
        session = Session(database, controller)
        for key in range(KEYS):
            session.execute(f"begin delete(pk, ({key},)); end")

    inserter = threading.Thread(target=guarded, args=(insert,), daemon=True)
    deleter = threading.Thread(target=guarded, args=(delete,), daemon=True)
    inserter.start()
    deleter.start()
    deleter.join(JOIN_SECONDS)
    inserter.join(JOIN_SECONDS)
    if inserter.is_alive() or deleter.is_alive():
        raise SystemExit(f"trial {seed} hung: a writer is still running")
    return bool(controller.violated_constraints(database)), untyped


def main(trials: int) -> int:
    controller = IntegrityController(_schema())
    controller.add_constraint("fk_ref", FK_REF)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    violating = 0
    errors = []
    try:
        for seed in range(trials):
            violated, untyped = trial(controller, seed)
            violating += violated
            errors.extend(untyped)
    finally:
        sys.setswitchinterval(interval)
    print(f"{violating}/{trials} violating commits, {len(errors)} untyped errors")
    for error in errors[:5]:
        print("  ", error)
    return 0 if violating == 0 and not errors else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
