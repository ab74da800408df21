"""The per-database query-text table: a repeated text is parsed once.

``Session.query`` files each text's parsed expression in
``Database.query_texts`` and serves a repeated text from there, handing the
same expression object to the plan table (``Database.plans``), which then
hits on identity.  The table holds syntax only, is bounded and FIFO-evicted
like the plan table, and never files a text that fails to parse.  The
eviction every bounded memo shares (``repro.bounded.BoundedTable``) never
raises under a concurrent filer, the transaction-shape table's included.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import physical as X
from repro.algebra import predicates as P
from repro.algebra import statements as S
from repro.algebra.parser import shaped_transaction
from repro.calculus import ast as C
from repro.calculus.planned import _COMPILED, compile_constraint
from repro.core.programs import IntegrityProgramStore
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.types import INT
from repro.errors import LexError, ParseError, UnknownRelationError


def build() -> Database:
    database = Database(DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])]))
    database.load("r", [(k % 5, k) for k in range(20)])
    database.create_index("r", ["a"])
    return database


@pytest.fixture
def db() -> Database:
    return build()


def counting(session: Session) -> list:
    """Count the texts ``session`` parses, through its bound parser."""
    parsed = []
    parse = session._parse_expression

    def counted(text):
        parsed.append(text)
        return parse(text)

    session._parse_expression = counted
    return parsed


def test_n_reads_over_k_texts_parse_k_times(db):
    session = Session(db)
    parsed = counting(session)
    texts = [
        "select(r, a = 1)",
        "select(r, a = 2 and b > 3)",
        "project(select(r, a = 3), [b])",
        "r",
    ]
    fresh = build()  # its own table: every text parsed there afresh
    answers = {text: Session(fresh).rows(text) for text in texts}
    for n in range(40):
        text = texts[n % len(texts)]
        assert session.rows(text) == answers[text]
    assert sorted(parsed) == sorted(texts)
    for text in texts:
        expression = db.query_texts[text]
        # The plan table is keyed by the very object the text table serves.
        if text != "r":  # a bare name is never filed in the plan table
            assert any(key is expression for key in db.plans)


def test_the_bare_name_default_holds_for_a_served_text(db):
    session = Session(db)
    first = session.query("r")
    pins = db.epochs.pins_taken
    second = session.query("r")
    assert db.epochs.pins_taken == pins + 1  # pinned, as the fresh parse was
    assert sorted(second.rows()) == sorted(first.rows())
    assert session.query("r", pinned=False) is db.relation("r")


@pytest.mark.parametrize(
    "text, error",
    [
        ("select(r, a = )", ParseError),
        ("select(r, a = 1", ParseError),
        ("select(r, a = 1 $ 2)", LexError),
        ("", ParseError),
    ],
)
def test_a_text_that_fails_to_parse_is_never_filed(db, text, error):
    session = Session(db)
    parsed = counting(session)
    seen = []
    for _ in range(3):
        with pytest.raises(error) as raised:
            session.query(text)
        seen.append(
            (type(raised.value), str(raised.value), getattr(raised.value, "position", None))
        )
    assert seen == [seen[0]] * 3
    assert parsed == [text] * 3
    assert text not in db.query_texts


def test_the_table_holds_syntax_only(db):
    session = Session(db)
    text = "select(q, c = 1)"
    for _ in range(2):
        with pytest.raises(UnknownRelationError):
            session.query(text)
    assert text in db.query_texts  # it parsed: only the planner failed
    db.add_relation(RelationSchema("q", [("c", INT)]), [(1,), (2,), (1,)])
    assert session.rows(text) == [(1,)]
    assert session.rows("q") == [(1,), (2,)]


def test_the_table_is_bounded_and_evicts_the_oldest_text(db):
    limit = db.query_texts.limit
    session = Session(db)
    parsed = counting(session)
    texts = [f"select(r, b = {k})" for k in range(limit + 3)]
    for text in texts:
        session.query(text)
    assert len(db.query_texts) == limit
    assert list(db.query_texts) == texts[3:]
    session.query(texts[-1])  # served
    assert len(parsed) == len(texts)
    session.query(texts[0])  # evicted: parsed again, filed as the newest
    assert len(parsed) == len(texts) + 1
    assert len(db.query_texts) == limit
    assert list(db.query_texts)[-1] == texts[0]
    assert texts[3] not in db.query_texts


def plan_tables():
    """The database's plan table and the process-wide one behind it."""
    database = Database(DatabaseSchema([RelationSchema("r", [("a", INT)])]))

    def file(k: int) -> None:
        predicate = P.Comparison("=", P.ColRef("a"), P.Const(k))
        planner.database_plan(E.Select(E.RelationRef("r"), predicate), database)

    return 20_000, file, lambda: [(database.plans, 1024), (planner._PLAN_CACHE, 1024)]


def modification_memo():
    """The ModT memo: one entry per trigger set ``store.modification`` sees."""
    store = IntegrityProgramStore()

    def file(k: int) -> None:
        store.modification(frozenset({(S.INS, f"r{k}")}))

    return 20_000, file, lambda: [(store._modifications, 1024)]


def constraint_table():
    """The calculus per-schema table of compiled constraints."""
    schema = DatabaseSchema([RelationSchema("r", [("a", INT)])])

    def file(k: int) -> None:
        body = C.Compare(">", C.AttrSel("x", "a"), C.Const(k))
        compile_constraint(C.forall_in("x", "r", body), schema)

    return 2_000, file, lambda: [(_COMPILED[schema], 1024)]


def operator_table():
    """One operator's per-schema state: a rename's output schemas."""
    rename = X.RenameOp(X.ScanOp("r"), "renamed", None)

    def file(k: int) -> None:
        rename._bind(RelationSchema(f"r{k}", [("a", INT)]))

    return 20_000, file, lambda: [(rename._schemas, 32)]


def transaction_shapes():
    """The database's transaction-shape table: one shape per relation name
    (spelled in letters: digits in a name are a run, not a new shape)."""
    database = Database(DatabaseSchema([]))

    def file(k: int) -> None:
        name = "r" + str(k).translate(str.maketrans("0123456789", "abcdefghij"))
        shaped_transaction(f"begin insert({name}, (1)); end", database.transaction_shapes)

    return 5_000, file, lambda: [(database.transaction_shapes, 1024)]


@pytest.mark.parametrize(
    "table",
    [plan_tables, modification_memo, constraint_table, operator_table, transaction_shapes],
)
def test_two_threads_filing_into_a_full_plan_table_never_raise(table):
    """Two threads file distinct keys into one bounded memo under a short
    switch interval: no filing raises, and every table ends within its
    limit.  An unlocked FIFO eviction pops a key the other thread already
    popped (``KeyError``), iterates a table that changes size under it, and
    overfills the table."""
    count, file, tables = table()
    failures: list = []

    def filer(offset: int) -> None:
        try:
            for k in range(count):
                file(2 * k + offset)
        except Exception as error:  # noqa: BLE001 - reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=filer, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    for filed, limit in tables():
        assert len(filed) <= limit
