"""A transaction text is parsed once per shape, and binding equals parsing.

``shaped_transaction`` (what ``Session.transaction`` runs on a text) splits
a text into digit and plain-string *runs* and the segments between them;
the segments are its shape.  The first text of a shape is parsed and its
:class:`~repro.algebra.parser.TransactionShape` filed; a later text of that
shape binds the runs the first parse placed into literal rows (*slots*)
and must match every other run exactly.  The contract: whenever a text
binds, its statements are those ``parse_transaction`` gives it; when it
does not, it is parsed, so the result or error is the parser's own.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra import statements as S
from repro.algebra.parser import _Parser, parse_transaction, shaped_transaction
from repro.algebra.pretty import render_transaction
from repro.algebra.programs import Program, bracket
from repro.bounded import BoundedTable
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.transaction import Transaction
from repro.engine.types import INT, NULL
from repro.errors import ReproError


@contextmanager
def counted_parses():
    """The texts the recursive-descent parser is started on (lexing is the
    first thing it does, so a text that fails to lex counts too)."""
    calls = []
    original = _Parser.__init__

    def __init__(parser, text):
        calls.append(text)
        original(parser, text)

    with patch.object(_Parser, "__init__", __init__):
        yield calls


def outcome(parse, text: str):
    try:
        return parse(text).statements
    except ReproError as error:
        return f"{type(error).__name__}: {error}"


def served(first: str, second: str):
    """``second``'s outcome once ``first`` filed its shape, and whether
    ``second`` bound into a filed shape (no parse of its own)."""
    table = BoundedTable()
    outcome(lambda text: shaped_transaction(text, table), first)
    with counted_parses() as parses:
        result = outcome(lambda text: shaped_transaction(text, table), second)
    return result, not parses


def assert_served_as_parsed(first: str, second: str, hit=None) -> None:
    """``second`` is served as parsed; it binds when ``hit`` (if not None)."""
    result, bound = served(first, second)
    assert result == outcome(parse_transaction, second)
    assert hit is None or bound == hit, (first, second)


# -- the contract over the grammar --------------------------------------------------

_INTS = st.integers(min_value=-(10**12), max_value=10**12)
#: Strings a shape takes as a slot: no quote, and nothing ``repr`` escapes
#: (the other constants draw those), but digits, commas, parentheses and
#: hashes.
_PLAIN = st.text(st.sampled_from("ab z_09#,()-.;:=@"), max_size=6)
_CONSTANTS = st.one_of(
    _INTS,
    _PLAIN,
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.sampled_from([NULL, True, False, "\\", '"', "it's", "1'2"]),
)
_ROWS = st.integers(min_value=1, max_value=4).flatmap(
    lambda arity: st.lists(st.tuples(*[_CONSTANTS] * arity), min_size=1, max_size=3)
)
_LITERAL_STATEMENTS = st.builds(
    lambda kind, relation, rows: kind(relation, E.Literal(tuple(rows))),
    st.sampled_from([S.Insert, S.Delete]),
    st.sampled_from(["r", "orders", "r1", "emp@plus"]),
    _ROWS,
)
_OTHER_STATEMENTS = st.one_of(
    st.builds(
        lambda pivot, value: S.Update(
            "r",
            P.Comparison("=", P.ColRef("a"), P.Const(pivot)),
            (("b", P.Arith("+", P.ColRef("b"), P.Const(value))),),
        ),
        _INTS,
        st.integers(min_value=0, max_value=99),
    ),
    st.builds(S.Abort, st.one_of(st.none(), _PLAIN.filter(bool))),
    st.builds(
        lambda position, rows: S.Alarm(
            E.Join(
                E.RelationRef("r"),
                E.Literal(tuple(rows)),
                P.Comparison("=", P.ColRef(position, "left"), P.ColRef(1, "right")),
            ),
            "r2 joins",
        ),
        st.integers(min_value=1, max_value=2),
        st.lists(st.tuples(_INTS), min_size=1, max_size=2),
    ),
    st.builds(lambda rows: S.Assign("t1", E.Literal(tuple(rows))), _ROWS),
)
_STATEMENTS = st.lists(st.one_of(_LITERAL_STATEMENTS, _OTHER_STATEMENTS), max_size=5)


def _text(statements) -> str:
    return render_transaction(bracket(Program(statements)))


def _is_int(value) -> bool:
    return type(value) is int


def _is_plain(value) -> bool:
    return type(value) is str and not any(c in value for c in "'\"\\")


def _same_class(draw, value):
    """Another value the row cell's run may take: same sign for an
    integer, a plain string for a plain string, the value itself else."""
    if _is_int(value):
        other = draw(st.integers(min_value=1, max_value=10**12))
        return -other if value < 0 else other - 1
    if _is_plain(value):
        return draw(_PLAIN.filter(lambda s: "'" not in s))
    return value


def _redraw_rows(draw, statements, redraw):
    """``statements`` with every cell of a statement's literal source
    replaced by ``redraw(draw, cell)``."""
    out = []
    for statement in statements:
        if type(statement) in (S.Insert, S.Delete):
            rows = tuple(
                tuple(redraw(draw, cell) for cell in row) for row in statement.expr.rows
            )
            statement = type(statement)(statement.relation, E.Literal(rows))
        out.append(statement)
    return out


@settings(max_examples=200, deadline=None)
@given(_STATEMENTS, st.data())
def test_a_text_differing_only_in_row_values_binds_as_parsed(statements, data):
    first = _text(statements)
    second = _text(_redraw_rows(data.draw, statements, _same_class))
    assert parse_transaction(first).statements == tuple(statements)
    # An escape anywhere can pair a run's quote with the wrong one (the
    # split knows no escapes), so a row value behind it may fall inside a
    # fixed run, and the text may be parsed.  Without one, every row value
    # is a slot.
    escaped = "\\" in first + second
    assert_served_as_parsed(first, second, hit=None if escaped else True)


def _any_value(draw, value):
    """Any constant: a class swap keeps the shape (``5`` and ``'5'`` are
    both runs) but cannot bind; a sign flip or a float makes a new one."""
    return draw(st.one_of(st.just(value), _CONSTANTS))


@settings(max_examples=200, deadline=None)
@given(_STATEMENTS, _STATEMENTS, st.data())
def test_any_second_text_is_served_as_parsed(statements, others, data):
    first = _text(statements)
    for second in (
        _text(_redraw_rows(data.draw, statements, _any_value)),
        _text(others),
        first,
    ):
        result, _ = served(first, second)
        assert result == outcome(parse_transaction, second)


# -- named edge cases -----------------------------------------------------------------

BEGIN, END = "begin\n    ", ";\nend"

#: (first, second, binds): each second text either binds into the first's
#: shape and equals its parse, or is parsed.
EDGES = {
    "row integers": ("insert(r, (1, 2))", "insert(r, (30, 400))", True),
    "leading zeros": ("insert(r, (1, 2))", "insert(r, (007, 0))", True),
    "set literal": ("insert(r, {(1, 2), (3, 4)})", "insert(r, {(5, 6), (7, 8)})", True),
    "trailing comma": ("delete(r, (1,))", "delete(r, (2,))", True),
    "row strings": ('insert(r, ("a1", 2))', "insert(r, ('b 22, )', 3))", True),
    "negated slot": ("insert(r, (-1, 2))", "insert(r, (-70, 2))", True),
    "sign flip is a new shape": ("insert(r, (-1, 2))", "insert(r, (1, 2))", False),
    "double negation is fixed": ("insert(r, (- -1, 2))", "insert(r, (- -5, 2))", False),
    "null": ("insert(r, (null, 1))", "insert(r, (null, 2))", True),
    "digits in a name": ("insert(r1, (1, 2))", "insert(r2, (1, 2))", False),
    "same name, new values": ("insert(r1, (1, 2))", "insert(r1, (3, 4))", True),
    "digits in a message": ('abort "msg 1"', 'abort "msg 2"', False),
    "same message": ('abort "msg 1"', 'abort "msg 1"', True),
    "digits in a comment": (
        "# step 1\n    insert(r, (1, 2))",
        "# step 2\n    insert(r, (1, 2))",
        False,
    ),
    # The comment's quote opens a run that the row's first quote closes:
    # what the row holds is then fixed text, compared, not bound.
    "a quote in a comment": (
        "# it's\n    insert(r, ('x', 1))",
        "# it's\n    insert(r, ('y', 2))",
        False,
    ),
    "float": ("insert(r, (1.5, 2))", "insert(r, (2.5, 2))", False),
    "same float": ("insert(r, (1.5, 2))", "insert(r, (1.5, 9))", True),
    "exponent": ("insert(r, (1e3, 2))", "insert(r, (1e4, 2))", False),
    "positional attribute": (
        "alarm(join(r, s, left.2 = right.1))",
        "alarm(join(r, s, left.1 = right.1))",
        False,
    ),
    "predicate constant": (
        "update(r, a = 1, b := b + 1)",
        "update(r, a = 2, b := b + 1)",
        False,
    ),
    "assigned literal is fixed": ("t := {(1, 2)}", "t := {(3, 4)}", False),
    "whitespace": ("insert(r, (1, 2))", "insert(r, (1,2))", False),
    "string where an integer was": ("insert(r, (1, 2))", "insert(r, ('1', 2))", False),
    "integer where a string was": ("insert(r, ('a', 2))", "insert(r, (1, 2))", False),
    "escaped string is fixed": ('insert(r, ("a\\"1", 2))', 'insert(r, ("a\\"2", 2))', False),
    "integer too long": ("insert(r, (1, 2))", "insert(r, (" + "9" * 5000 + ", 2))", False),
    "unicode digit": ("insert(r, (1, 2))", "insert(r, (٣, 2))", False),
    "a text that does not parse": ("insert(r, (1, 2))", "insert(r, (1, 2)", False),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_cases_bind_as_parsed_or_are_parsed(name):
    first, second, binds = EDGES[name]
    assert_served_as_parsed(BEGIN + first + END, BEGIN + second + END, hit=binds)


def test_a_text_that_fails_to_parse_files_nothing():
    table = BoundedTable()
    text = "begin insert(r, (1, 2); end"
    for _ in range(2):
        with counted_parses() as parses:
            with pytest.raises(ReproError) as raised:
                shaped_transaction(text, table)
        assert parses == [text]
        assert len(table) == 0
    with pytest.raises(ReproError) as parsed:
        parse_transaction(text)
    assert str(raised.value) == str(parsed.value)


def test_each_call_returns_a_fresh_transaction_and_shares_what_holds_no_slot():
    table = BoundedTable()
    text = "begin insert(r, (1, 2)); update(r, a = 1, b := 2); abort; end"
    first = shaped_transaction(text, table)
    second = shaped_transaction(text.replace("(1, 2)", "(3, 4)"), table)
    assert isinstance(second, Transaction) and second is not first
    assert second.name != first.name
    assert second.program is not first.program
    assert second.statements[0] == S.Insert("r", E.Literal(((3, 4),)))
    assert first.statements[0] == S.Insert("r", E.Literal(((1, 2),)))  # untouched
    assert second.statements[1:] == first.statements[1:]
    assert all(a is b for a, b in zip(second.statements[1:], first.statements[1:]))


# -- the session's table --------------------------------------------------------------


def _database() -> Database:
    return Database(DatabaseSchema([RelationSchema("orders", [("id", INT), ("v", INT)])]))


def _oltp_like(count: int) -> list:
    """Inserts of 1-6 all-integer rows and single-row deletes: 7 shapes."""
    texts = []
    for k in range(count):
        if k % 9 == 8:
            statements = [f"delete(orders, ({k}, {k * 7 % 100}))"]
        else:
            statements = [
                f"insert(orders, ({k * 10 + i}, {(k + i) * 13 % 1000}))"
                for i in range(k % 6 + 1)
            ]
        texts.append("begin\n" + "\n".join(f"    {s};" for s in statements) + "\nend")
    return texts


def test_a_stream_is_parsed_once_per_shape_plus_once_per_miss():
    db = _database()
    session = Session(db)
    texts = _oltp_like(600)
    with counted_parses() as parses:
        statements = [session.transaction(text).statements for text in texts]
    assert len(parses) == 7 == len(db.transaction_shapes)
    assert statements == [parse_transaction(text).statements for text in texts]
    # A shape whose fixed run changes (a message) is parsed every time it
    # differs from the text that filed it.
    messages = [f'begin abort "stop {k % 3}"; end' for k in range(30)]
    with counted_parses() as parses:
        for text in messages:
            session.transaction(text)
    assert len(parses) == 1 + sum(text != messages[0] for text in messages)
    assert len(db.transaction_shapes) == 8


def test_a_prebuilt_transaction_passes_through_without_filing():
    db = _database()
    transaction = bracket(Program([S.Insert("orders", E.Literal(((1, 2),)))]))
    assert Session(db).transaction(transaction) is transaction
    assert db.transaction_shapes == {}


def test_the_shape_table_starts_empty_in_a_fork_and_in_an_unpickled_copy():
    db = _database()
    text = "begin insert(orders, (1, 2)); end"
    Session(db).execute(text)
    (key,) = db.transaction_shapes
    shape = db.transaction_shapes[key]
    for other in (db.fork(), pickle.loads(pickle.dumps(db))):
        assert other.transaction_shapes == {}
        result = Session(other).execute(text.replace("(1, 2)", "(3, 4)"))
        assert result.committed
        assert list(other.transaction_shapes) == [key]
        assert other.transaction_shapes[key] is not shape  # parsed afresh
        assert other.relation("orders").sorted_rows() == [(1, 2), (3, 4)]
    assert db.transaction_shapes == {key: shape}
    assert db.relation("orders").sorted_rows() == [(1, 2)]
