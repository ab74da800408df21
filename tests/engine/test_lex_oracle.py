"""The master-regex lexer against the character scanner it replaced.

``tests/engine/reference_lexer.py`` is the old scanner, verbatim.  On every
text the two must produce the same token list, or both raise ``LexError``
at the same position with the same message — and "the lexer" is both of
its faces: ``tokenize()``, and the columns a ``TokenStream`` hands the
parsers (``kinds``, ``values``) with the token texts and positions it
derives only when asked.  The listed exceptions are the
two bugs the new lexer fixes, both about digits outside ``[0-9]``: the
scanner let ``int()`` raise a stray ``ValueError`` on ``²`` and lexed ``٣``
as ``INT 3``; now such a character is an unexpected character.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra import statements as S
from repro.algebra.parser import parse_transaction
from repro.algebra.pretty import render_transaction
from repro.algebra.programs import Program, bracket
from repro.engine.types import NULL
from repro.errors import LexError
from repro.lex import Token, TokenStream, tokenize
from tests.engine.reference_lexer import tokenize as reference_tokenize
from tests.properties import strategies as strat

ROOT = Path(__file__).resolve().parents[2]


def outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except LexError as error:
        return ("LexError", error.position, str(error))


def columns(text):
    """The token list read off a stream's columns, positions asked for last."""
    stream = TokenStream(text)
    assert len(stream.kinds) == len(stream.values)
    assert "positions" not in vars(stream)
    tokens = [stream.token(index) for index in range(len(stream.kinds))]
    assert [(token.kind, token.value) for token in tokens] == list(
        zip(stream.kinds, stream.values)
    )
    assert [token.position for token in tokens] == stream.positions
    return tokens


def assert_same_as_reference(text):
    try:
        expected = outcome(reference_tokenize, text)
    except ValueError:  # the scanner's int() on a digit like "²"
        expected = None
    for lexer in (tokenize, columns):
        actual = outcome(lexer, text)
        if actual == expected:
            continue
        # The only listed difference: a digit outside [0-9] is not a number.
        assert actual[0] == "LexError", (text, actual, expected)
        culprit = text[actual[1]]
        assert culprit.isdigit() and not culprit.isascii(), (text, actual, expected)


# -- hostile digits (ROADMAP item 5) --------------------------------------------


@pytest.mark.parametrize(
    "text, position", [("²", 0), ("1²", 1), ("x = ٣", 4), ("1.٣", 2), ("1e٣", 2)]
)
def test_non_ascii_digits_are_lex_errors(text, position):
    with pytest.raises(LexError, match="unexpected character") as raised:
        tokenize(text)
    assert raised.value.position == position
    assert text in str(raised.value)


def test_non_ascii_digits_inside_strings_and_comments_are_text():
    text = '"²٣" # ²\n'
    assert tokenize(text) == [
        Token("STRING", "²٣", '"²٣"', 0),
        Token("EOF", None, "", len(text)),
    ]


# -- the oracle -------------------------------------------------------------------

FRAGMENTS = [
    "beer", "x", "_t1", "FORALL", "forall", "in", "e", "E5", "old", "plus",
    "@", "@old", "@plus", "@minus", "@new", "@old1", "@oldx", "@ old",
    "0", "7", "42", "007", "1.", ".5", "1.5", "1e5", "1E-5", "1e+", "1e", "2.5e-2",
    ":=", "=>", "<=", ">=", "!=", "<>", "<", ">", "=", "!", ":", "(", ")", "[", "]",
    "{", "}", ",", ";", ".", "+", "-", "*", "/",
    '"', "'", '"abc"', "'a b'", '"a\\"b"', "'c\\nd'", "\\", '"\\', '"x\ny"',
    " ", "  ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\xa0", " ",
    "#", "# note", "# note\n", "#\n",
    "∀", "∃", "∧", "∨", "¬", "⇒", "→", "∈", "≠", "≤", "≥", "−",
    "²", "٣", "½", "é", "ß", "$", "?", "&", "|", "~", "`", "\x00",
]


@given(st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join))
@settings(max_examples=1500, deadline=None)
def test_token_alphabet_strings_lex_like_the_reference(text):
    assert_same_as_reference(text)


@given(st.text(max_size=40))
@settings(max_examples=500, deadline=None)
def test_arbitrary_text_lexes_like_the_reference(text):
    assert_same_as_reference(text)


def _string_constants(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def _repository_texts():
    """Every string literal of the examples, the workload modules and the
    end-to-end benchmark's generators (rules, queries, templates, and the
    prose around them), plus transactions rendered from the templates."""
    from benchmarks.e2e.workloads import JOIN_QUERY, POINT_QUERY, transaction_text

    paths = sorted((ROOT / "examples").glob("*.py"))
    paths += sorted((ROOT / "src" / "repro" / "workloads").glob("*.py"))
    paths.append(ROOT / "benchmarks" / "e2e" / "workloads.py")
    texts = [text for path in paths for text in _string_constants(path)]
    rows = [(100_001, 17, 4_242, 999, 0), (5, 2_000_000, 3, 5_000, -1)]
    texts += [
        POINT_QUERY.format(17),
        JOIN_QUERY.format(399),
        transaction_text([f"insert(orders, {row})" for row in rows]),
        transaction_text([f"delete(orders, {rows[0]})"]),
        transaction_text(
            ['insert(emp, (5000, "emp_5000", 3, 2500, 4))',
             "update(emp, id = 7, salary := salary + 100)"]
        ),
    ]
    return texts


def test_repository_texts_lex_like_the_reference():
    texts = _repository_texts()
    assert len(texts) > 100
    lexed = 0
    for text in texts:
        assert_same_as_reference(text)
        lexed += isinstance(outcome(tokenize, text), list)
    assert lexed > 50  # most are language texts, not prose that fails to lex


# -- the parsers' cursor ----------------------------------------------------------
#
# Expressions and constraints already round-trip through the parsers in
# tests/properties (test_prop_optimizer, test_prop_translation).  What those
# strategies never produce is what the algebra parser reads through locals:
# programs of statements over literal rows of every constant kind.

_CONSTANTS = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.sampled_from([NULL, True, False, "\\", '"', "it's", "a\nb", "tab\t"]),
)
_ROWS = st.integers(min_value=1, max_value=4).flatmap(
    lambda arity: st.lists(
        st.tuples(*[_CONSTANTS] * arity), min_size=1, max_size=3
    )
)
_LITERAL_STATEMENTS = st.builds(
    lambda kind, relation, rows: kind(relation, E.Literal(tuple(rows))),
    st.sampled_from([S.Insert, S.Delete]),
    st.sampled_from(["r", "orders", "emp@plus"]),
    _ROWS,
)
_OTHER_STATEMENTS = st.one_of(
    st.builds(
        lambda pivot, value: S.Update(
            "r",
            P.Comparison("=", P.ColRef("a"), P.Const(pivot)),
            (("b", P.Arith("+", P.ColRef("b"), P.Const(value))),),
        ),
        _CONSTANTS,
        st.integers(min_value=0, max_value=9),
    ),
    st.builds(S.Abort, st.one_of(st.none(), st.text(min_size=1, max_size=6))),
    st.just(S.Alarm(E.RelationRef("r@minus"), "r must not shrink")),
    st.just(S.Assign("t", E.Literal(()))),
)


@given(st.lists(st.one_of(_LITERAL_STATEMENTS, _OTHER_STATEMENTS), max_size=5))
@settings(max_examples=300, deadline=None)
def test_transaction_round_trip_through_the_cursor(statements):
    transaction = bracket(Program(statements))
    parsed = parse_transaction(render_transaction(transaction))
    assert parsed.program == transaction.program
