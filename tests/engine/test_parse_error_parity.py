"""Parse errors are part of the interface: type, message and position.

The corpus is every token-boundary truncation, every single-token deletion
and every token cut short by its last character (an unterminated string,
``:=`` left as ``:`` — the ``LexError`` side) of the texts the end-to-end benchmark's workloads parse — the
``oltp_text`` and ``full_check`` transactions, the two query shapes, the
rule conditions and RL rules — each fed to the entry point that reads that
kind of text.  ``parse_error_golden.json`` holds, per mutant, what the
parser said at the commit *before* the token stream became columns
(``ok`` or ``<exception type>: <message>``, positions included); the
parsers must still say exactly that.

Mutants are cut at the token boundaries of the reference scanner
(``tests/engine/reference_lexer.py``), not of the lexer under test.

Regenerate (only when an error message changes on purpose) with
``python -m tests.engine.test_parse_error_parity`` from the repo root with
``src`` on the path.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import workloads as W
from repro.algebra.parser import parse_expression, parse_transaction
from repro.calculus.parser import parse_constraint
from repro.core.rule_language import parse_rule
from repro.engine import Database, DatabaseSchema, Session
from repro.errors import ReproError
from tests.engine.reference_lexer import tokenize as reference_tokenize

GOLDEN = Path(__file__).with_name("parse_error_golden.json")

PARSERS = {
    "parse_transaction": parse_transaction,
    "parse_expression": parse_expression,
    "parse_constraint": parse_constraint,
    "parse_rule": parse_rule,
}

_ROWS = [(100_001, 17, 4_242, 999, 0), (5, 2_000_000, 3, 5_000, -1)]

#: name -> (entry point, text)
TEXTS = {
    "oltp_text insert": (
        "parse_transaction",
        W.transaction_text([f"insert(orders, {row})" for row in _ROWS]),
    ),
    "oltp_text delete": (
        "parse_transaction",
        W.transaction_text([f"delete(orders, {_ROWS[0]})"]),
    ),
    "full_check hire and raise": (
        "parse_transaction",
        W.transaction_text(
            [
                'insert(emp, (5000, "emp_5000", 3, 2500, 4))',
                "update(emp, id = 7, salary := salary + 100)",
            ]
        ),
    ),
    "point query": ("parse_expression", W.POINT_QUERY.format(17)),
    "join query": ("parse_expression", W.JOIN_QUERY.format(399)),
    "orders_customer": ("parse_constraint", W.STAR_RULES["orders_customer"]),
    "orders_not_banned": ("parse_constraint", W.STAR_RULES["orders_not_banned"]),
    "payroll cap": ("parse_constraint", "SUM(emp, salary) <= 25000000"),
    "emp_dept_repair": ("parse_rule", W.EMP_DEPT_REPAIR),
    "dept_id_domain": ("parse_rule", W.DEPT_ID_DOMAIN),
    "triggered rule": (
        "parse_rule",
        "RULE r2 WHEN INS(orders), DEL(customers)\n"
        "IF NOT " + W.STAR_RULES["orders_customer"] + "\n"
        "THEN NONTRIGGERING delete(orders, where amount < 0)",
    ),
}


def mutants(text: str) -> dict:
    """``{mutation: [text, ...]}``, one text per token (``chop``: per
    token of more than one character)."""
    tokens = reference_tokenize(text)[:-1]
    ends = [token.position + len(token.text) for token in tokens]
    return {
        "truncate": [text[: token.position] for token in tokens],
        "delete": [
            text[: token.position] + text[end:] for token, end in zip(tokens, ends)
        ],
        "chop": [
            text[: end - 1] + text[end:]
            for token, end in zip(tokens, ends)
            if len(token.text) > 1
        ],
    }


def outcome(parser, text: str) -> str:
    try:
        parser(text)
    except ReproError as error:
        return f"{type(error).__name__}: {error}"
    return "ok"


def outcomes() -> dict:
    return {
        "mutants": {
            name: {
                mutation: [outcome(PARSERS[parser], mutant) for mutant in texts]
                for mutation, texts in mutants(text).items()
            }
            for name, (parser, text) in TEXTS.items()
        },
        "foreign": {
            name: {parser: outcome(parse, text) for parser, parse in PARSERS.items()}
            for name, (_, text) in TEXTS.items()
        },
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TEXTS)
def test_mutants_fail_as_they_did(name):
    golden = _golden()["mutants"][name]
    parser, text = TEXTS[name]
    assert outcome(PARSERS[parser], text) == "ok"
    for mutation, texts in mutants(text).items():
        assert len(texts) == len(golden[mutation])
        for mutant, expected in zip(texts, golden[mutation]):
            assert outcome(PARSERS[parser], mutant) == expected, (mutation, mutant)


def test_the_corpus_is_mostly_errors():
    said = [
        line
        for case in _golden()["mutants"].values()
        for lines in case.values()
        for line in lines
    ]
    assert len(said) > 700
    assert sum(line != "ok" for line in said) > 0.8 * len(said)
    assert any(line.startswith("LexError") for line in said)


@pytest.mark.parametrize("name", TEXTS)
def test_every_entry_point_rejects_the_other_languages(name):
    """A text of one language handed to the other three entry points."""
    golden = _golden()["foreign"][name]
    _, text = TEXTS[name]
    assert {
        parser: outcome(parse, text) for parser, parse in PARSERS.items()
    } == golden


def _swollen(text: str) -> list:
    """``text`` with each digit run in turn grown past what ``int`` reads,
    and swapped for a string (both keep its shape, neither binds)."""
    runs = list(re.finditer(r"[0-9]+", text))
    return [
        text[: run.start()] + replacement + text[run.end() :]
        for run in runs
        for replacement in ("9" * 5000, f'"{run.group()}"')
    ]


@pytest.mark.parametrize(
    "name", [name for name, (parser, _) in TEXTS.items() if parser == "parse_transaction"]
)
def test_a_warmed_session_says_what_the_parser_says(name):
    """``Session.transaction`` serves a text from its shape when one is
    filed: on every mutant, with every shape the corpus files already in
    the table, it says byte for byte what ``parse_transaction`` says."""
    _, text = TEXTS[name]
    corpus = [text, *_swollen(text)]
    corpus += [mutant for texts in mutants(text).values() for mutant in texts]
    session = Session(Database(DatabaseSchema([])))

    def said(parse, text):
        try:
            return parse(text).statements
        except ReproError as error:
            return f"{type(error).__name__}: {error}"

    for mutant in corpus:
        said(session.transaction, mutant)
    assert session.database.transaction_shapes  # warmed
    for mutant in corpus:
        assert said(session.transaction, mutant) == said(parse_transaction, mutant), mutant


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(outcomes(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
