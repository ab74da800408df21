"""Rendering: functional round-trips and the paper-style notation."""

import pytest

from repro.algebra.parser import (
    parse_expression,
    parse_program,
    parse_statement,
    parse_transaction,
)
from repro.algebra.pretty import (
    render_expression,
    render_mathy,
    render_mathy_statement,
    render_program,
    render_statement,
    render_transaction,
)

EXPRESSIONS = [
    "beer",
    "beer@plus",
    "select(beer, alcohol < 0)",
    'select(beer, brewery = "heineken" and alcohol >= 5)',
    "project(beer, [brewery as name, null, null])",
    "diff(project(beer, [brewery]), project(brewery, [name]))",
    "union(a, b)",
    "intersect(a, b)",
    "product(a, b)",
    "join(r, s, left.a = right.c)",
    "semijoin(r, s, left.1 = right.2)",
    "antijoin(r, s, left.a = right.c and left.b > 0)",
    "rename(r, x, [p, q])",
    "sum(r, b)",
    "avg(r, 2)",
    "cnt(select(r, a != 3))",
    "mlt(r)",
    '{ (1, "a"), (2, "b") }',
    "select(r, not a = 1 or isnull(b))",
    "select(r, (a + 1) * 2 > b / 2 - 3)",
]

STATEMENTS = [
    'insert(beer, ("a", "b", "c", 1.5))',
    "insert(t, select(r, a > 0))",
    "delete(t, {(1, 2)})",
    "t := select(r, a > 0)",
    "update(t, a = 1, b := b + 1)",
    "alarm(select(t, a < 0))",
    'alarm(t, "message")',
    "abort",
    'abort "reason"',
]


class TestRoundTrips:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_expression_round_trip(self, text):
        expr = parse_expression(text)
        assert parse_expression(render_expression(expr)) == expr

    @pytest.mark.parametrize("text", STATEMENTS)
    def test_statement_round_trip(self, text):
        statement = parse_statement(text)
        assert parse_statement(render_statement(statement)) == statement

    def test_program_round_trip(self):
        program = parse_program(
            "t := diff(a, b); insert(s, t); alarm(select(s, x < 0))"
        )
        assert parse_program(render_program(program)) == program

    def test_transaction_round_trip(self):
        txn = parse_transaction(
            'begin insert(beer, ("a", "b", "c", 1.0)); abort; end'
        )
        rendered = render_transaction(txn)
        assert rendered.startswith("begin")
        reparsed = parse_transaction(rendered)
        assert reparsed.statements == txn.statements

    def test_empty_transaction_render(self):
        assert render_transaction(parse_transaction("begin end")) == "begin\nend"


def _statement_classes(cls) -> set:
    """The program's subclasses of ``cls`` (test doubles left out)."""
    found = set()
    for subclass in cls.__subclasses__():
        if subclass.__module__.startswith("repro."):
            found.add(subclass)
        found |= _statement_classes(subclass)
    return found


class TestEveryStatementRenders:
    """Each statement class renders both ways — a modified transaction holds
    any of them, and ``explain`` prints it.  A class without a sample here
    fails the test until one is added."""

    def test_both_renderers_render_every_statement_class(self):
        from repro.algebra.statements import Guard, Statement
        from repro.calculus.parser import parse_constraint
        from repro.core.translation import CheckConstraint

        parsed = [parse_statement(text) for text in STATEMENTS]
        guard = Guard(
            (parse_expression("select(r, a < 0)"), parse_expression("s")),
            (parse_statement("t := project(r, [a])"), parse_statement("abort")),
        )
        residue = CheckConstraint(parse_constraint("(forall x in r)(x.a > 0)"), "rule")
        samples = parsed + [guard, residue]
        assert {type(sample) for sample in samples} == _statement_classes(Statement)
        for statement in samples:
            assert render_statement(statement)
            assert render_mathy_statement(statement)
        assert render_statement(guard) == (
            "guard(select(r, a < 0), s) { t := project(r, [a]); abort }"
        )
        assert render_mathy_statement(guard) == (
            "guard(σ[a<0](r), s) { t := π[a](r); abort }"
        )
        assert render_statement(residue) == 'check((forall x in r)(x.a > 0), "rule")'


class TestMathyNotation:
    def test_select_uses_sigma(self):
        expr = parse_expression("select(beer, alcohol < 0)")
        assert render_mathy(expr) == "σ[alcohol<0](beer)"

    def test_antijoin_symbol(self):
        expr = parse_expression("antijoin(r, s, left.i = right.j)")
        assert render_mathy(expr) == "(r ⊳[x.i=y.j] s)"

    def test_semijoin_symbol(self):
        expr = parse_expression("semijoin(r, s, left.i = right.j)")
        assert "⋉" in render_mathy(expr)

    def test_difference_and_projection(self):
        expr = parse_expression("diff(project(beer, [brewery]), project(brewery, [name]))")
        assert render_mathy(expr) == "(π[brewery](beer) − π[name](brewery))"

    def test_alarm_statement(self):
        statement = parse_statement("alarm(select(r, a < 0))")
        assert render_mathy_statement(statement) == "alarm(σ[a<0](r))"

    def test_count(self):
        expr = parse_expression("cnt(r)")
        assert render_mathy(expr) == "CNT(r)"
