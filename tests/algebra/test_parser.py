"""Text forms of expressions, statements, programs, transactions."""

import re
import threading

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra import statements as S
from repro.algebra.parser import (
    parse_expression,
    parse_predicate,
    parse_program,
    parse_statement,
    parse_transaction,
)
from repro.engine.types import NULL
from repro.errors import ParseError
from repro.lex import Token, TokenStream, tokenize


class TestExpressionParsing:
    def test_relation_ref(self):
        assert parse_expression("beer") == E.RelationRef("beer")

    def test_auxiliary_ref(self):
        assert parse_expression("beer@plus") == E.RelationRef("beer@plus")

    def test_select(self):
        expr = parse_expression("select(beer, alcohol < 0)")
        assert expr == E.Select(
            E.RelationRef("beer"),
            P.Comparison("<", P.ColRef("alcohol"), P.Const(0)),
        )

    def test_project_with_alias_and_null(self):
        expr = parse_expression("project(t, [brewery as name, null, 1 + 2])")
        assert isinstance(expr, E.Project)
        assert expr.items[0].name == "name"
        assert expr.items[1].expr == P.Const(NULL)
        assert expr.items[2].expr == P.Arith("+", P.Const(1), P.Const(2))

    def test_binary_ops(self):
        assert isinstance(parse_expression("union(a, b)"), E.Union)
        assert isinstance(parse_expression("diff(a, b)"), E.Difference)
        assert isinstance(parse_expression("intersect(a, b)"), E.Intersection)
        assert isinstance(parse_expression("product(a, b)"), E.Product)

    def test_joins(self):
        expr = parse_expression("antijoin(r, s, left.a = right.c)")
        assert expr == E.AntiJoin(
            E.RelationRef("r"),
            E.RelationRef("s"),
            P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
        )
        assert isinstance(parse_expression("join(r, s, left.1 = right.1)"), E.Join)
        assert isinstance(parse_expression("semijoin(r, s, true)"), E.SemiJoin)

    def test_aggregates(self):
        assert parse_expression("sum(r, b)") == E.Aggregate(E.RelationRef("r"), "SUM", "b")
        assert parse_expression("cnt(r)") == E.Count(E.RelationRef("r"))
        assert parse_expression("mlt(r)") == E.Multiplicity(E.RelationRef("r"))
        assert parse_expression("avg(r, 2)") == E.Aggregate(E.RelationRef("r"), "AVG", 2)

    def test_rename(self):
        assert parse_expression("rename(r, x)") == E.Rename(E.RelationRef("r"), "x", None)
        assert parse_expression("rename(r, x, [p, q])") == E.Rename(
            E.RelationRef("r"), "x", ("p", "q")
        )

    def test_set_literal(self):
        expr = parse_expression('{ (1, "a"), (2, "b") }')
        assert expr == E.Literal(((1, "a"), (2, "b")))

    def test_empty_set_literal(self):
        assert parse_expression("{}") == E.Literal(())

    def test_negative_number_in_literal(self):
        assert parse_expression("{ (-5, 2.5) }") == E.Literal(((-5, 2.5),))

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("select")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("beer beer")

    def test_nested(self):
        text = "diff(project(beer, [brewery]), project(brewery, [name]))"
        expr = parse_expression(text)
        assert isinstance(expr, E.Difference)
        assert isinstance(expr.left, E.Project)


class TestPredicateParsing:
    def test_precedence_and_over_or(self):
        predicate = parse_predicate("a = 1 or b = 2 and c = 3")
        assert isinstance(predicate, P.Or)
        assert isinstance(predicate.right, P.And)

    def test_parenthesized_predicate(self):
        predicate = parse_predicate("(a = 1 or b = 2) and c = 3")
        assert isinstance(predicate, P.And)
        assert isinstance(predicate.left, P.Or)

    def test_parenthesized_scalar_comparison(self):
        predicate = parse_predicate("(a + 1) > 2")
        assert predicate == P.Comparison(
            ">", P.Arith("+", P.ColRef("a"), P.Const(1)), P.Const(2)
        )

    def test_not(self):
        predicate = parse_predicate("not a = 1")
        assert isinstance(predicate, P.Not)

    def test_isnull(self):
        assert parse_predicate("isnull(city)") == P.IsNull(P.ColRef("city"))

    def test_diamond_operator(self):
        assert parse_predicate("a <> 1") == P.Comparison("!=", P.ColRef("a"), P.Const(1))

    def test_unicode_operators(self):
        assert parse_predicate("a ≠ 1") == P.Comparison("!=", P.ColRef("a"), P.Const(1))
        assert parse_predicate("a ≥ 1") == P.Comparison(">=", P.ColRef("a"), P.Const(1))

    def test_true_false_literals(self):
        assert parse_predicate("true") == P.TruePred()
        assert parse_predicate("false") == P.FalsePred()

    def test_arith_precedence(self):
        predicate = parse_predicate("a + 2 * 3 = 7")
        assert predicate.left == P.Arith(
            "+", P.ColRef("a"), P.Arith("*", P.Const(2), P.Const(3))
        )

    def test_unary_minus(self):
        assert parse_predicate("a > -5") == P.Comparison(">", P.ColRef("a"), P.Const(-5))
        predicate = parse_predicate("-a < 0")
        assert predicate.left == P.Arith("-", P.Const(0), P.ColRef("a"))


class TestStatementParsing:
    def test_insert_tuple_sugar(self):
        statement = parse_statement('insert(beer, ("a", "b", "c", 1.0))')
        assert statement == S.Insert("beer", E.Literal((("a", "b", "c", 1.0),)))

    def test_insert_expression(self):
        statement = parse_statement("insert(t, select(r, a > 0))")
        assert isinstance(statement.expr, E.Select)

    def test_delete_expression(self):
        statement = parse_statement("delete(t, {(1, 2)})")
        assert statement == S.Delete("t", E.Literal(((1, 2),)))

    def test_delete_where_sugar(self):
        statement = parse_statement("delete(t, where a > 0)")
        assert statement == S.Delete(
            "t", E.Select(E.RelationRef("t"), P.Comparison(">", P.ColRef("a"), P.Const(0)))
        )

    def test_delete_tuple_sugar(self):
        statement = parse_statement("delete(t, (1, 2))")
        assert statement == S.Delete("t", E.Literal(((1, 2),)))

    def test_update(self):
        statement = parse_statement("update(t, a = 1, b := b + 1, c := 0)")
        assert isinstance(statement, S.Update)
        assert statement.assignments[0] == ("b", P.Arith("+", P.ColRef("b"), P.Const(1)))
        assert statement.assignments[1] == ("c", P.Const(0))

    def test_update_without_assignment_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("update(t, a = 1)")

    def test_alarm(self):
        statement = parse_statement("alarm(select(t, a < 0))")
        assert isinstance(statement, S.Alarm)
        assert statement.message is None

    def test_alarm_with_message(self):
        statement = parse_statement('alarm(t, "constraint broken")')
        assert statement.message == "constraint broken"

    def test_abort(self):
        assert parse_statement("abort") == S.Abort(None)
        assert parse_statement('abort "reason"') == S.Abort("reason")

    def test_assignment(self):
        statement = parse_statement("temp := select(r, a > 0)")
        assert isinstance(statement, S.Assign)
        assert statement.name == "temp"

    def test_reserved_assignment_target_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("select := r")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_statement("frobnicate(t)")


class TestProgramAndTransaction:
    def test_program_multiple_statements(self):
        program = parse_program(
            """
            t := select(r, a > 0);
            insert(s, t);
            alarm(select(s, c < 0));
            """
        )
        assert len(program) == 3

    def test_empty_transaction(self):
        txn = parse_transaction("begin end")
        assert len(txn) == 0

    def test_transaction_with_comment(self):
        txn = parse_transaction(
            """
            begin
                # add one default beer
                insert(beer, ("a", "b", "c", 1.0));
            end
            """
        )
        assert len(txn) == 1

    def test_missing_end_rejected(self):
        with pytest.raises(ParseError):
            parse_transaction('begin insert(beer, ("a", "b", "c", 1.0));')

    def test_trailing_semicolon_optional(self):
        assert len(parse_transaction("begin abort end")) == 1
        assert len(parse_transaction("begin abort; end")) == 1


class TestNestingTooDeep:
    """Deep nesting is a typed error, never a stray RecursionError."""

    @pytest.mark.parametrize(
        "text",
        [
            "union(" * 3000 + "r" + ", r)" * 3000,
            "select(r, " + "not " * 5000 + "a = 1)",
            "select(r, a = " + "(" * 3000 + "1" + ")" * 3000 + ")",
        ],
    )
    def test_expressions(self, text):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_expression(text)

    def test_every_entry_point(self):
        deep = "union(" * 3000 + "r" + ", r)" * 3000
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_predicate("not " * 5000 + "a = 1")
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_statement(f"t := {deep}")
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_program(f"t := {deep}; insert(r, t)")
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_transaction(f"begin alarm({deep}); end")

    def test_moderate_nesting_still_parses(self):
        expression = parse_expression("union(" * 50 + "r" + ", r)" * 50)
        assert isinstance(expression, E.Union)

    def test_the_error_names_where_the_parser_stood(self):
        # Where RecursionError fires depends on how deep the caller's stack
        # already was, so the parse runs on a fresh thread's stack, and the
        # position may be either token of a "union(" on the way down.
        text = "union(" * 3000 + "r" + ", r)" * 3000
        raised = []

        def parse():
            try:
                parse_expression(text)
            except ParseError as error:
                raised.append(error)

        thread = threading.Thread(target=parse)
        thread.start()
        thread.join()
        (error,) = raised
        match = re.search(r"near position (\d+)\)$", str(error))
        assert match is not None, error
        position = int(match.group(1))
        # A token start, counted from the text: a "union" or its "(".
        assert position < len("union(") * 3000
        assert position % len("union(") in (0, len("union"))


class TestNoPerTokenObjects:
    """A conforming text is parsed off the token columns: a ``Token`` (and
    with it the position column) exists only once somebody asks for one —
    an error message, ``tokenize()``, the stream's Token-returning methods."""

    TRANSACTION = "begin\n" + "".join(
        f"    insert(orders, ({row}, 17, 4242, 999, -{row}));\n" for row in range(5)
    ) + "end"
    JOIN_QUERY = (
        "join(select(orders, customer = 399), customers, "
        "left.customer = right.cid)"
    )

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``Token`` constructed while the test runs."""
        built = []
        new, make = Token.__new__, Token._make.__func__

        def counting_new(cls, *args, **kwargs):
            built.append(new(cls, *args, **kwargs))
            return built[-1]

        def counting_make(cls, iterable):
            built.append(make(cls, iterable))
            return built[-1]

        monkeypatch.setattr(Token, "__new__", counting_new)
        monkeypatch.setattr(Token, "_make", classmethod(counting_make))
        return built

    def test_the_count_sees_every_way_of_building_one(self, built):
        assert tokenize("a b") == built and len(built) == 3
        stream = TokenStream("a b")
        assert [stream.current, stream.peek(), stream.advance()] == built[3:]
        assert stream.accept("NAME") is built[-1] and len(built) == 7

    def test_valid_texts_build_none(self, built):
        assert len(parse_transaction(self.TRANSACTION)) == 5
        assert isinstance(parse_expression(self.JOIN_QUERY), E.Join)
        assert parse_statement("update(emp, id = 7, salary := salary + 100)")
        assert built == []

    def test_an_error_builds_only_the_token_it_names(self, built):
        text = self.TRANSACTION.replace("-4)", "-4 5)")
        with pytest.raises(ParseError, match="expected '\\)' but found '5'") as raised:
            parse_transaction(text)
        named = set(built)
        assert named == {Token("INT", 5, "5", text.index("-4 5") + 3)}
        assert f"at position {built[0].position}" in str(raised.value)
