"""CL parsing: ASCII and Unicode forms, sugar, precedence."""

import pytest

from repro.calculus import ast as C
from repro.calculus.parser import parse_constraint
from repro.engine.types import NULL
from repro.errors import ParseError


class TestBasicForms:
    def test_paper_domain_constraint(self):
        formula = parse_constraint("(forall x)(x in beer => x.alcohol >= 0)")
        assert formula == C.Forall(
            "x",
            C.Implies(
                C.Member("x", "beer"),
                C.Compare(">=", C.AttrSel("x", "alcohol"), C.Const(0)),
            ),
        )

    def test_paper_referential_constraint(self):
        formula = parse_constraint(
            "(forall x)(x in beer => "
            "(exists y)(y in brewery and x.brewery = y.name))"
        )
        assert isinstance(formula, C.Forall)
        inner = formula.body.right
        assert inner == C.Exists(
            "y",
            C.And(
                C.Member("y", "brewery"),
                C.Compare(
                    "=", C.AttrSel("x", "brewery"), C.AttrSel("y", "name")
                ),
            ),
        )

    def test_unicode_matches_ascii(self):
        ascii_form = parse_constraint("(forall x)(x in beer => x.alcohol >= 0)")
        unicode_form = parse_constraint("(∀x)(x ∈ beer ⇒ x.alcohol ≥ 0)")
        assert ascii_form == unicode_form

    def test_bounded_forall_sugar(self):
        sugar = parse_constraint("(forall x in beer)(x.alcohol >= 0)")
        plain = parse_constraint("(forall x)(x in beer => x.alcohol >= 0)")
        assert sugar == plain

    def test_bounded_exists_sugar(self):
        sugar = parse_constraint("(exists x in beer)(x.alcohol > 10)")
        plain = parse_constraint("(exists x)(x in beer and x.alcohol > 10)")
        assert sugar == plain

    def test_multi_variable_quantifier(self):
        formula = parse_constraint("(forall x, y in r)(x.1 <= y.1 + 1)")
        assert isinstance(formula, C.Forall)
        assert isinstance(formula.body.right, C.Forall)

    def test_chained_quantifiers(self):
        formula = parse_constraint(
            "(forall x in beer)(exists y in brewery)(x.brewery = y.name)"
        )
        assert isinstance(formula, C.Forall)
        assert isinstance(formula.body.right, C.Exists)

    def test_aggregate_constraint(self):
        formula = parse_constraint("CNT(beer) <= 1000")
        assert formula == C.Compare("<=", C.CntTerm("beer"), C.Const(1000))

    def test_sum_avg_min_max(self):
        assert parse_constraint("SUM(emp, salary) >= 0").left == C.AggTerm(
            "SUM", "emp", "salary"
        )
        assert parse_constraint("avg(emp, 2) < 5").left == C.AggTerm(
            "AVG", "emp", 2
        )
        assert parse_constraint("MIN(r, a) != MAX(r, a)").right == C.AggTerm(
            "MAX", "r", "a"
        )

    def test_mlt(self):
        assert parse_constraint("MLT(r) = CNT(r)").left == C.MltTerm("r")

    def test_auxiliary_relation_reference(self):
        formula = parse_constraint("(forall x in emp@old)(x.salary > 0)")
        assert isinstance(formula.body.left, C.Member)
        assert formula.body.left.relation == "emp@old"


class TestOperators:
    def test_implication_right_associative(self):
        formula = parse_constraint("x in r => x in s => x.1 > 0")
        assert isinstance(formula, C.Implies)
        assert isinstance(formula.right, C.Implies)

    def test_and_binds_tighter_than_or(self):
        formula = parse_constraint("x in r or x in s and x.1 > 0")
        assert isinstance(formula, C.Or)
        assert isinstance(formula.right, C.And)

    def test_not(self):
        formula = parse_constraint("not x in r")
        assert formula == C.Not(C.Member("x", "r"))

    def test_tuple_equality(self):
        formula = parse_constraint("(forall x in r)(forall y in s)(not x = y)")
        negation = formula.body.right.body.right
        assert negation == C.Not(C.TupleEq("x", "y"))

    def test_bare_variable_in_arithmetic_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("x + 1 > 0")

    def test_bare_variable_with_inequality_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("x < y")

    def test_parenthesized_term_comparison(self):
        formula = parse_constraint("(forall x in r)((x.a + 1) * 2 > x.b)")
        comparison = formula.body.right
        assert isinstance(comparison.left, C.ArithTerm)
        assert comparison.left.op == "*"

    def test_constants(self):
        assert parse_constraint('(forall x in r)(x.name != "abc")').body.right.right == C.Const("abc")
        assert parse_constraint("(forall x in r)(x.flag = true)").body.right.right == C.Const(True)
        null_compare = parse_constraint("(forall x in r)(x.c != null)").body.right
        assert null_compare.right == C.Const(NULL)
        assert parse_constraint("(forall x in r)(x.a > -3)").body.right.right == C.Const(-3)

    def test_division_term(self):
        formula = parse_constraint("(forall x in r)(x.a / 2 <= 10)")
        assert formula.body.right.left.op == "/"


class TestErrors:
    def test_reserved_variable_name(self):
        with pytest.raises(ParseError):
            parse_constraint("(forall in)(in in r)")

    def test_missing_comparison(self):
        with pytest.raises(ParseError):
            parse_constraint("(forall x in r)(x.a)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_constraint("CNT(r) > 0 extra")

    def test_unterminated_quantifier(self):
        with pytest.raises(ParseError):
            parse_constraint("(forall x)(x in r")

    def test_malformed_aux_suffix(self):
        from repro.errors import LexError

        with pytest.raises(LexError):
            parse_constraint("(forall x in r@bogus)(x.1 > 0)")


class TestNestingTooDeep:
    """Deep nesting is a typed error, never a stray RecursionError."""

    @pytest.mark.parametrize(
        "text",
        [
            "not " * 5000 + "x in r",
            "(" * 3000 + "CNT(r) > 0" + ")" * 3000,
            "(forall x in r)" * 3000 + "(x.a > 0)",
            "CNT(r) > " + "(" * 3000 + "1" + ")" * 3000,
        ],
    )
    def test_formulas(self, text):
        with pytest.raises(ParseError, match=r"nesting too deep.*near position (\d+)\)$") as raised:
            parse_constraint(text)
        position = int(str(raised.value).rpartition(" ")[2].rstrip(")"))
        assert 0 < position < len(text) and not text[position].isspace()

    def test_moderate_nesting_still_parses(self):
        formula = parse_constraint("not " * 40 + "CNT(r) > 0")
        assert isinstance(formula, C.Not)
