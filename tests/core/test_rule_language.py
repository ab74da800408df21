"""The RL rule language parser (Def 4.7)."""

import pytest

from repro.core.rule_language import parse_rule, parse_rules
from repro.core.triggers import DEL, INS
from repro.errors import ParseError
from repro.workloads.beer import BEER_RULE_DOMAIN, BEER_RULE_REFERENTIAL


class TestPaperRules:
    def test_rule_r1(self):
        rule = parse_rule(BEER_RULE_DOMAIN)
        assert rule.name == "R1"
        assert rule.triggers == {(INS, "beer")}
        assert rule.is_aborting

    def test_rule_r2(self):
        rule = parse_rule(BEER_RULE_REFERENTIAL)
        assert rule.name == "R2"
        assert rule.triggers == {(INS, "beer"), (DEL, "brewery")}
        assert rule.is_compensating
        assert len(rule.action_program()) == 2


class TestClauses:
    def test_when_optional_triggers_generated(self):
        rule = parse_rule(
            "IF NOT (forall x in beer)(x.alcohol >= 0) THEN abort"
        )
        assert rule.triggers == {(INS, "beer")}
        assert rule.triggers_generated

    def test_then_optional_defaults_to_abort(self):
        rule = parse_rule("IF NOT (forall x in beer)(x.alcohol >= 0)")
        assert rule.is_aborting

    def test_rule_name_optional(self):
        rule = parse_rule(
            "IF NOT CNT(beer) <= 10 THEN abort", name="capacity"
        )
        assert rule.name == "capacity"

    def test_rule_header_overrides_argument_name(self):
        rule = parse_rule("RULE header IF NOT CNT(beer) <= 10")
        assert rule.name == "header"

    def test_nontriggering_marker(self):
        rule = parse_rule(
            """
            IF NOT (forall x in beer)(x.alcohol >= 0)
            THEN NONTRIGGERING delete(beer, where alcohol < 0)
            """
        )
        assert rule.is_compensating
        assert rule.action_program().non_triggering

    def test_case_insensitive_keywords(self):
        rule = parse_rule(
            "rule r when ins(beer) if not CNT(beer) <= 10 then abort"
        )
        assert rule.name == "r"
        assert rule.triggers == {(INS, "beer")}

    def test_multiline_compensating_program(self):
        rule = parse_rule(
            """
            RULE fixup
            IF NOT (forall x in beer)(x.alcohol >= 0)
            THEN t := select(beer, alcohol < 0);
                 delete(beer, t)
            """
        )
        assert len(rule.action_program()) == 2


class TestErrors:
    def test_missing_if(self):
        with pytest.raises(ParseError):
            parse_rule("WHEN INS(beer) THEN abort")

    def test_missing_not(self):
        with pytest.raises(ParseError):
            parse_rule("IF CNT(beer) <= 10 THEN abort")

    def test_bad_trigger_kind(self):
        with pytest.raises(ParseError):
            parse_rule("WHEN UPD(beer) IF NOT CNT(beer) <= 10")

    def test_empty_then(self):
        with pytest.raises(ParseError):
            parse_rule("IF NOT CNT(beer) <= 10 THEN")

    def test_trigger_missing_parens(self):
        with pytest.raises(ParseError):
            parse_rule("WHEN INS beer IF NOT CNT(beer) <= 10")


class TestParseRules:
    def test_multiple_rules_split_on_headers(self):
        rules = parse_rules(BEER_RULE_DOMAIN + "\n" + BEER_RULE_REFERENTIAL)
        assert [rule.name for rule in rules] == ["R1", "R2"]

    def test_single_headerless_rule(self):
        rules = parse_rules("IF NOT CNT(beer) <= 10 THEN abort")
        assert len(rules) == 1

    def test_first_rule_may_go_without_a_header(self):
        rules = parse_rules(
            "IF NOT CNT(beer) <= 10 THEN abort\n" + BEER_RULE_DOMAIN
        )
        assert len(rules) == 2
        assert rules[0].triggers == {(INS, "beer"), (DEL, "beer")}
        assert rules[1].name == "R1"


class TestNamesSpelledRule:
    """Only a header splits the text: ``RULE`` outside all brackets, then a
    name, then ``WHEN`` or ``IF``.  The word is otherwise an ordinary name."""

    RELATION = (
        "RULE r1 WHEN INS(rule) IF NOT (forall x)(x in rule => x.a >= 0)"
    )
    ATTRIBUTE = "RULE r2 IF NOT (forall x)(x in r => x.rule >= 0)"
    VARIABLE = "RULE r3 IF NOT (forall rule)(rule in r => rule.a >= 0)"
    TEMPORARY = (
        "RULE r4 IF NOT (forall x in r)(x.a >= 0)\n"
        "THEN rule := select(r, a < 0); delete(r, rule)"
    )
    RULE_NAME = "RULE rule IF NOT CNT(rule) <= 10"
    ALL = [RELATION, ATTRIBUTE, VARIABLE, TEMPORARY, RULE_NAME]

    @staticmethod
    def parts(rule):
        return (
            rule.name,
            rule.condition,
            rule.triggers,
            rule.triggers_generated,
            rule.action_program().statements,
        )

    @pytest.mark.parametrize("text", ALL)
    def test_single_rule(self, text):
        (rule,) = parse_rules(text)
        assert self.parts(rule) == self.parts(parse_rule(text))

    def test_several_rules(self):
        rules = parse_rules("\n\n".join(self.ALL))
        assert [self.parts(rule) for rule in rules] == [
            self.parts(parse_rule(text)) for text in self.ALL
        ]
        assert [rule.name for rule in rules] == ["r1", "r2", "r3", "r4", "rule"]
        assert rules[0].triggers == {(INS, "rule")}

    def test_pieces_are_cut_at_the_headers_offsets(self):
        # Comments and blank lines between rules shift every later offset.
        text = "# one\n  " + self.VARIABLE + "  # two\n\n\t" + self.RELATION + "\n# end"
        assert [rule.name for rule in parse_rules(text)] == ["r3", "r1"]
