"""Integrity programs and the compiled store (Def 6.3, Algs 6.1-6.2)."""

import pytest

from repro.algebra.parser import parse_program
from repro.algebra.programs import Program
from repro.calculus.parser import parse_constraint
from repro.core.modification import StaticSelector
from repro.core.programs import IntegrityProgram, IntegrityProgramStore, get_int_p
from repro.core.rules import IntegrityRule
from repro.core.triggers import DEL, INS, get_trig_px


@pytest.fixture
def domain_rule():
    return IntegrityRule(parse_constraint("(forall x in r)(x.a > 0)"), name="dom")


@pytest.fixture
def fk_rule():
    return IntegrityRule(
        parse_constraint("(forall x in r)(exists y in s)(x.a = y.c)"), name="fk"
    )


class TestGetIntP:
    def test_compiles_triggers_and_program(self, rs_pair, domain_rule):
        compiled = get_int_p(domain_rule, rs_pair)
        assert compiled.name == "dom"
        assert compiled.triggers == {(INS, "r")}
        assert len(compiled.program) == 1

    def test_differential_variants_attached(self, rs_pair, fk_rule):
        compiled = get_int_p(fk_rule, rs_pair, differential=True)
        assert compiled.differentials is not None
        assert set(compiled.differentials) == {(INS, "r"), (DEL, "s")}

    def test_without_optimization(self, rs_pair, domain_rule):
        compiled = get_int_p(domain_rule, rs_pair, optimize=False)
        assert compiled.differentials is None
        assert len(compiled.program) == 1


class TestActionFor:
    def test_full_program_without_differentials(self, rs_pair, domain_rule):
        compiled = get_int_p(domain_rule, rs_pair)
        assert compiled.action_for({(INS, "r")}) is compiled.program

    def test_differential_selects_matched_variant(self, rs_pair, fk_rule):
        compiled = get_int_p(fk_rule, rs_pair, differential=True)
        ins_only = compiled.action_for({(INS, "r")})
        assert ins_only == compiled.differentials[(INS, "r")]

    def test_differential_union_of_variants(self, rs_pair, fk_rule):
        compiled = get_int_p(fk_rule, rs_pair, differential=True)
        both = compiled.action_for({(INS, "r"), (DEL, "s")})
        assert len(both) == 2

    def test_unexpected_trigger_falls_back_to_full(self, rs_pair, fk_rule):
        compiled = get_int_p(fk_rule, rs_pair, differential=True)
        assert compiled.action_for({(DEL, "r")}) is compiled.program


class TestStore:
    def test_add_get_remove(self, rs_pair, domain_rule):
        store = IntegrityProgramStore()
        compiled = get_int_p(domain_rule, rs_pair)
        store.add(compiled)
        assert "dom" in store
        assert store.get("dom") is compiled
        assert len(store) == 1
        store.remove("dom")
        assert "dom" not in store and len(store) == 0

    def test_duplicate_name_rejected(self, rs_pair, domain_rule):
        store = IntegrityProgramStore()
        store.add(get_int_p(domain_rule, rs_pair))
        with pytest.raises(KeyError):
            store.add(get_int_p(domain_rule, rs_pair))

    def test_non_triggering_program_flag_stored(self, rs_pair):
        program = Program(
            parse_program("insert(r, (1, 2))").statements, non_triggering=True
        )
        compiled = IntegrityProgram("quiet", frozenset({(INS, "s")}), program)
        assert compiled.non_triggering


class TestDeferredPrograms:
    """View maintenance is appended once, after ModP's fixpoint."""

    @staticmethod
    def _store(rs_pair):
        store = IntegrityProgramStore()
        quiet = Program(
            parse_program("insert(s, (9, 9))").statements, non_triggering=True
        )
        store.add(
            IntegrityProgram("view", {(INS, "r"), (DEL, "r")}, quiet, deferred=True)
        )
        compensate = IntegrityRule(
            parse_constraint("(forall x in r)(x.a > 0)"),
            action=parse_program("t := select(r, a <= 0); delete(r, t)"),
            name="fix",
        )
        store.add(get_int_p(compensate, rs_pair))
        return store

    def test_appended_after_the_rounds_for_every_update(self, rs_pair):
        store = self._store(rs_pair)
        assert StaticSelector(store).select({(INS, "r")}) == [
            ("fix", store.get("fix").program, True)
        ]
        statements, stats = store.modification(frozenset({(INS, "r")}))
        # The compensation (round 1) deletes from r; the view follows it,
        # selected once for INS(r) and DEL(r) together.
        assert statements == store.get("fix").program.statements + (
            store.get("view").program.statements
        )
        assert stats.rounds == 1
        assert stats.selected_rule_names == ("fix", "view")

    def test_must_be_non_triggering(self):
        with pytest.raises(ValueError):
            IntegrityProgram(
                "loud",
                {(INS, "r")},
                parse_program("insert(s, (1, 2))"),
                deferred=True,
            )


class TestStaticSelector:
    """SelPS/ConcatP (Alg 6.2) over the store: ``StaticSelector.select``."""

    @staticmethod
    def select(store, text_or_program):
        program = (
            parse_program(text_or_program)
            if isinstance(text_or_program, str)
            else text_or_program
        )
        return StaticSelector(store).select(get_trig_px(program))

    def test_matches_on_intersection(self, rs_pair, domain_rule, fk_rule):
        store = IntegrityProgramStore()
        store.add(get_int_p(domain_rule, rs_pair))
        store.add(get_int_p(fk_rule, rs_pair))
        matched = self.select(store, "insert(r, (1, 2))")
        assert [name for name, _, _ in matched] == ["dom", "fk"]
        matched = self.select(store, "delete(s, (1, 2))")
        assert [name for name, _, _ in matched] == ["fk"]
        assert self.select(store, "delete(r, (1, 2))") == []

    def test_pieces_in_insertion_order(self, rs_pair, domain_rule, fk_rule):
        store = IntegrityProgramStore()
        store.add(get_int_p(fk_rule, rs_pair))
        store.add(get_int_p(domain_rule, rs_pair))
        pieces = self.select(store, "insert(r, (1, 2))")
        assert [name for name, _, _ in pieces] == ["fk", "dom"]
        assert [program for _, program, _ in pieces] == [
            store.get("fk").program,
            store.get("dom").program,
        ]
        assert all(full_state for _, _, full_state in pieces)

    def test_nothing_for_non_triggering_program(self, rs_pair, domain_rule):
        store = IntegrityProgramStore()
        store.add(get_int_p(domain_rule, rs_pair))
        quiet = Program(
            parse_program("insert(r, (1, 2))").statements, non_triggering=True
        )
        assert self.select(store, quiet) == []

    def test_skips_vacuous_differentials(self, rs_pair):
        rule = IntegrityRule(
            parse_constraint("(forall x in r)(x.a > 0)"),
            triggers=[("INS", "r"), ("DEL", "r")],
            name="dom2",
        )
        store = IntegrityProgramStore()
        store.add(get_int_p(rule, rs_pair, differential=True))
        # A pure delete cannot violate the domain constraint: nothing added.
        assert self.select(store, "delete(r, (1, 2))") == []
        # An insert selects the differential variant, not the full program.
        [(name, piece, full_state)] = self.select(store, "insert(r, (1, 2))")
        assert name == "dom2" and not full_state
        assert piece == store.get("dom2").differentials[(INS, "r")]
