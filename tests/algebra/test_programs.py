"""Programs: concatenation, (de)bracketing, non-triggering flag."""

from repro.algebra import expressions as E
from repro.algebra import statements as S
from repro.algebra.parser import parse_program
from repro.algebra.programs import (
    EMPTY_PROGRAM,
    Program,
    bracket,
    concat,
    debracket,
)
from repro.algebra.statements import DEL, INS


def ins(name="r"):
    return S.Insert(name, E.Literal(()))


class TestProgram:
    def test_empty_program(self):
        assert EMPTY_PROGRAM.is_empty
        assert len(EMPTY_PROGRAM) == 0
        assert EMPTY_PROGRAM.update_triggers() == frozenset()

    def test_concat_operator(self):
        left = Program([ins("a")])
        right = Program([ins("b")])
        combined = left + right
        assert len(combined) == 2
        assert combined.update_triggers() == {(INS, "a"), (INS, "b")}

    def test_concat_identity(self):
        program = Program([ins()])
        assert (EMPTY_PROGRAM + program).statements == program.statements
        assert (program + EMPTY_PROGRAM).statements == program.statements

    def test_concat_many(self):
        combined = concat(Program([ins("a")]), Program([ins("b")]), Program([ins("c")]))
        assert len(combined) == 3

    def test_equality(self):
        assert Program([ins()]) == Program([ins()])
        assert Program([ins()]) != Program([ins("other")])
        assert Program([ins()]) != Program([ins()], non_triggering=True)

    def test_hashable(self):
        assert hash(Program([ins()])) == hash(Program([ins()]))


class TestNonTriggering:
    def test_flag_empties_trigger_set(self):
        program = Program([ins()], non_triggering=True)
        assert program.update_triggers() == frozenset()

    def test_get_trig_px_vs_get_trig_p(self):
        from repro.core.triggers import get_trig_p, get_trig_px

        program = Program([ins()], non_triggering=True)
        assert get_trig_p(program) == {(INS, "r")}
        assert get_trig_px(program) == frozenset()

    def test_concat_keeps_flag_only_if_both(self):
        quiet = Program([ins("a")], non_triggering=True)
        loud = Program([ins("b")])
        assert (quiet + quiet).non_triggering
        assert not (quiet + loud).non_triggering

    def test_empty_program_is_identity_for_the_flag(self):
        quiet = Program([ins("a")], non_triggering=True)
        assert (EMPTY_PROGRAM + quiet).non_triggering
        assert (quiet + EMPTY_PROGRAM).non_triggering
        assert concat(quiet).update_triggers() == frozenset()


class TestBracketing:
    def test_bracket_then_debracket(self):
        program = parse_program("insert(r, (1,)); delete(s, (2,))")
        txn = bracket(program, name="t1")
        assert txn.name == "t1"
        assert debracket(txn) is program

    def test_debracket_of_sequence_transaction(self):
        from repro.engine.transaction import Transaction

        txn = Transaction([ins()])
        program = debracket(txn)
        assert isinstance(program, Program)
        assert len(program) == 1

    def test_relations_read(self):
        program = parse_program("t := select(r, a > 0); insert(s, t)")
        assert program.relations_read() == {"r", "t"}
