"""Attribute/domain lookups treat only *not found* as "not found".

Four sites ask a schema "does this attribute (or domain) resolve?" and
turn the lookup's failure into an answer.  Each catches the lookup's own
typed error only: the not-found case answers as it always did, while any
other exception — a genuine bug, simulated here by a stub schema — is no
longer read as "attribute not found" and propagates.

Likewise ``EpochPin.__del__`` excuses only what a half-torn-down interpreter
raises: a release that fails while the interpreter is running reaches
``sys.unraisablehook`` (the loudest a finalizer can be).

And a pinned read's seqlock retry re-runs its computation only for the
``RuntimeError`` a dict mutated mid-iteration raises — exactly that class.
``RecursionError`` and ``NotImplementedError`` are subclasses; a bug that
raises one is raised at its first occurrence, not re-executed
``READ_RETRY_LIMIT`` times first.

And a direct write to a database's base relation — one that bypasses
``Database.apply_deltas``, the one write path every pin reads through — is
an ``OutOfBandMutationError`` raised before any row changes: the relation
and what a live pin reads of it stay as they were.

And a unary minus folds into *numeric* constants only: ``bool`` is an
``int`` to ``isinstance``, so ``-true`` used to become the integer ``-1``
(and ``-false`` ``0``) in a literal row, a predicate and a constraint; it is
a ``ParseError`` in all three.

And an integer literal with more digits than ``int()`` converts (CPython:
4,300) is a ``LexError`` at the literal in every text front end, not the
bare ``ValueError`` the conversion raises.

And arithmetic on, or an ordering of, a string and a number is a
``TypeMismatchError`` wherever a predicate or scalar runs — the whole-column
kernels, the row closures, the reference interpreter, the calculus
evaluator — not the bare ``TypeError`` Python raises: a transaction meeting
one aborts with ``runtime error: …`` like any other, its base untouched.
"""

from __future__ import annotations

import sys

import pytest

from repro import ddl
from repro.algebra import predicates as P
from repro.algebra.parser import parse_expression, parse_statement, parse_transaction
from repro.calculus import ast as C
from repro.calculus.parser import parse_constraint
from repro.core import translation
from repro.core.rule_language import parse_rule
from repro.core.subsystem import _resolves
from repro.calculus.evaluation import evaluate_constraint
from repro.engine import Database, DatabaseSchema, RelationSchema, Session, epochs
from repro.engine.session import DatabaseView
from repro.engine.types import INT, STRING
from repro.errors import (
    LexError,
    OutOfBandMutationError,
    ParseError,
    ReproError,
    TypeMismatchError,
    UnknownAttributeError,
)

R = RelationSchema("r", [("a", INT), ("b", INT)])
S = RelationSchema("s", [("c", INT), ("d", INT)])


class _BrokenSchema:
    """A schema whose lookup fails for a reason other than *not found*."""

    name = "broken"
    arity = 2

    def position_of(self, attribute):
        raise RuntimeError("lookup bug")


class _BrokenDatabaseSchema:
    def relation(self, name):
        return _BrokenSchema()


class TestSubsystemResolves:
    def test_unknown_attribute_does_not_resolve(self):
        assert _resolves(R, "a") is True
        assert _resolves(R, "nope") is False

    def test_other_failures_propagate(self):
        with pytest.raises(RuntimeError, match="lookup bug"):
            _resolves(_BrokenSchema(), "a")


class TestBranchWellTyped:
    FORMULA = parse_constraint("(forall x)(x in r => x.nope > 0)")

    def test_unknown_attribute_is_ill_typed(self):
        class _Db:
            def relation(self, name):
                return R

        assert translation._branch_well_typed(self.FORMULA, _Db()) is False

    def test_other_failures_propagate(self):
        with pytest.raises(RuntimeError, match="lookup bug"):
            translation._branch_well_typed(self.FORMULA, _BrokenDatabaseSchema())


class TestResolvePosition:
    def test_unqualified_reference_falls_through_to_the_right_schema(self):
        assert P._resolve_position(P.ColRef("d"), R, S) == (1, 1)
        with pytest.raises(UnknownAttributeError):
            P._resolve_position(P.ColRef("nope"), R, None)

    def test_other_failures_do_not_fall_through(self):
        with pytest.raises(RuntimeError, match="lookup bug"):
            P._resolve_position(P.ColRef("d"), _BrokenSchema(), S)


class TestDdlDomainLookup:
    def test_unknown_domain_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown domain 'nonsense'"):
            ddl.parse_relation_schema("relation r(a nonsense)")

    def test_other_failures_propagate(self, monkeypatch):
        def broken(name):
            raise RuntimeError("lookup bug")

        monkeypatch.setattr(ddl, "domain_by_name", broken)
        with pytest.raises(RuntimeError, match="lookup bug"):
            ddl.parse_relation_schema("relation r(a int)")


class TestEpochPinFinalizer:
    @pytest.mark.parametrize("error", [RuntimeError, KeyError, TypeError, AttributeError])
    def test_a_failing_release_reaches_the_unraisable_hook(self, monkeypatch, error):
        database = Database(DatabaseSchema([R]))
        pin = database.epochs.pin()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        def broken(version):
            raise error("release bug")

        monkeypatch.setattr(database.epochs, "_release", broken)
        del pin  # the last reference: __del__ runs here, by reference count
        assert [(report.exc_type, str(report.exc_value).strip("'")) for report in unraisable] == [
            (error, "release bug")
        ]
        assert "EpochPin.__del__" in repr(unraisable[0].object)

    def test_a_clean_release_reports_nothing(self, monkeypatch):
        database = Database(DatabaseSchema([R]))
        pin = database.epochs.pin()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        del pin
        assert unraisable == []
        assert database.epochs.pinned_versions() == ()


class TestSnapshotReadRetry:
    # The snapshots here are never materialized, so ``_read``'s ``frozen``
    # alternative (``pytest.fail``) must not run.

    @staticmethod
    def _snapshot():
        database = Database(DatabaseSchema([R]))
        database.load("r", [(1, 1), (2, 2)])
        pin = database.epochs.pin()
        return pin, pin.relation("r")

    @pytest.mark.parametrize("error", [RecursionError, NotImplementedError])
    def test_a_subclass_is_raised_at_its_first_occurrence(self, error):
        _pin, snapshot = self._snapshot()
        calls = []

        def compute():
            calls.append(1)
            raise error("compute bug")

        with pytest.raises(error, match="compute bug"):
            snapshot._read(compute, pytest.fail)
        assert len(calls) == 1

    def test_a_dict_mutated_mid_iteration_still_retries(self):
        _pin, snapshot = self._snapshot()
        calls = []

        def compute():
            calls.append(1)
            if len(calls) == 1:
                live = {1: None, 2: None}
                for key in live:  # the error the live base raises under a writer
                    live[key + 10] = None
            return "value"

        assert snapshot._read(compute, pytest.fail) == "value"
        assert len(calls) == 2

    def test_the_gated_pass_still_raises_what_keeps_failing(self):
        _pin, snapshot = self._snapshot()
        calls = []

        def compute():
            calls.append(1)
            raise RuntimeError("dictionary changed size during iteration")

        with pytest.raises(RuntimeError):
            snapshot._read(compute, pytest.fail)
        assert len(calls) == epochs.READ_RETRY_LIMIT + 1


class TestOutOfBandMutation:
    WRITES = {
        "insert": lambda live: live.insert((3, 3)),
        "delete": lambda live: live.delete((1, 1)),
        "clear": lambda live: live.clear(),
        "insert_many": lambda live: live.insert_many([(3, 3), (4, 4)]),
        "delete_many": lambda live: live.delete_many([(1, 1)]),
        "replace_contents": lambda live: live.replace_contents(live.copy()),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_direct_write_raises_and_changes_nothing(self, write):
        database = Database(DatabaseSchema([R]))
        database.load("r", [(1, 1), (2, 2)])
        database.create_index("r", ["b"])
        pin = database.epochs.pin()
        snapshot = pin.relation("r")
        live = database.relation("r")
        version = database.epochs.version
        with pytest.raises(OutOfBandMutationError) as raised:
            self.WRITES[write](live)
        assert isinstance(raised.value, ReproError)
        assert sorted(live) == [(1, 1), (2, 2)]
        assert live.built_index((1,)).lookup(1) == ((1, 1),)
        assert sorted(snapshot) == [(1, 1), (2, 2)] and len(snapshot) == 2
        assert database.epochs.version == version
        # The same change through the write path lands, and the pin keeps
        # reading its own state.
        database.load("r", [(3, 3)])
        assert sorted(pin.relation("r")) == [(1, 1), (2, 2)]
        assert (3, 3) in live
        pin.release()


class TestNegatedBoolean:
    @pytest.mark.parametrize("word", ["true", "false", "TRUE", "-false"])
    def test_literal_row(self, word):
        with pytest.raises(ParseError, match="'-' must precede a numeric constant"):
            parse_statement(f"insert(r, (-{word}, 1))")

    @pytest.mark.parametrize("word", ["true", "false", "(true)"])
    def test_predicate(self, word):
        with pytest.raises(ParseError, match="'-' must precede a numeric constant"):
            parse_expression(f"select(r, a = -{word})")

    @pytest.mark.parametrize("word", ["true", "false"])
    def test_constraint(self, word):
        with pytest.raises(ParseError, match="'-' must precede a numeric constant"):
            parse_constraint(f"CNT(r) > -{word}")

    def test_numbers_still_fold(self):
        assert parse_statement("insert(r, (-1, - -2.5))").expr.rows == ((-1, 2.5),)
        select = parse_expression("select(r, a = -1 and b = - -2.5)")
        assert select.predicate.left.right == P.Const(-1)
        assert select.predicate.right.right == P.Const(2.5)
        assert parse_constraint("CNT(r) > -1").right == C.Const(-1)

    def test_booleans_are_still_constants(self):
        assert parse_statement("insert(r, (true, false))").expr.rows == ((True, False),)
        assert parse_expression("select(r, a = true)").predicate.right == P.Const(True)


class TestOverlongIntegerLiteral:
    DIGITS = "1" * 5000

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_expression, "select(orders, customer = {})"),
            (parse_expression, "select(orders, customer = -{})"),
            (parse_expression, "project(orders, [amount + {} as more])"),
            (parse_transaction, "begin insert(orders, (1, {}, 3)); end"),
            (parse_transaction, "begin update(orders, id = 1, amount := {}); end"),
            (parse_constraint, "(forall x)(x in orders => x.amount < {})"),
            (parse_constraint, "CNT(orders) <= {}"),
            (parse_rule, "RULE big IF NOT (CNT(orders) <= {}) THEN abort"),
            (ddl.parse_schema, "relation orders(id int); # {} is no declaration\n{}"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_is_a_lex_error_at_the_literal(self, parse, text):
        source = text.format(self.DIGITS, self.DIGITS)
        with pytest.raises(LexError, match="integer literal of 5000 digits") as raised:
            parse(source)
        assert source[raised.value.position :].startswith(self.DIGITS)
        assert source[raised.value.position - 1] != "1"  # its first digit

    def test_the_longest_convertible_literal_still_parses(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
        digits = "7" * limit
        select = parse_expression(f"select(orders, customer = {digits})")
        assert select.predicate.right == P.Const(int(digits))
        with pytest.raises(LexError):
            parse_expression(f"select(orders, customer = 7{digits})")


class TestStringAgainstNumber:
    ROWS = [(1, "x"), (2, "y")]

    @pytest.fixture
    def session(self):
        schema = DatabaseSchema(
            [
                RelationSchema("t", [("a", INT), ("s", STRING)]),
                RelationSchema("u", [("b", INT)]),
            ]
        )
        database = Database(schema)
        database.load("t", self.ROWS)
        database.load("u", [(1,), (2,)])
        return Session(database)

    @pytest.mark.parametrize(
        "text",
        [
            "begin delete(t, select(t, s < 3)); end",
            "begin update(t, a = 1, s := s + 1); end",
            "begin update(t, s >= 3, a := 0); end",
            "begin x := project(t, [s - 1 as less]); end",
            "begin x := project(t, [s / 2 as half]); end",
            "begin insert(u, project(join(t, u, left.a = right.b and left.s < right.b), [a])); end",
            "begin delete(u, semijoin(u, t, left.b = right.a and right.s > left.b)); end",
            "begin insert(u, (9)); delete(t, select(t, s < 3)); end",
        ],
    )
    def test_a_transaction_aborts_with_a_runtime_error(self, session, text):
        manager = session.manager
        result = session.execute(text)
        assert result.aborted and not result.committed
        assert result.reason.startswith("runtime error: ")
        assert "str" in result.reason and "int" in result.reason
        assert (manager.executed, manager.committed, manager.aborted) == (1, 0, 1)
        assert session.rows("t") == self.ROWS
        assert session.rows("u") == [(1,), (2,)]
        assert session.database.logical_time == 0
        # The session is as good as new: the next transaction commits.
        assert session.execute("begin insert(u, (3)); end").committed
        assert (manager.executed, manager.committed, manager.aborted) == (2, 1, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "select(t, s < 3)",
            "select(t, a = 1 and s <= 3)",
            "project(t, [s + 1 as more])",
            "project(t, [a - s as less])",
            "join(t, u, left.a = right.b and left.s > right.b)",
            "antijoin(t, u, left.a = right.b and left.s < 1)",
            "join(t, u, left.s < right.b)",
        ],
    )
    def test_a_query_raises_it_as_the_reference_does(self, session, text):
        for pinned in (False, True):
            with pytest.raises(TypeMismatchError) as raised:
                session.query(text, pinned=pinned)
            with pytest.raises(TypeMismatchError) as reference:
                parse_expression(text).evaluate(DatabaseView(session.database))
            assert str(raised.value) == str(reference.value)

    def test_equality_and_null_never_raise(self, session):
        assert session.rows("select(t, s = 3)") == []
        assert session.rows("select(t, s != 3)") == self.ROWS
        assert session.rows("select(t, s < null)") == []

    def test_the_calculus_evaluator_raises_it_too(self, session):
        view = DatabaseView(session.database)
        for text in (
            "(forall x)(x in t => x.s < 3)",
            "(forall x)(x in t => x.s + 1 = 3)",
            "(forall x)(x in t => x.s / 2 = 3)",
        ):
            with pytest.raises(TypeMismatchError):
                evaluate_constraint(parse_constraint(text), view, validate=False)
