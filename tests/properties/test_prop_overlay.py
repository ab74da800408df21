"""Property: overlay transactions are observationally equivalent to the
eager-copy semantics they replaced.

The PR 4 write path carries all transaction-local state in the
``(base, Δ⁺, Δ⁻)`` overlay and commits by applying the net delta in place.
This suite pins the old copy-on-write behaviour as the reference: an
``EagerContext`` reimplements the pre-overlay ``TransactionContext``
verbatim (full ``Relation.copy`` on first write, differential maintenance
beside the copy, wholesale ``Database.install`` on commit) and random
transactions are executed against both, comparing every observable at every
step — mid-transaction reads of base and auxiliary relations, expression
evaluations by plan and by reference interpreter, index-probe answers, committed database
states, integrity verdicts, and abort/rollback — in set and bag mode, with
and without hash indexes.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.physical import LiteralOp
from repro.algebra.statements import Assign, Delete, Insert
from repro.engine import Database, OverlayRelation, naming
from repro.engine.transaction import TransactionContext
from repro.engine.types import NULL
from repro.errors import ReproError, UnknownRelationError
from tests.support.reference import EVALUATORS

from . import strategies as S

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class EagerContext(TransactionContext):
    """The pre-overlay transaction context, kept verbatim as the oracle."""

    def _working_copy(self, base: str):
        relation = self.working.get(base)
        if relation is None:
            relation = self.database.relation(base).copy()
            self.working[base] = relation
        return relation

    def insert_rows(self, base, rows):
        target = self._working_copy(base)
        plus = self._differential(self._plus, base)
        minus = self._differential(self._minus, base)
        changed = 0
        for row in rows:
            row = target.schema.validate_tuple(tuple(row))
            if target.insert(row, _validated=True):
                changed += 1
                if not minus.delete(row):
                    plus.insert(row, _validated=True)
        self.tuples_inserted += changed
        return changed

    def delete_rows(self, base, rows):
        target = self._working_copy(base)
        plus = self._differential(self._plus, base)
        minus = self._differential(self._minus, base)
        changed = 0
        for row in list(rows):
            row = tuple(row)
            if target.delete(row):
                changed += 1
                if not plus.delete(row):
                    minus.insert(row, _validated=True)
        self.tuples_deleted += changed
        return changed

    def commit(self):
        differentials = {
            base: (self._plus.get(base), self._minus.get(base))
            for base in self.working
        }
        self.database.apply_deltas(differentials)
        for base, working in self.working.items():
            assert self.database.relation(base) == working, base


#: Rows no drawn statement can touch: keys outside the probed -1..6 domain,
#: second column outside the values an update compares against.  Eight of
#: them keep a commit (which removes at most the eight drawn rows) from
#: filing more rows than the relation holds, so an indexed commit never
#: sends its index back to declared and the maintained buckets stay checkable.
_PADDING = tuple((key, 9) for key in range(100, 108))


def _database(rows_r, rows_s, bag: bool, indexed: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    if indexed:
        database.load("r", _PADDING)
        database.load("s", _PADDING)
        database.create_index("r", ["a"])
        database.create_index("s", ["c"])
    return database


def _contents(relation) -> dict:
    return dict(relation.items())


def _assert_same_relation(mine, reference, what: str) -> None:
    assert _contents(mine) == _contents(reference), (
        f"{what}: overlay {sorted(_contents(mine).items(), key=repr)} != "
        f"eager {sorted(_contents(reference).items(), key=repr)}"
    )
    assert len(mine) == len(reference), what
    assert mine.distinct_count() == reference.distinct_count(), what
    assert bool(mine) == bool(reference), what


_PROBES = (
    E.RelationRef("r"),
    E.RelationRef("r@plus"),
    E.RelationRef("r@minus"),
    E.RelationRef("r@old"),
    E.RelationRef("s"),
    E.Select(
        E.RelationRef("r"),
        P.Comparison("=", P.ColRef("a"), P.Const(1)),
    ),
    E.SemiJoin(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
    ),
    E.AntiJoin(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef("a", "left"), P.ColRef("c", "right")),
    ),
    E.Union(E.RelationRef("r"), E.RelationRef("s")),
    E.Difference(E.RelationRef("r"), E.RelationRef("r@minus")),
)


def _assert_observationally_equal(overlay_ctx, eager_ctx, evaluate) -> None:
    for name in ("r", "s", "r@plus", "r@minus", "r@old", "s@plus"):
        _assert_same_relation(
            overlay_ctx.resolve(name), eager_ctx.resolve(name), f"resolve({name})"
        )
    # Point reads over the value domain.
    for row in [(a, b) for a in range(-1, 7) for b in range(-1, 7)]:
        mine = overlay_ctx.resolve("r")
        reference = eager_ctx.resolve("r")
        assert (row in mine) == (row in reference), f"membership {row}"
        assert mine.multiplicity(row) == reference.multiplicity(row), row
    # Expression evaluation over both contexts, selected evaluator.
    for probe in _PROBES:
        mine = evaluate(probe, overlay_ctx)
        reference = evaluate(probe, eager_ctx)
        assert mine == reference, f"probe {probe}"
        assert mine.sorted_rows() == reference.sorted_rows(), f"probe {probe}"
    assert (
        overlay_ctx.net_differentials().keys()
        == eager_ctx.net_differentials().keys()
    )
    for base, (plus, minus) in overlay_ctx.net_differentials().items():
        ref_plus, ref_minus = eager_ctx.net_differentials()[base]
        for mine, reference in ((plus, ref_plus), (minus, ref_minus)):
            mine_rows = {} if mine is None else _contents(mine)
            ref_rows = {} if reference is None else _contents(reference)
            assert mine_rows == ref_rows, base
    assert overlay_ctx.performed_triggers() == eager_ctx.performed_triggers()


def _assert_index_probes_agree(overlay_ctx, indexed: bool) -> None:
    """Overlay index-probe answers must match a brute-force scan."""
    if not indexed:
        return
    overlay = overlay_ctx._working_copy("r")
    assert isinstance(overlay, OverlayRelation)
    index = overlay.built_index((0,))
    assert index is not None
    for key in range(-1, 7):
        expected = sorted(
            (row for row in overlay.rows() if row[0] == key), key=repr
        )
        assert sorted(index.lookup(key), key=repr) == expected, key
        bucket = index.buckets.get(key)
        assert sorted(bucket or (), key=repr) == expected, key
        assert (key in index.buckets) == bool(expected), key
    assert sorted(index.buckets) == sorted(
        {row[0] for row in overlay.rows()}
    )


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
    evaluator=st.sampled_from(EVALUATORS),
)
@_SETTINGS
def test_overlay_transactions_match_eager_copy_semantics(
    rows_r, rows_s, txn, bag, indexed, evaluator
):
    _, evaluate = evaluator
    overlay_db = _database(rows_r, rows_s, bag, indexed)
    eager_db = _database(rows_r, rows_s, bag, indexed)
    overlay_ctx = TransactionContext(overlay_db)
    eager_ctx = EagerContext(eager_db)
    for statement in txn.statements:
        statement.execute(overlay_ctx)
        statement.execute(eager_ctx)
        _assert_observationally_equal(overlay_ctx, eager_ctx, evaluate)
    _assert_index_probes_agree(overlay_ctx, indexed)
    overlay_ctx.commit()
    eager_ctx.commit()
    for name in ("r", "s"):
        _assert_same_relation(
            overlay_db.relation(name),
            eager_db.relation(name),
            f"committed {name}",
        )
        if indexed:
            # In-place application must leave the maintained index exactly
            # where a from-scratch build would land.
            index = overlay_db.relation(name).built_index((0,))
            assert index is not None
            assert sorted(index.buckets) == sorted(
                {row[0] for row in overlay_db.relation(name).rows()}
            )
    assert overlay_db.logical_time == eager_db.logical_time


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
    indexed=st.booleans(),
)
@_SETTINGS
def test_overlay_rollback_restores_the_pre_state(
    rows_r, rows_s, txn, bag, indexed
):
    database = _database(rows_r, rows_s, bag, indexed)
    before = {name: _contents(database.relation(name)) for name in ("r", "s")}
    time_before = database.logical_time
    context = TransactionContext(database)
    for statement in txn.statements:
        statement.execute(context)
    context.rollback()
    for name in ("r", "s"):
        assert _contents(database.relation(name)) == before[name], name
    assert database.logical_time == time_before
    assert context.net_differentials() == {}


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    txn=S.transactions(),
    bag=st.booleans(),
)
@_SETTINGS
def test_aborting_transactions_leave_no_trace(rows_r, rows_s, txn, bag):
    from repro.algebra.programs import Program, bracket
    from repro.algebra.statements import Abort
    from repro.engine import Session

    database = _database(rows_r, rows_s, bag, indexed=False)
    before = {name: _contents(database.relation(name)) for name in ("r", "s")}
    aborting = bracket(Program(list(txn.statements) + [Abort("forced")]))
    result = Session(database).execute(aborting)
    assert result.aborted
    for name in ("r", "s"):
        assert _contents(database.relation(name)) == before[name], name
    assert database.logical_time == 0


@given(
    database=S.databases(),
    txns=st.lists(S.transactions(), min_size=1, max_size=5),
    bag=st.booleans(),
    release_early=st.booleans(),
)
@_SETTINGS
def test_pinned_epoch_reads_equal_eager_copy_oracle(
    database, txns, bag, release_early
):
    """Epoch-pinned snapshot reads are observationally identical to an
    eager deep copy taken at the same instant, no matter how many commits
    land between the pin and the read — the O(Δ) reconstruction never
    drifts from the O(n) oracle it replaced."""
    from collections import Counter

    from repro.engine import Database, Session

    if bag:  # rebuild the drawn database in bag mode
        rebuilt = Database(S.rs_schema(), bag=True)
        for name in ("r", "s"):
            rebuilt.load(name, list(database.relation(name).rows()))
        database = rebuilt
    session = Session(database)
    oracle = []  # (pin, {name: eager copy at pin time})

    def take_pin():
        pin = database.epochs.pin()
        copies = {
            name: database.relation(name).copy() for name in ("r", "s")
        }
        oracle.append((pin, copies))

    def check_all():
        for pin, copies in oracle:
            for name in ("r", "s"):
                snapshot = pin.relation(name)
                assert Counter(snapshot.rows()) == Counter(
                    copies[name].rows()
                ), f"pinned {name} diverged from the eager copy"
                assert snapshot.sorted_rows() == copies[name].sorted_rows()
                assert len(snapshot) == len(copies[name])

    take_pin()
    for index, txn in enumerate(txns):
        session.execute(txn)
        take_pin()
        check_all()
        if release_early and len(oracle) > 2:
            pin, _ = oracle.pop(0)  # reclamation must not disturb the rest
            pin.release()
            check_all()
    for pin, _ in oracle:
        pin.release()


# -- a name resolved once ≡ a name resolved every time --------------------------


class RecomputingContext(TransactionContext):
    """``resolve`` as it was before it kept its answers: worked out, name
    split and all, on every call — the oracle for the memoised one."""

    def resolve(self, name):
        if name in self.temps:
            return self.temps[name]
        base, suffix = naming.split_auxiliary(name)
        if suffix is None:
            if base in self.working:
                return self.working[base]
            return self.database.relation(base)
        if base not in self.database:
            raise UnknownRelationError(base)
        if suffix == naming.OLD_SUFFIX:
            return self.database.relation(base)
        if suffix == naming.PLUS_SUFFIX:
            return self._differential(self._plus, base)
        return self._differential(self._minus, base)


_NAMES = st.sampled_from(
    [
        "r", "s", "r@plus", "r@minus", "r@old", "s@plus", "s@minus", "s@old",
        "t", "u", "nope", "nope@plus", "t@old",
    ]
)
_ROWS = st.lists(st.tuples(S.VALUES, S.VALUES), min_size=1, max_size=3)
_TEMP_VALUES = st.one_of(
    _NAMES.map(E.RelationRef),
    _ROWS.map(lambda rows: E.Literal(tuple(rows))),
    st.sampled_from(_PROBES),
)


@st.composite
def _name_programs(draw):
    """Steps that read names around whatever can change what they denote:
    first writes, rebinding assignments, aborts."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.integers(min_value=0, max_value=6))
        if kind <= 1:
            steps.append(("read", draw(_NAMES)))
        elif kind == 2:
            steps.append(("evaluate", draw(st.sampled_from(_PROBES))))
        elif kind == 3:
            relation = draw(st.sampled_from(["r", "s"]))
            steps.append(("run", Insert(relation, E.Literal(tuple(draw(_ROWS))))))
        elif kind == 4:
            relation = draw(st.sampled_from(["r", "s"]))
            steps.append(("run", Delete(relation, E.Literal(tuple(draw(_ROWS))))))
        elif kind == 5:
            target = draw(st.sampled_from(["t", "u", "r", "t@plus"]))
            steps.append(("run", Assign(target, draw(_TEMP_VALUES))))
        else:
            steps.append(("rollback", None))
    return steps


def _observe(step, context, evaluate):
    """What one step shows of the context: a relation's contents, or the
    error it raised."""
    kind, payload = step
    try:
        if kind == "read":
            relation = context.resolve(payload)
        elif kind == "evaluate":
            relation = evaluate(payload, context)
        elif kind == "run":
            payload.execute(context)
            return ("ran", context.tuples_inserted, context.tuples_deleted)
        else:
            context.rollback()
            return ("rolled back",)
    except ReproError as error:
        return ("raised", type(error), str(error))
    return ("rows", _contents(relation), len(relation), relation.schema.arity)


@given(
    rows_r=S.ROWS_R,
    rows_s=S.ROWS_S,
    steps=_name_programs(),
    bag=st.booleans(),
    indexed=st.booleans(),
    evaluator=st.sampled_from(EVALUATORS),
)
@_SETTINGS
def test_names_resolved_once_match_names_resolved_every_time(
    rows_r, rows_s, steps, bag, indexed, evaluator
):
    _, evaluate = evaluator
    memo_db = _database(rows_r, rows_s, bag, indexed)
    oracle_db = _database(rows_r, rows_s, bag, indexed)
    memo_ctx = TransactionContext(memo_db)
    oracle_ctx = RecomputingContext(oracle_db)
    for position, step in enumerate(steps):
        mine = _observe(step, memo_ctx, evaluate)
        reference = _observe(step, oracle_ctx, evaluate)
        assert mine == reference, f"step {position}: {step}"
        # Every name, after every step: what changed must show, what did
        # not must still be there.
        for name in ("r", "s", "r@plus", "r@minus", "r@old", "s@plus", "t", "u"):
            assert _observe(("read", name), memo_ctx, evaluate) == _observe(
                ("read", name), oracle_ctx, evaluate
            ), f"after step {position} ({step}): {name}"
    assert memo_ctx.performed_triggers() == oracle_ctx.performed_triggers()
    memo_ctx.commit()
    oracle_ctx.commit()
    for name in ("r", "s"):
        _assert_same_relation(
            memo_db.relation(name), oracle_db.relation(name), f"committed {name}"
        )


# -- a literal handed over as data ≡ a literal evaluated into a relation --------


def _through_a_literal_plan(statement, context) -> None:
    """``Insert`` / ``Delete`` of a literal as they ran before the rows went
    straight to the relation: lowered to a ``LiteralOp``, executed into an
    intermediate ``Relation``, and that handed over."""
    source = LiteralOp(statement.expr.rows).execute(context)
    if isinstance(statement, Insert):
        context.insert_rows(statement.relation, source)
    else:
        context.delete_rows(statement.relation, source)


#: Values that collide as dict keys across types (1 == 1.0 == True), fit or
#: miss an INT column, and rows of the wrong arity.
_LOOSE_VALUES = st.one_of(
    S.VALUES, st.sampled_from([1.0, 2.5, True, False, "1", NULL, -1])
)
_LOOSE_ROWS = st.one_of(  # one arity per literal: a literal checks that much
    st.lists(st.tuples(S.VALUES, S.VALUES), max_size=5),
    st.lists(
        st.one_of(
            st.tuples(S.VALUES, S.VALUES), st.tuples(_LOOSE_VALUES, _LOOSE_VALUES)
        ),
        max_size=5,
    ),
    st.lists(st.tuples(_LOOSE_VALUES), max_size=3),
    st.lists(st.tuples(_LOOSE_VALUES, _LOOSE_VALUES, _LOOSE_VALUES), max_size=3),
)


@given(
    rows_r=S.ROWS_R,
    batches=st.lists(
        st.tuples(st.sampled_from([Insert, Delete]), _LOOSE_ROWS),
        min_size=1,
        max_size=5,
    ),
    bag=st.booleans(),
    duplicate_base_rows=st.booleans(),
)
@_SETTINGS
def test_literal_rows_as_data_match_the_literal_plan_route(
    rows_r, batches, bag, duplicate_base_rows
):
    if bag and duplicate_base_rows:
        rows_r = rows_r + rows_r
    direct_db = _database(rows_r, [], bag, indexed=False)
    planned_db = _database(rows_r, [], bag, indexed=False)
    direct_ctx = TransactionContext(direct_db)
    planned_ctx = TransactionContext(planned_db)
    for ctor, rows in batches:
        rows = tuple(rows)
        rows = rows + rows[:1]  # a duplicate in the literal itself
        statement = ctor("r", E.Literal(rows))
        outcomes = []
        for run, context in (
            (statement.execute, direct_ctx),
            (lambda ctx: _through_a_literal_plan(statement, ctx), planned_ctx),
        ):
            try:
                run(context)
                outcomes.append(None)
            except ReproError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1], f"{statement}"
        assert (direct_ctx.tuples_inserted, direct_ctx.tuples_deleted) == (
            planned_ctx.tuples_inserted,
            planned_ctx.tuples_deleted,
        ), f"{statement}"
        for name in ("r", "r@plus", "r@minus"):
            mine, reference = direct_ctx.resolve(name), planned_ctx.resolve(name)
            _assert_same_relation(mine, reference, f"{name} after {statement}")
            # Same spelling of equal values (1 / 1.0 / True), same order.
            assert list(map(repr, mine.items())) == list(
                map(repr, reference.items())
            ), f"{name} after {statement}"
    direct_ctx.commit()
    planned_ctx.commit()
    _assert_same_relation(
        direct_db.relation("r"), planned_db.relation("r"), "committed r"
    )
