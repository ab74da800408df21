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
from repro.engine import Database, OverlayRelation
from repro.engine.transaction import TransactionContext
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
        self.database.install(self.working, differentials=differentials)


def _database(rows_r, rows_s, bag: bool, indexed: bool) -> Database:
    database = Database(S.rs_schema(), bag=bag)
    database.load("r", rows_r)
    database.load("s", rows_s)
    if indexed:
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
