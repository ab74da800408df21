"""Materialized views maintained via transaction modification."""

import pytest

from repro.engine import Session
from repro.errors import RuleError, UnknownRelationError
from repro.views import ViewManager
from repro.workloads.beer import beer_controller, beer_database


@pytest.fixture
def setup():
    db = beer_database(beers=10, breweries=4)
    controller = beer_controller()
    session = Session(db, controller)
    manager = ViewManager(db, controller)
    return db, controller, session, manager


class TestDefinition:
    def test_initial_population(self, setup):
        db, _, _, manager = setup
        view = manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        expected = {
            row for row in db.relation("beer").rows() if row[3] >= 6.0
        }
        assert db.relation("strong").to_set() == frozenset(expected)
        assert view.mode == "differential"
        assert view.base_relations == ("beer",)

    def test_recompute_mode_for_complex_views(self, setup):
        # An aggregate over a changed input has no delta rule.
        _, controller, _, manager = setup
        view = manager.define_view("beer_count", "cnt(beer)")
        assert view.mode == "recompute"
        assert controller.store.get("view::beer_count").differentials is None

    @pytest.mark.parametrize(
        "expression",
        [
            "project(join(beer, brewery, left.brewery = right.name), [1, 5])",
            "semijoin(beer, brewery, left.brewery = right.name)",
            "antijoin(brewery, beer, left.name = right.brewery)",
            "union(select(beer, alcohol >= 8.0), select(beer, alcohol < 4.0))",
            "diff(beer, select(beer, alcohol >= 6.0))",
            "intersect(beer, select(beer, alcohol >= 6.0))",
            "project(beer, [brewery])",
        ],
    )
    def test_incrementalizable_views_store_delta_pieces(self, setup, expression):
        _, controller, _, manager = setup
        view = manager.define_view("v", expression)
        assert view.mode == "differential"
        stored = controller.store.get("view::v")
        assert set(stored.differentials) == stored.triggers
        for piece in stored.differentials.values():
            assert piece.non_triggering
            assert piece.update_triggers() == frozenset()

    def test_duplicate_name_rejected(self, setup):
        _, _, _, manager = setup
        manager.define_view("v1", "select(beer, alcohol >= 6.0)")
        with pytest.raises(RuleError):
            manager.define_view("v1", "select(beer, alcohol >= 6.0)")

    def test_unknown_base_rejected(self, setup):
        _, _, _, manager = setup
        with pytest.raises(UnknownRelationError):
            manager.define_view("v2", "select(ghost, true)")

    def test_mode_is_not_a_parameter(self, setup):
        _, _, _, manager = setup
        with pytest.raises(TypeError):
            manager.define_view("v3", "union(beer, beer)", mode="differential")

    def test_auxiliary_base_rejected(self, setup):
        _, _, _, manager = setup
        with pytest.raises(RuleError):
            manager.define_view("v4", "select(beer@plus, true)")


class TestMaintenance:
    def test_insert_updates_differential_view(self, setup):
        db, _, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        result = session.execute(
            'begin insert(beer, ("mega", "quad", "brewery_1", 11.0)); end'
        )
        assert result.committed
        assert ("mega", "quad", "brewery_1", 11.0) in db.relation("strong")
        assert manager.verify_view("strong")

    def test_weak_insert_not_in_view(self, setup):
        db, _, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        session.execute('begin insert(beer, ("light", "lager", "brewery_1", 2.0)); end')
        assert ("light", "lager", "brewery_1", 2.0) not in db.relation("strong")
        assert manager.verify_view("strong")

    def test_delete_updates_view(self, setup):
        db, _, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        strong_rows = list(db.relation("strong").rows())
        if not strong_rows:
            pytest.skip("fixture has no strong beers")
        victim = strong_rows[0]
        session.execute(f'begin delete(beer, where name = "{victim[0]}"); end')
        assert victim not in db.relation("strong")
        assert manager.verify_view("strong")

    def test_recompute_view_tracks_changes(self, setup):
        db, _, session, manager = setup
        manager.define_view("beer_count", "cnt(beer)")
        session.execute(
            'begin insert(beer, ("new", "ale", "brewery_0", 5.0)); end'
        )
        assert db.relation("beer_count").to_set() == {(11,)}
        assert manager.verify_view("beer_count")

    def test_join_view_tracks_inserts_and_deletes(self, setup):
        db, _, session, manager = setup
        manager.define_view(
            "catalog",
            "project(join(beer, brewery, left.brewery = right.name), [1, 5])",
        )
        session.execute(
            'begin insert(beer, ("new", "ale", "brewery_0", 5.0)); end'
        )
        assert manager.verify_view("catalog")
        session.execute('begin delete(brewery, where name = "brewery_0"); end')
        assert manager.verify_view("catalog")

    def test_only_matched_pieces_are_appended(self, setup):
        _, controller, session, manager = setup
        manager.define_view(
            "catalog",
            "project(join(beer, brewery, left.brewery = right.name), [1, 5])",
        )
        stored = controller.store.get("view::catalog")
        piece = stored.action_for({("INS", "beer")})
        assert piece == stored.differentials[("INS", "beer")]
        assert piece.non_triggering
        transaction = session.transaction(
            'begin insert(beer, ("new", "ale", "brewery_0", 5.0)); end'
        )
        modified = controller.modify_transaction(transaction)
        for statement in piece:
            assert statement in modified.statements
        assert "__view_catalog" not in {
            getattr(statement, "name", None) for statement in modified.statements
        }

    def test_view_maintenance_does_not_trigger_rules(self, setup):
        db, controller, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        # The maintenance program writes into "strong"; if it triggered
        # rules, modification would loop. One round must suffice.
        session.execute('begin insert(beer, ("x", "ale", "brewery_0", 8.0)); end')
        assert controller.last_stats.rounds <= 2

    def test_abort_leaves_view_untouched(self, setup):
        db, _, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        before = db.relation("strong").to_set()
        result = session.execute(
            'begin insert(beer, ("bad", "ale", "brewery_0", -3.0)); end'
        )
        assert result.aborted
        assert db.relation("strong").to_set() == before

    def test_update_statement_maintains_view(self, setup):
        db, _, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        session.execute(
            "begin update(beer, alcohol >= 5.0, alcohol := alcohol + 3.0); end"
        )
        assert manager.verify_view("strong")


class TestDropView:
    def test_drop_stops_maintenance(self, setup):
        db, controller, session, manager = setup
        manager.define_view("strong", "select(beer, alcohol >= 6.0)")
        manager.drop_view("strong")
        assert "view::strong" not in controller.store
        session.execute('begin insert(beer, ("y", "ale", "brewery_0", 9.0)); end')
        assert ("y", "ale", "brewery_0", 9.0) not in db.relation("strong")


class TestBagDatabase:
    def test_view_keeps_multiplicities(self):
        from repro.core.subsystem import IntegrityController
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT

        schema = DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])])
        db = Database(schema, bag=True)
        db.load("r", [(1, 1), (1, 1)])
        controller = IntegrityController(schema)
        manager = ViewManager(db, controller)
        view = manager.define_view("v", "select(r, a >= 1)")
        assert view.mode == "recompute"
        assert db.relation("v").multiplicity((1, 1)) == 2
        result = Session(db, controller).execute("begin delete(r, (1, 1)); end")
        assert result.committed
        assert db.relation("r").multiplicity((1, 1)) == 1
        assert db.relation("v").multiplicity((1, 1)) == 1
        assert manager.verify_view("v")


class TestCompensation:
    """A compensating rule that undoes the user's insert after the view's
    pieces were selected: the pieces run after the rule's last write."""

    def test_view_defined_before_a_compensating_rule(self):
        from repro.core.subsystem import IntegrityController
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT

        schema = DatabaseSchema(
            [
                RelationSchema("r", [("a", INT), ("b", INT)]),
                RelationSchema("s", [("c", INT)]),
            ]
        )
        db = Database(schema)
        db.load("r", [(1, 1)])
        db.load("s", [(5,)])
        controller = IntegrityController(schema)
        manager = ViewManager(db, controller)
        manager.define_view("big", "select(r, a >= 3)")
        manager.define_view("joined", "semijoin(s, r, left.c = right.a)")
        controller.add_rule(
            "RULE cap WHEN INS(r) IF NOT (forall x)(x in r => x.a <= 4) "
            "THEN t := select(r, a > 4); delete(r, t)"
        )
        result = Session(db, controller).execute("begin insert(r, (5, 0)); end")
        assert result.committed
        assert db.relation("r").to_set() == {(1, 1)}
        assert db.relation("big").to_set() == frozenset()
        assert db.relation("joined").to_set() == frozenset()
        assert manager.verify_view("big")
        assert manager.verify_view("joined")


class TestReadsOfAView:
    """A view is refreshed after ModP's fixpoint, by a non-triggering
    program, so nothing else may read one: neither a rule's condition (it
    would check the view's stale contents) nor another view (nothing would
    refresh it)."""

    @pytest.fixture
    def r_with_view(self):
        from repro.core.subsystem import IntegrityController
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT

        schema = DatabaseSchema([RelationSchema("r", [("a", INT), ("b", INT)])])
        db = Database(schema)
        db.load("r", [(1, 1)])
        controller = IntegrityController(schema)
        manager = ViewManager(db, controller)
        manager.define_view("v", "select(r, a >= 1)")
        return db, controller, manager

    def test_a_constraint_over_a_view_is_refused(self, r_with_view):
        db, controller, _ = r_with_view
        with pytest.raises(RuleError, match="'v'"):
            controller.add_constraint("v_small", "(forall x in v)(x.a < 9)")
        assert controller.rules == []
        assert Session(db, controller).execute(
            "begin insert(r, (10, 10)); end"
        ).committed

    def test_a_rule_reading_a_view_is_refused(self, r_with_view):
        _, controller, _ = r_with_view
        with pytest.raises(RuleError, match="'v'"):
            controller.add_rule(
                "RULE cap WHEN INS(r) IF NOT (forall x in r)((exists y in v)"
                "(x.a = y.a)) THEN delete(r, select(r, a > 4))"
            )

    def test_a_view_over_a_view_is_refused(self, r_with_view):
        db, controller, manager = r_with_view
        with pytest.raises(RuleError, match="'v'"):
            manager.define_view("w", "select(v, a >= 2)")
        assert "w" not in db
        assert "view::w" not in controller.store

    def test_a_dropped_view_is_a_plain_relation(self, r_with_view):
        _, controller, manager = r_with_view
        manager.drop_view("v")
        controller.add_constraint("v_small", "(forall x in v)(x.a < 9)")
        manager.define_view("w", "select(v, a >= 2)")
