"""The IntegrityController facade."""

import pytest

from repro.core.modification import DynamicSelector, StaticSelector, mod_p, mod_t
from repro.core.subsystem import IntegrityController
from repro.core.triggers import DEL, INS
from repro.engine import Session
from repro.errors import (
    AnalysisError,
    RuleError,
    UnknownRelationError,
)
from repro.workloads.beer import BEER_RULE_DOMAIN, BEER_RULE_REFERENTIAL


class TestRuleManagement:
    def test_add_rule_from_text(self, schema):
        controller = IntegrityController(schema)
        rule = controller.add_rule(BEER_RULE_DOMAIN)
        assert rule.name == "R1"
        assert "R1" in controller.store
        assert controller.rule("R1") is rule

    def test_add_constraint_default_abort(self, schema):
        controller = IntegrityController(schema)
        rule = controller.add_constraint(
            "alc", "(forall x in beer)(x.alcohol >= 0)"
        )
        assert rule.is_aborting
        assert rule.triggers == {(INS, "beer")}

    def test_add_constraint_with_program_response(self, schema):
        controller = IntegrityController(schema)
        rule = controller.add_constraint(
            "alc",
            "(forall x in beer)(x.alcohol >= 0)",
            response="delete(beer, where alcohol < 0)",
        )
        assert rule.is_compensating

    def test_duplicate_name_rejected(self, schema):
        controller = IntegrityController(schema)
        controller.add_constraint("alc", "(forall x in beer)(x.alcohol >= 0)")
        with pytest.raises(RuleError):
            controller.add_constraint("alc", "(forall x in beer)(x.alcohol >= 0)")

    def test_remove_rule(self, schema):
        controller = IntegrityController(schema)
        controller.add_constraint("alc", "(forall x in beer)(x.alcohol >= 0)")
        controller.remove_rule("alc")
        assert controller.rules == []
        assert "alc" not in controller.store
        with pytest.raises(RuleError):
            controller.rule("alc")

    def test_unknown_mode_rejected(self, schema):
        # Modification has one path: no mode, the former two included, is
        # an option any more.
        for mode in ("lazy", "static", "dynamic"):
            with pytest.raises(TypeError):
                IntegrityController(schema, mode=mode)


class TestSchemaValidation:
    def test_unknown_relation_rejected(self, schema):
        controller = IntegrityController(schema)
        with pytest.raises(UnknownRelationError):
            controller.add_constraint("bad", "(forall x in ghost)(x.a > 0)")

    def test_unknown_attribute_rejected(self, schema):
        controller = IntegrityController(schema)
        with pytest.raises(AnalysisError):
            controller.add_constraint("bad", "(forall x in beer)(x.proof >= 0)")

    def test_position_out_of_range_rejected(self, schema):
        controller = IntegrityController(schema)
        with pytest.raises(AnalysisError):
            controller.add_constraint("bad", "(forall x in beer)(x.9 >= 0)")

    def test_aggregate_attribute_checked(self, schema):
        controller = IntegrityController(schema)
        with pytest.raises(AnalysisError):
            controller.add_constraint("bad", "SUM(beer, proof) >= 0")

    def test_auxiliary_relations_resolve_to_base(self, schema):
        controller = IntegrityController(schema)
        controller.add_constraint(
            "aux", "(forall x in beer@old)(x.alcohol >= 0)",
            triggers=[("INS", "beer")],
        )

    def test_action_reading_unknown_relation_rejected(self, schema):
        controller = IntegrityController(schema)
        with pytest.raises(UnknownRelationError):
            controller.add_constraint(
                "bad",
                "(forall x in beer)(x.alcohol >= 0)",
                response="insert(beer, ghost)",
            )

    def test_action_may_read_own_temporaries(self, schema):
        controller = IntegrityController(schema)
        controller.add_constraint(
            "ok",
            "(forall x in beer)(x.alcohol >= 0)",
            response="t := select(beer, alcohol < 0); delete(beer, t)",
        )


class TestEnforcementModes:
    def test_modification_enforces(self, db, schema):
        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        session = Session(db, controller)
        result = session.execute(
            'begin insert(beer, ("bad", "ale", "heineken", -1.0)); end'
        )
        assert result.aborted
        assert controller.last_stats is not None
        assert controller.modifications == 1

    def test_static_and_dynamic_produce_same_transaction(self, schema):
        # The controller's one path (the store's memo, Alg 6.2) and the
        # paper's per-modification scheme (Alg 5.1-5.3) agree.
        from repro.algebra.parser import parse_transaction

        controller = IntegrityController(schema, differential=False)
        controller.add_rule(BEER_RULE_DOMAIN)
        controller.add_rule(BEER_RULE_REFERENTIAL)
        txn_text = 'begin insert(beer, ("b", "ale", "heineken", 4.0)); end'
        static_result = controller.modify_transaction(parse_transaction(txn_text))
        dynamic_result = mod_t(
            parse_transaction(txn_text), DynamicSelector(controller.rules, schema)
        )
        assert static_result.statements == dynamic_result.statements

    def test_modify_program_inspection(self, schema):
        from repro.algebra.parser import parse_program

        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        program = parse_program('insert(beer, ("b", "ale", "h", 4.0))')
        modified = mod_p(program, StaticSelector(controller.store))
        assert len(modified) == 2


class TestWitnessChain:
    """A rule whose witness is a chain of two relations, with a transaction
    that deletes both links.  Each link's delta program must read the other
    link's pre-state, or neither sees the chain that held before."""

    RULE = (
        "(forall p)(p in a => (exists q)(q in b and q.x = p.x and "
        "(exists r)(r in c and r.y = q.y)))"
    )
    TXN = "begin delete(b, (1, 10)); delete(c, (10)); end"

    @staticmethod
    def _setup(differential=True):
        from repro.calculus.parser import parse_constraint
        from repro.core.rules import IntegrityRule
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT

        schema = DatabaseSchema(
            [
                RelationSchema("a", [("x", INT)]),
                RelationSchema("b", [("x", INT), ("y", INT)]),
                RelationSchema("c", [("y", INT)]),
            ]
        )
        database = Database(schema)
        database.load("a", [(1,)])
        database.load("b", [(1, 10)])
        database.load("c", [(10,)])
        controller = IntegrityController(schema, differential=differential)
        controller.add_rule(
            IntegrityRule(parse_constraint(TestWitnessChain.RULE), name="chain")
        )
        return database, controller

    @pytest.mark.parametrize("differential", [True, False])
    def test_deleting_both_links_aborts(self, differential):
        database, controller = self._setup(differential)
        result = Session(database, controller).execute(self.TXN)
        assert result.aborted
        assert controller.violated_constraints(database) == []

    def test_sync_audit_reports_the_violation(self):
        database, controller = self._setup()
        result = Session(database, controller).commit(self.TXN, audit="sync")
        assert [(o.rule, o.violated) for o in result.audit] == [("chain", True)]
        assert controller.violated_constraints(database) == ["chain"]


class TestDirectChecking:
    def test_violated_constraints_empty_on_consistent_db(self, db, schema):
        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        controller.add_rule(BEER_RULE_REFERENTIAL)
        assert controller.violated_constraints(db) == []

    def test_violated_constraints_reports_names(self, db, schema):
        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        controller.add_rule(BEER_RULE_REFERENTIAL)
        db.load("beer", [("rogue", "ale", "nowhere", -2.0)])
        assert controller.violated_constraints(db) == ["R1", "R2"]

    def test_a_compensating_rules_full_audit_carries_a_sample(self, db, schema):
        # R2 repairs by inserting breweries: its audit runs the check
        # program of its condition, whose alarm yields the violating rows.
        from repro.workloads.beer import beer_controller

        session = Session(db, beer_controller())
        result = session.commit(
            'begin insert(beer, ("x", "ale", "nowhere", 5.0)); end', audit="sync"
        )
        outcomes = {outcome.rule: outcome for outcome in result.audit}
        assert outcomes["R2"].violated
        assert outcomes["R2"].violations == (("x", "ale", "nowhere", 5.0),)
        assert not outcomes["R1"].violated

    def test_validate_rules_returns_graph(self, schema):
        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        graph = controller.validate_rules()
        assert graph.is_acyclic


class TestPlannedEnforcement:
    """The physical-plan backend of the controller."""

    def test_rules_precompile_plans_at_definition_time(self, schema):
        from repro.algebra import planner

        planner.clear_plan_cache()
        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        controller.add_rule(BEER_RULE_REFERENTIAL)
        assert planner.plan_cache_info()["size"] > 0

    def test_planned_and_model_checker_audits_agree(self, db, schema):
        from repro.calculus.evaluation import violated_rules
        from repro.engine.session import DatabaseView

        controller = IntegrityController(schema)
        controller.add_rule(BEER_RULE_DOMAIN)
        controller.add_rule(BEER_RULE_REFERENTIAL)
        db.load("beer", [("rogue", "ale", "nowhere", -2.0)])
        planned = controller.violated_constraints(db)
        reference = violated_rules(controller.rules, DatabaseView(db))
        assert planned == reference == ["R1", "R2"]

    def test_install_indexes_declares_referential_indexes_the_audits_build(
        self, db, schema
    ):
        controller = IntegrityController(schema)
        # An aborting referential rule translates to an antijoin, whose
        # probe/build sides both produce index hints.
        controller.add_rule(
            """
            RULE fk_abort
            IF NOT (forall x)(x in beer =>
                   (exists y)(y in brewery and x.brewery = y.name))
            THEN abort
            """
        )
        installed = controller.install_indexes(db)
        assert ("beer", ("brewery",)) in installed
        assert ("brewery", ("name",)) in installed
        beer, brewery = db.relation("beer"), db.relation("brewery")
        assert None not in (beer.indexes.get((2,)), brewery.indexes.get((0,)))
        assert beer.built_index((2,)) is None and brewery.built_index((0,)) is None
        # Audits keep working, and the first builds both: each side would
        # otherwise pay a pass over its relation (hashing, row-wise probing).
        assert controller.violated_constraints(db) == []
        assert brewery.built_index((0,)) is not None
        assert beer.built_index((2,)) is not None

    def test_install_indexes_covers_a_repair_that_projects_foreign_keys(self):
        """The paper's R2 repair is a difference of two projections, and a
        projection reads rows: on the full state (``differential=False``)
        the repair is the rule's whole program, so nothing is hinted and
        the hire builds nothing.  Under ``differential=True`` the guard's
        Δ-checks and the body's Δ-read, ``π(emp@plus ⊳ dept)``, hint both
        foreign-key columns; the hire probes dept's index, and
        ``emp(dept_id)`` (the Δ-read of ``DEL(dept)``) stays declared."""
        from repro.workloads.employees import employees_database, employees_schema

        def controller_and_database(differential):
            controller = IntegrityController(
                employees_schema(), differential=differential
            )
            controller.add_rule(
                """
                RULE emp_dept_repair
                IF NOT (forall e)(e in emp => (exists d)(d in dept and e.dept_id = d.id))
                THEN missing := diff(project(emp, [dept_id]), project(dept, [id]));
                     insert(dept, project(missing,
                         [dept_id as id, "unassigned" as name, null as city]))
                """
            )
            return controller, employees_database(employees=50, departments=5)

        for differential in (False, True):
            controller, database = controller_and_database(differential)
            declared = controller.install_indexes(database)
            emp, dept = database.relation("emp"), database.relation("dept")
            session = Session(database, controller)
            if differential:
                assert declared == [("dept", ("id",)), ("emp", ("dept_id",))]
                # A commit the repair does not check (an insert into dept)
                # files into no index: both are only declared.
                assert session.execute('begin insert(dept, (41, "d", "c")); end').committed
                assert emp.built_index((2,)) is None and dept.built_index((0,)) is None
                assert emp.indexes.get((2,)).buckets == {} == dept.indexes.get((0,)).buckets
            else:
                assert declared == []
            hired = session.execute('begin insert(emp, (900, "new", 42, 3000, 2)); end')
            assert hired.committed
            assert (42, "unassigned") in {row[:2] for row in dept}
            if differential:
                # The guard's Δ-check, then the body's Δ-read, probed the
                # one hire against dept's index (built for it): one key
                # each.
                assert emp.built_index((2,)) is None
                assert dept.built_index((0,)).usage.by_kind == {"build": 2}
            else:
                # The repair's two projections read rows and built nothing.
                assert emp.built_index((2,)) is None and dept.built_index((0,)) is None

    def test_install_indexes_maps_pre_state_hints_to_the_base(self):
        from repro.engine import Database, DatabaseSchema, RelationSchema
        from repro.engine.types import INT

        schema = DatabaseSchema(
            [RelationSchema("emp", [("id", INT), ("mgr", INT), ("salary", INT)])]
        )
        database = Database(schema)
        database.load("emp", [(1, 1, 90), (2, 1, 50), (3, 2, 40)])
        controller = IntegrityController(schema)
        # Nobody is paid more than their manager was before the transaction:
        # emp ⋉ emp@old on e.mgr = o.id — the join keys differ per side, so
        # the build side's index (emp@old on id, i.e. emp on id) is not the
        # one the probe side's hint (emp on mgr) installs anyway.
        controller.add_rule(
            """
            RULE pay_below_manager
            WHEN INS(emp)
            IF NOT (forall e in emp)(forall o in emp@old)
                   (e.mgr != o.id or e.salary <= o.salary)
            THEN abort
            """
        )
        installed = controller.install_indexes(database)
        assert ("emp", ("id",)) in installed
        assert database.relation("emp").built_index((0,)) is None  # declared
        session = Session(database, controller)
        assert session.execute("begin insert(emp, (4, 2, 45)); end").committed
        # The pre-state build side was the base's index, built by that check.
        assert database.relation("emp").built_index((0,)) is not None
        assert session.execute("begin insert(emp, (5, 2, 51)); end").aborted


class TestDifferentialRepair:
    """A compensating action whose read is its condition's violations reads
    their Δ⁺ under ``differential=True``: R2's ``diff(π_brewery(beer),
    π_name(brewery))`` becomes ``π_brewery(beer@plus ⊳ brewery)`` on an
    insert into beer."""

    REPAIR = """
    RULE emp_dept_repair
    IF NOT (forall e)(e in emp => (exists d)(d in dept and e.dept_id = d.id))
    THEN missing := diff(project(emp, [dept_id]), project(dept, [id]));
         insert(dept, project(missing, [dept_id as id, "x" as name, null as city]))
    """

    @classmethod
    def _run(cls, database, text, differential):
        from repro.workloads.employees import employees_schema

        controller = IntegrityController(
            employees_schema(), differential=differential
        )
        controller.add_rule(cls.REPAIR)
        result = Session(database, controller).execute(text)
        return result, controller

    def test_several_matched_triggers_run_the_action_once(self):
        from repro.algebra.statements import Assign, Guard
        from repro.workloads.employees import employees_database

        # An orphan hire and the deletion of a department still referenced.
        text = (
            'begin insert(emp, (900, "new", 42, 3000, 2)); '
            'delete(dept, {(1, "dept_1", "city_1")}); end'
        )
        states = []
        for differential in (True, False):
            database = employees_database(employees=50, departments=5)
            assert any(row[2] == 1 for row in database.relation("emp"))
            result, controller = self._run(database, text, differential)
            assert result.committed
            modified = controller.modify_transaction(
                Session(database).transaction(text)
            )
            guards = [s for s in modified.statements if isinstance(s, Guard)]
            assert len(guards) == int(differential)
            statements = guards[0].body if differential else modified.statements
            assigns = [s for s in statements if isinstance(s, Assign)]
            assert len(assigns) == 1
            reads = assigns[0].expr.relations()
            assert ("emp@plus" in reads and "dept@minus" in reads) == differential
            if differential:
                # Guarded by both matched triggers' Δ-checks.
                checked = set().union(*(c.relations() for c in guards[0].checks))
                assert {"emp@plus", "dept@minus"} <= checked
            states.append(
                {name: database.relation(name).to_set() for name in ("emp", "dept")}
            )
            departments = {row[:2] for row in database.relation("dept")}
            assert {(42, "x"), (1, "x")} <= departments
        assert states[0] == states[1]

    @pytest.mark.parametrize(
        "department, runs", [(2, 0), (42, 1)], ids=["existing", "orphan"]
    )
    def test_the_action_runs_only_when_a_delta_check_fires(
        self, monkeypatch, department, runs
    ):
        # A hire into an existing department leaves the condition holding:
        # the guard's Δ-check is empty, so no body statement executes and
        # no dept overlay is opened.  An orphan hire runs the body once.
        from repro.algebra.statements import Assign
        from repro.workloads.employees import employees_database

        executed = []
        original = Assign.execute
        monkeypatch.setattr(
            Assign,
            "execute",
            lambda statement, context: (
                executed.append(statement),
                original(statement, context),
            ),
        )
        database = employees_database(employees=50, departments=5)
        text = f'begin insert(emp, (900, "new", {department}, 3000, 2)); end'
        result, _ = self._run(database, text, differential=True)
        assert result.committed
        assert len(executed) == runs
        assert ("dept" in result.differentials) == bool(runs)
        assert department in {row[0] for row in database.relation("dept")}

    def test_a_violation_older_than_the_rule_is_repaired_only_on_the_full_state(
        self,
    ):
        # Def 3.5, the premise aborting rules' Δ-checks share: the state a
        # transaction starts from satisfies the rule.  An orphan loaded
        # before the rule existed breaks it, so the Δ-read never sees it.
        from repro.workloads.employees import employees_database

        hire = 'begin insert(emp, (900, "new", 0, 3000, 2)); end'
        repaired = {}
        for differential in (True, False):
            database = employees_database(employees=50, departments=5)
            database.load("emp", [(901, "orphan", 77, 3000, 2)])
            result, _ = self._run(database, hire, differential)
            assert result.committed
            repaired[differential] = 77 in {row[0] for row in database.relation("dept")}
        assert repaired == {True: False, False: True}

    def test_a_bag_database_repairs_no_key_that_is_present(self):
        # The bag difference counts: re-inserting a beer whose brewery is
        # present left π(beer) one ``newco`` ahead of π(brewery), and the
        # full-state read added a third ``newco`` row where the condition
        # holds.  The Δ-read finds no violation; differential=False keeps
        # the bag difference.
        from repro.engine import Database
        from repro.workloads.beer import beer_controller, beer_schema

        counts = {}
        for differential in (True, False):
            database = Database(beer_schema(), bag=True)
            database.load("brewery", [("heineken", "amsterdam", "nl")])
            session = Session(database, beer_controller(differential=differential))
            assert session.execute(
                'begin insert(beer, ("a", "ale", "newco", 5.0)); '
                'insert(beer, ("b", "ale", "newco", 5.0)); end'
            ).committed
            newco = lambda: [
                row[0] for row in database.relation("brewery").sorted_rows()
            ].count("newco")
            assert newco() == 2
            assert session.execute(
                'begin insert(beer, ("a", "ale", "newco", 5.0)); end'
            ).committed
            counts[differential] = newco()
        assert counts == {True: 2, False: 3}

    def test_a_vacuous_trigger_appends_nothing(self):
        # DEL(beer) cannot violate R2: its Δ-check is vacuous, so the
        # action is not appended; on the full state it still runs.
        from repro.algebra.parser import parse_transaction
        from repro.workloads.beer import BEER_RULE_REFERENTIAL, beer_schema

        transaction = parse_transaction(
            'begin delete(beer, {("a", "b", "c", 1.0)}); end'
        )
        appended = {}
        for differential in (True, False):
            controller = IntegrityController(
                beer_schema(), differential=differential
            )
            controller.add_rule(
                BEER_RULE_REFERENTIAL.replace("DEL(brewery)", "DEL(brewery), DEL(beer)")
            )
            modified = controller.modify_transaction(transaction)
            appended[differential] = len(modified.statements) - 1
        assert appended == {True: 0, False: 2}

    def test_what_keeps_the_full_state_action(self):
        from repro.workloads.employees import employees_schema

        def stored(condition, action, differential=True):
            controller = IntegrityController(
                employees_schema(), differential=differential
            )
            controller.add_constraint("repair", condition, response=action)
            return controller.store.get("repair")

        fk = "(forall e in emp)(exists d in dept)(e.dept_id = d.id)"
        repair = (
            "missing := diff(project(emp, [dept_id]), project(dept, [id])); "
            'insert(dept, project(missing, [dept_id as id, "x" as name, null as city]))'
        )
        assert stored(fk, repair).repair is not None
        # differential=False, an aggregate clause, a read that is not the
        # condition's violations (another column pair), a bare action.
        for condition, action, differential in (
            (fk, repair, False),
            (f"{fk} and CNT(emp) <= 1000", repair, True),
            (fk, repair.replace("[dept_id]", "[grade]"), True),
            (fk, "delete(emp, select(emp, salary < 0))", True),
        ):
            program = stored(condition, action, differential)
            assert program.repair is None and program.differentials is None
            assert program.action_for(program.triggers) is program.program
