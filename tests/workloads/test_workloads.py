"""Workload generators produce consistent, reproducible inputs."""

import pytest

from repro.engine import Session
from repro.workloads.beer import beer_controller, beer_database
from repro.workloads.employees import employees_controller, employees_database
from repro.workloads.generators import (
    random_database,
    random_rows,
    random_transaction,
)
from repro.workloads.section7 import (
    section7_controller,
    section7_database,
    section7_insert_batch,
    section7_transaction_text,
)


class TestBeerWorkload:
    def test_database_is_consistent(self):
        db = beer_database()
        controller = beer_controller()
        assert controller.violated_constraints(db) == []

    def test_reproducible(self):
        first = beer_database(seed=5)
        second = beer_database(seed=5)
        assert first.relation("beer").to_set() == second.relation("beer").to_set()

    def test_sizes(self):
        db = beer_database(beers=15, breweries=3)
        assert len(db.relation("beer")) == 15
        assert len(db.relation("brewery")) == 3


class TestEmployeesWorkload:
    def test_database_is_consistent(self):
        db = employees_database()
        controller = employees_controller(include_spread=True)
        assert controller.violated_constraints(db) == []

    def test_controller_subsets(self):
        controller = employees_controller(
            include_transition=False, include_aggregate=False
        )
        names = [rule.name for rule in controller.rules]
        assert names == ["emp_dept_fk", "emp_salary_domain"]


    #: The paper's R2 shape: a missing department is created, not rejected.
    REPAIR = """
    RULE emp_dept_repair
    IF NOT (forall e)(e in emp => (exists d)(d in dept and e.dept_id = d.id))
    THEN missing := diff(project(emp, [dept_id]), project(dept, [id]));
         insert(dept, project(missing, [dept_id as id, "x" as name, null as city]))
    """

    def test_stats_name_the_rules_checked_on_the_full_state(self):
        db = employees_database()
        controller = employees_controller()
        controller.add_rule(self.REPAIR)
        session = Session(db, controller)
        raise_ = "begin update(emp, id = 7, salary := salary + 1); end"
        assert session.execute(raise_).committed
        stats = controller.last_stats
        assert set(stats.selected_rule_names) == {
            "emp_dept_fk",
            "emp_salary_domain",
            "emp_salary_monotone",
            "emp_payroll_cap",
            "emp_dept_repair",
        }
        # The transition rule runs on emp@plus and the repair reads
        # π(emp@plus ⊳ dept); what is left is the aggregate (no delta rule:
        # the relation's maintained sum makes it cheap instead).
        assert stats.full_state_rule_names == ("emp_payroll_cap",)

        full = employees_controller(differential=False)
        full.add_rule(self.REPAIR)
        Session(employees_database(), full).execute(raise_)
        assert full.last_stats.full_state_rule_names == (
            "emp_dept_fk",
            "emp_salary_domain",
            "emp_salary_monotone",
            "emp_payroll_cap",
            "emp_dept_repair",
        )


class TestSection7Workload:
    def test_sizes_match_paper(self):
        db = section7_database(pk_size=100, fk_size=1000)
        assert len(db.relation("pk")) == 100
        assert len(db.relation("fk")) == 1000

    def test_database_is_consistent(self):
        db = section7_database(pk_size=100, fk_size=500)
        controller = section7_controller()
        assert controller.violated_constraints(db) == []

    def test_batch_valid_by_default(self):
        batch = section7_insert_batch(batch_size=50, pk_size=100)
        assert all(0 <= ref < 100 for _, ref, _ in batch)
        assert all(amount >= 0 for _, _, amount in batch)

    def test_batch_with_referential_violations(self):
        batch = section7_insert_batch(
            batch_size=50, pk_size=100, violations=5, violation_kind="referential"
        )
        dangling = [row for row in batch if row[1] >= 100]
        assert len(dangling) == 5

    def test_batch_with_domain_violations(self):
        batch = section7_insert_batch(
            batch_size=50, pk_size=100, violations=5, violation_kind="domain"
        )
        negative = [row for row in batch if row[2] < 0]
        assert len(negative) == 5

    def test_transaction_text_executes(self):
        db = section7_database(pk_size=50, fk_size=100)
        controller = section7_controller()
        session = Session(db, controller)
        batch = section7_insert_batch(batch_size=20, pk_size=50, start_id=100)
        result = session.execute(section7_transaction_text(batch))
        assert result.committed
        assert len(db.relation("fk")) == 120


class TestGenerators:
    def test_random_rows_fit_schema(self):
        from repro.workloads.beer import beer_schema

        schema = beer_schema().relation("beer")
        rows = random_rows(schema, 20, seed=1)
        for row in rows:
            schema.validate_tuple(row)

    def test_random_database_populates_all_relations(self):
        from repro.workloads.employees import employees_schema

        db = random_database(employees_schema(), rows_per_relation=5, seed=2)
        assert len(db.relation("emp")) <= 5 and len(db.relation("emp")) > 0
        assert len(db.relation("dept")) > 0

    def test_random_transaction_executes(self):
        from repro.workloads.employees import employees_schema

        db = random_database(employees_schema(), rows_per_relation=5, seed=3)
        session = Session(db)
        for seed in range(10):
            txn = random_transaction(db, statements=4, seed=seed)
            result = session.execute(txn)
            assert result.committed

    def test_random_transaction_reproducible(self):
        from repro.workloads.employees import employees_schema

        db = random_database(employees_schema(), rows_per_relation=5, seed=3)
        first = random_transaction(db, statements=4, seed=9)
        second = random_transaction(db, statements=4, seed=9)
        assert first.statements == second.statements
