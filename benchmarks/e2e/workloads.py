"""The five workloads: databases, rule sets, and seeded op streams with an
expected outcome for every op.

Each ``build_*`` function returns an :class:`Env`: a populated database, its
controller and session, and a list of :class:`Op` generated up front from
the seed.  The generators keep a model of the state (live rows, per-key
tallies) beside the stream, so every op carries the outcome the program
must produce and the stream ends with the exact state the database must be
in.  Streams are generated strictly in order, so a shorter run (``--scale``
or the traced 20 % prefix) is a prefix of a longer one at the same seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import statements as S
from repro.algebra.parser import parse_expression
from repro.algebra.programs import Program
from repro.calculus.planned import clear_constraint_cache
from repro.core.subsystem import IntegrityController
from repro.engine import (
    INT,
    STRING,
    Database,
    DatabaseSchema,
    RelationSchema,
    Session,
)
from repro.engine.transaction import Transaction
from repro.engine.types import NULL
from repro.engine.wal import WriteAheadLog
from repro.workloads.employees import (
    EMP_SALARY_DOMAIN,
    EMP_SALARY_MONOTONE,
    employees_database,
    employees_schema,
)

from benchmarks.e2e.spec import workload_spec

# Op kinds.
EXECUTE, COMMIT, QUERY, REPIN = range(4)
# Expected outcomes.  ``detail`` is (inserted, deleted) for COMMITS, the
# rule name for ABORTS, a frozenset of rule names for VIOLATED, the row
# count for ROWS.
COMMITS, ABORTS, VIOLATED, ROWS = range(4)


class Op(NamedTuple):
    kind: int
    payload: object  # transaction/query text, or a prebuilt Transaction
    expect: int
    detail: object


class Env:
    """One built workload: the system under test plus its inputs."""

    def __init__(
        self,
        database: Database,
        controller: IntegrityController,
        ops: List[Op],
        warm: int,
        verify_reads: List[Op],
        expected: Dict[str, set],
        wal_dir: Optional[Path] = None,
    ):
        self.database = database
        self.controller = controller
        self.session = Session(database, controller)
        self.ops = ops
        self.warm = warm  # leading ops run before the measured phase
        self.verify_reads = verify_reads
        self.expected = expected  # final rows of every relation the ops touch
        self.wal_dir = wal_dir
        self.pin = None

    def repin(self) -> None:
        """Refresh the long-lived epoch pin ``read_write_mix`` holds."""
        if self.pin is not None:
            self.pin.release()
        self.pin = self.database.epochs.pin()

    def close(self) -> None:
        if self.pin is not None:
            self.pin.release()
            self.pin = None
        self.session.close()


def checksum(database: Database) -> str:
    """SHA-256 over the sorted rows of every relation."""
    digest = hashlib.sha256()
    for name in sorted(database.relation_names):
        digest.update(name.encode())
        digest.update(repr(database.relation(name).sorted_rows()).encode())
    return digest.hexdigest()


def transaction_text(statements: List[str]) -> str:
    return "begin\n" + "\n".join(f"    {s};" for s in statements) + "\nend"


# ---------------------------------------------------------------------------
# The star schema (as benchmarks/bench_async_audit.py): one fact relation,
# five dimensions, eight aborting rules with differential programs.
# ---------------------------------------------------------------------------

ORDERS = 100_000
CUSTOMERS = 10_000
PRODUCTS = 10_000
REGIONS = 1_000
EXCLUDED = 5_000
#: Reads draw their keys from a hot set, because plans are cached per
#: constant: 400 point queries + 200 join queries + the rules' plans stay
#: under the planner's 1024-plan cache, so the measured phase never compiles.
HOT_CUSTOMERS = 400
HOT_JOIN_CUSTOMERS = 200
#: Share of the stream's inserted orders that go to a hot (read) customer.
HOT_SHARE = 0.1
POINT_QUERY = "select(orders, customer = {})"
JOIN_QUERY = "join(select(orders, customer = {}), customers, left.customer = right.cid)"

STAR_RULES = {
    "orders_customer": "(forall x)(x in orders => "
    "(exists y)(y in customers and x.customer = y.cid))",
    "orders_product": "(forall x)(x in orders => "
    "(exists y)(y in products and x.product = y.pid))",
    "orders_region": "(forall x)(x in orders => "
    "(exists y)(y in regions and x.region = y.rid))",
    "orders_not_banned": "(forall x in orders)(forall y in banned)"
    "(x.customer != y.cid)",
    "orders_not_discontinued": "(forall x in orders)(forall y in "
    "discontinued)(x.product != y.pid)",
    "orders_amount": "(forall x)(x in orders => x.amount >= 0)",
    "orders_id": "(forall x)(x in orders => x.id >= 0)",
    "orders_region_domain": "(forall x)(x in orders => x.region >= 0)",
}

#: How to break exactly one rule with one row: rule -> (column, value).
#: ``None`` as the value means "negate the row's own id".  The three rules
#: not listed cannot be the first to fire on a single bad row.
STAR_VIOLATIONS = (
    ("orders_customer", 1, 2_000_000),
    ("orders_product", 2, 2_000_000),
    ("orders_region", 3, 5_000),
    ("orders_amount", 4, -1),
    ("orders_id", 0, None),
)


def star_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema(
                "orders",
                [
                    ("id", INT),
                    ("customer", INT),
                    ("product", INT),
                    ("region", INT),
                    ("amount", INT),
                ],
            ),
            RelationSchema("customers", [("cid", INT), ("name", STRING)]),
            RelationSchema("products", [("pid", INT), ("label", STRING)]),
            RelationSchema("regions", [("rid", INT), ("zone", STRING)]),
            RelationSchema("banned", [("cid", INT)]),
            RelationSchema("discontinued", [("pid", INT)]),
        ]
    )


class StarModel:
    """The star database plus the generator's model of its ``orders``."""

    def __init__(self, seed: int, preload: int = 0):
        rng = self.rng = random.Random(seed)
        self.next_id = 0
        self.tally = [0] * CUSTOMERS  # live orders per customer
        self.live: List[tuple] = []  # rows the stream inserted, still present
        self.hot = rng.sample(range(CUSTOMERS), HOT_CUSTOMERS)
        self.join_hot = self.hot[:HOT_JOIN_CUSTOMERS]
        initial = [self.row(hot_share=0.0) for _ in range(ORDERS + preload)]
        self.initial = initial
        database = self.database = Database(star_schema())
        database.load("customers", [(c, f"customer_{c}") for c in range(CUSTOMERS)])
        database.load("products", [(p, f"product_{p}") for p in range(PRODUCTS)])
        database.load("regions", [(r, f"zone_{r}") for r in range(REGIONS)])
        # Excluded keys no order references: the exclusion rules hold while
        # their probes cost real work.
        database.load("banned", [(1_000_000 + i,) for i in range(EXCLUDED)])
        database.load("discontinued", [(1_000_000 + i,) for i in range(EXCLUDED)])
        database.load("orders", initial)
        controller = self.controller = IntegrityController(star_schema())
        for name, condition in STAR_RULES.items():
            controller.add_constraint(name, condition)
        controller.install_indexes(database)

    # -- rows -------------------------------------------------------------------

    def row(self, hot_share: float = HOT_SHARE) -> tuple:
        """A fresh valid order; ``hot_share`` of them go to a hot customer,
        so the counts the reads return move while the stream runs."""
        rng = self.rng
        customer = (
            rng.choice(self.hot)
            if rng.random() < hot_share
            else rng.randrange(CUSTOMERS)
        )
        row = (
            self.next_id,
            customer,
            rng.randrange(PRODUCTS),
            rng.randrange(REGIONS),
            rng.randint(0, 10_000),
        )
        self.next_id += 1
        self.tally[customer] += 1
        return row

    def violating_row(self, violations=STAR_VIOLATIONS):
        """``(rule, row)``: a row that breaks exactly ``rule``, one of
        ``violations``."""
        rule, column, value = self.rng.choice(violations)
        row = self.row()
        self.forget(row)  # never becomes a live order of a customer
        bad = list(row)
        bad[column] = -1 - row[0] if value is None else value
        return rule, tuple(bad)

    def forget(self, row: tuple) -> None:
        self.tally[row[1]] -= 1

    # -- ops --------------------------------------------------------------------

    def write_ops(self, kind: int) -> List[Op]:
        """The next write of the OLTP mix: 90 % inserts of 1-5 rows, 8 %
        single-row deletes of earlier inserts, 2 % violating.

        Under EXECUTE a violating transaction must abort on its rule.  Under
        COMMIT (optimistic) it commits, must come back with exactly that
        rule violated, and is followed by the repairing delete.
        """
        rng = self.rng
        draw = rng.random()
        if draw < 0.08 and self.live:
            index = rng.randrange(len(self.live))
            self.live[index], self.live[-1] = self.live[-1], self.live[index]
            row = self.live.pop()
            self.forget(row)
            return [Op(kind, transaction_text([f"delete(orders, {row})"]), COMMITS, (0, 1))]
        rows = [self.row() for _ in range(rng.randint(1, 5))]
        if draw < 0.98:
            self.live.extend(rows)
            text = transaction_text([f"insert(orders, {row})" for row in rows])
            return [Op(kind, text, COMMITS, (len(rows), 0))]
        rule, bad = self.violating_row()
        position = rng.randrange(len(rows) + 1)
        batch = rows[:position] + [bad] + rows[position:]
        text = transaction_text([f"insert(orders, {row})" for row in batch])
        if kind == EXECUTE:
            for row in rows:
                self.forget(row)
            return [Op(kind, text, ABORTS, rule)]
        self.live.extend(rows)
        repair = transaction_text([f"delete(orders, {bad})"])
        return [
            Op(kind, text, VIOLATED, frozenset([rule])),
            Op(kind, repair, COMMITS, (0, 1)),
        ]

    def point_read(self) -> Op:
        key = self.rng.choice(self.hot)
        return Op(QUERY, POINT_QUERY.format(key), ROWS, self.tally[key])

    def join_read(self) -> Op:
        # Every live order joins exactly one customer row.
        key = self.rng.choice(self.join_hot)
        return Op(QUERY, JOIN_QUERY.format(key), ROWS, self.tally[key])

    def read_op(self) -> Op:
        return self.point_read() if self.rng.random() < 0.75 else self.join_read()

    def warm_queries(self, session: Session) -> None:
        """Plans are cached per constant: compile every hot query once."""
        for key in self.hot:
            session.query(POINT_QUERY.format(key), pinned=True)
        for key in self.join_hot:
            session.query(JOIN_QUERY.format(key), pinned=True)

    def env(self, ops, warm, verify_reads, wal_dir=None) -> Env:
        expected = {"orders": set(self.initial) | set(self.live)}
        env = Env(
            self.database,
            self.controller,
            ops,
            warm,
            [self.read_op() for _ in range(verify_reads)],
            expected,
            wal_dir,
        )
        self.warm_queries(env.session)
        return env


#: Leading ops of each stream that run before the measured phase, so that
#: lazily built state (overlay indexes, the audit scheduler) exists by then.
OLTP_WARM = 200
BULK_WARM = 21
DURABLE_WARM = 100
MIX_WARM = 200
FULL_CHECK_WARM = 20


def _fill(count: int, step: Callable[[], List[Op]]) -> List[Op]:
    ops: List[Op] = []
    while len(ops) < count:
        ops.extend(step())
    return ops


def build_oltp_text(seed: int, count: int, verify_reads: int, workdir: Path) -> Env:
    model = StarModel(seed)
    ops = _fill(count + OLTP_WARM, lambda: model.write_ops(EXECUTE))
    return model.env(ops, OLTP_WARM, verify_reads)


BULK_BATCH = 500
#: One insert batch in this many carries a violating row (1 % of transactions).
BULK_VIOLATING_EVERY = 67
#: The rule those rows break.  The rules abort at different depths of the
#: appended checks (1.1 to 1.5 ms); the 25 aborts of a run are too few for
#: the median over five such modes to repeat, so this workload keeps to one.
BULK_VIOLATION = tuple(v for v in STAR_VIOLATIONS if v[0] == "orders_amount")


def build_bulk_prebuilt(seed: int, count: int, verify_reads: int, workdir: Path) -> Env:
    """Triples: insert batch 2t, insert batch 2t+1, delete the two batches of
    triple t-2, so the steady state stays bounded.

    Two inserts per delete keep two thirds of the commits in one latency
    mode; with one insert per delete the median commit sits in the gap
    between the insert mode and the delete mode and flips between them.
    The four batches of triples -2 and -1 are part of the initial load, so
    every triple has a delete from the start.  A violating batch aborts;
    the later delete still names its rows, removes only the batch that did
    go in, and must say so.
    """
    model = StarModel(seed, preload=4 * BULK_BATCH)
    batches = {
        index - 4: model.initial[ORDERS + index * BULK_BATCH:][:BULK_BATCH]
        for index in range(4)
    }
    del model.initial[ORDERS:]
    offset = model.rng.randrange(BULK_VIOLATING_EVERY)
    aborted = set()
    triples = itertools.count()

    def insert(index: int) -> Op:
        rows = batches[index] = [model.row() for _ in range(BULK_BATCH)]
        if index % BULK_VIOLATING_EVERY != offset:
            return Op(EXECUTE, _prebuilt(S.Insert, rows), COMMITS, (BULK_BATCH, 0))
        aborted.add(index)
        for row in rows:
            model.forget(row)
        rule, rows[BULK_BATCH // 2] = model.violating_row(BULK_VIOLATION)
        return Op(EXECUTE, _prebuilt(S.Insert, rows), ABORTS, rule)

    def step() -> List[Op]:
        t = next(triples)
        ops = [insert(2 * t), insert(2 * t + 1)]
        named, deleted = [], 0
        for index in (2 * t - 4, 2 * t - 3):
            rows = batches.pop(index)
            named.extend(rows)
            if index not in aborted:
                deleted += len(rows)
                for row in rows:
                    model.forget(row)
        ops.append(Op(EXECUTE, _prebuilt(S.Delete, named), COMMITS, (0, deleted)))
        return ops

    ops = _fill(count + BULK_WARM, step)
    model.live = [
        row for index, rows in batches.items() if index not in aborted for row in rows
    ]
    return model.env(ops, BULK_WARM, verify_reads)


def _prebuilt(statement, rows) -> Transaction:
    return Transaction(Program([statement("orders", E.Literal(tuple(rows)))]))


def build_durable_audit(seed: int, count: int, verify_reads: int, workdir: Path) -> Env:
    model = StarModel(seed)
    ops = _fill(count + DURABLE_WARM, lambda: model.write_ops(COMMIT))
    wal_dir = workdir / "wal"
    # The flush policy is part of the workload: group commit, fsync at most
    # every 50 ms.  sync="commit" is not measured (see README, known limits).
    model.database.attach_wal(WriteAheadLog(wal_dir, sync="interval"))
    return model.env(ops, DURABLE_WARM, verify_reads, wal_dir)


#: Ops between refreshes of the long-lived pin.  At 20 % writes this is 400
#: commits, beyond the 256 entries the epoch manager keeps unpinned, so the
#: pin is what retains the undo entries.
MIX_REPIN_EVERY = 2_000


def build_read_write_mix(seed: int, count: int, verify_reads: int, workdir: Path) -> Env:
    model = StarModel(seed)
    rng = model.rng
    ops: List[Op] = []
    while len(ops) < count + MIX_WARM:
        if len(ops) % MIX_REPIN_EVERY == 0:
            ops.append(Op(REPIN, None, ROWS, 0))
        draw = rng.random()
        if draw < 0.6:
            ops.append(model.point_read())
        elif draw < 0.8:
            ops.append(model.join_read())
        else:
            ops.extend(model.write_ops(EXECUTE))
    return model.env(ops, MIX_WARM, verify_reads)


# ---------------------------------------------------------------------------
# full_check: the employees schema under rules that cannot be checked on the
# delta alone (a compensating repair, a transition rule, an aggregate).
# ---------------------------------------------------------------------------

EMPLOYEES = 5_000
DEPARTMENTS = 100
HOT_EMPLOYEES = 300
EMP_POINT_QUERY = "select(emp, dept_id = {})"
EMP_JOIN_QUERY = "join(select(emp, dept_id = {}), dept, left.dept_id = right.id)"

#: The paper's R2 shape: a missing department is repaired, not rejected.
EMP_DEPT_REPAIR = """
RULE emp_dept_repair
IF NOT (forall e)(e in emp => (exists d)(d in dept and e.dept_id = d.id))
THEN missing := diff(project(emp, [dept_id]), project(dept, [id]));
     insert(dept, project(missing, [dept_id as id, "unassigned" as name, null as city]))
"""

#: Triggered by the repair's insert(dept): ModP needs a second round.
DEPT_ID_DOMAIN = """
RULE dept_id_domain
IF NOT (forall d)(d in dept => d.id >= 0)
THEN abort
"""


def build_full_check(seed: int, count: int, verify_reads: int, workdir: Path) -> Env:
    rng = random.Random(seed)
    database = employees_database(EMPLOYEES, DEPARTMENTS, seed=seed)
    emp = {row[0]: row for row in database.relation("emp")}
    dept = set(database.relation("dept"))
    payroll = sum(row[3] for row in emp.values())
    controller = IntegrityController(employees_schema())
    controller.add_rule(EMP_DEPT_REPAIR)
    controller.add_rule(EMP_SALARY_DOMAIN)
    controller.add_rule(EMP_SALARY_MONOTONE)
    # Twice the seed payroll: the aggregate is evaluated on every emp
    # update but the generated raises and hires never reach it.
    controller.add_rule(
        f"RULE emp_payroll_cap\nIF NOT SUM(emp, salary) <= {2 * payroll}\nTHEN abort"
    )
    controller.add_rule(DEPT_ID_DOMAIN)
    controller.validate_rules()
    controller.install_indexes(database)
    database.create_index("emp", ["id"])
    database.create_index("emp", ["dept_id"])

    hot = rng.sample(range(EMPLOYEES), HOT_EMPLOYEES)
    tally = [0] * DEPARTMENTS  # employees per original department
    for row in emp.values():
        tally[row[2]] += 1
    next_emp = itertools.count(EMPLOYEES)
    next_dept = itertools.count(DEPARTMENTS)

    def hire(salary: int, dept_id: int) -> str:
        emp_id = next(next_emp)
        row = (emp_id, f"emp_{emp_id}", dept_id, salary, rng.randint(1, 9))
        text = (
            f'insert(emp, ({row[0]}, "{row[1]}", {row[2]}, {row[3]}, {row[4]}))'
        )
        if salary > 0:
            emp[row[0]] = row
            if dept_id < DEPARTMENTS:
                tally[dept_id] += 1
        return transaction_text([text])

    def step() -> List[Op]:
        draw = rng.random()
        if draw < 0.45:
            salary = rng.randint(2_000, 9_000)
            if rng.random() < 0.10:
                missing = next(next_dept)
                dept.add((missing, "unassigned", NULL))
                return [Op(EXECUTE, hire(salary, missing), COMMITS, (2, 0))]
            return [Op(EXECUTE, hire(salary, rng.randrange(DEPARTMENTS)), COMMITS, (1, 0))]
        key = rng.choice(hot)
        if draw < 0.90:
            row = emp[key]
            emp[key] = row[:3] + (row[3] + 100,) + row[4:]
            text = f"update(emp, id = {key}, salary := salary + 100)"
            return [Op(EXECUTE, transaction_text([text]), COMMITS, (1, 1))]
        # Four pay cuts to one negative salary: the two abort at different
        # depths of the appended checks, and an even split would put the
        # median rejection in the gap between them.
        if draw < 0.98:
            text = f"update(emp, id = {key}, salary := salary - 100)"
            return [Op(EXECUTE, transaction_text([text]), ABORTS, "emp_salary_monotone")]
        return [Op(EXECUTE, hire(-5, rng.randrange(DEPARTMENTS)), ABORTS, "emp_salary_domain")]

    ops = _fill(count + FULL_CHECK_WARM, step)

    def read_op() -> Op:
        key = rng.randrange(DEPARTMENTS)
        query = EMP_POINT_QUERY if rng.random() < 0.75 else EMP_JOIN_QUERY
        return Op(QUERY, query.format(key), ROWS, tally[key])

    env = Env(
        database,
        controller,
        ops,
        FULL_CHECK_WARM,
        [read_op() for _ in range(verify_reads)],
        {"emp": set(emp.values()), "dept": dept},
    )
    # Plans are cached per constant: compile the hot updates' selections
    # and every verification query once, so the measured phase never
    # compiles.
    for key in hot:
        planner.get_plan(parse_expression(f"select(emp, id = {key})"))
    for key in range(DEPARTMENTS):
        env.session.query(EMP_POINT_QUERY.format(key), pinned=True)
        env.session.query(EMP_JOIN_QUERY.format(key), pinned=True)
    return env


BUILDERS = {
    "oltp_text": build_oltp_text,
    "bulk_prebuilt": build_bulk_prebuilt,
    "full_check": build_full_check,
    "durable_audit": build_durable_audit,
    "read_write_mix": build_read_write_mix,
}


def build(name: str, seed: int, scale: float, workdir: Path) -> Env:
    """Build workload ``name`` from cold plan caches.

    The plan caches are process-global; clearing them makes every set-up
    in a process pay for its own compilation, so ``setup_s`` repeats.
    """
    spec = workload_spec(name)
    planner.clear_plan_cache()
    clear_constraint_cache()
    count = max(int(spec.ops * scale), 10)
    verify_reads = int(spec.verify_reads * min(scale, 1.0)) if spec.verify_reads else 0
    return BUILDERS[name](seed, count, verify_reads, workdir)
