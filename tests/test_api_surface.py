"""The evaluation API has one backend and no process-global switches;
the controller has one way to modify a transaction.

Pins the deletion of ``engine=`` / ``set_default_engine`` /
``set_batch_policy`` / ``set_fusion_policy``: no public signature takes an
``engine``, no module exports a setter, and — the divergence the deletion
closes — a process audit worker, whether forked or spawned, returns the
verdict the coordinator computes inline, because there is no longer any
process-local configuration for the two to disagree on.

Also pins the deletion of the row/batch/fused path selectors: no
``_batch_mode`` / ``_fuse_mode`` / ``annotate_batch_eligibility``, no
``fuse_eligible`` flag on any operator, no ``BATCH_*`` threshold, and no
parameter grown on the planner entry points to bring a choice back — and
of the second operator protocol: ``execute`` is the only way an operator
runs, a plan has the shape of its expression, and a ``ColumnBatch`` is
only a relation's wire form.
"""

from __future__ import annotations

import inspect
import multiprocessing

import pytest

import repro.algebra
from repro.algebra import columnar, physical, planner
from repro.algebra.evaluation import StandaloneContext, evaluate_expression
from repro.algebra.expressions import Join, Project, ProjectItem, RelationRef, Select
from repro.algebra.predicates import ColRef, Comparison
from repro.core.procpool import ControllerSpec, run_rule_audit
from repro.core.scheduler import AuditScheduler, RuleAuditTask
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, RelationSchema, Session
from repro.engine.session import DatabaseView, DeltaView
from repro.engine.transaction import TransactionContext, TransactionManager
from repro.engine.types import INT

_CALLABLES = [
    Session,
    IntegrityController,
    TransactionManager,
    TransactionContext,
    DatabaseView,
    DeltaView,
    StandaloneContext,
    planner.evaluate,
    evaluate_expression,
    IntegrityController.violated_constraints,
    IntegrityController.violated_constraints_incremental,
    IntegrityController.audit_tasks,
    RuleAuditTask,
    run_rule_audit,
]


@pytest.mark.parametrize(
    "target", _CALLABLES, ids=[target.__qualname__ for target in _CALLABLES]
)
def test_no_engine_parameter(target):
    assert "engine" not in inspect.signature(target).parameters


def test_controller_spec_ships_no_engine():
    assert "engine" not in ControllerSpec.__slots__


def test_the_controller_modifies_one_way():
    """No ``mode`` / ``optimize`` / ``allow_fallback``, no second selector
    and no second index-retirement policy: ``differential`` is the one
    option, on the controller and on the process workers' recipe."""
    from repro.core.programs import IntegrityProgramStore
    from repro.engine.indexes import HashIndex
    from repro.engine.overlay import OverlayIndex

    assert list(inspect.signature(IntegrityController).parameters) == [
        "schema",
        "differential",
    ]
    assert ControllerSpec.__slots__ == ("schema", "rules", "differential")
    for owner, name in [
        (IntegrityController, "modify_program"),
        (IntegrityController, "drop_unused"),
        (IntegrityController, "_selector"),
        (IntegrityProgramStore, "sel_ps"),
        (IntegrityProgramStore, "trig_p"),
        (HashIndex, "probes"),
        (OverlayIndex, "probes"),
    ]:
        assert not hasattr(owner, name), (owner.__name__, name)


@pytest.mark.parametrize(
    "module", [repro.algebra, planner, columnar], ids=lambda m: m.__name__
)
def test_no_switch_is_exported(module):
    leaked = [
        name
        for name in dir(module)
        if name.startswith("set_")
        or name.endswith("_policy")
        or name in ("get_default_engine", "resolve_engine", "ENGINES")
    ]
    assert leaked == []


def test_no_path_selector_is_left():
    for name in ("_batch_mode", "_fuse_mode", "annotate_batch_eligibility"):
        assert not hasattr(physical, name), name
    assert [name for name in columnar.__all__ if name.startswith("BATCH_")] == []
    assert [name for name in dir(columnar) if name.startswith("BATCH_")] == []


def _operator_classes(cls=physical.PhysicalOperator):
    yield cls
    for sub in cls.__subclasses__():
        yield from _operator_classes(sub)


def test_no_operator_carries_a_fuse_flag():
    classes = list(_operator_classes())
    assert physical.HashJoinOp in classes
    assert [cls.__name__ for cls in classes if hasattr(cls, "fuse_eligible")] == []


def test_execute_is_the_only_operator_protocol():
    second_protocol = ("produce_batch", "apply_batch", "produce_batch_from")
    assert [
        (cls.__name__, name)
        for cls in _operator_classes()
        for name in second_protocol
        if hasattr(cls, name)
    ] == []
    assert not hasattr(physical, "FusedPipelineOp")
    assert not hasattr(physical, "fuse_pipelines")
    assert list(inspect.signature(physical.HashJoinOp._probe_pairs).parameters) == [
        "self",
        "left",
        "right",
    ]


def test_a_plan_has_the_shape_of_its_expression():
    """``π(σ(r ⋈ s))`` lowers to one operator per node, nothing wrapped
    around them and nothing moved."""
    plan = planner.compile_expression(
        Project(
            Select(
                Join(
                    RelationRef("fk"),
                    RelationRef("pk"),
                    Comparison("=", ColRef(2, "left"), ColRef(1, "right")),
                ),
                Comparison("<", ColRef(3), ColRef(1)),
            ),
            (ProjectItem(ColRef(1)),),
        )
    )
    assert type(plan) is physical.ProjectOp
    assert type(plan.child) is physical.FilterOp
    join = plan.child.child
    assert type(join) is physical.HashJoinOp
    assert [type(side) for side in join.children()] == [physical.ScanOp] * 2


def test_a_column_batch_carries_no_deferred_merge_state():
    # A batch holds the relation it is built around or unpickled into and
    # nothing else: no cached columns, no second row form to merge.
    assert columnar.ColumnBatch.__slots__ == ("_relation",)
    assert list(inspect.signature(columnar.ColumnBatch).parameters) == ["relation"]
    assert not hasattr(columnar.ColumnBatch, "from_rows")


@pytest.mark.parametrize(
    "function, parameters",
    [
        (planner.compile_expression, ["expression", "optimize"]),
        (planner.get_plan, ["expression"]),
        (planner.evaluate, ["expression", "context"]),
        (planner.database_plan, ["expression", "database"]),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_planner_entry_points_grew_no_parameter(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def test_one_checkpoint_format():
    """A checkpoint is a whole database and takes no option: no delta
    checkpoint to ask for, and one loader for recovery to anchor with."""
    from repro.engine import wal

    assert list(inspect.signature(Database.checkpoint).parameters) == ["self"]
    assert list(
        inspect.signature(wal.WriteAheadLog.load_newest_checkpoint).parameters
    ) == ["self", "before"]
    assert not hasattr(wal, "DELTA_CHECKPOINT_SUFFIX")


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT)]),
        ]
    )


def _database() -> Database:
    database = Database(_schema())
    database.load("pk", [(k,) for k in range(10)])
    database.load("fk", [(i, i % 10) for i in range(20)])
    return database


def _controller() -> IntegrityController:
    controller = IntegrityController(_schema())
    controller.add_constraint(
        "fk_ref", "(forall x)(x in fk => (exists y)(y in pk and x.ref = y.key))"
    )
    controller.add_constraint("fk_id", "(forall x)(x in fk => x.id >= 0)")
    return controller


@pytest.mark.parametrize(
    "call",
    [
        lambda db: Session(db, engine="naive"),
        lambda db: IntegrityController(db.schema, engine="naive"),
        lambda db: TransactionManager(db, engine="naive"),
        lambda db: TransactionContext(db, engine="naive"),
        lambda db: DatabaseView(db, engine="naive"),
        lambda db: DeltaView(db, {}, engine="naive"),
        lambda db: StandaloneContext({}, engine="naive"),
        lambda db: planner.evaluate(
            RelationRef("pk"), DatabaseView(db), engine="naive"
        ),
        lambda db: evaluate_expression(
            RelationRef("pk"), DatabaseView(db), engine="naive"
        ),
        lambda db: _controller().violated_constraints(db, engine="naive"),
        lambda db: _controller().violated_constraints_incremental(
            db, {}, engine="naive"
        ),
        lambda db: _controller().audit_tasks(db, {}, engine="naive"),
    ],
)
def test_passing_engine_is_a_type_error(call):
    with pytest.raises(TypeError):
        call(_database())


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_process_worker_verdicts_equal_inline_verdicts(start_method):
    """A 128-row delta with dangling references in it, audited by a worker
    process and inline."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    database = _database()
    controller = _controller()
    rows = [
        (100 + i, 10 + i if i % 9 == 0 else i % 10)
        for i in range(128)
    ]
    with AuditScheduler(
        controller,
        database,
        workers=1,
        dispatch_overhead=0.0,
        executor="process",
        start_method=start_method,
    ) as scheduler:
        scheduler.start()
        transaction = "begin " + " ".join(
            f"insert(fk, {row});" for row in rows
        ) + " end"
        result = Session(database).execute(transaction)
        assert result.committed
        scheduler.drain(asynchronous=True, coalesce=False)
        outcomes = scheduler.wait()
    inline = {
        task.rule_name: task.run()
        for task in controller.audit_tasks(database, result)
    }
    assert {o.rule: (o.violated, tuple(o.violations)) for o in outcomes} == inline
    assert all(o.executor == "process" and not o.failed for o in outcomes)
    assert inline["fk_ref"][0] is True and inline["fk_id"][0] is False
