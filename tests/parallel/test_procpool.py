"""Process-backed fragment workers: pool-vs-inline enforcement parity."""

import pytest

from repro.algebra import predicates as P
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.types import INT, STRING
from repro.errors import FragmentationError
from repro.parallel import (
    FragmentedDatabase,
    HashFragmentation,
    ParallelEnforcer,
    ProcessFragmentPool,
    RoundRobinFragmentation,
    Strategy,
)


@pytest.fixture
def schema():
    return DatabaseSchema(
        [
            RelationSchema("fk", [("id", INT), ("ref", INT)]),
            RelationSchema("pk", [("key", INT), ("name", STRING)]),
        ]
    )


@pytest.fixture
def database(schema):
    db = Database(schema)
    db.load("pk", [(k, f"k{k}") for k in range(10)])
    db.load("fk", [(i, i % 10) for i in range(50)] + [(100, 77)])
    return db


@pytest.fixture
def fragmented(database):
    return FragmentedDatabase.from_database(
        database,
        {
            "fk": HashFragmentation("ref", 4),
            "pk": HashFragmentation("key", 4),
        },
        nodes=4,
    )


@pytest.fixture
def pool(fragmented):
    with ProcessFragmentPool(nodes=4) as pool:
        yield pool


def _strip_timing(report):
    return (
        report.check,
        report.strategy,
        report.nodes,
        report.violations,
        report.sample,
        report.tuples_shipped,
        report.placements,
    )


class TestPoolParity:
    """The pool arm must reproduce inline verdicts and placements exactly."""

    @pytest.mark.parametrize(
        "strategy", [Strategy.AUTO, Strategy.LOCAL, Strategy.BROADCAST,
                     Strategy.REPARTITION]
    )
    def test_referential_parity(self, fragmented, pool, strategy):
        inline = ParallelEnforcer(fragmented).referential_check(
            "fk", "ref", "pk", "key", strategy
        )
        pooled = ParallelEnforcer(fragmented, pool=pool).referential_check(
            "fk", "ref", "pk", "key", strategy
        )
        assert _strip_timing(pooled) == _strip_timing(inline)
        assert inline.executor == "inline" and pooled.executor == "process"

    def test_domain_parity(self, fragmented, pool):
        predicate = P.Comparison(">", P.ColRef("ref"), P.Const(50))
        inline = ParallelEnforcer(fragmented).domain_check("fk", predicate)
        pooled = ParallelEnforcer(fragmented, pool=pool).domain_check(
            "fk", predicate
        )
        assert _strip_timing(pooled) == _strip_timing(inline)
        assert pooled.violations == 1 and pooled.sample == [(100, 77)]

    def test_exclusion_parity(self, fragmented, pool):
        inline = ParallelEnforcer(fragmented).exclusion_check(
            "fk", "ref", "pk", "key"
        )
        pooled = ParallelEnforcer(fragmented, pool=pool).exclusion_check(
            "fk", "ref", "pk", "key"
        )
        assert _strip_timing(pooled) == _strip_timing(inline)
        assert pooled.violations == 50

    def test_repartition_parity_on_incompatible_schemes(self, database, pool):
        fdb = FragmentedDatabase.from_database(
            database,
            {
                "fk": RoundRobinFragmentation(4),
                "pk": HashFragmentation("key", 4),
            },
            nodes=4,
        )
        inline = ParallelEnforcer(fdb).referential_check(
            "fk", "ref", "pk", "key"
        )
        pooled = ParallelEnforcer(fdb, pool=pool).referential_check(
            "fk", "ref", "pk", "key"
        )
        assert _strip_timing(pooled) == _strip_timing(inline)
        assert pooled.strategy is Strategy.REPARTITION


class TestByteAccounting:
    def test_local_check_ships_no_bytes(self, fragmented, pool):
        report = ParallelEnforcer(fragmented, pool=pool).referential_check(
            "fk", "ref", "pk", "key", Strategy.LOCAL
        )
        # Both operands are resident base fragments: nothing moves.
        assert report.bytes_shipped == 0
        assert report.tuples_shipped == 0

    def test_broadcast_ships_one_blob_per_node(self, fragmented, pool):
        enforcer = ParallelEnforcer(fragmented, pool=pool)
        report = enforcer.referential_check(
            "fk", "ref", "pk", "key", Strategy.BROADCAST
        )
        # The merged pk relation replicates to all 4 nodes as one blob.
        assert report.bytes_shipped > 0
        assert report.bytes_shipped % 4 == 0

    def test_a_dead_node_is_not_counted_in_a_broadcast_bind(self, fragmented, pool):
        from repro.algebra.columnar import encode_relation
        from repro.core.workers import encode

        victim = pool._pool.processes[2]
        victim.kill()
        victim.join(timeout=10.0)
        assert pool._pool.wait() == ([], [2])
        pk = fragmented.relation("pk").merged()
        blob = encode(encode_relation(pk))
        # Three live nodes got the blob; the dead one was sent nothing.
        assert pool.broadcast_bind("pk_all", pk) == 3 * len(blob)

    def test_a_dead_node_is_not_counted_in_a_per_node_bind(self, fragmented, pool):
        from repro.algebra.columnar import encode_relation
        from repro.core.workers import encode

        victim = pool._pool.processes[1]
        victim.kill()
        victim.join(timeout=10.0)
        assert pool._pool.wait() == ([], [1])
        fragments = fragmented.relation("pk").fragments
        sizes = [len(encode(encode_relation(f))) for f in fragments]
        # Node 1 was sent nothing, so its fragment's bytes are not counted.
        assert pool.bind_fragments("pk_moved", fragments) == sum(sizes) - sizes[1]

    def test_inline_enforcer_reports_zero_bytes(self, fragmented):
        report = ParallelEnforcer(fragmented).referential_check(
            "fk", "ref", "pk", "key", Strategy.BROADCAST
        )
        assert report.executor == "inline"
        assert report.bytes_shipped == 0

    def test_base_residency_counted_as_install_not_shipment(
        self, fragmented, pool
    ):
        ParallelEnforcer(fragmented, pool=pool)
        assert pool.installed == {"fk", "pk"}
        assert pool.bytes_installed > 0


class TestPoolLifecycle:
    def test_node_count_mismatch_rejected(self, fragmented):
        with ProcessFragmentPool(nodes=2) as pool:
            with pytest.raises(FragmentationError, match="2 workers"):
                ParallelEnforcer(fragmented, pool=pool)

    def test_zero_nodes_rejected(self):
        with pytest.raises(FragmentationError):
            ProcessFragmentPool(nodes=0)

    def test_install_requires_one_fragment_per_node(self, fragmented):
        with ProcessFragmentPool(nodes=4) as pool:
            with pytest.raises(FragmentationError, match="fragments"):
                pool.install(
                    "fk", fragmented.relation("fk").fragments[:2]
                )

    def test_bindings_cleared_between_checks(self, fragmented, pool):
        enforcer = ParallelEnforcer(fragmented, pool=pool)
        enforcer.referential_check(
            "fk", "ref", "pk", "key", Strategy.BROADCAST
        )
        # A second check after the broadcast must not see stale bindings:
        # LOCAL resolves both operands from resident fragments only.
        report = enforcer.referential_check(
            "fk", "ref", "pk", "key", Strategy.LOCAL
        )
        assert report.violations == 1
        assert report.bytes_shipped == 0

    def test_close_is_idempotent(self, fragmented):
        pool = ProcessFragmentPool(nodes=2)
        pool.close()
        pool.close()

    def test_worker_error_surfaces_with_node_id(self, schema, pool):
        # An expression over a name no worker owns fails remotely on every
        # node; the coordinator must surface it, not hang.
        from repro.algebra import expressions as E

        with pytest.raises(FragmentationError, match="node 0"):
            pool.execute(E.RelationRef("no_such_relation"))

    def test_pool_reusable_after_worker_error(self, fragmented, pool):
        from repro.algebra import expressions as E

        with pytest.raises(FragmentationError):
            pool.execute(E.RelationRef("no_such_relation"))
        report = ParallelEnforcer(fragmented, pool=pool).referential_check(
            "fk", "ref", "pk", "key"
        )
        assert report.violations == 1


class TestLargePayloads:
    def test_a_broadcast_binding_over_64_kib_matches_the_single_node_plan(
        self, schema
    ):
        from repro.algebra.evaluation import evaluate_expression
        from repro.algebra.parser import parse_expression
        from repro.engine.session import DatabaseView

        database = Database(schema)
        database.load("pk", [(k, f"key_{k:06d}") for k in range(0, 20_000, 2)])
        database.load("fk", [(i, (7 * i) % 20_000) for i in range(4_000)])
        fdb = FragmentedDatabase.from_database(
            database,
            {"fk": RoundRobinFragmentation(4), "pk": RoundRobinFragmentation(4)},
            nodes=4,
        )
        single = evaluate_expression(
            parse_expression("antijoin(fk, pk, left.ref = right.key)"),
            DatabaseView(database),
        )
        with ProcessFragmentPool(nodes=4) as pool:
            report = ParallelEnforcer(fdb, pool=pool).referential_check(
                "fk", "ref", "pk", "key", Strategy.BROADCAST, max_sample=10_000
            )
        assert report.executor == "process"
        # The merged pk relation went to all 4 nodes as one blob > 64 KiB.
        assert report.bytes_shipped > 4 * (64 << 10)
        assert report.violations == len(single) == 2_000
        assert sorted(report.sample) == sorted(single.rows())

    @pytest.mark.parametrize("strategy", ["BROADCAST", "REPARTITION"])
    def test_a_check_moving_operands_over_64_kib_matches_the_inline_enforcer(
        self, schema, strategy
    ):
        strategy = Strategy[strategy]
        database = Database(schema)
        database.load("pk", [(k, f"key_{k:06d}") for k in range(0, 40_000, 2)])
        # An odd ref has no pk key: every odd id dangles.
        database.load("fk", [(i, (7 * i) % 40_000) for i in range(16_000)])
        fdb = FragmentedDatabase.from_database(
            database,
            {"fk": RoundRobinFragmentation(4), "pk": RoundRobinFragmentation(4)},
            nodes=4,
        )
        inline = ParallelEnforcer(fdb).referential_check(
            "fk", "ref", "pk", "key", strategy, max_sample=10_000
        )
        with ProcessFragmentPool(nodes=4) as pool:
            process = ParallelEnforcer(fdb, pool=pool).referential_check(
                "fk", "ref", "pk", "key", strategy, max_sample=10_000
            )
        assert (inline.executor, process.executor) == ("inline", "process")
        assert inline.bytes_shipped == 0
        assert process.bytes_shipped > 4 * (64 << 10)
        assert process.violations == inline.violations == 8_000
        assert sorted(process.sample) == sorted(inline.sample)
        assert _strip_timing(process) == _strip_timing(inline)


class TestSpawnStartMethod:
    def test_parity_under_spawn(self, fragmented):
        # spawn re-imports the worker module from scratch: the payload
        # path must carry everything (nothing inherited via fork).
        with ProcessFragmentPool(nodes=4, start_method="spawn") as pool:
            report = ParallelEnforcer(fragmented, pool=pool).referential_check(
                "fk", "ref", "pk", "key"
            )
            assert report.violations == 1
            assert report.sample == [(100, 77)]
            assert report.executor == "process"


class TestDeadWorker:
    """A worker that dies never replies; ``execute`` must notice, not wait."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_execute_names_the_dead_node_instead_of_hanging(
        self, schema, start_method
    ):
        import multiprocessing
        import threading

        from repro.algebra import expressions as E
        from repro.engine.relation import Relation

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        fragments = [Relation(schema.relation("pk")) for _ in range(2)]
        for key in range(10):
            fragments[key % 2].insert((key, f"k{key}"))
        pool = ProcessFragmentPool(nodes=2, start_method=start_method)
        try:
            pool.install("pk", fragments)
            # Killed before it ever replies: a worker terminated while its
            # feeder thread holds the shared reply queue's lock would take
            # the other workers' replies down with it.
            victim = pool._pool.processes[1]
            victim.terminate()
            victim.join(timeout=10.0)
            assert not victim.is_alive()

            outcome = []

            def run():
                try:
                    outcome.append(pool.execute(E.RelationRef("pk")))
                except FragmentationError as error:
                    outcome.append(error)

            # The call used to block forever: wait for it on a thread the
            # interpreter can abandon.
            caller = threading.Thread(target=run, daemon=True)
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "execute hung on a dead worker"
            (error,) = outcome
            assert isinstance(error, FragmentationError)
            assert "died on node(s) 1" in str(error)
        finally:
            closer = threading.Thread(target=pool.close, daemon=True)
            closer.start()
            closer.join(timeout=30.0)
            assert not closer.is_alive(), "close hung after a worker died"
        assert not any(worker.is_alive() for worker in pool._pool.processes)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_node_killed_mid_reply_is_named_not_waited_for(
        self, schema, start_method
    ):
        import multiprocessing
        import os
        import signal
        import threading

        from repro.algebra import expressions as E
        from repro.engine.relation import Relation

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        # 50k rows per node: each reply is ~1 MB, far beyond a pipe buffer,
        # so an uncollected reply blocks half-written.
        fragments = [Relation(schema.relation("pk")) for _ in range(2)]
        for key in range(100_000):
            fragments[key % 2].insert((key, f"k{key}"))
        pool = ProcessFragmentPool(nodes=2, start_method=start_method)
        try:
            pool.install("pk", fragments)
            # One collected run: the next bytes on node 0's connection
            # are the reply to the run below.
            assert sum(map(len, pool.execute(E.RelationRef("pk")))) == 100_000
            pool._pool.broadcast(("execute", -1), E.RelationRef("pk"))
            assert pool._pool._replies[0].poll(60), "node 0 never replied"
            os.kill(pool._pool.processes[0].pid, signal.SIGKILL)

            outcome = []

            def run():
                try:
                    outcome.append(pool.execute(E.RelationRef("pk")))
                except FragmentationError as error:
                    outcome.append(error)

            caller = threading.Thread(target=run, daemon=True)
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "execute hung on a half-sent reply"
            (error,) = outcome
            assert isinstance(error, FragmentationError)
            assert "died on node(s) 0" in str(error)
        finally:
            closer = threading.Thread(target=pool.close, daemon=True)
            closer.start()
            closer.join(timeout=30.0)
            assert not closer.is_alive(), "close hung after a worker died"
        assert not any(worker.is_alive() for worker in pool._pool.processes)
