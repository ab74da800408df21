"""Unit tests for the parallel substrate: fragmentation, nodes, cost model,
enforcement strategies."""

import pytest

from repro.algebra import predicates as P
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.types import INT, STRING
from repro.errors import FragmentationError
from repro.parallel import (
    CostModel,
    FragmentedDatabase,
    FragmentedRelation,
    HashFragmentation,
    NodeStats,
    POOMA_1992,
    ParallelEnforcer,
    RangeFragmentation,
    RoundRobinFragmentation,
    Strategy,
)
from repro.parallel.cost_model import MODERN_2026


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


class TestSchemes:
    def test_hash_deterministic(self, schema):
        scheme = HashFragmentation("ref", 4)
        row = (1, 7)
        index = scheme.fragment_of(row, schema.relation("fk"))
        assert index == scheme.fragment_of(row, schema.relation("fk"))
        assert 0 <= index < 4

    def test_hash_compatibility(self):
        a = HashFragmentation("ref", 4)
        b = HashFragmentation("key", 4)
        assert a.is_compatible_join(b, "ref", "key")
        assert not a.is_compatible_join(b, "id", "key")
        assert not a.is_compatible_join(HashFragmentation("key", 8), "ref", "key")
        assert not a.is_compatible_join(RoundRobinFragmentation(4), "ref", "key")

    def test_range_boundaries_sorted(self):
        with pytest.raises(FragmentationError):
            RangeFragmentation("ref", [5, 2])

    def test_range_assignment(self, schema):
        scheme = RangeFragmentation("ref", [3, 6])
        fk = schema.relation("fk")
        assert scheme.fragment_of((0, 1), fk) == 0
        assert scheme.fragment_of((0, 3), fk) == 1
        assert scheme.fragment_of((0, 9), fk) == 2

    def test_round_robin_balances(self, schema):
        relation = FragmentedRelation(schema.relation("fk"), RoundRobinFragmentation(4))
        relation.load([(i, i) for i in range(40)])
        sizes = [len(fragment) for fragment in relation.fragments]
        assert sizes == [10, 10, 10, 10]
        assert relation.skew() == 1.0

    def test_zero_fragments_rejected(self):
        with pytest.raises(FragmentationError):
            RoundRobinFragmentation(0)


class TestFragmentedDatabase:
    def test_scheme_node_mismatch(self, schema):
        fdb = FragmentedDatabase(schema, nodes=4)
        with pytest.raises(FragmentationError):
            fdb.fragment_relation("fk", HashFragmentation("ref", 2))

    def test_merged_reconstructs(self, database, fragmented):
        assert fragmented.relation("fk").merged().to_set() == database.relation(
            "fk"
        ).to_set()

    def test_broadcast_counts_traffic(self, fragmented):
        stats = {node: NodeStats() for node in range(4)}
        merged = fragmented.broadcast(fragmented.relation("pk"), stats)
        assert len(merged) == 10
        total_sent = sum(s.tuples_sent for s in stats.values())
        assert total_sent == 10 * 3  # each tuple to the 3 other nodes

    def test_repartition_preserves_contents(self, fragmented):
        stats = {node: NodeStats() for node in range(4)}
        result = fragmented.repartition(
            fragmented.relation("fk"), HashFragmentation("id", 4), stats
        )
        assert result.merged().to_set() == fragmented.relation("fk").merged().to_set()

    def test_repartition_same_scheme_ships_nothing(self, fragmented):
        stats = {node: NodeStats() for node in range(4)}
        fragmented.repartition(
            fragmented.relation("fk"), HashFragmentation("ref", 4), stats
        )
        assert sum(s.tuples_sent for s in stats.values()) == 0


class TestCostModel:
    def test_node_time_components(self):
        model = CostModel(
            scan_per_tuple=1.0,
            build_per_tuple=2.0,
            probe_per_tuple=3.0,
            transfer_per_tuple=0.5,
            message_latency=10.0,
        )
        stats = NodeStats(tuples_processed=4, tuples_sent=2, messages_sent=1)
        assert model.node_time(stats) == 4 * 1.0 + 2 * 0.5 + 10.0

    def test_parallel_time_is_makespan(self):
        model = POOMA_1992
        slow = NodeStats(tuples_processed=1000)
        fast = NodeStats(tuples_processed=10)
        makespan = model.parallel_time({0: slow, 1: fast})
        assert makespan == model.startup + model.node_time(slow)

    def test_poma_calibration_anchors(self):
        """The defaults land on Section 7's two published bounds."""
        # Domain check: scan 5000 tuples over 8 nodes -> < 1 second.
        domain = POOMA_1992.startup + (5000 / 8) * POOMA_1992.scan_per_tuple
        assert domain < 1.0
        # Referential: build 5000 keys + probe 5000 inserts over 8 nodes
        # -> within 3 seconds.
        referential = POOMA_1992.startup + (
            (5000 / 8) * POOMA_1992.build_per_tuple
            + (5000 / 8) * POOMA_1992.probe_per_tuple
        )
        assert referential < 3.0
        assert referential > domain

    def test_modern_model_much_faster(self):
        stats = NodeStats(tuples_processed=100000)
        assert MODERN_2026.node_time(stats) < POOMA_1992.node_time(stats) / 1000


class TestEnforcer:
    def test_local_requires_compatibility(self, database):
        fdb = FragmentedDatabase.from_database(
            database,
            {
                "fk": RoundRobinFragmentation(4),
                "pk": HashFragmentation("key", 4),
            },
            nodes=4,
        )
        enforcer = ParallelEnforcer(fdb)
        with pytest.raises(FragmentationError):
            enforcer.referential_check("fk", "ref", "pk", "key", Strategy.LOCAL)

    def test_auto_picks_local_when_compatible(self, fragmented):
        enforcer = ParallelEnforcer(fragmented)
        report = enforcer.referential_check("fk", "ref", "pk", "key")
        assert report.strategy is Strategy.LOCAL
        assert report.violations == 1  # the (100, 77) dangling row
        assert report.sample == [(100, 77)]

    def test_auto_picks_repartition_otherwise(self, database):
        fdb = FragmentedDatabase.from_database(
            database,
            {
                "fk": RoundRobinFragmentation(4),
                "pk": HashFragmentation("key", 4),
            },
            nodes=4,
        )
        enforcer = ParallelEnforcer(fdb)
        report = enforcer.referential_check("fk", "ref", "pk", "key")
        assert report.strategy is Strategy.REPARTITION
        assert report.violations == 1
        assert report.tuples_shipped > 0

    def test_broadcast_ships_target_everywhere(self, fragmented):
        enforcer = ParallelEnforcer(fragmented)
        report = enforcer.referential_check(
            "fk", "ref", "pk", "key", Strategy.BROADCAST
        )
        assert report.violations == 1
        assert report.tuples_shipped == 10 * 3

    def test_local_cheaper_than_broadcast(self, fragmented):
        enforcer = ParallelEnforcer(fragmented)
        local = enforcer.referential_check("fk", "ref", "pk", "key", Strategy.LOCAL)
        broadcast = enforcer.referential_check(
            "fk", "ref", "pk", "key", Strategy.BROADCAST
        )
        assert local.simulated_seconds < broadcast.simulated_seconds

    def test_domain_check(self, fragmented):
        enforcer = ParallelEnforcer(fragmented)
        report = enforcer.domain_check(
            "fk", P.Comparison(">", P.ColRef("ref"), P.Const(50))
        )
        assert report.violations == 1  # ref = 77
        assert report.check == "domain"

    def test_exclusion_check(self, fragmented):
        enforcer = ParallelEnforcer(fragmented)
        report = enforcer.exclusion_check("fk", "ref", "pk", "key")
        # Every fk row except the dangling one matches a pk: 50 violations.
        assert report.violations == 50

    def test_more_nodes_reduce_simulated_time(self, database):
        times = []
        for nodes in (1, 2, 4, 8):
            fdb = FragmentedDatabase.from_database(
                database,
                {
                    "fk": HashFragmentation("ref", nodes),
                    "pk": HashFragmentation("key", nodes),
                },
                nodes=nodes,
            )
            report = ParallelEnforcer(fdb).referential_check(
                "fk", "ref", "pk", "key"
            )
            times.append(report.simulated_seconds)
        assert times == sorted(times, reverse=True)

    def test_report_ok_flag(self, fragmented):
        enforcer = ParallelEnforcer(fragmented)
        clean = enforcer.domain_check("fk", P.Comparison("<", P.ColRef("ref"), P.Const(0)))
        assert clean.ok and clean.violations == 0

