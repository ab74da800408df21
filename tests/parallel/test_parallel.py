"""Unit tests for the parallel substrate: fragmentation, nodes, cost model,
enforcement strategies."""

import pytest

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.types import INT, STRING
from repro.errors import FragmentationError, UnknownRelationError
from repro.parallel import (
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
        def seconds(model):
            return model.weighted_node_time(NodeStats(), scanned=100000)

        assert seconds(MODERN_2026) < seconds(POOMA_1992) / 1000


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



# ---------------------------------------------------------------------------
# The one executor against a single-node reference
# ---------------------------------------------------------------------------


def _dangling(database):
    """fk rows whose ref has no pk key: the referential violations."""
    keys = {row[0] for row in database.relation("pk").rows()}
    return sorted(row for row in database.relation("fk").rows() if row[1] not in keys)


def _matched(database):
    """fk rows whose ref has a pk key: the exclusion violations."""
    keys = {row[0] for row in database.relation("pk").rows()}
    return sorted(row for row in database.relation("fk").rows() if row[1] in keys)


def _incompatible(database):
    return FragmentedDatabase.from_database(
        database,
        {
            "fk": RoundRobinFragmentation(4),
            "pk": HashFragmentation("key", 4),
        },
        nodes=4,
    )


def _verdict(report):
    return report.violations, sorted(report.sample)


ALL = [Strategy.AUTO, Strategy.LOCAL, Strategy.BROADCAST, Strategy.REPARTITION]
MOVING = [Strategy.AUTO, Strategy.BROADCAST, Strategy.REPARTITION]


class TestSingleNodeReference:
    """Each simulated node runs the single-node plan over its own
    fragments; the union of their answers is the single-node answer."""

    @pytest.mark.parametrize("strategy", ALL)
    def test_referential_matches_the_single_node_answer(
        self, database, fragmented, strategy
    ):
        report = ParallelEnforcer(fragmented).referential_check(
            "fk", "ref", "pk", "key", strategy, max_sample=100
        )
        expected = _dangling(database)
        assert _verdict(report) == (len(expected), expected)

    @pytest.mark.parametrize("strategy", MOVING)
    def test_referential_on_incompatible_schemes_matches_the_single_node_answer(
        self, database, strategy
    ):
        report = ParallelEnforcer(_incompatible(database)).referential_check(
            "fk", "ref", "pk", "key", strategy, max_sample=100
        )
        expected = _dangling(database)
        assert _verdict(report) == (len(expected), expected)
        if strategy is Strategy.AUTO:
            assert report.strategy is Strategy.REPARTITION

    @pytest.mark.parametrize("strategy", ALL)
    def test_exclusion_matches_the_single_node_answer(
        self, database, fragmented, strategy
    ):
        report = ParallelEnforcer(fragmented).exclusion_check(
            "fk", "ref", "pk", "key", strategy, max_sample=100
        )
        expected = _matched(database)
        assert _verdict(report) == (len(expected), expected)

    @pytest.mark.parametrize(
        "scheme",
        [
            HashFragmentation("ref", 4),
            RoundRobinFragmentation(4),
            RangeFragmentation("ref", [3, 6, 9]),
        ],
        ids=["hash", "round_robin", "range"],
    )
    def test_domain_matches_the_single_node_answer(self, database, scheme):
        fdb = FragmentedDatabase.from_database(database, {"fk": scheme}, nodes=4)
        report = ParallelEnforcer(fdb).domain_check(
            "fk", P.Comparison(">", P.ColRef("ref"), P.Const(5)), max_sample=100
        )
        expected = sorted(row for row in database.relation("fk").rows() if row[1] > 5)
        assert _verdict(report) == (len(expected), expected)
        assert report.strategy is Strategy.LOCAL and report.tuples_shipped == 0

    @pytest.mark.parametrize("strategy", [Strategy.BROADCAST, Strategy.REPARTITION])
    def test_a_check_over_thousands_of_rows_matches_the_single_node_answer(
        self, schema, strategy
    ):
        database = Database(schema)
        database.load("pk", [(k, f"key_{k:06d}") for k in range(0, 40_000, 2)])
        # An odd ref has no pk key: every odd id dangles.
        database.load("fk", [(i, (7 * i) % 40_000) for i in range(16_000)])
        fdb = FragmentedDatabase.from_database(
            database,
            {"fk": RoundRobinFragmentation(4), "pk": RoundRobinFragmentation(4)},
            nodes=4,
        )
        report = ParallelEnforcer(fdb).referential_check(
            "fk", "ref", "pk", "key", strategy, max_sample=10_000
        )
        expected = _dangling(database)
        assert len(expected) == 8_000
        assert _verdict(report) == (8_000, expected)


class TestShipment:
    """``tuples_shipped`` and the per-node counters price what moves."""

    def test_a_local_check_moves_nothing(self, fragmented):
        report = ParallelEnforcer(fragmented).referential_check(
            "fk", "ref", "pk", "key", Strategy.LOCAL
        )
        assert report.tuples_shipped == 0
        assert all(stats == NodeStats() for stats in report.per_node.values())
        assert report.placements == {"fk": Strategy.LOCAL, "pk": Strategy.LOCAL}

    def test_a_local_check_after_a_broadcast_moves_nothing(self, fragmented):
        # The enforcer keeps no placement from one check to the next.
        enforcer = ParallelEnforcer(fragmented)
        enforcer.referential_check("fk", "ref", "pk", "key", Strategy.BROADCAST)
        report = enforcer.referential_check(
            "fk", "ref", "pk", "key", Strategy.LOCAL
        )
        assert report.violations == 1
        assert report.tuples_shipped == 0

    def test_a_broadcast_sends_each_fragment_to_every_other_node(self, fragmented):
        report = ParallelEnforcer(fragmented).referential_check(
            "fk", "ref", "pk", "key", Strategy.BROADCAST
        )
        pk = fragmented.relation("pk")
        for node, stats in report.per_node.items():
            local = len(pk.fragment(node))
            assert stats.tuples_sent == local * 3
            assert stats.tuples_received == 10 - local
        assert report.placements == {"fk": Strategy.LOCAL, "pk": Strategy.BROADCAST}

    def test_a_repartition_ships_each_moved_tuple_once(self, database):
        fdb = _incompatible(database)
        fk = fdb.relation("fk")
        target = HashFragmentation("ref", 4)
        moved = sum(
            1
            for node in range(4)
            for row in fk.fragment(node).rows()
            if target.fragment_of(row, fk.schema) != node
        )
        report = ParallelEnforcer(fdb).referential_check(
            "fk", "ref", "pk", "key", Strategy.AUTO
        )
        assert report.placements == {
            "fk": Strategy.REPARTITION, "pk": Strategy.LOCAL,
        }
        assert moved > 0
        assert report.tuples_shipped == moved
        assert sum(s.tuples_received for s in report.per_node.values()) == moved


class TestRejections:
    def test_an_operand_over_another_node_count_is_rejected(self, database, fragmented):
        fk = FragmentedRelation(
            database.schema.relation("fk"), HashFragmentation("ref", 2)
        )
        fk.load(database.relation("fk").rows())
        with pytest.raises(FragmentationError, match="over 2 nodes"):
            ParallelEnforcer(fragmented).referential_check(fk, "ref", "pk", "key")

    def test_zero_nodes_rejected(self, schema):
        with pytest.raises(FragmentationError, match="node count"):
            FragmentedDatabase(schema, nodes=0)

    def test_an_unfragmented_relation_is_named(self, schema, database):
        fdb = FragmentedDatabase.from_database(
            database, {"fk": HashFragmentation("ref", 4)}, nodes=4
        )
        with pytest.raises(UnknownRelationError, match="pk"):
            ParallelEnforcer(fdb).referential_check("fk", "ref", "pk", "key")

    def test_a_non_equality_join_is_rejected(self, fragmented):
        expression = E.AntiJoin(
            E.RelationRef("fk"),
            E.RelationRef("pk"),
            P.Comparison("<", P.ColRef("ref", "left"), P.ColRef("key", "right")),
        )
        with pytest.raises(FragmentationError, match="single attribute equality"):
            ParallelEnforcer(fragmented).enforce_expression(expression)

    def test_the_enforcer_is_reusable_after_a_rejected_check(self, database):
        enforcer = ParallelEnforcer(_incompatible(database))
        with pytest.raises(FragmentationError):
            enforcer.referential_check("fk", "ref", "pk", "key", Strategy.LOCAL)
        report = enforcer.referential_check("fk", "ref", "pk", "key")
        assert report.violations == 1 and report.sample == [(100, 77)]


class TestDeterminism:
    """Simulated seconds are priced from counts, never from the clock, so a
    repeated check reports them digit for digit (the §7 tables rely on it)."""

    @pytest.mark.parametrize("check", ["domain", "referential", "exclusion"])
    def test_a_repeated_check_reports_the_same_simulated_time(self, database, check):
        enforcer = ParallelEnforcer(_incompatible(database))

        def run():
            if check == "domain":
                return enforcer.domain_check(
                    "fk", P.Comparison(">", P.ColRef("ref"), P.Const(5))
                )
            if check == "referential":
                return enforcer.referential_check("fk", "ref", "pk", "key")
            return enforcer.exclusion_check("fk", "ref", "pk", "key")

        first, second = run(), run()
        assert first.check == second.check == check
        assert first.simulated_seconds == second.simulated_seconds > 0
        assert (first.tuples_shipped, first.placements, first.per_node) == (
            second.tuples_shipped, second.placements, second.per_node,
        )
