"""The simulated multi-node main-memory system (the POOMA stand-in).

A :class:`FragmentedDatabase` holds fragmented relations over ``n``
simulated nodes.  Per-node work is executed for real (the fragments are
ordinary :class:`~repro.engine.Relation` instances and operators run on
them), while :class:`NodeStats` accumulates the tuple and message counts
that the cost model converts into simulated wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.schema import DatabaseSchema
from repro.errors import FragmentationError, UnknownRelationError
from repro.parallel.fragmentation import FragmentationScheme, FragmentedRelation


@dataclass
class NodeStats:
    """Per-node traffic counters for one enforcement run (the work a node
    does is priced from its plan, :func:`~repro.parallel.cost_model.estimate`)."""

    tuples_sent: int = 0
    tuples_received: int = 0
    messages_sent: int = 0


class FragmentedDatabase:
    """Fragmented relations spread over a set of simulated nodes."""

    def __init__(self, schema: DatabaseSchema, nodes: int):
        if nodes < 1:
            raise FragmentationError("node count must be >= 1")
        self.schema = schema
        self.nodes = nodes
        self._relations: Dict[str, FragmentedRelation] = {}

    # -- construction -------------------------------------------------------------

    def fragment_relation(
        self,
        name: str,
        scheme: FragmentationScheme,
        rows: Iterable[tuple] = (),
    ) -> FragmentedRelation:
        if scheme.fragments != self.nodes:
            raise FragmentationError(
                f"scheme has {scheme.fragments} fragments but the system has "
                f"{self.nodes} nodes"
            )
        relation_schema = self.schema.relation(name)
        fragmented = FragmentedRelation(relation_schema, scheme)
        fragmented.load(rows)
        self._relations[name] = fragmented
        return fragmented

    @classmethod
    def from_database(
        cls,
        database: Database,
        schemes: Dict[str, FragmentationScheme],
        nodes: int,
    ) -> "FragmentedDatabase":
        """Fragment an existing database under the given per-relation schemes."""
        fragmented = cls(database.schema, nodes)
        for name, scheme in schemes.items():
            fragmented.fragment_relation(
                name, scheme, database.relation(name).rows()
            )
        return fragmented

    # -- access ------------------------------------------------------------------

    def relation(self, name: str) -> FragmentedRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, "fragmented database") from None

    # -- data movement primitives (counted, then executed) --------------------------

    def broadcast(
        self, relation: FragmentedRelation, stats: Dict[int, NodeStats]
    ) -> Relation:
        """Ship every fragment to every node; returns the merged relation.

        Cost accounting: each node sends its fragment to the other n-1
        nodes (tuples_sent), and receives the n-1 foreign fragments.
        """
        merged = relation.merged()
        total = len(merged)
        for node in range(self.nodes):
            local = len(relation.fragment(node))
            stats[node].tuples_sent += local * (self.nodes - 1)
            stats[node].messages_sent += self.nodes - 1
            stats[node].tuples_received += total - local
        return merged

    def repartition(
        self,
        relation: FragmentedRelation,
        scheme: FragmentationScheme,
        stats: Dict[int, NodeStats],
    ) -> FragmentedRelation:
        """Re-fragment a relation under a new scheme, counting shipped rows."""
        if scheme.fragments != self.nodes:
            raise FragmentationError("repartition scheme/node count mismatch")
        result = FragmentedRelation(relation.schema, scheme)
        for source in range(self.nodes):
            sent = 0
            for row in relation.fragment(source).rows():
                target = scheme.fragment_of(row, relation.schema)
                result.fragment(target).insert(row, _validated=True)
                if target != source:
                    sent += 1
                    stats[target].tuples_received += 1
            stats[source].tuples_sent += sent
            if sent:
                stats[source].messages_sent += self.nodes - 1
        return result

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{rel.cardinality()}]" for name, rel in self._relations.items()
        )
        return f"FragmentedDatabase({self.nodes} nodes, {parts})"
