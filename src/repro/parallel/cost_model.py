"""Analytic cost model for the simulated multi-node system.

We cannot time an 8-node POOMA multiprocessor; we *can* count exactly the
work the fragmented enforcement algorithms perform (tuples scanned, hash
probes, tuples shipped, messages exchanged — all produced by really running
the algorithms on the fragments) and convert the counts into time with
per-unit costs.

The default parameter set :data:`POOMA_1992` is calibrated against the two
measurements Section 7 publishes for the 5000-key / 50000-FK workload on
8 nodes:

* referential check after inserting 5000 FK tuples: "within 3 seconds";
* domain check in the same situation: "less than 1 second".

With the differential optimization the referential check probes the 5000
inserted tuples against a hash table built over the 5000-tuple key
relation, and the domain check scans the 5000 inserted tuples.  Solving

    domain:       5000 * scan / 8                   ~= 0.8 s
    referential:  (5000 * build + 5000 * probe) / 8 ~= 2.5 s

gives ``scan ≈ 1.28 ms``, ``build + probe ≈ 4 ms`` per tuple — slow by
2026 standards, entirely plausible for interpreted POOL-X objects on 1992
hardware.  *Absolute* simulated times are therefore anchored to the paper;
*relative* behaviour (scaling curves, strategy comparisons) comes from the
measured counts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.parallel.nodes import NodeStats


@dataclass(frozen=True)
class CostModel:
    """Per-unit costs (seconds) of the simulated machine."""

    scan_per_tuple: float
    build_per_tuple: float
    probe_per_tuple: float
    transfer_per_tuple: float
    message_latency: float
    startup: float = 0.0

    def node_time(self, stats: NodeStats) -> float:
        """CPU + communication time of one node."""
        cpu = stats.tuples_processed * self.scan_per_tuple
        comm = (
            (stats.tuples_sent + stats.tuples_received) * self.transfer_per_tuple
            + stats.messages_sent * self.message_latency
        )
        return cpu + comm

    def parallel_time(self, per_node: Dict[int, NodeStats]) -> float:
        """Makespan: slowest node bounds the enforcement step."""
        if not per_node:
            return self.startup
        return self.startup + max(
            self.node_time(stats) for stats in per_node.values()
        )

    def weighted_node_time(
        self,
        stats: NodeStats,
        scanned: int = 0,
        built: int = 0,
        probed: int = 0,
    ) -> float:
        """Time with operator-specific weights (scan/build/probe split)."""
        cpu = (
            scanned * self.scan_per_tuple
            + built * self.build_per_tuple
            + probed * self.probe_per_tuple
        )
        comm = (
            (stats.tuples_sent + stats.tuples_received) * self.transfer_per_tuple
            + stats.messages_sent * self.message_latency
        )
        return cpu + comm


# Calibrated to Section 7 (see module docstring).  scan 1.28 ms; hash build
# 2.4 ms; hash probe 1.6 ms; transfer 0.2 ms/tuple; message latency 5 ms.
POOMA_1992 = CostModel(
    scan_per_tuple=1.28e-3,
    build_per_tuple=2.4e-3,
    probe_per_tuple=1.6e-3,
    transfer_per_tuple=0.2e-3,
    message_latency=5e-3,
    startup=0.05,
)

# A contemporary in-memory machine, for the EXPERIMENTS.md comparison runs.
MODERN_2026 = CostModel(
    scan_per_tuple=20e-9,
    build_per_tuple=60e-9,
    probe_per_tuple=40e-9,
    transfer_per_tuple=8e-9,
    message_latency=2e-6,
    startup=1e-4,
)
