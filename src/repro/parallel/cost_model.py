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

What a node's plan costs is :func:`estimate`: one walk over the compiled
plan tree of :mod:`repro.algebra.physical`, pricing each operator from a
``{name: cardinality}`` mapping (a node's fragment sizes) and textbook
selectivities by the rule :data:`_RULES` holds for its class.  It returns
the rows out and the scanned/built/probed split that
:meth:`CostModel.weighted_node_time` converts into seconds.  The operators
themselves only execute, and no plan is chosen by an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algebra import physical as X
from repro.parallel.nodes import NodeStats

# Default cardinality assumed for relations absent from a cardinality mapping.
DEFAULT_CARDINALITY = 1000.0
# Default cardinality assumed for a transaction's net differential: deltas
# are small by premise (that is the entire point of differential
# enforcement), so delta scans price orders of magnitude under base scans
# unless the cardinality mapping supplies the actual |Δ|.
DEFAULT_DELTA_CARDINALITY = 16.0
# Classic textbook selectivities.
FILTER_SELECTIVITY = 1.0 / 3.0
EQUALITY_SELECTIVITY = 0.01
SEMI_SELECTIVITY = 0.5


@dataclass
class PlanEstimate:
    """Static cardinality and work estimate of a (sub)plan.

    ``scanned``/``built``/``probed`` are cumulative tuple counts over the
    whole subtree, priced per node by :meth:`CostModel.weighted_node_time`.
    """

    rows: float
    scanned: float = 0.0
    built: float = 0.0
    probed: float = 0.0

    @property
    def work(self) -> float:
        """Total tuple touches (scan + build + probe)."""
        return self.scanned + self.built + self.probed


def _card(cards: Optional[Mapping], name: str) -> float:
    if cards is None:
        return DEFAULT_CARDINALITY
    return float(cards.get(name, DEFAULT_CARDINALITY))


def _delta_card(cards: Optional[Mapping], name: str) -> float:
    # |Δ| under the auxiliary name, never the base relation's |R|.
    if cards is not None and name in cards:
        return float(cards[name])
    return DEFAULT_DELTA_CARDINALITY


def _index_select(op, cards):
    out = max(1.0, _card(cards, op.name) * EQUALITY_SELECTIVITY)
    return out, out, 0.0, 1.0


#: Per operator class: ``rule(op, cards, *child_rows) -> (rows, scanned,
#: built, probed)`` of the operator alone; :func:`estimate` adds its
#: children's work.
_RULES = {
    X.ScanOp: lambda op, cards: (_card(cards, op.name), 0.0, 0.0, 0.0),
    X.DeltaScanOp: lambda op, cards: (_delta_card(cards, op.name), 0.0, 0.0, 0.0),
    X.LiteralOp: lambda op, cards: (float(len(op.rows)), 0.0, 0.0, 0.0),
    X.IndexSelectOp: _index_select,
    X.FilterOp: lambda op, cards, child: (child * FILTER_SELECTIVITY, child, 0.0, 0.0),
    X.ProjectOp: lambda op, cards, child: (child, child, 0.0, 0.0),
    X.RenameOp: lambda op, cards, child: (child, 0.0, 0.0, 0.0),
    X.AggregateOp: lambda op, cards, child: (1.0, child, 0.0, 0.0),
    X.CountOp: lambda op, cards, child: (1.0, 0.0, 0.0, 0.0),
    X.MultiplicityOp: lambda op, cards, child: (1.0, 0.0, 0.0, 0.0),
    X.UnionOp: lambda op, cards, left, right: (left + right, left + right, 0.0, 0.0),
    X.DifferenceOp: lambda op, cards, left, right: (
        max(left - right, 1.0), left + right, 0.0, 0.0
    ),
    X.IntersectOp: lambda op, cards, left, right: (
        min(left, right) * SEMI_SELECTIVITY, left + right, 0.0, 0.0
    ),
    X.ProductOp: lambda op, cards, left, right: (
        left * right, left * right, 0.0, 0.0
    ),
    # The textbook max(|L|, |R|) guess; build the right side, probe the left.
    X.HashJoinOp: lambda op, cards, left, right: (
        max(left, right, 1.0), 0.0, right, left
    ),
    X.NestedLoopJoinOp: lambda op, cards, left, right: (
        left * right * FILTER_SELECTIVITY, left * right, 0.0, 0.0
    ),
    X.HashSemiJoinOp: lambda op, cards, left, right: (
        left * SEMI_SELECTIVITY, 0.0, right, left
    ),
    X.NestedLoopSemiOp: lambda op, cards, left, right: (
        left * SEMI_SELECTIVITY, left * right, 0.0, 0.0
    ),
}
_RULES[X.HashAntiJoinOp] = _RULES[X.HashSemiJoinOp]
_RULES[X.NestedLoopAntiOp] = _RULES[X.NestedLoopSemiOp]


def estimate(plan: X.PhysicalOperator, cards: Optional[Mapping] = None) -> PlanEstimate:
    """The static estimate of ``plan`` under ``cards`` (``{name:
    cardinality}``; absent names price at :data:`DEFAULT_CARDINALITY`,
    absent differentials at :data:`DEFAULT_DELTA_CARDINALITY`).

    Reads the plan and writes nothing: plans are shared through the plan
    cache, and an estimate may run beside their execution.
    """
    children = [estimate(child, cards) for child in plan.children()]
    rule = _RULES[type(plan)]
    rows, scanned, built, probed = rule(plan, cards, *(c.rows for c in children))
    est = PlanEstimate(rows=rows)
    for child in children:
        est.scanned += child.scanned
        est.built += child.built
        est.probed += child.probed
    est.scanned += scanned
    est.built += built
    est.probed += probed
    return est


@dataclass(frozen=True)
class CostModel:
    """Per-unit costs (seconds) of the simulated machine."""

    scan_per_tuple: float
    build_per_tuple: float
    probe_per_tuple: float
    transfer_per_tuple: float
    message_latency: float
    startup: float = 0.0

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
