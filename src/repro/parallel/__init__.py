"""Parallel constraint enforcement on fragmented relations.

The paper's prototype ran on PRISMA/DB, a parallel main-memory DBMS on an
8-node POOMA multiprocessor, using the fragmented-relation enforcement
algorithms of Grefen & Apers (*Parallel Handling of Integrity Constraints
on Fragmented Relations*, DPDS 1990 — the paper's [7]).  We do not have a
POOMA; this package substitutes a **simulated multi-node system**:

* relations are horizontally fragmented (hash / range / round-robin) over
  ``n`` simulated nodes (:mod:`repro.parallel.fragmentation`);
* the fragmented enforcement algorithms *actually run* on the fragments,
  one simulated node after another in this process, counting the tuples
  and messages each node ships and receives
  (:mod:`repro.parallel.enforcement`);
* an analytic cost model calibrated against Section 7's two published
  measurements prices each node's compiled plan under its fragment sizes,
  adds its counted traffic, and so turns a run into simulated wall-clock
  time (:mod:`repro.parallel.cost_model`).

This preserves exactly what the paper's evaluation demonstrates: the
*shape* of parallel enforcement cost — local checks scale near-linearly
when relations are co-fragmented on the join attribute, redistribution
strategies pay shipping costs, domain checks are about 3x cheaper than
referential checks on the Section 7 workload.
"""

from repro.parallel.fragmentation import (
    FragmentedRelation,
    HashFragmentation,
    RangeFragmentation,
    RoundRobinFragmentation,
)
from repro.parallel.nodes import FragmentedDatabase, NodeStats
from repro.parallel.cost_model import CostModel, POOMA_1992
from repro.parallel.enforcement import (
    EnforcementReport,
    ParallelEnforcer,
    Strategy,
)
from repro.parallel.bridge import ParallelRuleEnforcer

__all__ = [
    "CostModel",
    "EnforcementReport",
    "FragmentedDatabase",
    "FragmentedRelation",
    "HashFragmentation",
    "NodeStats",
    "POOMA_1992",
    "ParallelEnforcer",
    "ParallelRuleEnforcer",
    "RangeFragmentation",
    "RoundRobinFragmentation",
    "Strategy",
]
