"""Runtime statistics feeding the planner's cost estimates.

PR 1 priced plans with fixed textbook selectivities and a default relation
cardinality.  This module closes that loop: a :class:`RuntimeStatistics`
snapshot captures the *observed* state of a database — per-relation tuple
counts plus the distinct-key counts of every built hash index — and plugs
into :meth:`repro.algebra.physical.PhysicalOperator.estimate` wherever a
plain ``{name: cardinality}`` mapping was accepted before (the snapshot is
mapping-compatible via :meth:`RuntimeStatistics.get`).

Distinct-key counts turn the magic ``EQUALITY_SELECTIVITY`` constant into
the classic ``|R| / V(R, a)`` estimate for equality selections and
``|L| · |R| / max(V(L, a), V(R, b))`` for equi-joins.

The write path feeds back too: every committed transaction records its net
differential sizes into the database's
:class:`~repro.engine.database.DeltaObservations`, and snapshots expose the
per-relation EWMA under the auxiliary names (``"R@plus"``/``"R@minus"``) so
delta-plan scans price from the observed |Δ| distribution instead of
:data:`repro.algebra.physical.DEFAULT_DELTA_CARDINALITY`.

Snapshots are cheap (one ``len`` per relation, one per built index), so the
planner re-captures them freely; :meth:`drifted` is the cache-invalidation
predicate — a per-database plan computed under an old snapshot is reused
until some observed cardinality drifts past a threshold factor.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Drift factor: a cached plan survives until some relation's cardinality
#: grows or shrinks past this multiple of the captured value.
DRIFT_THRESHOLD = 2.0

#: Pseudo-count guarding the drift ratio against empty relations.
_SMOOTHING = 8.0


class RuntimeStatistics:
    """A point-in-time statistics snapshot of one database state.

    ``cardinalities`` maps relation names to tuple counts; ``distinct`` maps
    ``(relation, attribute-names)`` pairs to the number of distinct keys the
    corresponding built hash index currently holds; ``delta_sizes`` maps
    auxiliary differential names (``"R@plus"`` / ``"R@minus"``) to the
    EWMA |Δ| observed over committed transactions
    (:class:`repro.engine.database.DeltaObservations`) — what lets
    :class:`~repro.algebra.physical.DeltaScanOp` price delta plans from the
    workload's actual write sizes instead of a fixed default.
    """

    __slots__ = ("cardinalities", "distinct", "delta_sizes", "logical_time")

    def __init__(
        self,
        cardinalities: Optional[Dict[str, float]] = None,
        distinct: Optional[Dict[Tuple[str, tuple], int]] = None,
        logical_time: int = 0,
        delta_sizes: Optional[Dict[str, float]] = None,
    ):
        self.cardinalities = dict(cardinalities or {})
        self.distinct = dict(distinct or {})
        self.delta_sizes = dict(delta_sizes or {})
        self.logical_time = logical_time

    @classmethod
    def capture(cls, database) -> "RuntimeStatistics":
        """Snapshot a :class:`~repro.engine.database.Database`."""
        cardinalities: Dict[str, float] = {}
        distinct: Dict[Tuple[str, tuple], int] = {}
        for relation in database:
            name = relation.schema.name
            cardinalities[name] = float(len(relation))
            indexes = relation.indexes
            if indexes is None:
                continue
            for index in indexes:
                if not index.built:
                    continue
                attrs = tuple(
                    relation.schema.attributes[position].name
                    for position in index.positions
                )
                distinct[(name, attrs)] = index.distinct_keys
        delta_stats = getattr(database, "delta_stats", None)
        delta_sizes = dict(delta_stats.sizes) if delta_stats is not None else {}
        return cls(
            cardinalities,
            distinct,
            logical_time=database.logical_time,
            delta_sizes=delta_sizes,
        )

    # -- mapping compatibility (what ``estimate(cards)`` consumes) ----------

    def get(self, name: str, default=None):
        value = self.cardinalities.get(name)
        if value is not None:
            return value
        value = self.delta_sizes.get(name)
        if value is not None:
            return value
        return default

    def __contains__(self, name: str) -> bool:
        return name in self.cardinalities or name in self.delta_sizes

    def distinct_keys(self, name: str, attrs) -> Optional[int]:
        """Distinct key count of the built index on ``(name, attrs)``."""
        if attrs is None:
            return None
        return self.distinct.get((name, tuple(attrs)))

    # -- drift ---------------------------------------------------------------

    def drift(self, other: "RuntimeStatistics") -> float:
        """How far apart two snapshots are, as a ratio (always >= 1.0).

        The largest per-relation cardinality ratio and per-index
        distinct-key ratio; a built index appearing or disappearing between
        snapshots is infinite drift (estimates computed without the index's
        selectivity information are structurally stale, not just scaled).
        Smoothing keeps empty/new relations from producing infinite ratios.
        """
        if set(self.distinct) != set(other.distinct):
            return float("inf")
        worst = 1.0
        for name in set(self.cardinalities) | set(other.cardinalities):
            mine = self.cardinalities.get(name, 0.0) + _SMOOTHING
            theirs = other.cardinalities.get(name, 0.0) + _SMOOTHING
            ratio = mine / theirs if mine > theirs else theirs / mine
            if ratio > worst:
                worst = ratio
        for key, mine in self.distinct.items():
            theirs = other.distinct[key]
            mine += _SMOOTHING
            theirs += _SMOOTHING
            ratio = mine / theirs if mine > theirs else theirs / mine
            if ratio > worst:
                worst = ratio
        # Observed delta sizes drift like cardinalities (smoothed, so a
        # delta name appearing with a small EWMA does not read as infinite).
        for name in set(self.delta_sizes) | set(other.delta_sizes):
            mine = self.delta_sizes.get(name, 0.0) + _SMOOTHING
            theirs = other.delta_sizes.get(name, 0.0) + _SMOOTHING
            ratio = mine / theirs if mine > theirs else theirs / mine
            if ratio > worst:
                worst = ratio
        return worst

    def drifted(self, other: "RuntimeStatistics") -> bool:
        """True when plans computed under ``self`` are stale for ``other``."""
        return self.drift(other) > DRIFT_THRESHOLD

    def __repr__(self) -> str:
        return (
            f"RuntimeStatistics({len(self.cardinalities)} relations, "
            f"{len(self.distinct)} indexed keys, "
            f"{len(self.delta_sizes)} delta sizes, t={self.logical_time})"
        )
