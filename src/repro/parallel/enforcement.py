"""Fragment-aware parallel enforcement: one plan-backed differential pipeline.

Earlier revisions enforced three hand-built full-relation check shapes
(domain scan, referential antijoin, exclusion semijoin) with bespoke
hash-build loops and a single strategy for the whole check.  This module
replaces that path with *one* executor: the translated (or
delta-rewritten) violation expression is compiled once by the planner and
executed per node against node-local operand bindings — exactly the
single-node physical plan, bound to fragments.

Movement is decided **per operand, not per relation set**:

* base relations already live fragmented at the nodes — they stay put;
* each differential operand (``R@plus`` / ``R@minus``, the only thing a
  commit actually produces) independently picks LOCAL (already
  co-fragmented with its join partner), REPARTITION (hash-ship each delta
  tuple to one node), or BROADCAST (replicate the delta everywhere);
* a requested non-AUTO strategy forces that movement for every movable
  operand — the PRISMA-style whole-check strategies of Grefen & Apers [7]
  fall out as the uniform special case, so
  :class:`EnforcementReport` keeps its LOCAL/BROADCAST/REPARTITION
  vocabulary.

Every node's work is priced by :func:`repro.parallel.cost_model.estimate`,
one walk over the compiled plan under that node's fragment cardinalities
(scan/build/probe split); communication is priced from the counted tuple
movement, and the calibrated cost model converts both into simulated
wall-clock time.  Real Python time is reported alongside.  The leaves the
enforcer binds per node are the expression's own (:func:`_leaf_names`).

There is one executor: the simulated nodes run one after another in this
process, each over its own bindings, so a placement moves references and
counts the tuples it would ship.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Union

from repro.algebra import expressions as E
from repro.algebra import planner
from repro.algebra import predicates as P
from repro.engine.relation import Relation
from repro.errors import FragmentationError
from repro.parallel.cost_model import CostModel, POOMA_1992, estimate
from repro.parallel.fragmentation import (
    FragmentationScheme,
    FragmentedRelation,
    HashFragmentation,
    RoundRobinFragmentation,
)
from repro.parallel.nodes import FragmentedDatabase, NodeStats


class Strategy(enum.Enum):
    AUTO = "auto"
    LOCAL = "local"
    BROADCAST = "broadcast"
    REPARTITION = "repartition"


@dataclass
class EnforcementReport:
    """Outcome of one parallel enforcement run."""

    check: str
    strategy: Strategy
    nodes: int
    violations: int
    sample: List[tuple]
    simulated_seconds: float
    python_seconds: float
    per_node: Dict[int, NodeStats] = field(default_factory=dict)
    tuples_shipped: int = 0
    #: Movement decision per operand name (the per-delta strategy choice).
    placements: Dict[str, Strategy] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def __repr__(self) -> str:
        return (
            f"EnforcementReport({self.check}, {self.strategy.value}, "
            f"{self.nodes} nodes, violations={self.violations}, "
            f"simulated={self.simulated_seconds:.3f}s)"
        )


class _NodeContext:
    """Name resolution for one node: every operand bound to local state."""

    __slots__ = ("relations",)

    def __init__(self, relations: Dict[str, Relation]):
        self.relations = relations

    def resolve(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise FragmentationError(
                f"operand {name!r} is not bound on this node"
            ) from None


@dataclass
class _Link:
    """One equi-join constraint between two leaf operands."""

    left_name: str
    left_attr: Union[int, str]
    right_name: str
    right_attr: Union[int, str]


class ParallelEnforcer:
    """Execute violation expressions over a :class:`FragmentedDatabase`."""

    def __init__(
        self,
        database: FragmentedDatabase,
        cost_model: CostModel = POOMA_1992,
    ):
        self.database = database
        self.cost_model = cost_model

    # -- the classic check entry points (now thin expression builders) ---------

    def domain_check(
        self,
        relation: Union[str, FragmentedRelation],
        violation_predicate: P.Predicate,
        max_sample: int = 3,
    ) -> EnforcementReport:
        """Each node selects violating tuples from its own fragment."""
        name, bindings = self._operand(relation)
        expression = E.Select(E.RelationRef(name), violation_predicate)
        return self.enforce_expression(
            expression,
            bindings=bindings,
            strategy=Strategy.AUTO,
            check="domain",
            max_sample=max_sample,
        )

    def referential_check(
        self,
        referer: Union[str, FragmentedRelation],
        referer_attr: Union[int, str],
        target: Union[str, FragmentedRelation],
        target_attr: Union[int, str],
        strategy: Strategy = Strategy.AUTO,
        max_sample: int = 3,
    ) -> EnforcementReport:
        """Referer tuples without a matching target tuple are violations."""
        left, bindings = self._operand(referer)
        right, more = self._operand(target)
        bindings.update(more)
        expression = E.AntiJoin(
            E.RelationRef(left),
            E.RelationRef(right),
            _equality(referer_attr, target_attr),
        )
        return self.enforce_expression(
            expression,
            bindings=bindings,
            strategy=strategy,
            check="referential",
            max_sample=max_sample,
        )

    def exclusion_check(
        self,
        left: Union[str, FragmentedRelation],
        left_attr: Union[int, str],
        right: Union[str, FragmentedRelation],
        right_attr: Union[int, str],
        strategy: Strategy = Strategy.AUTO,
        max_sample: int = 3,
    ) -> EnforcementReport:
        """Left tuples *with* a match on the right are violations (semijoin)."""
        left_name, bindings = self._operand(left)
        right_name, more = self._operand(right)
        bindings.update(more)
        expression = E.SemiJoin(
            E.RelationRef(left_name),
            E.RelationRef(right_name),
            _equality(left_attr, right_attr),
        )
        return self.enforce_expression(
            expression,
            bindings=bindings,
            strategy=strategy,
            check="exclusion",
            max_sample=max_sample,
        )

    # -- the pipeline -----------------------------------------------------------

    def enforce_expression(
        self,
        expression: E.Expression,
        bindings: Optional[Dict[str, Union[Relation, FragmentedRelation]]] = None,
        strategy: Strategy = Strategy.AUTO,
        check: Optional[str] = None,
        max_sample: int = 3,
    ) -> EnforcementReport:
        """Enforce one violation expression over the fragmented system.

        ``bindings`` maps operand names — differential auxiliaries above
        all — to either a :class:`FragmentedRelation` (the differential
        already lives distributed, e.g. per-node write logs) or a plain
        :class:`Relation` (a coordinator-held commit-log delta that must be
        shipped).  Unbound base names resolve to the database's fragmented
        relations.  Returns the union of per-node plan results as an
        :class:`EnforcementReport`.
        """
        bindings = dict(bindings or {})
        nodes = self.database.nodes
        stats = {node: NodeStats() for node in range(nodes)}
        check = check or _classify(expression)
        links = _links(expression)
        carrier = _carrier(expression)
        started = time.perf_counter()
        extra_shipped = 0
        placements: Dict[str, Strategy] = {}
        per_node: Dict[str, List[Relation]] = {}
        schemes: Dict[str, Optional[FragmentationScheme]] = {}

        order = _leaf_names(expression)
        # The carrier (outermost probe side) is placed first: joins hash
        # other operands to *its* fragmentation.
        if carrier in order:
            order.remove(carrier)
            order.insert(0, carrier)
        for name in order:
            source = self._source(name, bindings)
            is_carrier = name == carrier
            placement, fragments, scheme, shipped = self._place(
                name, source, is_carrier, links, schemes, strategy, stats
            )
            placements[name] = placement
            per_node[name] = fragments
            schemes[name] = scheme
            extra_shipped += shipped
        self._validate_links(links, schemes, placements, strategy)

        plan = planner.get_plan(expression)
        violations: List[tuple] = []
        for node in range(nodes):
            context = _NodeContext(
                {name: fragments[node] for name, fragments in per_node.items()}
            )
            violations.extend(plan.execute(context).rows())
        estimates = []
        for node in range(nodes):
            cards = {
                name: float(len(fragments[node]))
                for name, fragments in per_node.items()
            }
            estimates.append(estimate(plan, cards))
        elapsed = time.perf_counter() - started

        simulated = self.cost_model.startup + max(
            self.cost_model.weighted_node_time(
                stats[node],
                scanned=estimates[node].scanned,
                built=estimates[node].built,
                probed=estimates[node].probed,
            )
            for node in range(nodes)
        )
        shipped = extra_shipped + sum(
            node_stats.tuples_sent for node_stats in stats.values()
        )
        return EnforcementReport(
            check=check,
            strategy=_overall(strategy, placements),
            nodes=nodes,
            violations=len(violations),
            sample=sorted(violations, key=repr)[:max_sample],
            simulated_seconds=simulated,
            python_seconds=elapsed,
            per_node=stats,
            tuples_shipped=shipped,
            placements=placements,
        )

    # -- operand resolution and placement ----------------------------------------

    def _operand(self, relation) -> tuple:
        """Normalize a check argument to ``(name, bindings)``."""
        if isinstance(relation, FragmentedRelation):
            return relation.name, {relation.name: relation}
        return relation, {}

    def _source(self, name: str, bindings):
        if name in bindings:
            return bindings[name]
        if "@" in name:
            raise FragmentationError(
                f"auxiliary relation {name!r} is not bound; call "
                f"bind_auxiliary first"
            )
        return self.database.relation(name)

    def _place(
        self,
        name: str,
        source,
        is_carrier: bool,
        links: List[_Link],
        schemes: Dict[str, Optional[FragmentationScheme]],
        strategy: Strategy,
        stats: Dict[int, NodeStats],
    ) -> tuple:
        """Decide and perform one operand's movement.

        Returns ``(placement, per_node_fragments, effective_scheme,
        extra_shipped)``; ``effective_scheme`` is None for replicated
        operands (which are join-compatible with anything).
        """
        nodes = self.database.nodes
        link_attr = _link_attr(name, links)
        if isinstance(source, FragmentedRelation):
            if source.scheme.fragments != nodes:
                raise FragmentationError(
                    f"operand {name!r} is fragmented over "
                    f"{source.scheme.fragments} nodes, system has {nodes}"
                )
            if is_carrier:
                # The carrier anchors the check's fragmentation.  Explicit
                # REPARTITION rehashes it on the join attribute; AUTO does
                # so only when its current scheme could not possibly be
                # joined locally (attribute-blind or hashed on another
                # attribute) — partners placed later adapt to it otherwise.
                rehash = link_attr is not None and (
                    strategy is Strategy.REPARTITION
                    or (
                        strategy is Strategy.AUTO
                        and not _hashed_on(source.scheme, link_attr)
                    )
                )
                if rehash:
                    scheme = HashFragmentation(link_attr, nodes)
                    moved = self.database.repartition(source, scheme, stats)
                    return (
                        Strategy.REPARTITION,
                        list(moved.fragments),
                        scheme,
                        0,
                    )
                return Strategy.LOCAL, list(source.fragments), source.scheme, 0
            movement = self._movement(
                name, source.scheme, link_attr, links, schemes, strategy
            )
            if movement is Strategy.LOCAL:
                return Strategy.LOCAL, list(source.fragments), source.scheme, 0
            if movement is Strategy.REPARTITION:
                scheme = HashFragmentation(link_attr, nodes)
                moved = self.database.repartition(source, scheme, stats)
                return Strategy.REPARTITION, list(moved.fragments), scheme, 0
            merged = self.database.broadcast(source, stats)
            return Strategy.BROADCAST, [merged] * nodes, None, 0
        # A plain Relation: a coordinator-held delta that must be shipped.
        if strategy is Strategy.LOCAL:
            raise FragmentationError(
                f"operand {name!r} is not fragmented; LOCAL enforcement "
                f"requires co-fragmented operands — ship it with "
                f"REPARTITION or BROADCAST"
            )
        # The carrier is the probe side whose rows become violations: it
        # must live on exactly one node each (replicating it would count
        # every violation once per node), so it always partitions.
        replicate = not is_carrier and (
            strategy is Strategy.BROADCAST
            or (strategy is Strategy.AUTO and link_attr is None)
        )
        if replicate:
            for node in range(nodes):
                stats[node].tuples_received += len(source)
            return Strategy.BROADCAST, [source] * nodes, None, len(source) * nodes
        scheme: FragmentationScheme
        if link_attr is not None:
            scheme = HashFragmentation(link_attr, nodes)
        else:
            scheme = RoundRobinFragmentation(nodes)
        fragmented = FragmentedRelation(source.schema, scheme)
        for row in source.rows():
            node = fragmented.insert(row)
            stats[node].tuples_received += 1
        return (
            Strategy.REPARTITION,
            list(fragmented.fragments),
            scheme,
            len(source),
        )

    def _movement(
        self, name, scheme, link_attr, links, schemes, strategy
    ) -> Strategy:
        """Movement for a non-carrier fragmented operand under ``strategy``."""
        if strategy is Strategy.BROADCAST:
            return Strategy.BROADCAST
        compatible = _compatible_everywhere(name, scheme, links, schemes)
        if strategy is Strategy.LOCAL:
            if not compatible:
                raise FragmentationError(
                    "LOCAL strategy requires co-fragmented relations on the "
                    "join attributes; use BROADCAST or REPARTITION"
                )
            return Strategy.LOCAL
        if strategy is Strategy.REPARTITION:
            return (
                Strategy.REPARTITION
                if link_attr is not None
                else Strategy.BROADCAST
            )
        # AUTO: stay local when co-fragmented; otherwise ship each tuple
        # once (repartition) when a join attribute is known, replicate as
        # the last resort.
        if compatible:
            return Strategy.LOCAL
        if link_attr is not None:
            return Strategy.REPARTITION
        return Strategy.BROADCAST

    def _validate_links(self, links, schemes, placements, strategy) -> None:
        """Every equi-join must be node-local after placement."""
        for link in links:
            left_scheme = schemes.get(link.left_name)
            right_scheme = schemes.get(link.right_name)
            if right_scheme is None or left_scheme is None:
                continue  # a replicated side joins locally with anything
            if left_scheme.is_compatible_join(
                right_scheme, link.left_attr, link.right_attr
            ):
                continue
            if strategy is Strategy.LOCAL:
                raise FragmentationError(
                    "LOCAL strategy requires co-fragmented relations on the "
                    "join attributes; use BROADCAST or REPARTITION"
                )
            raise FragmentationError(
                f"operands {link.left_name!r} and {link.right_name!r} are "
                f"not co-fragmented on ({link.left_attr}, {link.right_attr}) "
                f"after placement"
            )


# ---------------------------------------------------------------------------
# Expression analysis
# ---------------------------------------------------------------------------


def _classify(expression: E.Expression) -> str:
    if isinstance(expression, E.Select):
        return "domain"
    if isinstance(expression, E.AntiJoin):
        return "referential"
    if isinstance(expression, E.SemiJoin):
        return "exclusion"
    raise FragmentationError(
        f"unsupported alarm shape for parallel enforcement: {expression!r}"
    )


def _leaf_names(expression: E.Expression) -> List[str]:
    """The names of the resolvable leaf operands, in tree order, once each.

    Every :class:`~repro.algebra.expressions.RelationRef` and
    :class:`~repro.algebra.expressions.Delta` leaf: what the enforcer binds
    per node — base names to node fragments, delta names (``R@plus`` /
    ``R@minus``) to node-local delta fragments, which the compiled
    :class:`~repro.algebra.physical.DeltaScanOp` resolves by name at
    execution time.
    """
    names: List[str] = []

    def visit(expr: E.Expression) -> None:
        if isinstance(expr, (E.RelationRef, E.Delta)):
            if expr.name not in names:
                names.append(expr.name)
            return
        for spec in fields(expr):
            value = getattr(expr, spec.name)
            if isinstance(value, E.Expression):
                visit(value)

    visit(expression)
    return names


def _carrier(expression: E.Expression) -> Optional[str]:
    """The probe-side leaf whose fragmentation anchors the check."""
    node = expression
    while True:
        if isinstance(node, (E.RelationRef, E.Delta)):
            return node.name
        if isinstance(node, E.Select):
            node = node.input
        elif isinstance(node, (E.SemiJoin, E.AntiJoin, E.Join)):
            node = node.left
        else:
            return None


def _links(expression: E.Expression) -> List[_Link]:
    """Equi-join constraints between leaves, validating the overall shape.

    Per-node evaluation of the compiled plan is only globally correct when
    the tree is built from selections and equi-joins over leaf operands
    (union-of-fragments distributes through those); anything else —
    aggregates, set operators, computed projections — is rejected exactly
    like the pre-pipeline shape dispatch rejected it.
    """
    links: List[_Link] = []

    def visit(node: E.Expression) -> None:
        if isinstance(node, (E.RelationRef, E.Delta)):
            return
        if isinstance(node, E.Select):
            visit(node.input)
            return
        if isinstance(node, (E.SemiJoin, E.AntiJoin, E.Join)):
            left_attr, right_attr = _equality_attributes(node.predicate)
            left_name = _carrier(node.left)
            right_name = _carrier(node.right)
            if left_name is None or right_name is None:
                raise FragmentationError(
                    "unsupported nested shape for parallel enforcement"
                )
            links.append(_Link(left_name, left_attr, right_name, right_attr))
            visit(node.left)
            visit(node.right)
            return
        raise FragmentationError(
            f"unsupported alarm shape for parallel enforcement: {node!r}"
        )

    visit(expression)
    return links


def _hashed_on(scheme: FragmentationScheme, attr) -> bool:
    """Is ``scheme`` hash fragmentation on exactly ``attr``?"""
    return isinstance(scheme, HashFragmentation) and scheme.attr == attr


def _link_attr(name: str, links: List[_Link]):
    """The join attribute ``name`` participates through, if any."""
    for link in links:
        if link.left_name == name:
            return link.left_attr
        if link.right_name == name:
            return link.right_attr
    return None


def _compatible_everywhere(name, scheme, links, schemes) -> bool:
    """Is ``name`` co-fragmented with every already-placed join partner?"""
    relevant = [
        link
        for link in links
        if name in (link.left_name, link.right_name)
    ]
    if not relevant:
        return True
    for link in relevant:
        if link.left_name == name:
            partner, my_attr, partner_attr = (
                link.right_name,
                link.left_attr,
                link.right_attr,
            )
        else:
            partner, my_attr, partner_attr = (
                link.left_name,
                link.right_attr,
                link.left_attr,
            )
        partner_scheme = schemes.get(partner)
        if partner not in schemes:
            continue  # partner not placed yet; it will adapt to us
        if partner_scheme is None:
            continue  # replicated partner: always local
        if link.left_name == name:
            ok = scheme.is_compatible_join(partner_scheme, my_attr, partner_attr)
        else:
            ok = partner_scheme.is_compatible_join(scheme, partner_attr, my_attr)
        if not ok:
            return False
    return True


def _overall(requested: Strategy, placements: Dict[str, Strategy]) -> Strategy:
    """The report-level strategy: the requested one, or the dominant
    movement actually performed under AUTO."""
    if requested is not Strategy.AUTO:
        return requested
    chosen = set(placements.values()) - {Strategy.LOCAL}
    if not chosen:
        return Strategy.LOCAL
    if Strategy.REPARTITION in chosen:
        return Strategy.REPARTITION
    return Strategy.BROADCAST


def _equality(left_attr, right_attr) -> P.Predicate:
    return P.Comparison(
        "=", P.ColRef(left_attr, "left"), P.ColRef(right_attr, "right")
    )


def _equality_attributes(predicate: P.Predicate):
    """Extract (left_attr, right_attr) from a single-equality θ."""
    if (
        isinstance(predicate, P.Comparison)
        and predicate.op == "="
        and isinstance(predicate.left, P.ColRef)
        and isinstance(predicate.right, P.ColRef)
    ):
        left, right = predicate.left, predicate.right
        if left.side == "left" and right.side == "right":
            return left.attr, right.attr
        if left.side == "right" and right.side == "left":
            return right.attr, left.attr
    raise FragmentationError(
        f"parallel join checks require a single attribute equality, "
        f"found {predicate!r}"
    )
