"""Real shared-nothing fragment workers for parallel enforcement.

:class:`~repro.parallel.enforcement.ParallelEnforcer` decides *placement*
(LOCAL, REPARTITION, BROADCAST); :class:`ProcessFragmentPool` makes the
nodes real as a client of the one :class:`~repro.core.workers.WorkerPool`.
Each node's worker process owns its base fragments (installed once); per
check only the *moved* operands cross process boundaries — the shipments
``tuples_shipped`` describes, with ``bytes_shipped`` their real pickle size
(each payload pickled once; a broadcast's blob goes down every live node's
inbox and counts once per node it reached) — and the compiled violation
plan runs on every node at once, each sending its violating rows back on
its own reply connection.  A relation of at least ``columnar.WIRE_MIN_ROWS``
distinct rows ships as packed columns (a
:class:`~repro.algebra.columnar.ColumnBatch`) and a node unpickles it into a
plain relation, so its operators read rows as they do anywhere else.  A
node the pool reports dead stays dead, and every later
:meth:`~ProcessFragmentPool.execute` names it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.algebra.columnar import decode_relation, encode_relation
from repro.core.workers import WorkerPool, decode
from repro.engine.relation import Relation
from repro.errors import FragmentationError


def _fragment_worker(endpoint) -> None:
    """One shared-nothing node: owned fragments + per-check bindings."""
    from repro.algebra import planner
    from repro.parallel.enforcement import _NodeContext

    owned: Dict[str, Relation] = {}
    bound: Dict[str, Relation] = {}
    for message in endpoint:
        kind = message[0]
        if kind in ("install", "bind"):
            relations = owned if kind == "install" else bound
            relations[message[1]] = decode_relation(decode(message[2]))
        elif kind == "clear":
            bound.clear()
        elif kind == "execute":
            request_id = message[1]
            try:
                plan = planner.get_plan(decode(message[2]))
                result = plan.execute(_NodeContext({**owned, **bound}))
                endpoint.reply((request_id, list(result.rows()), None))
            except Exception as error:  # ship the failure
                endpoint.reply((request_id, [], f"{type(error).__name__}: {error}"))


class ProcessFragmentPool:
    """A pool of worker processes, one per node, each owning a fragment.

    Lifecycle: create with the system's node count, hand to a
    :class:`~repro.parallel.enforcement.ParallelEnforcer` (which installs
    the base fragments it enforces over), run checks, :meth:`close`.
    The pool is enforcer-agnostic: it only knows named relations
    (installed = resident base fragments, bound = per-check shipped
    operands) and compiled expressions.
    """

    def __init__(self, nodes: int, start_method: Optional[str] = None):
        if nodes < 1:
            raise FragmentationError("node count must be >= 1")
        self.nodes = nodes
        self._pool = WorkerPool(_fragment_worker, nodes, start_method,
                                name="repro-fragment")
        self.start_method = self._pool.start_method
        self.installed: set = set()
        self.bytes_installed = 0
        self._next_request = 0

    # -- resident base fragments ------------------------------------------------

    def install(self, name: str, fragments: Sequence[Relation]) -> int:
        """Make ``fragments[i]`` resident on node ``i``; returns bytes put
        (a dead node is sent nothing)."""
        if len(fragments) != self.nodes:
            raise FragmentationError(
                f"{len(fragments)} fragments for {self.nodes} nodes"
            )
        sent = self._send_each("install", name, fragments)
        self.installed.add(name)
        self.bytes_installed += sent
        return sent

    def ensure_database(self, database) -> int:
        """Install every not-yet-installed relation of a FragmentedDatabase."""
        if database.nodes != self.nodes:
            raise FragmentationError(
                f"pool has {self.nodes} nodes, database has {database.nodes}"
            )
        sent = 0
        for name in database.relation_names:
            if name not in self.installed:
                sent += self.install(name, database.relation(name).fragments)
        return sent

    # -- per-check operand shipment ---------------------------------------------

    def bind_fragments(self, name: str, fragments: Sequence[Relation]) -> int:
        """Ship ``fragments[i]`` to node ``i`` as a per-check binding;
        returns bytes put (a dead node is sent nothing)."""
        return self._send_each("bind", name, fragments)

    def broadcast_bind(self, name: str, relation: Relation) -> int:
        """Replicate one relation to every live node (one blob, one put per
        node); returns the bytes put, so a dead node adds nothing."""
        return self._pool.broadcast(("bind", name), encode_relation(relation))

    def clear_bindings(self) -> None:
        self._pool.broadcast(("clear",))

    def _send_each(self, kind: str, name: str, fragments) -> int:
        return sum(
            self._pool.send(node, (kind, name), encode_relation(fragment))
            for node, fragment in enumerate(fragments)
        )

    # -- execution ---------------------------------------------------------------

    def execute(self, expression) -> List[List[tuple]]:
        """Run the compiled expression on every node at once; rows per node.

        A node that died (OOM kill, ``terminate()``, even mid-reply) raises
        :class:`FragmentationError` naming it, as does a worker error."""
        request_id = self._next_request
        self._next_request += 1
        self._pool.broadcast(("execute", request_id), expression)
        rows: List[Optional[List[tuple]]] = [None] * self.nodes
        errors: List[str] = []
        dead = sorted(self._pool.dead)
        waiting = self.nodes - len(dead)
        while waiting:
            replies, died = self._pool.wait()
            for node, (reply_id, node_rows, error) in replies:
                if reply_id != request_id:  # stale reply from an abandoned run
                    continue
                rows[node] = node_rows
                if error is not None:
                    errors.append(f"node {node}: {error}")
                waiting -= 1
            for node in died:
                if rows[node] is None:
                    dead.append(node)
                    waiting -= 1
        if dead:
            raise FragmentationError(
                "parallel enforcement failed: worker process died on node(s) "
                + ", ".join(map(str, sorted(dead)))
            )
        if errors:
            raise FragmentationError(
                "parallel enforcement failed on " + "; ".join(sorted(errors))
            )
        return rows

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "ProcessFragmentPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for w in self._pool.processes if w.is_alive())
        return (f"ProcessFragmentPool({alive}/{self.nodes} workers alive, "
                f"{self.start_method}, {len(self.installed)} resident relations)")
