"""Real shared-nothing fragment workers for parallel enforcement.

:class:`~repro.parallel.enforcement.ParallelEnforcer` decides *placement*
— which operand fragments live where (LOCAL), which ship tuple-by-tuple to
their hash home (REPARTITION), and which replicate everywhere (BROADCAST).
Until now the decided movement was simulated: every "node" was a dict of
relations in the coordinator process.  This module makes the nodes real:

* a :class:`ProcessFragmentPool` starts one worker *process* per node;
* each worker **owns** its node's base-relation fragments, installed once
  (pickled over the worker's pipe) when an enforcer adopts the pool;
* per enforcement, only the *moved* operands cross process boundaries —
  serialized Δ batches for repartitioned/broadcast deltas, rehashed
  carrier fragments — exactly the shipments the placement decisions and
  ``tuples_shipped`` accounting already describe, now with measured bytes;
* the compiled violation plan executes on every node concurrently, and
  only violating rows travel back.

The coordinator serializes each payload exactly once (a broadcast reuses
one blob for all nodes), so reported ``bytes_shipped`` is the real pickle
cost of the movement, not an estimate.  Relations at or above
``columnar.WIRE_MIN_ROWS`` distinct rows ship as
:class:`~repro.algebra.columnar.ColumnBatch` payloads — per-attribute
typed arrays pickle substantially smaller than per-row tuple dicts —
and workers decode them back to relations on arrival.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
from typing import Dict, List, Optional, Sequence

from repro.algebra.columnar import decode_relation, encode_relation
from repro.engine.relation import Relation
from repro.errors import FragmentationError

PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _fragment_worker(node: int, inbox, outbox) -> None:
    """One shared-nothing node: owned fragments + per-check bindings."""
    from repro.algebra import planner
    from repro.parallel.enforcement import _NodeContext

    owned: Dict[str, Relation] = {}
    bound: Dict[str, Relation] = {}
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "install":
            # Lazy decode: fragments stay columnar until an operator needs
            # rows — scans and re-ships start straight from the columns.
            owned[message[1]] = decode_relation(
                pickle.loads(message[2]), lazy=True
            )
        elif kind == "bind":
            bound[message[1]] = decode_relation(
                pickle.loads(message[2]), lazy=True
            )
        elif kind == "clear":
            bound.clear()
        elif kind == "execute":
            request_id, blob = message[1], message[2]
            try:
                expression = pickle.loads(blob)
                context = _NodeContext({**owned, **bound})
                result = planner.get_plan(expression).execute(context)
                outbox.put((request_id, node, list(result.rows()), None))
            except BaseException as error:
                outbox.put(
                    (request_id, node, [], f"{type(error).__name__}: {error}")
                )


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
        from repro.core.procpool import default_start_method

        self.nodes = nodes
        self.start_method = start_method or default_start_method()
        self._context = multiprocessing.get_context(self.start_method)
        self._outbox = self._context.Queue()
        self._inboxes = []
        self._workers = []
        for node in range(nodes):
            inbox = self._context.Queue()
            worker = self._context.Process(
                target=_fragment_worker,
                args=(node, inbox, self._outbox),
                name=f"repro-fragment-{node}",
                daemon=True,
            )
            worker.start()
            self._inboxes.append(inbox)
            self._workers.append(worker)
        self.installed: set = set()
        self.bytes_installed = 0
        self._next_request = 0
        self._closed = False

    # -- resident base fragments ------------------------------------------------

    def install(self, name: str, fragments: Sequence[Relation]) -> int:
        """Make ``fragments[i]`` resident on node ``i``; returns bytes sent."""
        if len(fragments) != self.nodes:
            raise FragmentationError(
                f"{len(fragments)} fragments for {self.nodes} nodes"
            )
        sent = 0
        for inbox, fragment in zip(self._inboxes, fragments):
            blob = pickle.dumps(
                encode_relation(fragment), protocol=PICKLE_PROTOCOL
            )
            inbox.put(("install", name, blob))
            sent += len(blob)
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
        """Ship ``fragments[i]`` to node ``i`` as a per-check binding."""
        sent = 0
        for inbox, fragment in zip(self._inboxes, fragments):
            blob = pickle.dumps(
                encode_relation(fragment), protocol=PICKLE_PROTOCOL
            )
            inbox.put(("bind", name, blob))
            sent += len(blob)
        return sent

    def broadcast_bind(self, name: str, relation: Relation) -> int:
        """Replicate one relation to every node (one blob, n shipments)."""
        blob = pickle.dumps(encode_relation(relation), protocol=PICKLE_PROTOCOL)
        for inbox in self._inboxes:
            inbox.put(("bind", name, blob))
        return len(blob) * self.nodes

    def clear_bindings(self) -> None:
        for inbox in self._inboxes:
            inbox.put(("clear",))

    # -- execution ---------------------------------------------------------------

    def execute(self, expression) -> List[List[tuple]]:
        """Run the compiled expression on every node; rows per node index.

        The execute message fans out to all workers before any reply is
        collected, so the per-node plans genuinely run concurrently.  A
        worker that died (OOM kill, ``terminate()``) never replies: the wait
        polls for liveness and raises :class:`FragmentationError` naming the
        dead node(s) instead of blocking forever.
        """
        from repro.core.procpool import RESULT_POLL_SECONDS

        request_id = self._next_request
        self._next_request += 1
        blob = pickle.dumps(expression, protocol=PICKLE_PROTOCOL)
        for inbox in self._inboxes:
            inbox.put(("execute", request_id, blob))
        rows: List[Optional[List[tuple]]] = [None] * self.nodes
        errors: List[str] = []
        collected = 0
        while collected < self.nodes:
            try:
                reply_id, node, node_rows, error = self._outbox.get(
                    timeout=RESULT_POLL_SECONDS
                )
            except queue_module.Empty:
                dead = [
                    node
                    for node, worker in enumerate(self._workers)
                    if rows[node] is None and not worker.is_alive()
                ]
                if dead:
                    raise FragmentationError(
                        "parallel enforcement failed: worker process died "
                        "on node(s) " + ", ".join(map(str, dead))
                    ) from None
                continue
            if reply_id != request_id:  # stale reply from an abandoned run
                continue
            rows[node] = node_rows
            if error is not None:
                errors.append(f"node {node}: {error}")
            collected += 1
        if errors:
            raise FragmentationError(
                "parallel enforcement failed on "
                + "; ".join(sorted(errors))
            )
        return [node_rows if node_rows else [] for node_rows in rows]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for inbox, worker in zip(self._inboxes, self._workers):
            if worker.is_alive():
                try:
                    inbox.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover - race
                    pass
        for worker in self._workers:
            worker.join(timeout=10.0)
        for worker in self._workers:
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.terminate()
                worker.join(timeout=1.0)

    def __enter__(self) -> "ProcessFragmentPool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(1 for w in self._workers if w.is_alive())
        return (
            f"ProcessFragmentPool({alive}/{self.nodes} workers alive, "
            f"{self.start_method}, {len(self.installed)} resident relations)"
        )
