"""E10 — columnar batch execution vs row-at-a-time interpretation.

PRs 1-6 removed the asymptotic waste from enforcement; what remained was
the constant factor of per-tuple Python interpretation.  This benchmark
evaluates the *same expressions* two ways over identical data — the
reference tree-walk interpreter (``Expression.evaluate``, row at a time)
and the production path (``planner.evaluate`` under a database-bearing
context: the schema-aware rewrites, then one whole-column kernel per
operator) — and asserts both the verdict parity and the speedups the
issue gates on:

* an operator ladder (large-scan selection, computed projection, hash
  join, select-project-join composite) at 100k rows, reported reference
  vs plan;
* the **select-project-join chain** gated at >= 2x plan-over-reference:
  the planner pushes the selection below the join, so the pairs it would
  discard are never built;
* the **audit-shaped violation query** ``π[a](r ⊳ σ[d<1000](s))`` — the
  antijoin against qualified targets that referential integrity rules
  compile to (violators = rows with no valid target) — gated at >= 2x
  (the PR 7 gate, unchanged);
* the wire format: a 100k-row relation broadcast to four workers
  (:func:`~repro.core.workers.encode` of
  :func:`~repro.algebra.columnar.encode_relation`, the bytes a
  ``WorkerPool.broadcast`` puts on each inbox) must take at least 1.5x
  fewer bytes with columnar pickling than the per-row form.

Measured numbers are emitted as ``benchmarks/bench_columnar.json`` for
the CI build artifact; ``python -m benchmarks.report --strict`` turns
any gate miss into a non-zero exit.
"""

from __future__ import annotations

import json
import pickle
import random
import time
from pathlib import Path

import pytest

from benchmarks import report
from repro.algebra import planner
from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.engine import Database, DatabaseSchema, RelationSchema
from repro.engine.session import DatabaseView
from repro.engine.types import INT

EXPERIMENT = "E10 / columnar batch execution"
ROWS_R = 100_000
ROWS_S = 50_000
ROUNDS = 4
#: The audit-shaped plan must run >= this much faster planned than
#: interpreted; the single-operator ladder rows are informational.
COMPOSITE_SPEEDUP_FLOOR = 2.0
#: The select-project-join chain must run >= this much faster planned
#: (selection pushed below the join) than interpreted.
CHAIN_SPEEDUP_FLOOR = 2.0
CHAIN_PLAN = "select-project-join"
#: The 100k-row broadcast must pickle >= this much smaller column-wise.
WIRE_RATIO_FLOOR = 1.5
BROADCAST_NODES = 4
JSON_PATH = Path(__file__).resolve().parent / "bench_columnar.json"


def rs_schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", INT)]),
            RelationSchema("s", [("c", INT), ("d", INT)]),
        ]
    )


def database(seed: int = 1993) -> Database:
    rng = random.Random(seed)
    db = Database(rs_schema())
    # ~1/6 of r's keys dangle entirely; s's d-attribute qualifies 1/4 of
    # the targets, so the gated violation query has real work on both
    # sides of the antijoin.
    db.load("r", [(i, rng.randrange(ROWS_S * 6 // 5)) for i in range(ROWS_R)])
    db.load("s", [(j, rng.randrange(4000)) for j in range(ROWS_S)])
    return db


def _join_on_b_eq_c():
    return E.Join(
        E.RelationRef("r"),
        E.RelationRef("s"),
        P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
    )


PLANS = {
    # σ[b < 25000](r): one predicate kernel over a 100k-row scan.
    "select 100k": E.Select(
        E.RelationRef("r"), P.Comparison("<", P.ColRef(2), P.Const(ROWS_S // 2))
    ),
    # π[a+b, b](r): a computed projection — scalar kernel + row assembly.
    "project 100k": E.Project(
        E.RelationRef("r"),
        (
            E.ProjectItem(P.Arith("+", P.ColRef(1), P.ColRef(2))),
            E.ProjectItem(P.ColRef(2)),
        ),
    ),
    # π[a,b](r ⋈ s): hash join probe + batch pair assembly.
    "join 100k x 50k": E.Project(
        _join_on_b_eq_c(),
        (E.ProjectItem(P.ColRef(1)), E.ProjectItem(P.ColRef(2))),
    ),
    # π[a,b,d](σ[d<1000](r ⋈ s)): the full select-project-join composite.
    "select-project-join": E.Project(
        E.Select(_join_on_b_eq_c(), P.Comparison("<", P.ColRef(4), P.Const(1000))),
        (
            E.ProjectItem(P.ColRef(1)),
            E.ProjectItem(P.ColRef(2)),
            E.ProjectItem(P.ColRef(4)),
        ),
    ),
    # The gated audit shape: the violation query a referential rule
    # compiles to — r-rows with no *qualified* target in s.
    "audit plan (gated)": E.Project(
        E.AntiJoin(
            E.RelationRef("r"),
            E.Select(
                E.RelationRef("s"),
                P.Comparison("<", P.ColRef(2), P.Const(1000)),
            ),
            P.Comparison("=", P.ColRef(2, "left"), P.ColRef(1, "right")),
        ),
        (E.ProjectItem(P.ColRef(1)),),
    ),
}


def _timed(evaluate, context) -> tuple:
    """(best seconds, result) over ROUNDS calls of ``evaluate(context)``."""
    best = None
    result = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = evaluate(context)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best, result


def _declare_experiment() -> None:
    """Both tests record rows under it; either may run alone."""
    report.experiment(
        EXPERIMENT,
        f"the same expressions over r({ROWS_R:,}) / s({ROWS_S:,}), "
        "reference interpreter vs planner.evaluate",
        ["plan", "reference (ms)", "plan (ms)", "speedup"],
    )


@pytest.mark.benchmark(group="columnar")
def test_batch_operator_ladder(benchmark):
    _declare_experiment()

    def run():
        # A database-bearing context: the planner's schema-aware rewrites
        # (selection pushdown on the SPJ row) are part of what is measured.
        context = DatabaseView(database())
        measured = {}
        for name, expression in PLANS.items():
            reference_seconds, reference = _timed(expression.evaluate, context)
            plan_seconds, planned = _timed(
                lambda ctx: planner.evaluate(expression, ctx), context
            )
            assert planned == reference, f"plan parity broken on {name!r}"
            measured[name] = (reference_seconds, plan_seconds, len(reference))
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    ladder = {}
    for name, (reference_seconds, plan_seconds, cardinality) in measured.items():
        speedup = reference_seconds / plan_seconds
        ladder[name] = {
            "reference_seconds": reference_seconds,
            "plan_seconds": plan_seconds,
            "output_rows": cardinality,
            "speedup": speedup,
        }
        report.record(
            EXPERIMENT,
            name,
            f"{reference_seconds * 1000:.2f}",
            f"{plan_seconds * 1000:.2f}",
            f"{speedup:.2f}x",
        )
    report.note(
        EXPERIMENT,
        "identical expressions; the plan runs every operator's whole-column "
        "kernel with a relation at each operator boundary, over the "
        "expression as the planner rewrote it, and verdict parity with the "
        "reference interpreter is asserted on every plan before any timing "
        "is reported",
    )
    composite = ladder["audit plan (gated)"]["speedup"]
    chain = ladder[CHAIN_PLAN]["speedup"]
    _merge_json(
        {
            "experiment": EXPERIMENT,
            "rows_r": ROWS_R,
            "rows_s": ROWS_S,
            "composite_speedup_floor": COMPOSITE_SPEEDUP_FLOOR,
            "chain_speedup_floor": CHAIN_SPEEDUP_FLOOR,
            "ladder": ladder,
            "composite_speedup": composite,
            "chain_speedup": chain,
        }
    )
    assert composite >= COMPOSITE_SPEEDUP_FLOOR, (
        f"audit-shaped plan ran at {composite:.2f}x over reference, below the "
        f"{COMPOSITE_SPEEDUP_FLOOR}x floor"
    )
    assert chain >= CHAIN_SPEEDUP_FLOOR, (
        f"select-project-join ran at {chain:.2f}x over reference, below the "
        f"{CHAIN_SPEEDUP_FLOOR}x floor"
    )


@pytest.mark.benchmark(group="columnar")
def test_broadcast_bytes_shipped(benchmark):
    """A 100k-row broadcast ships >= 1.5x fewer bytes column-wise.

    A broadcast pickles its payload once and puts the same blob on every
    inbox, so the bytes it ships are one blob's size per node; measured
    here on the codec alone, with no worker process."""
    from repro.algebra.columnar import encode_relation
    from repro.core.workers import encode

    def run():
        db = database()
        relation = db.relation("r")
        row_blob = pickle.dumps(relation, protocol=pickle.HIGHEST_PROTOCOL)
        row_bytes = len(row_blob) * BROADCAST_NODES
        columnar_bytes = len(encode(encode_relation(relation))) * BROADCAST_NODES
        return row_bytes, columnar_bytes

    row_bytes, columnar_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = row_bytes / columnar_bytes
    _declare_experiment()
    report.record(
        EXPERIMENT,
        f"broadcast {ROWS_R // 1000}k rows x {BROADCAST_NODES} nodes",
        f"{row_bytes / 1e6:.2f} MB (rows)",
        f"{columnar_bytes / 1e6:.2f} MB (columns)",
        f"{ratio:.2f}x",
    )
    _merge_json(
        {
            "broadcast_nodes": BROADCAST_NODES,
            "broadcast_row_bytes": row_bytes,
            "broadcast_columnar_bytes": columnar_bytes,
            "wire_ratio": ratio,
            "wire_ratio_floor": WIRE_RATIO_FLOOR,
        }
    )
    assert ratio >= WIRE_RATIO_FLOOR, (
        f"columnar broadcast only {ratio:.2f}x smaller, below the "
        f"{WIRE_RATIO_FLOOR}x floor"
    )


def _merge_json(payload: dict) -> None:
    """Update bench_columnar.json in place (both tests feed one file)."""
    existing = {}
    if JSON_PATH.exists():
        try:
            existing = json.loads(JSON_PATH.read_text())
        except ValueError:
            existing = {}
    existing.update(payload)
    JSON_PATH.write_text(json.dumps(existing, indent=2) + "\n")
