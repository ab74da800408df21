"""Architecture cases: what must not come back under ``src/``.

Each case names a design decision and the ``grep`` calls that find a
regression of it.  A call runs from the repository root exactly as written,
its output lines are filtered by the case's exemption (a line prefix that
may match), and any line left is a regression.  ``grep`` exits 1 when
nothing matches; any other non-zero exit is a broken case and fails it too.
"""

import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FRONT = ["src/repro/algebra/parser.py", "src/repro/lex.py", "src/repro/engine/session.py"]

#: (case, [(grep arguments, exempt line prefix or None, what a match means)]),
#: each case under the decision it guards.
CASES = [
    # No operator path selector and no second operator protocol (one kernel
    # per physical operator, run by execute).
    (
        "one-operator-protocol",
        [
            (
                ["-rn", r"_batch_mode\|_fuse_mode\|BATCH_MIN_ROWS\|BATCH_ESTIMATE_ROWS", "src/"],
                None,
                "a row/batch/fused path selector is back in src/",
            ),
            (
                ["-rn", r"produce_batch\|apply_batch\|FusedPipelineOp\|fuse_pipelines\|right_restrict\|_restricted_buckets", "src/"],
                None,
                "the fused-region layer (a second operator protocol beside "
                "execute) is back in src/",
            ),
        ],
    ),
    # No module-global per-database plan table (a database's plans are the
    # database's: Database.plans).
    (
        "no-global-plan-table",
        [
            (
                ["-rnE", r"\b_DATABASE_PLANS\b", "src/"],
                None,
                "planner._DATABASE_PLANS (a module-global WeakKeyDictionary of "
                "per-database plans) is back in src/",
            ),
        ],
    ),
    # One bounded table (every memo is a repro.bounded.BoundedTable; its
    # file() is the only eviction and the only filing lock).
    (
        "one-bounded-table",
        [
            (
                ["-rnE", "_SchemaLRU|file_bounded|_ESTIMATE_CACHE|plan_estimate|MODIFICATION_MEMO_LIMIT", "src/"],
                None,
                "a second bounded memo, or the estimate cache, is back in src/",
            ),
            (
                ["-rnF", "next(iter(", "src/"],
                "src/repro/bounded.py:",
                "a FIFO eviction outside repro.bounded.BoundedTable.file",
            ),
        ],
    ),
    # No module-global text memo in the parser, the lexer or the session (a
    # parsed query text is the database's: Database.query_texts).
    (
        "no-global-text-memo",
        [
            (
                ["-nEi", r"^[A-Za-z_0-9]*(cache|memo|texts|parsed)[A-Za-z_0-9]*\s*(:[^=]*)?=", *FRONT],
                None,
                "a module-global text memo is in the parser, the lexer or the "
                "session",
            ),
            (
                ["-nwE", "lru_cache|cache", *FRONT],
                None,
                "functools.lru_cache/cache is in the parser, the lexer or the "
                "session",
            ),
        ],
    ),
    # One worker pool (only core/workers.py creates processes, queues or
    # pipes, and only it pickles pool traffic; no poll interval; one wire, no
    # shared-memory transport).
    (
        "one-worker-pool",
        [
            (
                ["-rnE", r"get_context\(|\.Process\(|\.Queue\(|Pipe\(", "src/"],
                "src/repro/core/workers.py:",
                "a process, queue or pipe is created outside core/workers.py",
            ),
            (
                ["-rnE", "RESULT_POLL_SECONDS|_ATTACH_TRACKS", "src/"],
                None,
                "a liveness poll interval or the shm attach probe is back in src/",
            ),
            (
                ["-nE", r"pickle\.", "src/repro/core/procpool.py"],
                None,
                "a pool client pickles its own traffic; use "
                "core/workers.encode/decode",
            ),
            (
                ["-rnE", "shared_memory|resource_tracker|SHM_MIN_BYTES|ShmTransport", "src/"],
                None,
                "a second pool transport is back in src/; pool payloads travel "
                "as pickled bytes on the pipe",
            ),
        ],
    ),
    # One process client (the §7 enforcer runs its simulated nodes in this
    # process; the worker pool's one client is the audit executor, so the
    # pool has no per-worker payload send).
    (
        "one-process-client",
        [
            (
                ["-rnE", "ProcessFragmentPool|_fragment_worker|_ship_moved|bytes_shipped|bytes_installed", "src/repro/"],
                None,
                "the fragment process pool (a second WorkerPool client) is "
                "back in src/",
            ),
            (
                ["-nE", r"def send\(", "src/repro/core/workers.py"],
                None,
                "WorkerPool.send (the fragment pool's per-worker payload put) "
                "is back",
            ),
        ],
    ),
    # repro.parallel is a leaf (the section 7 reproduction is imported by
    # nothing else under src/; the audit scheduler prices by settled rates,
    # not the cost model).
    (
        "parallel-is-a-leaf",
        [
            (
                ["-rnE", r"^\s*(from|import) repro\.parallel", "src/repro/"],
                "src/repro/parallel/",
                "a module outside src/repro/parallel/ imports repro.parallel",
            ),
            (
                ["-rnE", "predict_audit_time|pricing_program|cost_model=", "src/repro/core/"],
                None,
                "the audit scheduler is back on the cost model",
            ),
        ],
    ),
    # One commit stream (the commit log's records are the only list of applied
    # deltas; epochs.retain is its one window).
    (
        "one-commit-stream",
        [
            (
                ["-rnE", r"EpochEntry|append_at|DEFAULT_CAPACITY|truncate_through|CommitLog\(capacity", "src/"],
                None,
                "a second list of commit records, or a second window over it, "
                "is back in src/",
            ),
        ],
    ),
    # An index is built by the first plan that asks for it (the advisor
    # declares; no benefit threshold, no build hurdle).
    (
        "index-built-on-ask",
        [
            (
                ["-rnE", "min_benefit|BUILD_AMORTIZE_HURDLE|forgone_work|deferred_cost", "src/"],
                None,
                "an estimate-driven index build threshold is back in src/",
            ),
        ],
    ),
    # One way to modify, one way to retire an index (no controller mode or
    # second selector; the unread rule, not user thresholds, unbuilds an
    # index).
    (
        "one-way-to-modify",
        [
            (
                ["-rnE", r"\bMODES\b|def _selector|def sel_ps|def trig_p|def modify_program|def drop_unused|min_probes|min_keys", "src/"],
                None,
                "a controller mode, a second SelPS/ConcatP, or the drop-unused "
                "policy is back in src/",
            ),
        ],
    ),
    # One checkpoint format (a whole database per checkpoint; the log after it
    # carries every later change, so no delta checkpoint and no chain
    # resolver).
    (
        "one-checkpoint-format",
        [
            (
                ["-rnE", "dckpt|DELTA_CHECKPOINT|write_delta_checkpoint|load_checkpoint_chain|_compose_chain|_resolve_chain", "src/"],
                None,
                "a delta checkpoint or its chain resolver is back in src/",
            ),
        ],
    ),
    # No lost audits (a scheduler is a cursor the commit stream keeps its
    # commits for, so there is no gap outcome and no replica resync).
    (
        "no-lost-audits",
        [
            (
                ["-rnE", r'mode="gap"|def resync|_resync_from_log|_hold_wal|process-replicas|\("resync",\)', "src/"],
                None,
                "a gap outcome, a replica resync or its WAL hold is back in src/",
            ),
        ],
    ),
    # Plans run as written (a plan depends on the expression and the schema,
    # never on the data: no chain reordering, no runtime statistics, no
    # per-commit delta sizes).
    (
        "plans-as-written",
        [
            (
                ["-rnE", "reorder_chains|RuntimeStatistics|DeltaObservations|delta_stats|DRIFT_THRESHOLD|_distinct_keys|estimate_expression", "src/"],
                None,
                "cost-based reordering, runtime statistics or the delta-size "
                "EWMA is back in src/",
            ),
        ],
    ),
    # A plan only executes: no per-operator tracer, and no estimate on the
    # operators (what a plan costs is the one walk of
    # repro.parallel.cost_model, the §7 package that prices it).
    (
        "plans-only-execute",
        [
            (
                ["-rnE", "tracer|TracingContext|OperatorTrace|_trace|PlanEstimate|def estimate", "src/repro/algebra/"],
                None,
                "an operator tracer or a plan estimate is back in "
                "src/repro/algebra/",
            ),
        ],
    ),
    # One way to materialize a pinned relation (adopt a dead reader's dict
    # rolled forward, or copy once under the write gate): the live row dict
    # is never shared, so no copy-on-write detach and no optimistic rounds.
    (
        "one-materialization",
        [
            (
                ["-rnE", "_cow_shares|_register_share|_unregister_share|_cow_swap|_cow_detach_rows|_merge_locked|_detached", "src/"],
                None,
                "zero-copy sharing, copy-on-write detach or a second "
                "materialization path is back in src/",
            ),
        ],
    ),
    # One write path for base relations: every change is one apply_deltas
    # batch (a bulk load too), so no pin is ever fenced off, no relation
    # object is swapped in and no index migrates between relations.
    (
        "one-write-path",
        [
            (
                ["-rnE", r"quiesce|_quiescent|_fenced|_issued_pins|migrate_indexes|\.fence\b", "src/"],
                None,
                "the quiesce fence or index migration is back in src/",
            ),
            (
                ["-rnE", r"def install\(", "src/"],
                None,
                "a relation-replacing install (Database.install) is back in src/",
            ),
        ],
    ),
    # One in-memory form of a relation: a ColumnBatch exists only on the
    # wire (built when pickled, a plain Relation again when unpickled), so
    # no columnar-backed relation, no cached batch on a relation and no
    # lazy decode or per-call wire threshold.
    (
        "one-relation-form",
        [
            (
                ["-rnE", r'ColumnarRelation|column_batch|_invalidate_batch|\._batch\b|"_batch"|lazy=|min_rows', "src/"],
                None,
                "a second in-memory form of a relation (a columnar-backed "
                "relation, a cached batch, a lazy decode or a wire threshold "
                "parameter) is back in src/",
            ),
        ],
    ),
    # One Δ derivation for checks and views (a view stores the per-trigger
    # pieces of repro.algebra.delta; it builds no delta expression itself
    # and no caller picks its maintenance mode).
    (
        "one-delta-derivation",
        [
            (
                ["-rnE", "plus_name|minus_name|_choose_mode", "src/repro/views/"],
                None,
                "a view builds its own delta expression or takes a "
                "maintenance mode again",
            ),
        ],
    ),
    # One check form: a condition compiles to alarms, one per CNF clause,
    # and only untranslatable residue is a CheckConstraint (no verdict tree
    # evaluated beside the alarms).
    (
        "one-check-form",
        [
            (
                ["-rnE", "_AndNode|_OrNode|_PlanLeaf|_NaiveLeaf|CompiledConstraint|conjunctive_plan_expressions|naive_residue", "src/repro/"],
                None,
                "the verdict-tree evaluator (or a per-statement residue flag) "
                "is back in src/",
            ),
        ],
    ),
    # One projection kernel: a projection reads rows (ProjectOp's row
    # kernel), never an index's distinct keys, so no index, overlay or
    # snapshot view hands out a keys view for one.
    (
        "one-projection-kernel",
        [
            (
                ["-rnE", r'_projected_keys|_key_index|_corrected_keys|plain_attrs|touch\("project"', "src/repro/"],
                None,
                "the index-only projection (a second projection kernel) is "
                "back in src/",
            ),
            (
                ["-nE", r"def keys\(", "src/repro/engine/indexes.py", "src/repro/engine/overlay.py", "src/repro/engine/epochs.py"],
                None,
                "an index, overlay or snapshot keys view is back",
            ),
        ],
    ),
]


def _matches(arguments, exempt):
    done = subprocess.run(
        ["grep", *arguments], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode in (0, 1), done.stderr
    lines = done.stdout.splitlines()
    if exempt is not None:
        lines = [line for line in lines if not line.startswith(exempt)]
    return lines


@pytest.mark.parametrize(
    "checks", [checks for _, checks in CASES], ids=[case for case, _ in CASES]
)
def test_architecture_case(checks):
    found = {
        meaning: lines
        for arguments, exempt, meaning in checks
        for lines in [_matches(arguments, exempt)]
        if lines
    }
    assert not found, found
