"""The closed-loop driver, the per-op oracle check and the end-of-run checks.

One client, one thread: the next op is sent when the previous one returned.
Every op is timed around the single ``Session`` call it makes and checked
against the outcome its generator recorded; the check runs outside the
timed call but inside the window's wall time.
"""

from __future__ import annotations

import gc
import math
import random
import re
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.algebra.planner import plan_cache_info
from repro.engine.recovery import recover

from benchmarks.e2e.spec import END_TO_END, EXTRA, SETUP_REPEATS, workload_spec
from benchmarks.e2e.workloads import (
    ABORTS,
    COMMIT,
    COMMITS,
    EXECUTE,
    QUERY,
    ROWS,
    Env,
    Op,
    build,
    checksum,
)

#: Failure messages kept per run; the count is always exact.
MESSAGES_KEPT = 10


class Recorder:
    """Latencies by outcome class, and the oracle's verdict on every op."""

    def __init__(self):
        self.commit: List[float] = []
        self.reject: List[float] = []  # aborts and violated=True verdicts
        self.read: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def mark(self) -> tuple:
        """Where the latency lists end now; two marks delimit a window."""
        return len(self.commit), len(self.reject), len(self.read)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MESSAGES_KEPT:
            self.messages.append(message)

    def raised(self, op: Op, error: Exception) -> None:
        self.attempted += 1
        self.fail(f"{_describe(op)} raised {error!r}")

    def record(self, op: Op, result, seconds: float) -> None:
        self.attempted += 1
        expect = op.expect
        if expect == ROWS:
            self.read.append(seconds)
            if result != op.detail:
                self.fail(f"{_describe(op)} returned {result} rows, expected {op.detail}")
        elif expect == COMMITS:
            self.commit.append(seconds)
            if not result.committed:
                self.fail(f"{_describe(op)} had to commit: {result.reason}")
            elif (result.tuples_inserted, result.tuples_deleted) != op.detail:
                self.fail(
                    f"{_describe(op)} changed (+{result.tuples_inserted}, "
                    f"-{result.tuples_deleted}) rows, expected {op.detail}"
                )
            elif result.audit and not all(o.ok for o in result.audit):
                self.fail(f"{_describe(op)} clean commit audited as {result.audit}")
        elif expect == ABORTS:
            self.reject.append(seconds)
            if not result.aborted:
                self.fail(f"{_describe(op)} committed, had to abort on {op.detail}")
            elif result.reason.split(" ", 1)[0] != op.detail:
                self.fail(
                    f"{_describe(op)} aborted on {result.reason!r}, expected {op.detail}"
                )
        else:  # VIOLATED: commits, and the sync audit names exactly the rule
            self.reject.append(seconds)
            audit = result.audit or ()
            violated = frozenset(o.rule for o in audit if o.violated)
            if not result.committed or violated != op.detail:
                self.fail(
                    f"{_describe(op)} audit said {sorted(violated)}, "
                    f"expected {sorted(op.detail)}"
                )
            elif any(o.failed for o in audit):
                self.fail(f"{_describe(op)} had a failed audit task: {audit}")


def _describe(op: Op) -> str:
    text = op.payload if isinstance(op.payload, str) else repr(op.payload)
    return " ".join(text.split())[:80]


def drive(target, env: Env, ops: List[Op], recorder: Recorder) -> None:
    """Send ``ops`` one after another to ``target`` (a Session, or the traced
    stand-in with the same three methods)."""
    execute, commit, query = target.execute, target.commit, target.query
    clock = time.perf_counter
    for op in ops:
        kind = op.kind
        try:
            if kind == EXECUTE:
                start = clock()
                result = execute(op.payload)
                end = clock()
            elif kind == COMMIT:
                start = clock()
                result = commit(op.payload, audit="sync")
                end = clock()
            elif kind == QUERY:
                start = clock()
                result = len(query(op.payload, pinned=True))
                end = clock()
            else:
                env.repin()
                continue
        except Exception as error:  # an op that raises is a failed op
            recorder.raised(op, error)
            continue
        recorder.record(op, result, end - start)


class Reference:
    """How fast is the machine right now?

    The sandbox shares its cores.  For stretches of 0.1 s to minutes the
    same Python code runs up to 1.7x slower, in CPU time as much as in wall
    time, and whole runs differ by 25 %: no statistic over a run's own
    timings sees through that.  So the harness carries a reference: a fixed
    piece of Python work (arithmetic, dictionary and tuple work on a small
    table, tokenising a text; about 0.9 ms) is timed between windows, and
    every timing of a window is divided by the window's *slowdown*: the
    mean of the two reference timings that bracket it over
    ``PROBE_SECONDS``, what the same work takes on the undisturbed
    reference sandbox.  End-to-end times therefore read as seconds of that
    machine.  The reference work is the benchmark's own and calls nothing
    under ``src/``, so a change to the program cannot move it.
    """

    #: One probe between two windows on the reference sandbox (2 shared
    #: cores, Python 3.11) while undisturbed.  It starts on caches the
    #: workload's ops have just used, so it takes 0.8 to 1.0 ms depending on
    #: the workload (under 0.7 ms back to back); one value serves all.
    PROBE_SECONDS = 0.000900
    ROWS = 4_000
    TOKEN = re.compile(r"\s*(\d+|\w+|[(),;])")

    def __init__(self):
        rng = random.Random(0)
        self.table = {
            key: (key, rng.randrange(10_000), rng.randrange(1_000), f"name_{key}",
                  rng.randint(0, 10_000))
            for key in range(self.ROWS)
        }
        self.keys = [rng.randrange(self.ROWS) for _ in range(500)]
        self.text = "begin\n" + "\n".join(
            f"    insert(orders, ({i}, {i * 7 % 1000}, {i * 13 % 1000}, {i % 100}, {i * 3}));"
            for i in range(12)
        ) + "\nend"
        for _ in range(100):  # let the probe's own caches settle
            self.probe()

    def probe(self) -> float:
        """Seconds the reference work takes now.

        The collector is off meanwhile: a collection triggered by the
        probe's own allocations would charge the workload's heap (the traced
        run keeps a million spans) to the machine.
        """
        table, keys, text, token = self.table, self.keys, self.text, self.TOKEN
        gc.disable()
        start = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        rows = [table[key] for key in keys]
        chosen = {row for row in rows if row[4] > 5_000}
        groups: Dict[int, list] = {}
        for row in rows:
            groups.setdefault(row[2], []).append(row)
        total += sum(len(groups[row[2]]) for row in chosen)
        for _ in range(3):
            numbers = [int(word) for word in token.findall(text) if word.isdigit()]
            total += len(tuple(numbers[i:i + 5] for i in range(0, len(numbers), 5)))
        seconds = time.perf_counter() - start
        gc.enable()
        return seconds

    def slowdown(self, before: float, after: float) -> float:
        """Mean of two probes over the reference machine's probe time."""
        return (before + after) / 2 / self.PROBE_SECONDS

    def timed(self, call):
        """``(result, seconds, slowdown)`` of one long call, bracketed by a
        probe on either side like a window."""
        before = self.probe()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        return result, seconds, self.slowdown(before, self.probe())


class Window(NamedTuple):
    transactions: int
    seconds: float
    slowdown: float  # of the machine while the window ran
    start: tuple  # Recorder.mark() at the window's start and end
    end: tuple


def measure(
    target, env: Env, ops: List[Op], size: int, recorder: Recorder, reference: Reference
) -> List[Window]:
    """Drive ``ops`` in windows of ``size`` ops, a reference probe between them."""
    windows = []
    before = reference.probe()
    for offset in range(0, len(ops), size):
        chunk = ops[offset:offset + size]
        transactions = sum(1 for op in chunk if op.kind in (EXECUTE, COMMIT))
        mark = recorder.mark()
        start = time.perf_counter()
        drive(target, env, chunk, recorder)
        seconds = time.perf_counter() - start
        after = reference.probe()
        windows.append(
            Window(transactions, seconds, reference.slowdown(before, after), mark,
                   recorder.mark())
        )
        before = after
    return windows


COMMIT_SAMPLES, REJECT_SAMPLES, READ_SAMPLES = range(3)


class PassResult:
    """What one pass over a built workload measured and checked."""

    def __init__(self):
        self.warm = Recorder()
        self.measured = Recorder()
        self.verify = Recorder()  # the end-of-run verification reads
        self.windows: List[Window] = []
        self.verify_windows: List[Window] = []
        self.cache_hits = 0
        self.cache_misses = 0  # plan compilations inside the measured phase
        self.checksum = ""
        self.end_failures: List[str] = []
        self.recovery: Optional[dict] = None

    def samples(self, which: int, calibrated: bool = True) -> List[float]:
        """Latencies of one outcome class: commits and rejections from the
        measured phase, reads from it and from the verification reads; each
        divided by its window's slowdown unless ``calibrated`` is off."""
        out: List[float] = []
        phases = [(self.measured, self.windows)]
        if which == READ_SAMPLES:
            phases.append((self.verify, self.verify_windows))
        for recorder, windows in phases:
            latencies = (recorder.commit, recorder.reject, recorder.read)[which]
            for window in windows:
                scale = 1.0 / window.slowdown if calibrated else 1.0
                out.extend(
                    seconds * scale
                    for seconds in latencies[window.start[which]:window.end[which]]
                )
        return out

    def slowdown(self) -> float:
        """The machine's slowdown over the pass, weighted by window time."""
        windows = self.windows + self.verify_windows
        return sum(w.seconds for w in windows) / sum(w.seconds / w.slowdown for w in windows)

    @property
    def attempted(self) -> int:
        return self.warm.attempted + self.measured.attempted + self.verify.attempted

    @property
    def failed(self) -> int:
        return (
            self.warm.failed
            + self.measured.failed
            + self.verify.failed
            + len(self.end_failures)
        )

    @property
    def messages(self) -> List[str]:
        return (
            self.warm.messages
            + self.measured.messages
            + self.verify.messages
            + self.end_failures
        )[:MESSAGES_KEPT]


def run_pass(name: str, env: Env, reference: Reference, instrument=None) -> PassResult:
    """Warm up, measure in windows, verify, and close ``env``.

    ``instrument(env)`` (the traced run) returns the object that stands in
    for the session during the measured phase and the verification reads.
    """
    result = PassResult()
    size = workload_spec(name).window
    try:
        drive(env.session, env, env.ops[: env.warm], result.warm)
        target = instrument(env) if instrument is not None else env.session
        # GC stays enabled (users pay for it) but set-up garbage and the
        # long-lived database are taken out of its way first.
        gc.collect()
        gc.freeze()
        before = plan_cache_info()
        result.windows = measure(
            target, env, env.ops[env.warm:], size, result.measured, reference
        )
        after = plan_cache_info()
        result.cache_hits = after["hits"] - before["hits"]
        result.cache_misses = after["misses"] - before["misses"]
        result.verify_windows = measure(
            target, env, env.verify_reads, VERIFY_WINDOW, result.verify, reference
        )
        result.end_failures.extend(_state_failures(env))
        result.checksum = checksum(env.database)
    finally:
        env.close()
        gc.unfreeze()
    if env.wal_dir is not None:
        result.recovery = _recover_and_compare(env, reference, result.end_failures)
    return result


#: Verification reads per window (about 10 ms).
VERIFY_WINDOW = 50


def _state_failures(env: Env) -> List[str]:
    failures = []
    violated = env.controller.violated_constraints(env.database)
    if violated:
        failures.append(f"final state violates {violated}")
    for name, rows in env.expected.items():
        actual = set(env.database.relation(name))
        if actual != rows:
            failures.append(
                f"final {name} differs from the oracle: {len(actual - rows)} "
                f"unexpected, {len(rows - actual)} missing rows"
            )
    return failures


def _recover_and_compare(env: Env, reference: Reference, failures: List[str]) -> dict:
    """Recover from the log the run wrote; the state and the chain must hold."""
    segment_bytes = sum(
        path.stat().st_size for path in Path(env.wal_dir).glob("segment-*.wal")
    )
    (recovered, report), seconds, slowdown = reference.timed(
        lambda: recover(env.wal_dir, sync="interval")
    )
    try:
        for name in env.database.relation_names:
            if set(recovered.relation(name)) != set(env.database.relation(name)):
                failures.append(f"recovered {name} differs from the live state")
        verification = recovered.wal.verify()
        if not verification.ok:
            failures.append(f"hash chain does not verify: {verification}")
    finally:
        recovered.detach_wal()
    return {
        "seconds": seconds / slowdown,
        "raw_seconds": seconds,
        "replayed": report.replayed,
        "segment_bytes": segment_bytes,
        "commits": env.database.commit_log.next_sequence,
    }


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


#: Consecutive blocks a phase's samples are cut into for ``commit_p95_us``
#: and ``read_p95_us``.
TAIL_BLOCKS = 10


def block_percentile(samples: List[float], share: float) -> float:
    """Median over ``TAIL_BLOCKS`` consecutive blocks of the block's percentile.

    A stretch the calibration does not cover (a stalled write, a
    neighbour's burst inside one window) lifts the tail of a block or two;
    over all samples at once it moved the 95th percentile by 15 % between
    runs, block by block it moves it by 5 %.
    """
    size = max(len(samples) // TAIL_BLOCKS, 1)
    return statistics.median(
        percentile(samples[start:start + size], share)
        for start in range(0, min(size * TAIL_BLOCKS, len(samples)), size)
    )


def setup(name: str, seed: int, scale: float, workdir: Path, repeats: int,
          reference: Reference):
    """Build the workload ``repeats`` times; keep the last one.

    Returns ``(env, timings)`` with one ``(seconds, slowdown)`` per set-up.
    """
    env = None
    timings = []
    for index in range(repeats):
        if env is not None:
            env.close()
            env = None
        gc.collect()
        env, seconds, slowdown = reference.timed(
            lambda: build(name, seed, scale, workdir / f"setup-{index}")
        )
        timings.append((seconds, slowdown))
    return env, timings


_UNITS = {spec.name: spec.unit for spec in END_TO_END + EXTRA}


def metric(name: str, value: float, samples: int, raw: Optional[float] = None) -> dict:
    """``raw`` is the same statistic over the timings as the clock gave them."""
    return {"value": value, "unit": _UNITS[name], "samples": samples, "raw": raw}


def _latency_metrics(prefix: str, tail: bool, result: PassResult, which: int) -> Dict[str, dict]:
    """``<prefix>_p50_us`` and, with ``tail``, ``_p95_us`` and ``_p99_us``."""
    calibrated, raw = result.samples(which), result.samples(which, calibrated=False)
    statistic = {"p50": (percentile, 0.50)}
    if tail:
        statistic.update(p95=(block_percentile, 0.95), p99=(percentile, 0.99))
    return {
        f"{prefix}_{label}_us": metric(
            f"{prefix}_{label}_us",
            function(calibrated, share) * 1e6,
            len(calibrated),
            function(raw, share) * 1e6,
        )
        for label, (function, share) in statistic.items()
    }


def run_untraced(name: str, seed: int, scale: float, workdir: Path) -> dict:
    """The end-to-end run: every end-to-end metric of one workload."""
    reference = Reference()
    env, setups = setup(name, seed, scale, workdir, SETUP_REPEATS, reference)
    result = run_pass(name, env, reference)
    windows = result.windows
    metrics: Dict[str, dict] = {
        "setup_s": metric(
            "setup_s",
            statistics.median(seconds / slowdown for seconds, slowdown in setups),
            len(setups),
            statistics.median(seconds for seconds, _ in setups),
        ),
        "txn_per_s": metric(
            "txn_per_s",
            statistics.median(w.transactions * w.slowdown / w.seconds for w in windows),
            len(windows),
            statistics.median(w.transactions / w.seconds for w in windows),
        ),
        **_latency_metrics("commit", True, result, COMMIT_SAMPLES),
        **_latency_metrics("abort", False, result, REJECT_SAMPLES),
        **_latency_metrics("read", True, result, READ_SAMPLES),
        "peak_rss_mb": metric(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }
    if result.recovery is not None:
        recovery = result.recovery
        metrics["recovery_s"] = metric(
            "recovery_s", recovery["seconds"], 1, recovery["raw_seconds"]
        )
        metrics["wal_bytes_per_txn"] = metric(
            "wal_bytes_per_txn",
            recovery["segment_bytes"] / recovery["commits"],
            recovery["commits"],
        )
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.messages,
        "checksum": result.checksum,
        "measured_plan_cache_misses": result.cache_misses,
        "windows": len(windows),
        "slowdown": statistics.median(w.slowdown for w in windows),
        "metrics": metrics,
    }
