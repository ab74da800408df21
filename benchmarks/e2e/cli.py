"""Command line of the benchmark.

``python -m benchmarks.e2e`` runs workloads and prints every metric by name;
``python -m benchmarks.e2e compare A.json B.json`` rows two result files
against the regression bounds.  Every run of a workload happens in a fresh
subprocess (``python -m benchmarks.e2e worker ...``), so the process-global
plan caches and the memory high-water mark of one run cannot leak into the
next.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from benchmarks.e2e import ROOT
from benchmarks.e2e.compare import compare
from benchmarks.e2e.spec import (
    END_TO_END,
    PER_LAYER,
    REFERENCE_SECONDS,
    WORKLOAD_NAMES,
)

#: Scratch space (write-ahead logs, worker results) inside the checkout;
#: git-ignored and removed when the run ends.
WORK = Path(__file__).resolve().parent / ".work"


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark: five workloads through Session.",
    )
    top.add_argument(
        "--workload", nargs="+", action="extend", choices=WORKLOAD_NAMES,
        metavar="NAME", help=f"one or more of {', '.join(WORKLOAD_NAMES)} (default: all)",
    )
    top.add_argument("--seed", type=int, default=1993)
    size = top.add_mutually_exclusive_group()
    size.add_argument(
        "--scale", type=float,
        help="multiply every op count by this factor (default 1.0)",
    )
    size.add_argument(
        "--seconds", type=float,
        help=f"the same knob in seconds: scale = seconds / {REFERENCE_SECONDS:g}",
    )
    top.add_argument(
        "--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
        help="0: end-to-end run (default); 1: traced per-layer run; "
        "bare --trace: both",
    )
    top.add_argument(
        "--repeat", type=int, default=1,
        help="run each workload this often, on seeds seed, seed+1, ...",
    )
    top.add_argument("--out", type=Path, help="write all results as one JSON file")
    top.add_argument(
        "--spans", type=Path, help="directory to dump the traced runs' spans into"
    )
    return top


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        options = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        options.add_argument("before", type=Path)
        options.add_argument("after", type=Path)
        args = options.parse_args(argv[1:])
        return compare(args.before, args.after)
    if argv and argv[0] == "worker":
        return worker(argv[1:])
    args = parser().parse_args(argv)
    if args.scale is not None:
        scale = args.scale
    elif args.seconds is not None:
        scale = args.seconds / REFERENCE_SECONDS
    else:
        scale = 1.0
    if scale <= 0:
        parser().error("--scale/--seconds must be positive")
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    names = args.workload or list(WORKLOAD_NAMES)
    if args.spans is not None:
        args.spans.mkdir(parents=True, exist_ok=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runs = []
    try:
        for name in names:
            for repeat in range(args.repeat):
                for mode in modes:
                    spans = None
                    if mode == 1 and args.spans is not None:
                        spans = args.spans / f"{name}-{args.seed + repeat}.spans.json"
                    run = spawn(name, args.seed + repeat, scale, mode, workdir, spans)
                    report(run)
                    runs.append(run)
    except subprocess.CalledProcessError as error:
        print(f"worker failed: {' '.join(error.cmd)}", file=sys.stderr)
        return error.returncode or 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"fingerprint": fingerprint(), "runs": runs}, handle, indent=1)
    failed = sum(run["failed"] for run in runs)
    if len(runs) == 1:
        print(json.dumps(contract_result(runs[0])))
    else:
        print(f"{len(runs)} runs, failed = {failed}")
    return 1 if failed else 0


def spawn(name, seed, scale, mode, workdir: Path, spans) -> dict:
    """Run one workload once in a fresh interpreter; return its result."""
    rundir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir))
    detail = rundir / "result.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e", "worker",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
        "--trace", str(mode), "--workdir", str(rundir), "--detail", str(detail),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    # String hashes are salted per process and set the layout of every
    # dictionary of rows; a fixed salt takes that out of run-to-run noise.
    environment = dict(os.environ, PYTHONHASHSEED="0")
    try:
        subprocess.run(command, cwd=ROOT, check=True, env=environment)
        with open(detail) as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def worker(argv: List[str]) -> int:
    options = argparse.ArgumentParser(prog="python -m benchmarks.e2e worker")
    options.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    options.add_argument("--seed", type=int, required=True)
    options.add_argument("--scale", type=float, required=True)
    options.add_argument("--trace", type=int, choices=(0, 1), required=True)
    options.add_argument("--workdir", type=Path, required=True)
    options.add_argument("--detail", type=Path, required=True)
    options.add_argument("--spans", type=Path)
    args = options.parse_args(argv)
    # Imported here: only the worker needs ``repro`` and a built database.
    if args.trace:
        from benchmarks.e2e.tracing import run_traced

        result = run_traced(args.workload, args.seed, args.scale, args.workdir, args.spans)
    else:
        from benchmarks.e2e.harness import run_untraced

        result = run_untraced(args.workload, args.seed, args.scale, args.workdir)
    with open(args.detail, "w") as handle:
        json.dump(result, handle)
    return 0


def report(run: dict) -> None:
    """Print every metric of one run by name, with unit and sample count."""
    kind = "traced" if run["trace"] else "end-to-end"
    print(
        f"== {run['workload']}  {kind}  seed={run['seed']} scale={run['scale']:g}  "
        f"ops={run['attempted']} failed={run['failed']}  "
        f"plan-cache misses while measuring={run['measured_plan_cache_misses']}  "
        f"checksum={run['checksum'][:12]}"
    )
    if not run["trace"]:
        print(
            f"   the machine ran {run['slowdown']:.2f}x slower than the reference "
            f"(median of {run['windows']} windows); times are calibrated to it"
        )
    for name, metric in run["metrics"].items():
        samples = "" if metric["samples"] is None else f"  n={metric['samples']}"
        raw = "" if metric.get("raw") is None else f"  as clocked {metric['raw']:.3f}"
        print(f"   {name:44s} {metric['value']:14.3f} {metric['unit']:9s}{samples}{raw}")
    for message in run["failures"]:
        print(f"   FAILED: {message}")
    sys.stdout.flush()


def contract_result(run: dict) -> dict:
    """The one-line result the benchmark contract asks for."""
    names = [spec.name for spec in (PER_LAYER if run["trace"] else END_TO_END)]
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {
                "value": run["metrics"][name]["value"],
                "unit": run["metrics"][name]["unit"],
            }
            for name in names
        },
    }


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the checkout need not be a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }
