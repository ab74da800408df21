"""``compare A.json B.json``: two result files against the regression bounds.

Per workload and end-to-end metric it prints both medians, how much worse
(+) or better (-) B is than A, and the bound.  With several runs per side
(``--repeat``) it also prints the run-to-run spread — the distance between
the quartiles as a share of the median, the larger of the two sides — and a
metric whose spread exceeds its bound is ``unresolved``: the runs cannot
tell a regression of that size from noise, so it is not reported as
unchanged.  Per-layer metrics of traced runs are rowed below; those that
are exact counts must be identical.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import ROOT
from benchmarks.e2e.spec import END_TO_END, EXTRA, PER_LAYER

#: Units of metrics that are counts made by the program: they repeat
#: exactly between two runs of the same code and seed.
EXACT_UNITS = ("count", "1/txn", "1/read", "B/txn")
#: Fsyncs are triggered by elapsed time (sync="interval"), so they are not.
TIME_TRIGGERED = ("wal.fsyncs",)


def bounds() -> Dict[str, Optional[float]]:
    """Regression bounds: BENCHMARK.json's, plus the metrics' outside it."""
    table = {spec.name: spec.bound for spec in END_TO_END + EXTRA}
    contract = ROOT / "BENCHMARK.json"
    if contract.exists():
        with open(contract) as handle:
            for entry in json.load(handle)["end_to_end"]:
                table[entry["name"]] = entry["bound"]
    return table


def load(path: Path) -> Dict[tuple, Dict[str, List[float]]]:
    """``{(workload, trace): {metric: [value per run]}}`` plus failures."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: Dict[tuple, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        key = (run["workload"], run["trace"])
        for name, metric in run["metrics"].items():
            values[key][name].append(metric["value"])
        values[key]["failed"].append(run["failed"])
    return values


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median; None for one run."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(before_path: Path, after_path: Path) -> int:
    before, after = load(before_path), load(after_path)
    limit = bounds()
    better = {spec.name: spec.better for spec in END_TO_END + EXTRA}
    breaches = failed = 0
    print(
        f"{'workload':15s} {'metric':20s} {'A':>12s} {'B':>12s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for (workload, trace), metrics in sorted(before.items()):
        other = after.get((workload, trace))
        if other is None:
            continue
        failed += sum(metrics["failed"]) + sum(other["failed"])
        if trace:
            continue
        for name in limit:
            if name not in metrics or name not in other:
                continue
            a, b = statistics.median(metrics[name]), statistics.median(other[name])
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            spreads = [s for s in (spread(metrics[name]), spread(other[name])) if s is not None]
            noise = max(spreads) if spreads else None
            bound = limit[name]
            if bound is None:
                verdict = "not gated"
            elif worse > bound:
                verdict = "BREACH"
                breaches += 1
            elif noise is not None and noise > bound:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            shown = "-" if noise is None else f"{noise:6.1%}"
            bound_shown = "-" if bound is None else f"{bound:6.0%}"
            print(
                f"{workload:15s} {name:20s} {a:12.3f} {b:12.3f} "
                f"{worse:+9.1%} {shown:>7s} {bound_shown:>6s}  {verdict}"
            )
    units = {spec.name: spec.unit for spec in PER_LAYER}
    for (workload, trace), metrics in sorted(before.items()):
        other = after.get((workload, trace))
        if not trace or other is None:
            continue
        for name, unit in units.items():
            a, b = statistics.median(metrics[name]), statistics.median(other[name])
            exact = unit in EXACT_UNITS and name not in TIME_TRIGGERED
            if exact:
                verdict = "identical" if a == b else "COUNT DIFFERS"
            else:
                verdict = ""
            change = f"{(b - a) / a:+9.1%}" if a else f"{'-':>9s}"
            print(f"{workload:15s} {name:44s} {a:12.3f} {b:12.3f} {change}  {verdict}")
    if failed:
        print(f"failed operations: {failed}")
    if breaches:
        print(f"metrics beyond their bound: {breaches}")
    return 1 if breaches or failed else 0
