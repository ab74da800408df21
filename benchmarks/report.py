"""Shared report collector for the benchmark harness.

Benchmarks register paper-style result rows here; the conftest's
``pytest_terminal_summary`` hook renders every experiment as an aligned
table at the end of the run, so ``pytest benchmarks/ --benchmark-only``
reproduces the paper's evaluation artifacts in one pass (alongside
pytest-benchmark's own timing table).

The gated benchmarks additionally emit ``bench_*.json`` artifacts (the
files CI uploads); ``python -m benchmarks.report`` folds every artifact
present on disk — incremental audit, transaction write path, the async
pipeline with its executor ladder, the columnar batch/wire numbers, and the
per-transaction front end (lexer and memoised ModT, gated; the token column
scan and the whole ``parse_transaction`` against the same character
scanner, informational) — into one gate-status summary table.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Sequence

_REGISTRY: "OrderedDict[str, dict]" = OrderedDict()


def mean_seconds(benchmark) -> float:
    """Mean time of a pytest-benchmark fixture run.

    Tolerates ``--benchmark-disable`` (the CI smoke mode), where the
    fixture's ``stats`` attribute is None because nothing was timed.
    """
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return float("nan")
    return stats["mean"]


def experiment(identifier: str, title: str, columns: Sequence[str]) -> None:
    """Declare an experiment (id, human title, column headers)."""
    if identifier not in _REGISTRY:
        _REGISTRY[identifier] = {
            "title": title,
            "columns": list(columns),
            "rows": [],
        }


def record(identifier: str, *values) -> None:
    """Append one result row to an experiment."""
    _REGISTRY[identifier]["rows"].append([_fmt(value) for value in values])


def note(identifier: str, text: str) -> None:
    """Attach a free-text note (expected shape, paper reference)."""
    _REGISTRY[identifier].setdefault("notes", []).append(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_all() -> str:
    """Render every recorded experiment as aligned text tables."""
    blocks: List[str] = []
    for identifier, data in _REGISTRY.items():
        if not data["rows"]:
            continue
        blocks.append(_render_one(identifier, data))
    return "\n\n".join(blocks)


def _render_one(identifier: str, data: dict) -> str:
    header = [data["columns"]]
    # Rows may carry fewer cells than the header (e.g. a wire-bytes row
    # inside a timing experiment); pad so alignment never fails.
    arity = len(data["columns"])
    rows = [row + [""] * (arity - len(row)) for row in data["rows"]]
    widths = [
        max(len(row[i]) for row in header + rows)
        for i in range(len(data["columns"]))
    ]

    def line(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    separator = "  ".join("-" * width for width in widths)
    parts = [f"== {identifier}: {data['title']} ==", line(data["columns"]), separator]
    parts.extend(line(row) for row in rows)
    for text in data.get("notes", []):
        parts.append(f"   note: {text}")
    return "\n".join(parts)


def reset() -> None:
    _REGISTRY.clear()


# -- JSON artifact summary ------------------------------------------------------

_ARTIFACTS = (
    "bench_incremental.json",
    "bench_transaction.json",
    "bench_async_audit.json",
    "bench_columnar.json",
    "bench_durability.json",
    "bench_mvcc.json",
    "bench_frontend.json",
)


def _artifact_rows(name: str, data: dict) -> List[list]:
    """Flatten one artifact into (source, dimension, measured, floor) rows."""
    rows: List[list] = []
    floor = data.get("speedup_floor")
    # The transaction write-path bench reports a size ladder but gates
    # only its largest size; smaller rows are informational.
    sizes = data.get("sizes")
    gated_suffix = f"@{max(sizes)}" if sizes else None
    for variant, stats in data.get("variants", {}).items():
        gated = gated_suffix is None or variant.endswith(gated_suffix)
        # A variant may carry its own floor (the front-end bench gates two
        # unrelated ratios and reports two more with a null floor);
        # otherwise the artifact's floor applies.
        variant_floor = stats.get("floor", floor)
        rows.append(
            [name, variant, stats.get("speedup"), variant_floor if gated else None]
        )
    if "pipeline_seconds" in data:  # async pipeline drain
        rows.append([name, "pipeline vs sequential", data.get("speedup"), floor])
    ladder = data.get("executor_ladder")
    if ladder:
        dimension = (
            f"process vs thread ({ladder.get('workers')} workers, "
            f"{ladder.get('cpu_count')} cores)"
        )
        rows.append(
            [
                name,
                dimension,
                ladder.get("process_vs_thread"),
                ladder.get("process_speedup_floor") if ladder.get("gated") else None,
            ]
        )
    ladder_floors = {  # columnar operators: two rows carry a floor
        "audit plan (gated)": data.get("composite_speedup_floor"),
        "select-project-join": data.get("chain_speedup_floor"),
    }
    for plan, stats in data.get("ladder", {}).items():
        rows.append(
            [
                name,
                f"plan vs reference: {plan}",
                stats.get("speedup"),
                ladder_floors.get(plan),
            ]
        )
    for policy, ratio in data.get("retained", {}).items():  # durable log
        gated = policy == "interval"  # group commit carries the floor
        rows.append(
            [
                name,
                f"sync={policy} retained commit throughput",
                ratio,
                data.get("group_commit_floor") if gated else None,
            ]
        )
    if "wire_ratio" in data:
        rows.append(
            [
                name,
                "columnar vs row broadcast bytes",
                data.get("wire_ratio"),
                data.get("wire_ratio_floor"),
            ]
        )
    snapshot = data.get("snapshot")  # epoch MVCC pins
    if snapshot:
        rows.append(
            [
                name,
                f"epoch pin vs eager snapshot @n={snapshot.get('n'):,}",
                snapshot.get("speedup"),
                data.get("snapshot_speedup_floor"),
            ]
        )
        reader = data.get("reader", {})
        rows.append(
            [
                name,
                "pinned query under writer vs quiet live",
                reader.get("ratio"),
                data.get("reader_ratio_floor"),
            ]
        )
        reclamation = data.get("reclamation", {})
        rows.append(
            [name, "commit with rolling pin vs bare", reclamation.get("overhead"), None]
        )
        point = data.get("point_read", {})
        rows.append(
            [
                name,
                f"pinned indexed point read vs live "
                f"({point.get('retained_entries')} entries retained)",
                point.get("ratio"),
                None,
            ]
        )
        one_shot = data.get("one_shot_point_read", {})
        rows.append(
            [
                name,
                f"one-shot point read vs live ({one_shot.get('pins_taken')} pins taken)",
                one_shot.get("ratio"),
                None,
            ]
        )
        projection = data.get("projection_read", {})
        rows.append(
            [
                name,
                f"pinned projection vs live "
                f"({projection.get('rows')} rows)",
                projection.get("ratio"),
                None,
            ]
        )
    return rows


def _gate_table(directory: Path | str | None = None) -> List[List[str]]:
    """Rendered gate rows for every ``bench_*.json`` present on disk."""
    base = Path(directory) if directory is not None else Path(__file__).parent
    rows: List[List[str]] = []
    for filename in _ARTIFACTS:
        path = base / filename
        if not path.exists():
            continue
        try:
            data = json.loads(path.read_text())
        except ValueError:
            continue
        for source, dimension, measured, floor in _artifact_rows(
            path.stem, data
        ):
            if measured is None:
                continue
            if floor is None:
                status = "—"
            else:
                status = "pass" if measured >= floor else "FAIL"
            rows.append(
                [
                    source,
                    dimension,
                    f"{measured:.2f}x",
                    f">={floor:g}x" if floor is not None else "—",
                    status,
                ]
            )
    return rows


def summarize_artifacts(directory: Path | str | None = None) -> str:
    """One gate-status table over every ``bench_*.json`` present on disk."""
    rows = _gate_table(directory)
    if not rows:
        return "no benchmark artifacts found"
    data = {
        "title": "gated dimensions across all JSON artifacts",
        "columns": ["artifact", "dimension", "measured", "floor", "gate"],
        "rows": rows,
    }
    return _render_one("benchmark summary", data)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: print the gate table, optionally enforce it.

    ``--strict`` exits non-zero when any gated dimension is below its
    floor (or when no artifacts exist at all), so CI can end a benchmark
    job with one authoritative pass/fail over every emitted artifact.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.report",
        description="Summarize bench_*.json gate status.",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any gate failed or no artifacts were found",
    )
    parser.add_argument(
        "--directory",
        default=None,
        help="directory holding bench_*.json artifacts (default: benchmarks/)",
    )
    options = parser.parse_args(argv)
    rows = _gate_table(options.directory)
    print(summarize_artifacts(options.directory))
    if not options.strict:
        return 0
    if not rows:
        print("strict mode: no artifacts found")
        return 1
    failed = [row for row in rows if row[-1] == "FAIL"]
    if failed:
        print(f"strict mode: {len(failed)} gate(s) below floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
