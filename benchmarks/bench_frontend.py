"""E12 — the fixed per-transaction front end: lexing and ModT.

Nothing a small textual transaction pays before its first row is touched
depends on the data: the text is tokenised and parsed, and transaction
modification appends the checks its trigger set calls for.  Two gated
ratios, on the inputs of the end-to-end benchmark's ``oltp_text`` workload
(``benchmarks/e2e``: a star schema under 8 rules, 1-5 row inserts and
single-row deletes as ``begin ... end`` texts):

* **lexer** — ``repro.lex.tokenize`` (one master regex) against the
  hand-written character scanner it replaced, kept verbatim in
  ``tests/engine/reference_lexer.py``.  Floor 1.4x.
* **ModT** — ``IntegrityController.modify_transaction`` (static mode: the
  rounds are memoised per trigger set in the program store) against the
  unmemoised algorithm, ``mod_t`` with a fresh ``StaticSelector``, on the
  star rule set.  Floor 2x.

Two more rows are informational and carry no floor.  They time, against
the same character scanner, what a textual commit pays since the token
stream became columns: the column scan alone (``TokenStream(text)``:
``kinds`` and ``values``, no ``Token``, no positions) and the whole
``parse_transaction``.

All are A/B measurements on a shared machine, so every side is timed in
``ROUNDS`` interleaved rounds (A, B, C, A, B, C, ...) and a ratio is taken
between two minima: a stall hits one round of one side, not the gate.
Numbers are emitted as ``benchmarks/bench_frontend.json`` for the CI gate
(``python -m benchmarks.report --strict``) and build artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks import report
from benchmarks.e2e import workloads
from repro.algebra.parser import parse_transaction
from repro.core.modification import ModificationStats, StaticSelector, mod_t
from repro.lex import TokenStream, tokenize
from tests.engine.reference_lexer import tokenize as reference_tokenize

EXPERIMENT = "E12 / per-transaction front end"
SEED = 1993
TRANSACTIONS = 2_000
ROUNDS = 5
LEXER_SPEEDUP_FLOOR = 1.4
MODT_SPEEDUP_FLOOR = 2.0
JSON_PATH = Path(__file__).resolve().parent / "bench_frontend.json"


def _interleaved(*bodies, rounds: int = ROUNDS):
    """Seconds per call of each side: minimum over interleaved rounds."""
    best = [float("inf")] * len(bodies)
    for _ in range(rounds):
        for side, body in enumerate(bodies):
            started = time.perf_counter()
            body()
            best[side] = min(best[side], time.perf_counter() - started)
    return best


@pytest.mark.benchmark(group="frontend")
def test_frontend_speedups(benchmark, tmp_path):
    report.experiment(
        EXPERIMENT,
        f"{TRANSACTIONS:,} oltp_text transactions, min of {ROUNDS} interleaved rounds",
        ["stage", "before (us/txn)", "after (us/txn)", "speedup", "floor"],
    )

    def run():
        env = workloads.build("oltp_text", SEED, 1.0, tmp_path)
        try:
            texts = [op.payload for op in env.ops[:TRANSACTIONS]]
            assert all(tokenize(t) == reference_tokenize(t) for t in texts)

            def scan_all(lexer):
                for text in texts:
                    lexer(text)

            scanner, lexer, columns, parser = _interleaved(
                lambda: scan_all(reference_tokenize),
                lambda: scan_all(tokenize),
                lambda: scan_all(TokenStream),
                lambda: scan_all(parse_transaction),
            )
            controller = env.controller
            transactions = [parse_transaction(text) for text in texts]

            def unmemoised():
                for transaction in transactions:
                    mod_t(
                        transaction,
                        StaticSelector(controller.store),
                        stats=ModificationStats(),
                    )

            def memoised():
                for transaction in transactions:
                    controller.modify_transaction(transaction)

            modt = _interleaved(unmemoised, memoised)
        finally:
            env.close()
        return {
            "lexer": [scanner, lexer],
            "modt": modt,
            "columns": [scanner, columns],
            "parser": [scanner, parser],
        }

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    floors = {
        "lexer": LEXER_SPEEDUP_FLOOR,
        "modt": MODT_SPEEDUP_FLOOR,
        "columns": None,
        "parser": None,
    }
    labels = {
        "lexer": "master-regex lexer vs character scanner",
        "modt": "memoised ModT vs mod_t with a fresh StaticSelector",
        "columns": "token column scan (no Token, no positions) vs character scanner",
        "parser": "whole parse_transaction vs character scanner",
    }
    payload = {
        "experiment": EXPERIMENT,
        "transactions": TRANSACTIONS,
        "rounds": ROUNDS,
        "variants": {},
    }
    for stage, (before, after) in seconds.items():
        payload["variants"][labels[stage]] = {
            "before_us_per_txn": before / TRANSACTIONS * 1e6,
            "after_us_per_txn": after / TRANSACTIONS * 1e6,
            "speedup": before / after,
            "floor": floors[stage],
        }
        report.record(
            EXPERIMENT,
            labels[stage],
            f"{before / TRANSACTIONS * 1e6:.1f}",
            f"{after / TRANSACTIONS * 1e6:.1f}",
            f"{before / after:.2f}x",
            f">={floors[stage]:g}x" if floors[stage] is not None else "—",
        )
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for stage, (before, after) in seconds.items():
        assert floors[stage] is None or before / after >= floors[stage], (
            f"{labels[stage]}: {before / after:.2f}x below the "
            f"{floors[stage]:g}x floor"
        )
