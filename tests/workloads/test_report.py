"""The benchmark report collector (part of the reproduction harness)."""

import json

import pytest

from benchmarks import report


@pytest.fixture(autouse=True)
def clean_registry():
    # The registry is global by design (pytest terminal hook reads it);
    # isolate these tests from benchmark runs and each other.
    saved = dict(report._REGISTRY)
    report.reset()
    yield
    report.reset()
    report._REGISTRY.update(saved)


class TestReport:
    def test_experiment_and_rows(self):
        report.experiment("X1", "A title", ["col_a", "col_b"])
        report.record("X1", 1, "foo")
        report.record("X1", 12345, 0.5)
        rendered = report.render_all()
        assert "== X1: A title ==" in rendered
        assert "col_a" in rendered and "col_b" in rendered
        assert "12,345" in rendered  # thousands separator
        assert "0.500" in rendered  # float formatting

    def test_small_floats_use_scientific(self):
        report.experiment("X2", "t", ["v"])
        report.record("X2", 0.000012)
        assert "1.20e-05" in report.render_all()

    def test_notes_appended(self):
        report.experiment("X3", "t", ["v"])
        report.record("X3", 1)
        report.note("X3", "shape holds")
        assert "note: shape holds" in report.render_all()

    def test_declaring_twice_is_idempotent(self):
        report.experiment("X4", "t", ["v"])
        report.record("X4", 1)
        report.experiment("X4", "different title ignored", ["other"])
        rendered = report.render_all()
        assert "t ==" in rendered
        assert "different title" not in rendered

    def test_empty_experiments_not_rendered(self):
        report.experiment("X5", "empty", ["v"])
        assert report.render_all() == ""

    def test_columns_aligned(self):
        report.experiment("X6", "t", ["first", "x"])
        report.record("X6", "short", 1)
        report.record("X6", "a much longer cell", 2)
        lines = report.render_all().splitlines()
        header = lines[1]
        rows = lines[3:5]
        position = header.index("x")
        for row in rows:
            # The second column starts at the same offset in every row.
            assert row[position - 2 : position] == "  "


class TestGateSummary:
    def test_variant_floor_overrides_the_artifact_floor(self, tmp_path, capsys):
        artifact = {
            "speedup_floor": 10.0,
            "variants": {
                "lexer": {"speedup": 2.0, "floor": 1.4},
                "modt": {"speedup": 1.5, "floor": 2.0},
                "other": {"speedup": 12.0},
            },
        }
        (tmp_path / "bench_frontend.json").write_text(json.dumps(artifact))
        rows = report._gate_table(tmp_path)
        assert [(row[1], row[3], row[4]) for row in rows] == [
            ("lexer", ">=1.4x", "pass"),
            ("modt", ">=2x", "FAIL"),
            ("other", ">=10x", "pass"),
        ]
        assert report.main(["--strict", "--directory", str(tmp_path)]) == 1
        assert "1 gate(s) below floor" in capsys.readouterr().out
