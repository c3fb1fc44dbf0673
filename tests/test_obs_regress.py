"""Tests for the perf-regression tracker and its CLI surface.

``telemetry diff`` compares two perf documents (``telemetry report --json``
hotspot reports or result-store directories) under per-metric tolerance
thresholds; these tests pin the metric-direction classifier, the rows
:func:`extract_rows` reads from a hotspot report, the gating arithmetic, and
the CLI exit-code contract (0 ok / 1 regression / 2 unusable input — always
a diagnostic naming the path, never a traceback).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import telemetry_main
from repro.obs import (
    RegressionReport,
    diff_rows,
    extract_rows,
    format_diff,
    load_perf_document,
    metric_direction,
)


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name",
        ["wall_s", "duration_s", "mean_s", "p99_ms", "rss_bytes", "answer_latency", "peak_mb"],
    )
    def test_lower_is_better(self, name):
        assert metric_direction(name) == "lower"

    @pytest.mark.parametrize(
        "name", ["rounds_per_s", "events_per_sec", "speedup", "throughput", "queries_qps"]
    )
    def test_higher_is_better(self, name):
        assert metric_direction(name) == "higher"

    @pytest.mark.parametrize("name", ["count", "rounds", "fired", "n"])
    def test_directionless(self, name):
        assert metric_direction(name) is None


class TestExtractRows:
    def test_hotspot_report_shape(self):
        doc = {
            "root": "/tmp/t",
            "cells": ["cell-a"],  # hotspot reports also carry a cells list
            "hotspots": [
                {"span": "engine.round", "count": 10, "total_s": 1.5,
                 "mean_s": 0.15, "max_s": 0.3},
            ],
            "histograms": [
                {"histogram": "serve.answer_latency_s", "count": 4, "mean": 0.01,
                 "p50": 0.01, "p95": 0.02, "p99": 0.02, "max": 0.03},
            ],
            "counters": {"engine.rounds": 40},
        }
        rows = extract_rows(doc)
        assert rows["span engine.round"]["total_s"] == 1.5
        assert rows["histogram serve.answer_latency_s"]["p95"] == 0.02
        assert rows["counter engine.rounds"] == {"value": 40.0}

    def test_unknown_shape_yields_nothing(self):
        assert extract_rows({"whatever": 1}) == {}
        # A BENCH file's list of timed cells is not a hotspot report.
        assert extract_rows({"cells": [{"label": "churn", "n": 200, "wall_s": 2.0}]}) == {}


def _rows(**metrics):
    return {"cell": metrics}


class TestDiffRows:
    def test_within_tolerance_passes(self):
        report = diff_rows(
            _rows(wall_s=1.0), _rows(wall_s=1.2), threshold=0.25
        )
        assert not report.failed and report.compared == 1
        assert not report.improvements

    def test_lower_better_regression(self):
        report = diff_rows(_rows(wall_s=1.0), _rows(wall_s=1.3), threshold=0.25)
        assert report.failed
        (entry,) = report.regressions
        assert entry["metric"] == "wall_s" and entry["direction"] == "lower"

    def test_higher_better_regression(self):
        report = diff_rows(
            _rows(rounds_per_s=100.0), _rows(rounds_per_s=70.0), threshold=0.25
        )
        assert report.failed

    def test_improvement_recorded_not_failed(self):
        report = diff_rows(_rows(wall_s=2.0), _rows(wall_s=1.0), threshold=0.25)
        assert not report.failed
        assert len(report.improvements) == 1

    def test_directionless_metric_never_gates(self):
        report = diff_rows(_rows(fired=10.0), _rows(fired=1000.0), threshold=0.01)
        assert not report.failed and report.compared == 1

    def test_near_zero_pairs_skipped(self):
        report = diff_rows(_rows(wall_s=1e-9), _rows(wall_s=5e-9), threshold=0.25)
        assert not report.failed

    def test_per_metric_override_beats_global(self):
        base, cand = _rows(wall_s=1.0), _rows(wall_s=1.5)
        assert diff_rows(base, cand, threshold=0.25).failed
        assert not diff_rows(
            base, cand, threshold=0.25, per_metric={"wall_s": 1.0}
        ).failed

    def test_row_set_changes_reported(self):
        report = diff_rows({"a": {"wall_s": 1.0}}, {"b": {"wall_s": 1.0}})
        assert report.missing_rows == ["a"] and report.new_rows == ["b"]
        assert report.compared == 0

    def test_format_diff_mentions_regressions(self):
        report = diff_rows(_rows(wall_s=1.0), _rows(wall_s=2.0), threshold=0.25)
        text = format_diff(report)
        assert "REGRESSION" in text and "wall_s" in text
        ok = format_diff(RegressionReport("a", "b", 0.25))
        assert "OK" in ok


class TestLoadPerfDocument:
    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(FileNotFoundError, match=str(missing)):
            load_perf_document(missing)

    def test_unparseable_file_names_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match=str(bad)):
            load_perf_document(bad)

    def test_snapshotless_directory_names_path(self, tmp_path):
        with pytest.raises(ValueError, match="no telemetry snapshots"):
            load_perf_document(tmp_path)


def _hotspot_file(tmp_path, name, total_s):
    """A ``telemetry report --json`` document with one span row."""
    path = tmp_path / name
    path.write_text(
        json.dumps({"cells": ["cell-a"], "counters": {"engine.rounds": 40},
                    "hotspots": [{"span": "engine.round", "count": 40, "total_s": total_s,
                                  "mean_s": total_s / 40, "max_s": total_s / 10}]})
    )
    return path


def _store(tmp_path, name, total_s):
    """A result-store directory holding one cell's telemetry snapshot."""
    telemetry = tmp_path / name / "telemetry"
    telemetry.mkdir(parents=True)
    snapshot = {"counters": {"engine.rounds": 40},
                "spans": {"engine.round": {"count": 40, "total_s": total_s,
                                           "max_s": total_s / 10}}}
    (telemetry / "cell-a.jsonl").write_text(json.dumps(snapshot) + "\n")
    return tmp_path / name


class TestTelemetryDiffCli:
    def test_ok_exit_zero(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        cand = _hotspot_file(tmp_path, "cand.json", 1.1)
        assert telemetry_main(["diff", str(base), str(cand)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        cand = _hotspot_file(tmp_path, "cand.json", 2.0)
        assert telemetry_main(["diff", str(base), str(cand)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_warn_only_downgrades_to_zero(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        cand = _hotspot_file(tmp_path, "cand.json", 2.0)
        assert telemetry_main(["diff", "--warn-only", str(base), str(cand)]) == 0

    def test_per_metric_flag(self, tmp_path):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        cand = _hotspot_file(tmp_path, "cand.json", 2.0)
        code = telemetry_main(
            ["diff", "--metric", "total_s=2.0", "--metric", "mean_s=2.0",
             "--metric", "max_s=2.0", str(base), str(cand)]
        )
        assert code == 0

    def test_missing_document_exit_two(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        missing = tmp_path / "nope.json"
        assert telemetry_main(["diff", str(base), str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_no_overlap_exit_two(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"hotspots": [{"span": "fuzz.schedule", "total_s": 1.0}]}))
        assert telemetry_main(["diff", str(base), str(other)]) == 2
        assert "overlap" in capsys.readouterr().err

    def test_rowless_document_exit_two(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        empty = tmp_path / "empty.json"
        # An empty object, and a BENCH file's list of timed cells.
        for doc in ({}, {"cells": [{"label": "churn", "wall_s": 1.0}]}):
            empty.write_text(json.dumps(doc))
            assert telemetry_main(["diff", str(base), str(empty)]) == 2
            assert str(empty) in capsys.readouterr().err

    def test_wrong_arity_exit_two(self, tmp_path, capsys):
        base = _hotspot_file(tmp_path, "base.json", 1.0)
        assert telemetry_main(["diff", str(base)]) == 2


class TestTelemetryDiffStores:
    """``telemetry diff`` over result-store directories, and over the JSON
    that ``telemetry report --json`` writes for one."""

    def test_ok_exit_zero(self, tmp_path, capsys):
        base, cand = _store(tmp_path, "base", 1.0), _store(tmp_path, "cand", 1.1)
        assert telemetry_main(["diff", str(base), str(cand)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        base, cand = _store(tmp_path, "base", 1.0), _store(tmp_path, "cand", 2.0)
        assert telemetry_main(["diff", str(base), str(cand)]) == 1
        assert "REGRESSION: span engine.round :: total_s" in capsys.readouterr().out

    def test_snapshotless_store_exit_two(self, tmp_path, capsys):
        base = _store(tmp_path, "base", 1.0)
        empty = tmp_path / "empty"
        (empty / "telemetry").mkdir(parents=True)
        assert telemetry_main(["diff", str(base), str(empty)]) == 2
        assert "no telemetry snapshots" in capsys.readouterr().err

    def test_report_json_diffs_like_its_store(self, tmp_path, capsys):
        base, cand = _store(tmp_path, "base", 1.0), _store(tmp_path, "cand", 2.0)
        reports = []
        for store in (base, cand):
            out = store / "report.json"
            assert telemetry_main(["report", "--store", str(store), "--json", str(out)]) == 0
            reports.append(str(out))
        assert telemetry_main(["diff", *reports]) == 1
        assert telemetry_main(["diff", reports[0], reports[0]]) == 0


class TestTelemetryStoreCliErrors:
    """``telemetry report``/``trace`` on empty or missing stores: exit 2,
    message names the path, never a traceback."""

    def test_report_missing_store(self, tmp_path, capsys):
        store = tmp_path / "nope"
        assert telemetry_main(["report", "--store", str(store)]) == 2
        assert str(store) in capsys.readouterr().err

    def test_report_snapshotless_store(self, tmp_path, capsys):
        (tmp_path / "telemetry").mkdir()
        assert telemetry_main(["report", "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "snapshot" in err and "--telemetry" in err

    def test_trace_missing_store(self, tmp_path, capsys):
        store = tmp_path / "nope"
        assert telemetry_main(["trace", "--store", str(store)]) == 2
        assert str(store) in capsys.readouterr().err

    def test_trace_store_without_trace_files(self, tmp_path, capsys):
        (tmp_path / "telemetry").mkdir()
        assert telemetry_main(["trace", "--store", str(tmp_path)]) == 2
        assert "--trace-events" in capsys.readouterr().err

    def test_store_flag_required(self, capsys):
        assert telemetry_main(["report"]) == 2
        assert "--store" in capsys.readouterr().err
