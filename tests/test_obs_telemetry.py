"""Unit tests for the telemetry registry, histograms and the JSONL sink."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import (
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Histogram,
    Telemetry,
    TelemetrySink,
    load_final_snapshot,
)
from repro.obs.sink import read_jsonl


class TestHistogram:
    def test_observe_tracks_exact_sidecars(self):
        hist = Histogram([1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(555.5)
        assert hist.min == 0.5
        assert hist.max == 500.0
        assert hist.mean == pytest.approx(555.5 / 4)
        assert hist.counts == [1, 1, 1, 1]  # one overflow observation

    def test_bucket_bounds_are_inclusive(self):
        hist = Histogram([1.0, 10.0])
        hist.observe(1.0)
        hist.observe(10.0)
        assert hist.counts == [1, 1, 0]

    def test_percentile_interpolates_within_bucket(self):
        hist = Histogram([0.0, 100.0])
        for _ in range(100):
            hist.observe(60.0)
        # All mass in the (0, 100] bucket; interpolation is clamped to the
        # exact observed extremes, so every percentile reports 60.
        assert hist.percentile(50) == pytest.approx(60.0)
        assert hist.percentile(99) == pytest.approx(60.0)

    def test_percentile_overflow_reports_exact_max(self):
        hist = Histogram([1.0])
        hist.observe(123.0)
        assert hist.percentile(99) == 123.0

    def test_percentile_of_empty_is_zero(self):
        assert Histogram([1.0]).percentile(95) == 0.0

    def test_percentile_rejects_bad_q(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).percentile(101)

    def test_merge_sums_counts_and_extremes(self):
        a, b = Histogram([1.0, 10.0]), Histogram([1.0, 10.0])
        a.observe(0.5)
        b.observe(5.0)
        b.observe(20.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.min == 0.5 and a.max == 20.0

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            Histogram([1.0]).merge(Histogram([2.0]))

    def test_dict_round_trip(self):
        hist = Histogram(TIME_BUCKETS)
        for value in (1e-5, 3e-3, 0.2):
            hist.observe(value)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()
        assert clone.percentile(95) == hist.percentile(95)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram([])

    def test_default_ladders_are_increasing(self):
        assert list(TIME_BUCKETS) == sorted(TIME_BUCKETS)
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


class TestTelemetryDisabled:
    def test_disabled_collection_is_a_no_op(self):
        tel = Telemetry()
        tel.count("x")
        tel.gauge("g", 1)
        tel.observe("h", 0.5)
        tel.record_span("s", 0.1)
        tel.tick()
        assert tel.counters == {} and tel.gauges == {}
        assert tel.spans == {} and tel.histograms == {}
        assert tel.ticks == 0

    def test_disabled_span_is_the_shared_noop(self):
        tel = Telemetry()
        # Identity: the disabled path allocates nothing per call.
        assert tel.span("a") is tel.span("b")
        with tel.span("a"):
            pass
        assert tel.spans == {}

    def test_disabled_calls_are_cheap(self):
        # Overhead guard with a generous absolute bound: 100k disabled
        # counter bumps must stay well under a second even on slow CI.
        tel = Telemetry()
        best = min(
            _timed(lambda: [tel.count("x") for _ in range(100_000)])
            for _ in range(3)
        )
        assert best < 0.5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestTelemetryEnabled:
    def test_counters_and_gauges(self):
        tel = Telemetry()
        tel.enable()
        tel.count("events")
        tel.count("events", 4)
        tel.gauge("level", "high")
        tel.gauge("level", "low")
        assert tel.counters == {"events": 5}
        assert tel.gauges == {"level": "low"}

    def test_span_records_count_total_max(self):
        tel = Telemetry()
        tel.enable()
        tel.record_span("stage", 0.2)
        tel.record_span("stage", 0.5)
        count, total, peak = tel.spans["stage"]
        assert count == 2
        assert total == pytest.approx(0.7)
        assert peak == pytest.approx(0.5)

    def test_span_context_manager_times_the_block(self):
        tel = Telemetry()
        tel.enable()
        with tel.span("sleepy"):
            time.sleep(0.01)
        count, total, _ = tel.spans["sleepy"]
        assert count == 1 and total >= 0.009

    def test_spans_nest_without_corruption(self):
        tel = Telemetry()
        tel.enable()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("inner"):
                pass
        assert tel.spans["inner"][0] == 2
        assert tel.spans["outer"][0] == 1
        assert tel.spans["outer"][1] >= tel.spans["inner"][1]

    def test_span_is_exception_safe(self):
        tel = Telemetry()
        tel.enable()
        with pytest.raises(RuntimeError):
            with tel.span("doomed"):
                raise RuntimeError("boom")
        assert tel.spans["doomed"][0] == 1

    def test_enable_resets_previous_state(self):
        tel = Telemetry()
        tel.enable()
        tel.count("old")
        tel.enable(label="second")
        assert tel.counters == {}
        assert tel.label == "second"

    def test_snapshot_is_json_ready(self):
        tel = Telemetry()
        tel.enable(label="cell-1")
        tel.count("c")
        tel.observe("h", 2.0, SIZE_BUCKETS)
        with tel.span("s"):
            pass
        snap = json.loads(json.dumps(tel.snapshot(final=True)))
        assert snap["label"] == "cell-1"
        assert snap["final"] is True
        assert snap["counters"] == {"c": 1}
        assert snap["spans"]["s"]["count"] == 1
        assert snap["histograms"]["h"]["count"] == 1


class TestTelemetrySink:
    def test_interval_zero_flushes_every_tick(self, tmp_path):
        path = tmp_path / "t" / "cell.jsonl"
        tel = Telemetry()
        tel.enable(sink=TelemetrySink(path, interval_s=0.0), label="cell")
        tel.count("rounds")
        tel.tick()
        tel.count("rounds")
        tel.tick()
        tel.disable()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 3  # two ticks + the final close flush
        assert lines[-1]["final"] is True
        # Snapshots are cumulative: the final line carries the whole run.
        assert lines[-1]["counters"] == {"rounds": 2}

    def test_long_interval_still_writes_first_and_final(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        tel = Telemetry()
        tel.enable(sink=TelemetrySink(path, interval_s=3600.0))
        for _ in range(5):
            tel.tick()
        tel.disable()
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # first tick + final
        assert json.loads(lines[-1])["final"] is True

    def test_disable_without_ticks_still_flushes_final(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        tel = Telemetry()
        tel.enable(sink=TelemetrySink(path))
        tel.count("only")
        tel.disable()
        snap = load_final_snapshot(path)
        assert snap["final"] is True and snap["counters"] == {"only": 1}

    def test_rejects_negative_interval(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetrySink(tmp_path / "x.jsonl", interval_s=-1.0)

    def test_load_final_snapshot_tolerates_torn_line(self, tmp_path):
        path = tmp_path / "cell.jsonl"
        tel = Telemetry()
        tel.enable(sink=TelemetrySink(path, interval_s=0.0))
        tel.count("c")
        tel.tick()
        tel.disable()
        with path.open("a") as handle:
            handle.write('{"torn": tru')  # crashed mid-append
        snap = load_final_snapshot(path)
        assert snap is not None and snap["counters"] == {"c": 1}

    def test_read_jsonl_numbers_lines_and_skips_torn_ones(self, tmp_path):
        path = tmp_path / "x.jsonl"
        torn = '{"note": "π≈3'.encode()[:-2]  # torn inside a multi-byte character
        path.write_bytes(b'{"a": 1}\n\n' + torn + b'\n[2]\n{"b"')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, [2])]
        with pytest.raises(OSError):
            list(read_jsonl(tmp_path / "missing.jsonl"))

    def test_load_final_snapshot_missing_file(self, tmp_path):
        assert load_final_snapshot(tmp_path / "nope.jsonl") is None
