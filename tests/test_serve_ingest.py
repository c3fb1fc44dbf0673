"""Tests for the serving ingestion layer (event sources + log conversion)."""

import json
import tracemalloc

import pytest

from repro.serve import (
    AdversaryEventSource,
    LogConversionError,
    LogConverter,
    LogEventSource,
    MonitorService,
    TraceEventSource,
)
from repro.serve.core import ServingMonitor
from repro.simulator import RoundChanges
from repro.simulator.trace import TopologyTrace


def _line(ts, u, v, op):
    return json.dumps({"ts": ts, "u": u, "v": v, "op": op})


class TestLogConverter:
    def test_timestamp_bucketing_and_gaps(self):
        converted = LogConverter(8).convert_lines(
            [
                _line(0.0, 0, 1, "up"),
                _line(0.9, 1, 2, "up"),   # same bucket as ts 0.0
                _line(3.2, 0, 1, "down"),  # bucket 3 -> two quiet rounds between
            ]
        )
        trace = converted.trace
        assert trace.num_rounds == 4
        assert trace.changes_for(0).insertions == [(0, 1), (1, 2)]
        assert len(trace.changes_for(1)) == 0 and len(trace.changes_for(2)) == 0
        assert trace.changes_for(3).deletions == [(0, 1)]
        assert converted.stats["quiet_rounds"] == 2

    def test_explicit_round_field_takes_precedence(self):
        converted = LogConverter(8).convert_lines(
            [
                json.dumps({"round": 2, "u": 0, "v": 1, "op": "up"}),
                json.dumps({"round": 0, "u": 1, "v": 2, "op": "up"}),
            ]
        )
        assert converted.trace.changes_for(0).insertions == [(1, 2)]
        assert converted.trace.changes_for(2).insertions == [(0, 1)]

    def test_coalescing_within_a_round(self):
        converted = LogConverter(8).convert_lines(
            [
                _line(0.0, 0, 1, "up"),
                _line(0.4, 0, 1, "down"),
                _line(0.8, 0, 1, "up"),
            ]
        )
        # Last event of the window wins: a single insert survives.
        assert converted.trace.changes_for(0).insertions == [(0, 1)]
        assert converted.stats["coalesced_dropped"] == 2

    def test_noop_transitions_dropped(self):
        converted = LogConverter(8).convert_lines(
            [
                _line(0.0, 0, 1, "up"),
                _line(1.0, 0, 1, "up"),     # already up
                _line(2.0, 2, 3, "down"),   # never existed
            ]
        )
        assert converted.stats["noop_dropped"] == 2
        assert converted.stats["events_emitted"] == 1

    def test_max_quiet_gap_clamps(self):
        converted = LogConverter(8, max_quiet_gap=1).convert_lines(
            [_line(0.0, 0, 1, "up"), _line(100.0, 1, 2, "up")]
        )
        assert converted.trace.num_rounds == 3  # bucket, one clamped gap, bucket
        assert converted.stats["quiet_rounds"] == 1

    def test_quiet_gap_costs_no_memory_per_round(self):
        # 400,000 quiet rounds share one round object, so each costs one
        # list slot: about 3.6 MB traced in all.
        lines = [_line(0, 0, 1, "up"), _line(400_000, 1, 2, "up")]
        tracemalloc.start()
        try:
            converted = LogConverter(4).convert_lines(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converted.stats["quiet_rounds"] == 399_999
        assert peak < 8_000_000
        assert len(converted.trace.changes_for(200_000)) == 0

    def test_op_aliases(self):
        converted = LogConverter(8).convert_lines(
            [_line(0.0, 0, 1, "insert"), _line(1.0, 0, 1, "delete")]
        )
        assert converted.stats["events_emitted"] == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "JSON object"),
            (json.dumps({"ts": 0, "u": 0, "v": 1, "op": "flap"}), "'op'"),
            (json.dumps({"ts": 0, "u": 0, "op": "up"}), "endpoint"),
            (json.dumps({"ts": 0, "u": 0, "v": "x", "op": "up"}), "integers"),
            (json.dumps({"ts": 0, "u": 0, "v": True, "op": "up"}), "integers"),
            (json.dumps({"ts": 0, "u": 3, "v": 3, "op": "up"}), "self loops"),
            (json.dumps({"ts": 0, "u": 0, "v": 99, "op": "up"}), "out of range"),
            (json.dumps({"u": 0, "v": 1, "op": "up"}), "'ts'"),
            (json.dumps({"round": -1, "u": 0, "v": 1, "op": "up"}), "'round'"),
            # json reads Infinity/NaN, and 1e400 as inf; the 401-digit
            # integer stays an int beyond the float range.
            *[
                ('{"ts": %s, "u": 1, "v": 2, "op": "up"}' % ts, "'ts' must be a finite number")
                for ts in ("Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400)
            ],
        ],
    )
    def test_bad_records_name_the_line(self, line, message):
        with pytest.raises(LogConversionError, match="line 2") as exc:
            LogConverter(8).convert_lines([_line(0.0, 0, 1, "up"), line])
        assert message in str(exc.value)

    def test_first_bad_line_is_named(self):
        # A bad op on line 2 comes before the non-JSON line 4.
        lines = [
            _line(0.0, 0, 1, "up"),
            _line(0.5, 1, 2, "flap"),
            _line(1.0, 2, 3, "up"),
            "not json",
        ]
        with pytest.raises(LogConversionError, match="line 2: 'op'"):
            LogConverter(8).convert_lines(lines)

    def test_reading_stops_at_the_first_bad_line(self):
        def feed():
            yield _line(0.0, 0, 1, "up")
            yield _line(0.5, 1, 1, "up")
            raise AssertionError("read past the first bad line")

        with pytest.raises(LogConversionError, match="line 2: self loops"):
            LogConverter(8).convert_lines(feed())

    def test_file_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("\n" + _line(0.0, 0, 1, "up") + "\n\n  \n" + _line(1.0, 1, 9, "up"))
        with pytest.raises(LogConversionError, match="line 5: node 9 out of range"):
            LogConverter(8).convert_file(path)

    def test_file_lines_end_only_at_newlines(self, tmp_path):
        # A raw U+2028 inside a JSON string is valid JSONL; str.splitlines()
        # would cut the record there.
        path = tmp_path / "events.jsonl"
        record = {"ts": 0.0, "u": 0, "v": 1, "op": "up", "note": "a\u2028b"}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        converted = LogConverter(8).convert_file(path)
        assert converted.stats["records_read"] == 1

    def test_timestamp_before_origin_rejected(self):
        with pytest.raises(LogConversionError, match="precedes the origin"):
            LogConverter(8).convert_lines([_line(5.0, 0, 1, "up"), _line(1.0, 1, 2, "up")])

    def test_explicit_origin_allows_early_round_zero(self):
        converted = LogConverter(8, origin_ts=0.0).convert_lines(
            [_line(5.0, 0, 1, "up"), _line(1.0, 1, 2, "up")]
        )
        assert converted.trace.changes_for(1).insertions == [(1, 2)]
        assert converted.trace.changes_for(5).insertions == [(0, 1)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LogConverter(0)
        with pytest.raises(ValueError):
            LogConverter(4, round_duration=0)
        with pytest.raises(ValueError):
            LogConverter(4, max_quiet_gap=-1)
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="round_duration must be a positive finite"):
                LogConverter(4, round_duration=value)
            with pytest.raises(ValueError, match="origin_ts must be a finite number"):
                LogConverter(4, origin_ts=value)


class TestEventSources:
    def test_trace_source_replays_and_exhausts(self):
        trace = TopologyTrace(n=4)
        trace.append(RoundChanges.inserts([(0, 1)]))
        trace.append(RoundChanges.deletes([(0, 1)]))
        source = TraceEventSource(trace)
        monitor = ServingMonitor(4, "robust2hop")
        assert not source.is_done
        assert source.next_batch(monitor).insertions == [(0, 1)]
        assert source.next_batch(monitor).deletions == [(0, 1)]
        assert source.next_batch(monitor) is None
        assert source.is_done

    def test_trace_source_load(self, tmp_path):
        trace = TopologyTrace(n=4)
        trace.append(RoundChanges.inserts([(0, 1)]))
        path = tmp_path / "trace.json"
        trace.save(path)
        source = TraceEventSource.load(path)
        assert source.trace.num_rounds == 1

    def test_adversary_source_respects_rounds_cap(self):
        from repro import RandomChurnAdversary

        source = AdversaryEventSource(
            RandomChurnAdversary(8, num_rounds=100, seed=1), rounds=5
        )
        monitor = ServingMonitor(8, "robust2hop")
        batches = 0
        while (changes := source.next_batch(monitor)) is not None:
            monitor.ingest(changes)
            batches += 1
        assert batches == 5
        assert source.is_done

    def test_log_event_source_exposes_stats(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join([_line(0.0, 0, 1, "up"), _line(1.0, 1, 2, "up")]) + "\n")
        source = LogEventSource(path, n=8)
        assert source.stats["records_read"] == 2
        assert source.trace.num_rounds == 2


class TestLogRoundTrip:
    """JSONL log -> trace -> replay must equal direct ingestion."""

    LINES = [
        _line(0.0, 0, 1, "up"),
        _line(0.3, 1, 2, "up"),
        _line(0.8, 0, 2, "up"),
        _line(2.5, 0, 2, "down"),
        _line(2.9, 0, 2, "up"),  # same bucket: coalesces to "up", then no-op'd away
        _line(5.0, 1, 3, "up"),
    ]

    def _run(self, source_factory):
        service = MonitorService(6, "triangle")
        service.subscribe("triangle", members=[0, 1, 2], subscription_id="tri")
        report = service.run(source_factory(), settle_rounds=8)
        return report.comparable_dict()

    def test_replaying_converted_trace_matches_log_ingestion(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(self.LINES) + "\n")
        converted = LogConverter(6).convert_file(path)
        direct = self._run(lambda: LogEventSource(path, n=6))
        replayed = self._run(lambda: TraceEventSource(converted.trace))
        assert direct == replayed
        assert direct["fired"] > 0
