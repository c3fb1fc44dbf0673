"""Tests for the structured trace-event layer.

The tracer rides the existing telemetry spans: every ``TELEMETRY.span``
context doubles as a trace slice when a :class:`TraceBuffer` is attached,
and stays a plain timer (one attribute check) when it is not.  These tests
pin the ring-buffer semantics, the JSONL interchange format (including the
sink-style torn-line tolerance), the Chrome trace-event export, and the
PR-6 invariant extended to tracing: a traced run is bit-identical to a
plain run across all four engine modes.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ExperimentSpec, execute_cell
from repro.obs import (
    TELEMETRY,
    TRACE_SUFFIX,
    TraceBuffer,
    build_chrome_trace,
    chrome_trace,
    load_trace_dir,
    read_trace_jsonl,
    write_trace_jsonl,
)

ENGINE_CONFIGS = [
    pytest.param({"engine_mode": "dense"}, id="dense"),
    pytest.param({"engine_mode": "sparse"}, id="sparse"),
    pytest.param({"engine": "sharded", "num_workers": 2}, id="sharded"),
]


def _anchored(capacity=16, **kwargs) -> TraceBuffer:
    """A buffer with a deterministic wall-clock anchor for exact ts maths."""
    buffer = TraceBuffer(capacity, **kwargs)
    buffer.wall0 = 1000.0
    buffer.perf0 = 0.0
    return buffer


class TestTraceBuffer:
    def test_events_carry_wall_clock_and_duration(self):
        buffer = _anchored(cell_id="c1", engine_mode="dense")
        buffer.add("engine.round", 1.0, 3.5, round_index=7)
        (event,) = buffer.events()
        assert event["name"] == "engine.round"
        assert event["ts"] == pytest.approx(1001.0)
        assert event["dur_s"] == pytest.approx(2.5)
        assert event["round"] == 7
        assert event["mode"] == "dense"

    def test_mode_and_worker_default_to_buffer_attributes(self):
        buffer = _anchored(engine_mode="sparse", worker=2)
        buffer.add("a", 0.0, 1.0)
        buffer.add("b", 0.0, 1.0, mode="sharded", worker=0)
        events = buffer.events()
        assert (events[0]["mode"], events[0]["worker"]) == ("sparse", 2)
        assert (events[1]["mode"], events[1]["worker"]) == ("sharded", 0)

    def test_negative_duration_clamped_to_zero(self):
        buffer = _anchored()
        buffer.add("x", 5.0, 4.0)
        assert buffer.events()[0]["dur_s"] == 0.0

    def test_ring_bounds_and_dropped_counter(self):
        buffer = _anchored(capacity=4)
        for i in range(10):
            buffer.add(f"e{i}", float(i), float(i) + 0.5)
        events = buffer.events()
        assert len(events) == 4
        assert [e["name"] for e in events] == ["e6", "e7", "e8", "e9"]
        assert buffer.dropped == 6

    def test_dict_round_trip_preserves_wall_clock(self):
        buffer = _anchored(cell_id="cell-a", engine_mode="dense")
        buffer.add("engine.round", 1.0, 2.0, round_index=3)
        clone = TraceBuffer.from_dict(json.loads(json.dumps(buffer.to_dict())))
        assert clone.events() == buffer.events()
        assert clone.cell_id == "cell-a"

    def test_extend_from_dict_keeps_remote_wall_clock(self):
        remote = _anchored(worker=1)
        remote.add("engine.worker.compute", 2.0, 3.0)
        local = _anchored()
        local.wall0 = 2000.0  # a different clock frame than the remote
        absorbed = local.extend_from_dict(remote.to_dict())
        assert absorbed == 1
        (event,) = local.events()
        assert event["ts"] == pytest.approx(1002.0)
        assert event["worker"] == 1

    def test_extend_accumulates_dropped(self):
        remote = _anchored(capacity=1)
        remote.add("a", 0.0, 1.0)
        remote.add("b", 0.0, 1.0)
        local = _anchored()
        local.extend_from_dict(remote.to_dict())
        assert local.dropped == 1


class TestTraceJsonl:
    def test_write_read_round_trip(self, tmp_path):
        buffer = _anchored(cell_id="cell-a")
        for i in range(3):
            buffer.add("engine.round", float(i), float(i) + 0.25, round_index=i)
        path = tmp_path / f"cell-a{TRACE_SUFFIX}"
        assert write_trace_jsonl(path, buffer) == 3
        events = read_trace_jsonl(path)
        assert events == buffer.events()

    def test_reader_tolerates_torn_and_junk_lines(self, tmp_path):
        buffer = _anchored()
        buffer.add("engine.round", 0.0, 1.0)
        path = tmp_path / f"x{TRACE_SUFFIX}"
        write_trace_jsonl(path, buffer)
        with path.open("a") as handle:
            handle.write("[1, 2]\n")  # valid JSON, wrong shape
            handle.write('{"ts": 1.0}\n')  # missing name
            handle.write('{"name": "torn", "ts"')  # torn mid-write
        assert len(read_trace_jsonl(path)) == 1

    def test_load_trace_dir_maps_stems_to_events(self, tmp_path):
        for cell in ("cell-a", "cell-b"):
            buffer = _anchored(cell_id=cell)
            buffer.add("engine.round", 0.0, 1.0)
            write_trace_jsonl(tmp_path / f"{cell}{TRACE_SUFFIX}", buffer)
        traces = load_trace_dir(tmp_path)
        assert sorted(traces) == ["cell-a", "cell-b"]
        assert all(len(events) == 1 for events in traces.values())


class TestChromeExport:
    def test_chrome_trace_shape(self):
        coordinator = _anchored(cell_id="c")
        coordinator.add("engine.round", 1.0, 2.0, mode="sharded")
        worker = _anchored(worker=0)
        worker.add("engine.worker.compute", 1.2, 1.8)
        doc = chrome_trace(
            {"c": coordinator.events(), "c-worker": worker.events()}
        )
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 2
        assert meta, "expected process/thread metadata events"
        assert all(e["ts"] >= 0 for e in complete)
        assert all(e["dur"] >= 0 for e in complete)
        # Worker events land on tid worker+1, coordinator events on tid 0.
        tids = {e["name"]: e["tid"] for e in complete}
        assert tids["engine.round"] == 0
        assert tids["engine.worker.compute"] == 1
        assert {e["cat"] for e in complete} == {"engine"}

    def test_build_chrome_trace_errors_name_the_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=str(tmp_path / "nope")):
            build_chrome_trace(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match=str(empty)):
            build_chrome_trace(empty)


class TestSpanIntegration:
    def teardown_method(self):
        TELEMETRY.disable()

    def test_span_emits_trace_slice_when_tracer_attached(self):
        tracer = TraceBuffer(16)
        TELEMETRY.enable(tracer=tracer)
        with TELEMETRY.span("engine.test"):
            pass
        TELEMETRY.disable()
        (event,) = tracer.events()
        assert event["name"] == "engine.test"
        assert event["dur_s"] >= 0.0

    def test_disable_detaches_tracer(self):
        TELEMETRY.enable(tracer=TraceBuffer(4))
        TELEMETRY.disable()
        assert TELEMETRY.tracer is None

    def test_span_without_tracer_adds_nothing(self):
        tracer = TraceBuffer(4)
        TELEMETRY.enable()
        with TELEMETRY.span("engine.test"):
            pass
        TELEMETRY.disable()
        assert tracer.events() == []


def _spec(**overrides) -> ExperimentSpec:
    base = {
        "algorithm": "triangle",
        "adversary": "churn",
        "n": 12,
        "rounds": 25,
        "seed": 5,
        "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
    }
    base.update(overrides)
    return ExperimentSpec.from_dict(base)


def _essence(record):
    return {
        key: value
        for key, value in record.items()
        if key
        not in (
            "duration_s",
            "finished_at",
            "telemetry_path",
            "profile_path",
            "telemetry",
            "trace_events",
            "trace_events_dropped",
            "trace_events_path",
        )
    }


class TestTracingBitIdentity:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_tracing_does_not_perturb_results(self, config, tmp_path):
        spec = _spec(**config)
        plain_record, plain_trace = execute_cell(spec)
        traced_record, traced_trace = execute_cell(
            spec, telemetry_dir=tmp_path, trace_events=True
        )
        assert plain_record["status"] == "ok"
        assert _essence(traced_record) == _essence(plain_record)
        assert traced_trace == plain_trace
        assert (
            traced_record["state_fingerprint"] == plain_record["state_fingerprint"]
        )
        # The traced run actually produced engine slices on disk.
        events = read_trace_jsonl(traced_record["trace_events_path"])
        assert traced_record["trace_events"] == len(events) > 0
        assert any(e["name"] == "engine.round" for e in events)

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_every_engine_emits_the_same_stage_slices(self, config, tmp_path):
        """One round loop: one coordinator slice per stage span, any engine."""
        record, _ = execute_cell(
            _spec(**config), telemetry_dir=tmp_path, trace_events=True
        )
        events = read_trace_jsonl(record["trace_events_path"])
        stages = {e["name"] for e in events if "worker" not in e}
        assert stages == {
            "engine.indications", "engine.compute", "engine.route",
            "engine.deliver", "engine.query", "engine.round",
        }
