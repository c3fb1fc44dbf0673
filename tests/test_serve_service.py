"""Tests for the serving loop: MonitorService, ServingReport, CLI serve."""

import json

import pytest

from repro import RoundChanges
from repro.cli import main
from repro.serve import (
    AdversaryEventSource,
    AnswerChanged,
    LogEventSource,
    MonitorService,
    TraceEventSource,
)
from repro.simulator.trace import TopologyTrace


def flicker_source(n):
    from repro import FlickerTriangleAdversary

    return AdversaryEventSource(FlickerTriangleAdversary(n=n), rounds=60)


def churn_source(n, rounds=50):
    from repro import RandomChurnAdversary

    return AdversaryEventSource(
        RandomChurnAdversary(n, num_rounds=rounds, seed=7), rounds=rounds
    )


class TestServingReport:
    def test_report_shape_and_throughput(self):
        service = MonitorService(16, "triangle")
        service.subscribe("triangle", members=[0, 1, 2])
        report = service.run(churn_source(16, rounds=20), settle_rounds=5)
        assert report.batches == 25
        assert report.subscriptions == 1
        assert report.evaluated > 0
        assert report.duration_s > 0
        assert report.queries_per_s == report.evaluated / report.duration_s
        data = report.to_dict()
        assert data["engine_mode"] == "sparse"
        assert data["state_fingerprint"]
        json.dumps(data)  # JSON-ready, including the firing log

    def test_comparable_dict_excludes_wall_clock(self):
        service = MonitorService(8, "triangle")
        report = service.run(churn_source(8, rounds=5))
        comparable = report.comparable_dict()
        assert "duration_s" not in comparable
        assert "queries_per_s" not in comparable
        assert "engine_mode" not in comparable

    def test_max_batches_caps_open_ended_sources(self):
        service = MonitorService(8, "triangle")
        report = service.run(churn_source(8, rounds=50), max_batches=10)
        assert report.batches == 10

    def test_on_notification_callback_order(self):
        service = MonitorService(12, "triangle")
        service.subscribe("triangle", members=[0, 1, 2])
        seen = []
        report = service.run(
            flicker_source(12), settle_rounds=8, on_notification=seen.append
        )
        assert [note.to_dict() for note in seen] == report.firings
        assert report.fired == len(seen) > 0

    def test_firings_kept_as_notifications(self):
        service = MonitorService(12, "triangle")
        service.subscribe("triangle", members=[0, 1, 2])
        report = service.run(flicker_source(12), settle_rounds=8)
        assert report.fired == len(report.notifications) > 0
        assert all(type(note) is AnswerChanged for note in report.notifications)
        assert report.firings == [note.to_dict() for note in report.notifications]
        assert all(type(firing) is dict for firing in report.firings)
        assert json.loads(json.dumps(report.to_dict()))["firings"] == report.firings
        # The summary table is every figure of the report but the firing log.
        full = report.to_dict()
        del full["firings"]
        assert report.summary() == full


class TestCrossEngineIdentity:
    """The serving differential gate: identical firings on every engine."""

    @pytest.mark.parametrize("source_factory", [flicker_source, churn_source])
    def test_firings_bit_identical_across_engines(self, source_factory):
        def run(mode):
            service = MonitorService(20, "triangle", engine_mode=mode)
            service.subscribe("triangle", members=[0, 1, 2], subscription_id="a")
            service.subscribe("triangle", members=[3, 4, 5], subscription_id="b")
            service.subscribe("triangle", members=[10, 11, 12], subscription_id="far")
            return service.run(source_factory(20), settle_rounds=8).comparable_dict()

        reference = run("dense")
        assert reference["fired"] > 0
        assert run("sparse") == reference

    def test_edge_subscriptions_identical_across_engines(self):
        def run(mode):
            service = MonitorService(16, "robust2hop", engine_mode=mode)
            for i in range(8):
                service.subscribe("edge", node=i, u=i, w=(i + 1) % 16)
            return service.run(churn_source(16, rounds=30), settle_rounds=8).comparable_dict()

        reference = run("dense")
        assert run("sparse") == reference


class TestServiceOracleWiring:
    def test_oracle_tracks_served_rounds(self):
        service = MonitorService(8, "triangle")
        service.ingest(RoundChanges.inserts([(0, 1)]))
        service.tick()
        assert service.oracle.latest_round == service.monitor.round_index == 2
        assert service.oracle.snapshot().edges == frozenset({(0, 1)})

    def test_quiet_round_has_empty_ball(self):
        service = MonitorService(8, "triangle")
        service.ingest(RoundChanges.inserts([(0, 1)]))
        service.tick()
        assert service.oracle.last_changed_ball(3) == set()


class TestServeCLI:
    def _write_inputs(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join(
                json.dumps(record)
                for record in [
                    {"ts": 0.0, "u": 0, "v": 1, "op": "up"},
                    {"ts": 0.5, "u": 1, "v": 2, "op": "up"},
                    {"ts": 1.0, "u": 0, "v": 2, "op": "up"},
                ]
            )
            + "\n"
        )
        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps([{"id": "tri", "kind": "triangle", "members": [0, 1, 2]}]))
        return log, subs

    def test_serve_log_source(self, tmp_path, capsys):
        log, subs = self._write_inputs(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "serve",
                "--source", "log",
                "--log", str(log),
                "--nodes", "8",
                "--structure", "triangle",
                "--subscriptions", str(subs),
                "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "log normalized:" in out
        assert "tri (triangle)" in out
        report = json.loads(report_path.read_text())
        assert report["subscriptions"] == 1
        assert report["fired"] >= 1
        assert report["firings"][-1]["new"] == [True, True]

    def test_serve_adversary_source(self, capsys):
        code = main(
            [
                "serve",
                "--source", "adversary",
                "--adversary", "churn",
                "--nodes", "10",
                "--rounds", "20",
            ]
        )
        assert code == 0
        assert "state_fingerprint" in capsys.readouterr().out

    def test_serve_trace_source(self, tmp_path, capsys):
        trace = TopologyTrace(n=8)
        trace.append(RoundChanges.inserts([(0, 1)]))
        trace.append(RoundChanges.empty())
        path = tmp_path / "trace.json"
        trace.save(path)
        code = main(["serve", "--source", "trace", "--trace", str(path), "--nodes", "8"])
        assert code == 0

    def test_serve_rounds_caps_only_the_adversary_source(self, tmp_path):
        # 300 recorded rounds, more than the default --rounds of 200: every
        # one is served, then the 10 default settle rounds.
        trace = TopologyTrace(n=8)
        for i in range(300):
            edge = [(i // 2 % 7, i // 2 % 7 + 1)]
            trace.append(RoundChanges.inserts(edge) if i % 2 == 0 else RoundChanges.deletes(edge))
        path = tmp_path / "trace.json"
        trace.save(path)
        report_path = tmp_path / "report.json"
        code = main(
            ["serve", "--source", "trace", "--trace", str(path), "--nodes", "8",
             "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert (report["batches"], report["events"]) == (310, 300)

    @pytest.mark.parametrize("flag", ["--rounds", "--settle-rounds"])
    def test_serve_negative_round_counts_exit_2(self, flag, capsys):
        assert main(["serve", "--nodes", "8", flag, "-3"]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be non-negative, got -3\n"

    def test_serve_trace_recorded_for_more_nodes_exits_2(self, tmp_path, capsys):
        trace = TopologyTrace(n=10)
        trace.append(RoundChanges.inserts([(7, 8)]))
        path = tmp_path / "trace.json"
        trace.save(path)
        message = "error: trace was recorded for n=10 but the spec has n=6\n"
        code = main(["serve", "--source", "trace", "--trace", str(path), "--nodes", "6"])
        assert code == 2
        assert capsys.readouterr().err == message
        # The same message as a scripted single run of the same file.
        code = main(["--adversary", "scripted", "--trace", str(path), "--nodes", "6"])
        assert code == 2
        assert capsys.readouterr().err == message

    def test_serve_usage_errors(self, tmp_path, capsys):
        assert main(["serve", "--source", "trace", "--nodes", "8"]) == 2
        assert main(["serve", "--source", "log", "--nodes", "8"]) == 2
        bad_log = tmp_path / "bad.jsonl"
        bad_log.write_text('{"ts": 0, "u": 0, "v": 99, "op": "up"}\n')
        assert main(["serve", "--source", "log", "--log", str(bad_log), "--nodes", "8"]) == 2
        err = capsys.readouterr().err
        assert "out of range" in err

    def test_serve_rejects_sharded_engine(self):
        with pytest.raises(SystemExit):
            main(["serve", "--engine", "sharded", "--nodes", "8"])

    def test_serve_telemetry_out(self, tmp_path, capsys):
        log, subs = self._write_inputs(tmp_path)
        telemetry_path = tmp_path / "telemetry.jsonl"
        code = main(
            [
                "serve",
                "--source", "log",
                "--log", str(log),
                "--nodes", "8",
                "--subscriptions", str(subs),
                "--telemetry-out", str(telemetry_path),
            ]
        )
        assert code == 0
        snapshots = [json.loads(line) for line in telemetry_path.read_text().splitlines()]
        final = snapshots[-1]
        assert final["final"] is True
        assert "serve.ingest" in final["spans"]
        assert "serve.answer_latency_s" in final["histograms"]
        assert final["counters"]["serve.batches"] > 0
        # The log normalizer's ingest stats surface as serve.ingest.* counters.
        assert final["counters"]["serve.ingest.records_read"] == 3
        assert final["counters"]["serve.ingest.events_emitted"] > 0
        assert "serve.ingest.coalesced_dropped" in final["counters"]
        assert "serve.ingest.clamped_gap_rounds" in final["counters"]

    def test_serve_trace_out(self, tmp_path, capsys):
        from repro.obs.tracing import read_trace_jsonl

        log, subs = self._write_inputs(tmp_path)
        trace_path = tmp_path / "serve.trace.jsonl"
        code = main(
            [
                "serve",
                "--source", "log",
                "--log", str(log),
                "--nodes", "8",
                "--subscriptions", str(subs),
                "--settle-rounds", "4",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        events = read_trace_jsonl(trace_path)
        names = {event["name"] for event in events}
        assert "engine.round" in names
        assert "serve.evaluate" in names
        # Trace-out alone enables telemetry, but no snapshot sink is written.
        assert not (tmp_path / "telemetry.jsonl").exists()
        from repro.obs import TELEMETRY

        assert not TELEMETRY.enabled and TELEMETRY.tracer is None
