"""Telemetry must never perturb the simulation.

The hard constraint of the observability subsystem: with telemetry (and even
a profiler) enabled, every engine produces bit-identical results -- same
metrics, same realized traces, same final state fingerprints -- as a plain
run.  These tests pin that under the dense and sparse engines, and
cover the campaign-runner plumbing that carries the settings into worker
processes.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    CampaignRunner,
    CampaignSpec,
    ExperimentSpec,
    ResultStore,
    execute_cell,
)
from repro.obs import TELEMETRY, load_final_snapshot

ENGINE_CONFIGS = [
    pytest.param({"engine_mode": "dense"}, id="dense"),
    pytest.param({"engine_mode": "sparse"}, id="sparse"),
]


def _spec(**overrides) -> ExperimentSpec:
    base = {
        "algorithm": "triangle",
        "adversary": "churn",
        "n": 12,
        "rounds": 30,
        "seed": 3,
        "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
    }
    base.update(overrides)
    return ExperimentSpec.from_dict(base)


def _essence(record):
    """The deterministic portion of a cell record (timing and observability
    payload fields dropped -- the shipped snapshot and trace-event bookkeeping
    only exist on instrumented runs by design)."""
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


class TestBitIdentity:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_telemetry_does_not_perturb_results(self, config, tmp_path):
        spec = _spec(**config)
        plain_record, plain_trace = execute_cell(spec)
        instr_record, instr_trace = execute_cell(spec, telemetry_dir=tmp_path)
        assert plain_record["status"] == "ok"
        assert _essence(instr_record) == _essence(plain_record)
        assert instr_trace == plain_trace
        assert instr_record["state_fingerprint"] == plain_record["state_fingerprint"]

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_telemetry_snapshot_names_engine_stages(self, config, tmp_path):
        spec = _spec(**config)
        record, _ = execute_cell(spec, telemetry_dir=tmp_path, telemetry_interval_s=0.0)
        snap = load_final_snapshot(record["telemetry_path"])
        assert snap is not None and snap["final"] is True
        spans = snap["spans"]
        for stage in ("engine.indications", "engine.compute", "engine.route",
                      "engine.deliver", "engine.round"):
            assert stage in spans, f"missing span {stage} in {sorted(spans)}"
            assert spans[stage]["count"] > 0
            assert spans[stage]["total_s"] >= 0.0
        assert spans["engine.round"]["total_s"] > 0.0
        # Drain rounds run past the scheduled horizon, so >= not ==.
        assert snap["counters"]["engine.rounds"] >= spec.rounds
        assert "engine.active_set" in snap["histograms"]

    def test_profiling_does_not_perturb_results(self, tmp_path):
        spec = _spec(engine_mode="sparse")
        plain_record, plain_trace = execute_cell(spec)
        prof_record, prof_trace = execute_cell(
            spec, profile="cprofile", profile_dir=tmp_path
        )
        assert _essence(prof_record) == _essence(plain_record)
        assert prof_trace == plain_trace
        assert (tmp_path / f"{spec.cell_id}.pstats").exists()

    def test_telemetry_singleton_left_disabled(self, tmp_path):
        execute_cell(_spec(), telemetry_dir=tmp_path)
        assert not TELEMETRY.enabled

    def test_telemetry_disabled_even_on_cell_error(self, tmp_path):
        spec = _spec(
            adversary="scripted",
            adversary_params={"trace_path": str(tmp_path / "missing.json")},
        )
        record, _ = execute_cell(spec, telemetry_dir=tmp_path)
        assert record["status"] == "error"
        assert not TELEMETRY.enabled
        # Even a failed cell leaves a parseable final snapshot behind.
        assert load_final_snapshot(record["telemetry_path"]) is not None

    def test_rejects_unknown_profiler(self):
        with pytest.raises(ValueError, match="unknown profiler"):
            execute_cell(_spec(), profile="magic")


class TestEngineTelemetryAgrees:
    """Engine telemetry means the same under either policy: one round loop."""

    def test_dense_and_sparse_count_the_same_rounds_and_envelopes(self, tmp_path):
        n = 24
        snapshots = {}
        for mode in ("dense", "sparse"):
            spec = _spec(
                n=n,
                seed=1,
                adversary_params={"inserts_per_round": 3, "deletes_per_round": 2},
                engine_mode=mode,
            )
            record, _ = execute_cell(spec, telemetry_dir=tmp_path / mode)
            assert record["status"] == "ok"
            snapshots[mode] = load_final_snapshot(record["telemetry_path"])
        dense, sparse = snapshots["dense"], snapshots["sparse"]
        for counter in ("engine.rounds", "engine.envelopes"):
            assert dense["counters"][counter] == sparse["counters"][counter], counter
        ours, theirs = (s["histograms"]["engine.inbox_fanout"] for s in (dense, sparse))
        assert (ours["count"], ours["sum"]) == (theirs["count"], theirs["sum"])
        # Dense touches every node every round; sparse skips the quiescent
        # ones, and touched plus skipped accounts for every node-round.
        node_rounds = n * dense["counters"]["engine.rounds"]
        assert dense["histograms"]["engine.touched_set"]["sum"] == node_rounds
        assert dense["counters"]["engine.quiescent_skips"] == 0
        skipped = sparse["counters"]["engine.quiescent_skips"]
        assert skipped > 0
        assert sparse["histograms"]["engine.touched_set"]["sum"] + skipped == node_rounds


def _campaign(**telemetry) -> CampaignSpec:
    return CampaignSpec(
        name="obs-identity",
        base={
            "algorithm": "triangle",
            "adversary": "churn",
            "rounds": 20,
            "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
        },
        grid={"n": [10, 12]},
        seeds=[0, 1],
        **({"telemetry": telemetry} if telemetry else {}),
    )


class TestCampaignTelemetry:
    def test_runner_flag_writes_per_cell_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            _campaign(), store, jobs=1, telemetry=True, telemetry_interval_s=0.0
        ).run()
        assert report.num_run == 4 and not report.failed
        for record in report.records:
            path = store.telemetry_path(record["cell_id"])
            assert record["telemetry_path"] == str(path)
            assert load_final_snapshot(path)["label"] == record["cell_id"]

    def test_worker_pool_carries_telemetry_and_start_events(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        started = []
        report = CampaignRunner(
            _campaign(), store, jobs=2, telemetry=True
        ).run(on_start=started.append)
        assert report.num_run == 4 and not report.failed
        assert sorted(started) == sorted(r["cell_id"] for r in report.records)
        assert len(list(store.telemetry_root.glob("*.jsonl"))) == 4

    def test_spec_level_telemetry_settings_apply(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            _campaign(enabled=True, interval_s=0.0), store, jobs=1
        ).run()
        assert report.num_run == 4
        assert len(list(store.telemetry_root.glob("*.jsonl"))) == 4

    def test_runner_flag_overrides_spec_off(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        CampaignRunner(
            _campaign(enabled=True), store, jobs=1, telemetry=False
        ).run()
        assert not store.telemetry_root.exists()

    def test_telemetry_identical_fingerprints_vs_plain_run(self, tmp_path):
        plain = CampaignRunner(_campaign(), ResultStore(tmp_path / "plain"), jobs=1).run()
        instr = CampaignRunner(
            _campaign(), ResultStore(tmp_path / "instr"), jobs=1, telemetry=True
        ).run()
        plain_fp = {r["cell_id"]: r["state_fingerprint"] for r in plain.records}
        instr_fp = {r["cell_id"]: r["state_fingerprint"] for r in instr.records}
        assert plain_fp == instr_fp

    def test_profiler_writes_pstats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            _campaign(), store, jobs=1, profile="cprofile"
        ).run()
        assert report.num_run == 4
        for record in report.records:
            assert store.profile_path(record["cell_id"]).exists()

    def test_rejects_unknown_profiler(self, tmp_path):
        with pytest.raises(ValueError, match="unknown profiler"):
            CampaignRunner(_campaign(), ResultStore(tmp_path / "s"), profile="magic")

    def test_telemetry_spec_round_trips_json(self):
        campaign = _campaign(enabled=True, interval_s=0.5)
        clone = CampaignSpec.from_dict(json.loads(json.dumps(campaign.to_dict())))
        assert clone.telemetry == {"enabled": True, "interval_s": 0.5}
        # Telemetry settings live on the campaign, not the cells: cell ids
        # (spec hashes) are identical with and without them.
        assert [c.cell_id for c in clone.expand()] == [
            c.cell_id for c in _campaign().expand()
        ]

    def test_telemetry_spec_validation(self):
        with pytest.raises(ValueError, match="telemetry"):
            CampaignSpec(
                name="bad", base={"algorithm": "triangle", "adversary": "churn"},
                grid={}, telemetry={"bogus_key": 1},
            )
