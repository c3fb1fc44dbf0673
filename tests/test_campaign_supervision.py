"""Worker-supervision tests: real SIGKILLs, timeouts, retries, quarantine.

These drive the chaos adversaries (``chaos_kill`` / ``chaos_sleep``) through a
supervised :class:`CampaignRunner` pool -- the worker process genuinely dies
(SIGKILL mid-cell) or stalls past the per-cell deadline, and the supervisor
must detect it, retry with backoff, and quarantine poison cells without ever
hanging the campaign.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments import CampaignRunner, CampaignSpec, ResultStore
from repro.experiments.campaign import _retry_jitter

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)

CHURN = {"inserts_per_round": 2, "deletes_per_round": 1}


def _chaos_campaign(adversary_params, name="chaos"):
    return CampaignSpec(
        name=name,
        base={
            "algorithm": "triangle",
            "rounds": 5,
            "adversary_params": adversary_params,
            "record_trace": False,
        },
        grid={"n": [8], "adversary": [adversary_params.pop("_adversary")]},
    )


def _kill_campaign(tmp_path, times, name="kills"):
    return _chaos_campaign(
        {"_adversary": "chaos_kill", "kill_file": str(tmp_path / "kills"), "times": times},
        name=name,
    )


class TestRetryThenOk:
    def test_killed_worker_is_retried_to_success(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=1)
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(
            campaign, store, jobs=2, max_retries=2, retry_backoff_s=0.0
        )
        report = runner.run()
        assert report.num_run == 1 and not report.failed
        assert report.counters["campaign.worker_deaths"] == 1
        assert report.counters["campaign.retries"] == 1
        assert report.counters["campaign.quarantined"] == 0
        assert store.completed_ids() == {campaign.expand()[0].cell_id}

    def test_failed_attempts_are_persisted_but_not_reported(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=1)
        store = ResultStore(tmp_path / "store")
        CampaignRunner(
            campaign, store, jobs=2, max_retries=2, retry_backoff_s=0.0
        ).run()
        records = store.records()
        attempts = [r for r in records if r.get("attempt")]
        finals = [r for r in records if not r.get("attempt")]
        assert len(attempts) == 1 and attempts[0]["status"] == "error"
        assert "worker process died" in attempts[0]["error"]
        assert len(finals) == 1 and finals[0]["status"] == "ok"

    def test_supervision_snapshot_lands_in_telemetry(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=1)
        store = ResultStore(tmp_path / "store")
        CampaignRunner(
            campaign, store, jobs=2, max_retries=1, retry_backoff_s=0.0
        ).run()
        snapshot_path = store.telemetry_root / "_campaign.jsonl"
        assert snapshot_path.exists()
        from repro.obs.report import load_snapshots

        snapshots = load_snapshots(store.telemetry_root)
        assert snapshots["_campaign"]["counters"]["campaign.retries"] == 1

    def test_clean_supervised_run_writes_no_snapshot(self, tmp_path):
        campaign = CampaignSpec(
            name="clean",
            base={
                "algorithm": "triangle",
                "adversary": "churn",
                "rounds": 5,
                "adversary_params": dict(CHURN),
                "record_trace": False,
            },
            grid={"n": [8, 10]},
        )
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            campaign, store, jobs=2, max_retries=1, retry_backoff_s=0.0
        ).run()
        assert not report.failed
        assert not any(report.counters.values())
        assert not (store.telemetry_root / "_campaign.jsonl").exists()


class TestQuarantine:
    def test_poison_cell_is_quarantined_after_exhausted_retries(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=10)  # kills forever
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            campaign, store, jobs=2, max_retries=2, retry_backoff_s=0.0
        ).run()
        assert report.num_run == 1
        (bad,) = report.quarantined
        assert bad["status"] == "quarantined"
        assert "worker process died" in bad["error"]
        assert report.counters["campaign.worker_deaths"] == 3  # 1 + 2 retries
        assert report.counters["campaign.quarantined"] == 1
        assert store.completed_ids() == set()

    def test_quarantined_cells_rerun_on_resume(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=2)
        store = ResultStore(tmp_path / "store")
        first = CampaignRunner(
            campaign, store, jobs=2, max_retries=1, retry_backoff_s=0.0
        ).run()
        assert len(first.quarantined) == 1
        # the kill budget (2) is now exhausted, so the resume attempt succeeds
        second = CampaignRunner(
            campaign, store, jobs=2, max_retries=1, retry_backoff_s=0.0
        ).run()
        assert second.num_run == 1 and not second.failed
        assert store.completed_ids() == {campaign.expand()[0].cell_id}

    def test_unsupervised_runs_keep_plain_error_status(self, tmp_path):
        # Without retries the quarantine vocabulary would be noise: a
        # deterministic in-cell failure stays status == "error".
        campaign = CampaignSpec(
            name="fails",
            base={
                "algorithm": "triangle",
                "adversary": "scripted",
                "adversary_params": {"trace_path": "/nonexistent/trace.json"},
            },
            grid={"n": [8]},
        )
        report = CampaignRunner(campaign, tmp_path / "store", jobs=1).run()
        assert len(report.failed) == 1 and not report.quarantined
        assert report.failed[0]["status"] == "error"

    def test_deterministic_errors_are_not_retried(self, tmp_path):
        # Retry covers infrastructure failures only: a cell that raises the
        # same exception every time must fail once, not max_retries+1 times.
        campaign = CampaignSpec(
            name="fails",
            base={
                "algorithm": "triangle",
                "adversary": "scripted",
                "adversary_params": {"trace_path": "/nonexistent/trace.json"},
            },
            grid={"n": [8]},
        )
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            campaign, store, jobs=2, max_retries=3, retry_backoff_s=0.0
        ).run()
        assert len(report.failed) == 1
        assert report.counters["campaign.retries"] == 0
        assert len(store.records()) == 1


class TestTimeout:
    def test_stalled_cell_is_killed_and_retried(self, tmp_path):
        campaign = _chaos_campaign(
            {
                "_adversary": "chaos_sleep",
                "sleep_s": 60.0,
                "skip_file": str(tmp_path / "stalls"),
                "times": 1,
            },
            name="stalls",
        )
        store = ResultStore(tmp_path / "store")
        report = CampaignRunner(
            campaign,
            store,
            jobs=2,
            max_retries=1,
            cell_timeout_s=2.0,
            retry_backoff_s=0.0,
        ).run()
        assert report.num_run == 1 and not report.failed, report.failed
        assert report.counters["campaign.timeouts"] == 1

    def test_timeout_without_retries_fails_the_cell(self, tmp_path):
        campaign = _chaos_campaign(
            {"_adversary": "chaos_sleep", "sleep_s": 60.0}, name="stalls"
        )
        report = CampaignRunner(
            campaign, tmp_path / "store", jobs=2, cell_timeout_s=1.5
        ).run()
        assert len(report.failed) == 1
        assert "wall-clock timeout" in report.failed[0]["error"]


class TestConfiguration:
    def test_rejects_bad_supervision_knobs(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=0)
        for kwargs in (
            {"max_retries": -1},
            {"cell_timeout_s": 0.0},
            {"retry_backoff_s": -1.0},
        ):
            with pytest.raises(ValueError):
                CampaignRunner(campaign, tmp_path / "store", jobs=2, **kwargs)

    def test_supervised_property(self, tmp_path):
        campaign = _kill_campaign(tmp_path, times=0)
        assert not CampaignRunner(campaign, tmp_path / "a", jobs=1).supervised
        assert CampaignRunner(campaign, tmp_path / "b", jobs=1, max_retries=1).supervised
        assert CampaignRunner(
            campaign, tmp_path / "c", jobs=1, cell_timeout_s=5.0
        ).supervised

    def test_retry_jitter_is_deterministic_and_bounded(self):
        draws = {_retry_jitter(f"cell-{i}", attempt) for i in range(50) for attempt in (1, 2)}
        assert len(draws) > 40  # actually spreads
        assert all(1.0 <= j < 2.0 for j in draws)
        assert _retry_jitter("cell-0", 1) == _retry_jitter("cell-0", 1)
        assert _retry_jitter("cell-0", 1) != _retry_jitter("cell-0", 2)
