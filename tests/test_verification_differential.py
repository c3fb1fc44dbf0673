"""Unit tests of the cross-engine differential verification harness."""

from __future__ import annotations

import json

from repro.experiments import CampaignSpec, ExperimentSpec
from repro.simulator import state_fingerprint
from repro.verification import (
    CHECKS,
    normalize_cell,
    run_differential,
    run_reference,
    verify_campaign,
)
from repro.verification.differential import _compare, _run_mode

CHURN_CELL = dict(
    algorithm="triangle",
    adversary="churn",
    n=10,
    rounds=25,
    adversary_params={"inserts_per_round": 3, "deletes_per_round": 2},
)


class TestStateFingerprint:
    def test_identical_runs_have_identical_fingerprints(self):
        spec = ExperimentSpec(**CHURN_CELL)
        a, _ = run_reference(spec)
        b, _ = run_reference(spec)
        for v in a.nodes:
            assert a.nodes[v].state_fingerprint() == b.nodes[v].state_fingerprint()

    def test_fingerprint_sees_state_mutations(self):
        spec = ExperimentSpec(**CHURN_CELL)
        result, _ = run_reference(spec)
        node = result.nodes[0]
        before = node.state_fingerprint()
        node.consistent = not node.consistent
        assert node.state_fingerprint() != before

    def test_fingerprint_ignores_set_iteration_order(self):
        class Bag:
            def __init__(self, items):
                self.items = set(items)

        assert state_fingerprint(Bag([1, 2, 3])) == state_fingerprint(Bag([3, 1, 2]))

    def test_sparse_fingerprints_match_dense(self):
        spec = ExperimentSpec(**CHURN_CELL)
        dense, _ = run_reference(spec, engine_mode="dense")
        run, _ = _run_mode(spec, "sparse", ())
        assert run.fingerprints == {
            v: algo.state_fingerprint() for v, algo in dense.nodes.items()
        }


class TestRunDifferential:
    def test_ok_across_all_modes(self):
        spec = ExperimentSpec(**CHURN_CELL)
        report = run_differential(spec, auto_checks=True)
        assert report.ok
        assert "triangle_oracle" in report.executed_checks
        assert set(report.summaries) == {"dense", "sparse"}
        # The report serializes cleanly for --report files, and keeps its
        # modes field for existing readers.
        assert json.loads(json.dumps(report.to_dict()))["modes"] == ["dense", "sparse"]

    def test_divergences_are_structured(self):
        # Two different seeds produce genuinely different runs; comparing them
        # through the harness's comparator must localize the difference.
        spec_a = ExperimentSpec(**CHURN_CELL)
        spec_b = ExperimentSpec(**{**CHURN_CELL, "seed": 1})
        run_a, _ = _run_mode(spec_a, "sparse", ())
        run_b, _ = _run_mode(spec_b, "sparse", ())
        divergences = _compare(run_a, run_b)
        assert divergences
        kinds = {d.kind for d in divergences}
        assert "round_record" in kinds or "trace" in kinds
        first = divergences[0]
        assert first.describe()
        record_divs = [d for d in divergences if d.kind == "round_record"]
        if record_divs:
            assert record_divs[0].round_index is not None

    def test_check_failures_fold_into_report(self):
        # A naive-forwarding cell under the flicker schedule: the flicker_ghost
        # check runs (metrics land in the report) without failing, while the
        # engines still agree bit-for-bit.
        spec = ExperimentSpec(
            algorithm="naive",
            adversary="flicker",
            n=9,
            strict_bandwidth=False,
        )
        report = run_differential(spec, auto_checks=True)
        assert "flicker_ghost" in report.executed_checks
        assert report.check_outcomes["flicker_ghost"].metrics["believes_deleted_edge"] == 1.0
        assert report.ok, report.describe()


class TestVerifyCampaign:
    def test_normalize_cell_strips_engine_axes(self):
        base = ExperimentSpec.from_dict({**CHURN_CELL, "engine_mode": "dense"})
        normalized = normalize_cell(base)
        assert normalized.engine_mode == "sparse"
        assert normalized.record_trace is True
        assert normalized.checks == ()
        assert normalize_cell(ExperimentSpec.from_dict(CHURN_CELL)).cell_id == normalized.cell_id

    def test_engine_axis_cells_verify_once(self):
        campaign = CampaignSpec(
            name="dedupe",
            base=dict(CHURN_CELL),
            grid={"engine_mode": ["dense", "sparse"]},
        )
        summary = verify_campaign(campaign, include_coverage=False)
        assert len(summary.cells) == 1
        assert summary.ok

    def test_coverage_cells_execute_whole_registry(self):
        campaign = CampaignSpec(name="one-cell", base=dict(CHURN_CELL), grid={})
        summary = verify_campaign(campaign)
        assert summary.ok
        assert summary.executed_checks == sorted(CHECKS)
        assert summary.skipped_checks == []
        assert any(cell.coverage for cell in summary.cells)
        # No cell (grid or coverage) is ever verified twice.
        ids = [cell.spec.cell_id for cell in summary.cells]
        assert len(ids) == len(set(ids))

    def test_ablation_cells_are_not_graded_by_oracle_equality(self):
        # The hint-free ablation legitimately misses triangles; auto checks
        # must grade it with triangle_recall, never triangle_oracle.
        spec = ExperimentSpec.from_dict({**CHURN_CELL, "algorithm": "triangle_nohints"})
        report = run_differential(spec, auto_checks=True)
        assert report.ok, report.describe()
        assert "triangle_recall" in report.executed_checks
        assert "triangle_oracle" not in report.executed_checks

    def test_legacy_function_checks_keep_working(self):
        from repro.verification import register_check

        name = "legacy_fixture_check"
        register_check(name, lambda result: {"legacy_metric": 1.0})
        try:
            # No drain constraint: the plain-callable registry never had one.
            spec = ExperimentSpec.from_dict(
                {**CHURN_CELL, "drain": False, "checks": [name]}
            )
            result, outcomes = run_reference(spec, checks=[name])
            assert outcomes[name].metrics == {"legacy_metric": 1.0}
            assert outcomes[name].ok
        finally:
            del CHECKS[name]

    def test_without_coverage_checks_are_reported_skipped(self):
        campaign = CampaignSpec(name="one-cell", base=dict(CHURN_CELL), grid={})
        summary = verify_campaign(campaign, include_coverage=False)
        assert summary.ok
        assert "robust2hop_oracle" in summary.skipped_checks
