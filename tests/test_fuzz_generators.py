"""Tests for the schedule fuzzer: legality, determinism, registry wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import CampaignSpec, ExperimentSpec, build_adversary
from repro.fuzz.generators import PROFILES, ScheduleFuzzer, generate_trace
from repro.simulator.network import DynamicNetwork
from repro.simulator.trace import TraceReplayAdversary


def replay_through_network(trace) -> DynamicNetwork:
    """Apply every round; DynamicNetwork raises TopologyError on any illegality."""
    network = DynamicNetwork(trace.n)
    for i in range(trace.num_rounds):
        network.apply_changes(i + 1, trace.changes_for(i))
    return network


class TestLegality:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        profile=st.sampled_from(sorted(PROFILES)),
        n=st.integers(min_value=3, max_value=12),
    )
    def test_every_generated_schedule_is_legal(self, seed, profile, n):
        trace = generate_trace(n, 35, seed, profile=profile)
        assert trace.num_rounds == 35
        replay_through_network(trace)  # raises on any illegal event
        assert trace.max_node_id() < n

    def test_one_event_per_edge_per_round(self):
        trace = generate_trace(6, 60, seed=11)
        for ins, dels in trace.rounds:
            edges = [tuple(sorted(e)) for e in ins + dels]
            assert len(edges) == len(set(edges))

    def test_schedules_actually_exercise_deletions_and_quiet_rounds(self):
        trace = generate_trace(8, 80, seed=5)
        assert any(dels for _, dels in trace.rounds)
        assert any(ins for ins, _ in trace.rounds)
        assert any(not ins and not dels for ins, dels in trace.rounds)


class TestDeterminism:
    def test_same_arguments_same_schedule(self):
        a = generate_trace(8, 50, seed=42, profile="gadgets")
        b = generate_trace(8, 50, seed=42, profile="gadgets")
        assert a.rounds == b.rounds

    def test_different_seeds_differ(self):
        a = generate_trace(8, 50, seed=1)
        b = generate_trace(8, 50, seed=2)
        assert a.rounds != b.rounds

    def test_prefix_stability_not_required_but_budget_is_exact(self):
        assert generate_trace(8, 0, seed=3).num_rounds == 0
        assert generate_trace(8, 7, seed=3).num_rounds == 7

    def test_reused_fuzzer_stays_legal(self):
        # generate() resets to an empty graph each call; a truncated first
        # schedule must not leak its present-set into the second one.
        fuzzer = ScheduleFuzzer(6, 0)
        fuzzer.generate(3)
        replay_through_network(fuzzer.generate(12))


class TestFaultsProfile:
    """The crash/partition splice phases behind the ``faults`` profile."""

    def test_faults_profile_registered(self):
        assert "faults" in PROFILES
        assert PROFILES["faults"]["crash_splice"] > 0
        assert PROFILES["faults"]["partition_splice"] > 0

    def test_faults_schedules_are_deterministic(self):
        a = generate_trace(8, 50, seed=21, profile="faults")
        b = generate_trace(8, 50, seed=21, profile="faults")
        assert a.rounds == b.rounds

    def test_splices_tear_and_revive_edges(self):
        # The splice phases delete live edges, idle through a downtime window
        # and re-insert: a faults-profile schedule exercises deletions, quiet
        # rounds and re-insertions of previously deleted edges.
        trace = generate_trace(8, 80, seed=4, profile="faults")
        deleted, reinserted = set(), set()
        for ins, dels in trace.rounds:
            for e in dels:
                deleted.add(tuple(sorted(e)))
            for e in ins:
                if tuple(sorted(e)) in deleted:
                    reinserted.add(tuple(sorted(e)))
        assert deleted and reinserted
        assert any(not ins and not dels for ins, dels in trace.rounds)

    def test_existing_profiles_keep_their_streams(self):
        # Adding the faults profile (and its phases) must not shift the RNG
        # stream of the other profiles: pinned fuzz seeds in the corpus and
        # in CI would silently change meaning.  Each profile draws only from
        # its own phase table, so their schedules stay independent.
        mixed = generate_trace(8, 40, seed=12, profile="mixed")
        faults = generate_trace(8, 40, seed=12, profile="faults")
        assert mixed.rounds != faults.rounds


class TestValidation:
    def test_rejects_tiny_networks(self):
        with pytest.raises(ValueError, match="n >= 3"):
            ScheduleFuzzer(2, 0)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="profile"):
            ScheduleFuzzer(8, 0, profile="chaos")

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError, match="max_events_per_round"):
            ScheduleFuzzer(8, 0, max_events_per_round=0)


class TestRegistryWiring:
    def test_fuzz_adversary_is_registered_and_deterministic(self):
        a = build_adversary("fuzz", n=8, rounds=20, seed=9, params={})
        b = build_adversary("fuzz", n=8, rounds=20, seed=9, params={})
        assert isinstance(a, TraceReplayAdversary)
        assert a.trace.rounds == b.trace.rounds
        assert a.trace.num_rounds == 20

    def test_fuzz_params_reach_the_generator(self):
        a = build_adversary("fuzz", n=8, rounds=20, seed=9, params={"profile": "churn"})
        b = build_adversary("fuzz", n=8, rounds=20, seed=9, params={"profile": "gadgets"})
        assert a.trace.rounds != b.trace.rounds

    def test_unknown_fuzz_params_rejected(self):
        with pytest.raises(ValueError, match="unexpected fuzz params"):
            build_adversary("fuzz", n=8, rounds=5, seed=0, params={"wat": 1})

    def test_fuzz_spec_round_trips(self):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="fuzz", n=8, rounds=15, seed=4,
            adversary_params={"profile": "mixed"},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()).cell_id == spec.cell_id

    def test_fuzz_axis_expands_in_campaigns(self):
        campaign = CampaignSpec(
            name="fuzz-sweep",
            base={"algorithm": "triangle", "adversary": "fuzz", "n": 8, "rounds": 15},
            grid={"adversary_params.profile": ["mixed", "churn"]},
            seeds=[0, 1, 2],
        )
        cells = campaign.expand()
        assert len(cells) == 6
        assert len({cell.cell_id for cell in cells}) == 6

    def test_fuzz_cell_runs_clean_through_the_differential_harness(self):
        from repro.verification import run_differential

        spec = ExperimentSpec(algorithm="triangle", adversary="fuzz", n=7, rounds=12, seed=2)
        report = run_differential(spec, auto_checks=True)
        assert report.ok, report.describe()
        assert report.executed_checks  # the checks registry actually ran
