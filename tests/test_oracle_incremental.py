"""The incremental oracle: live observation, dirty-region cache, and the
bit-identity property against the from-scratch reference.

The acceptance bar of the incremental :class:`~repro.oracle.GroundTruthOracle`
is that *every* query answer is bit-identical to the reference functions of
:mod:`repro.oracle.robust_sets` / :mod:`repro.oracle.subgraphs` on arbitrary
insert/delete/re-insert interleavings -- including observations that skipped
changed rounds (the full-diff fallback).  The oracle answers for the latest
observed round, so every comparison is made right after an observation.  The
hypothesis tests below generate those interleavings from the shared
:mod:`strategies` schedules.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oracle import (
    GroundTruthOracle,
    NaiveGroundTruthOracle,
    cliques_containing,
    cycles_of_length,
    khop_edges,
    robust_three_hop,
    robust_two_hop,
    triangle_pattern_set,
    triangles_containing,
)
from repro.simulator import DynamicNetwork, RoundChanges
from repro.simulator.runner import ActiveNodesView

from strategies import churn_schedules

N = 8

HYP_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def observe_schedule(network, oracles, rounds, observe_mask=None):
    """Drive a network through a schedule, observing after each round.

    Yields each *observed* round right after the oracles observe it; with
    ``observe_mask``, rounds whose flag is false go unobserved (the last
    round is always observed).
    """
    for i, (inserts, deletes) in enumerate(rounds):
        r = i + 1
        network.apply_changes(r, RoundChanges.of(insert=inserts, delete=deletes))
        if observe_mask is not None and not observe_mask[i] and r != len(rounds):
            continue
        for oracle in oracles:
            oracle.observe(network)
        yield r


class TestIncrementalObservation:
    def test_matches_naive_on_explicit_history(self):
        network = DynamicNetwork(5)
        inc = GroundTruthOracle(5)
        naive = NaiveGroundTruthOracle(5)
        schedule = [
            ([(0, 1)], []),
            ([(1, 2)], []),
            ([(0, 2)], []),
            ([], [(1, 2)]),
            ([(1, 2)], []),  # re-insert with a fresh timestamp
        ]
        assert inc.snapshot() == naive.snapshot()
        for r in observe_schedule(network, [inc, naive], schedule):
            assert inc.snapshot() == naive.snapshot(), r
        assert inc.snapshot().insertion_times[(1, 2)] == 5

    def test_quiet_observation_is_a_recorded_noop(self):
        network = DynamicNetwork(4)
        oracle = GroundTruthOracle(4)
        network.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        oracle.observe(network)
        assert oracle.last_changed_ball(1) == {0, 1}
        network.apply_changes(2, RoundChanges.empty())
        delta = oracle.observe(network)
        assert delta.is_empty
        assert oracle.last_changed_ball(3) == set()
        assert oracle.latest_round == 2
        assert oracle.snapshot().edges == frozenset({(0, 1)})

    def test_skipped_changed_rounds_fall_back_to_full_diff(self):
        network = DynamicNetwork(5)
        oracle = GroundTruthOracle(5)
        network.apply_changes(1, RoundChanges.inserts([(0, 1), (2, 3)]))
        oracle.observe(network)
        # Two unobserved rounds, including a delete + re-insert of (0, 1):
        # the diff must pick up the *timestamp* change, not just membership.
        network.apply_changes(2, RoundChanges.deletes([(0, 1)]))
        network.apply_changes(3, RoundChanges.of(insert=[(0, 1), (1, 4)]))
        oracle.observe(network)
        assert oracle.snapshot().edges == network.edges
        assert oracle.snapshot().insertion_times[(0, 1)] == 3
        assert oracle.robust_two_hop(0) == robust_two_hop(
            network.edges, network.insertion_times(), 0
        )

    def test_observing_an_older_round_raises(self):
        network = DynamicNetwork(4)
        oracle = GroundTruthOracle(4)
        network.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        network.apply_changes(2, RoundChanges.inserts([(1, 2)]))
        oracle.observe(network)
        stale = DynamicNetwork(4)
        stale.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        with pytest.raises(ValueError, match="cannot observe round 1 after round 2"):
            oracle.observe(stale)

    def test_observing_a_changed_round_twice_raises(self):
        network = DynamicNetwork(4)
        oracle = GroundTruthOracle(4)
        network.apply_changes(2, RoundChanges.inserts([(0, 1)]))
        oracle.observe(network)
        assert oracle.observe(network).is_empty  # the same state again is quiet
        other = DynamicNetwork(4)
        other.apply_changes(2, RoundChanges.inserts([(1, 2), (2, 3)]))
        with pytest.raises(ValueError, match="round 2 was already observed with changes"):
            oracle.observe(other)

    def test_from_network_primes_live_state(self):
        network = DynamicNetwork(4)
        network.apply_changes(1, RoundChanges.inserts([(0, 1), (1, 2), (0, 2)]))
        network.apply_changes(3, RoundChanges.deletes([(0, 2)]))
        oracle = GroundTruthOracle.from_network(network)
        assert oracle.latest_round == 3
        assert oracle.snapshot().edges == network.edges
        assert oracle.triangles_containing(0) == set()


class TestDirtyRegionCache:
    def build(self):
        # Two far-apart components on 12 nodes: a triangle at 0-1-2 and a
        # path at 8-9-10.
        network = DynamicNetwork(12)
        network.apply_changes(
            1, RoundChanges.inserts([(0, 1), (1, 2), (0, 2), (8, 9), (9, 10)])
        )
        oracle = GroundTruthOracle.from_network(network)
        return network, oracle

    def test_far_change_preserves_cached_answers(self):
        network, oracle = self.build()
        far = oracle.robust_two_hop(8)
        tri = oracle.triangles_containing(0)
        network.apply_changes(2, RoundChanges.inserts([(1, 3)]))
        oracle.observe(network)
        # Node 8 is >3 hops from the change: served from cache, same object.
        assert oracle.robust_two_hop(8) is far
        # Node 0 is 1 hop from the change: recomputed (and still correct).
        assert oracle.triangles_containing(0) == tri
        assert oracle.robust_two_hop(0) == robust_two_hop(
            network.edges, network.insertion_times(), 0
        )

    def test_near_change_invalidates_within_radius(self):
        network, oracle = self.build()
        before = oracle.robust_two_hop(0)
        network.apply_changes(2, RoundChanges.deletes([(1, 2)]))
        oracle.observe(network)
        after = oracle.robust_two_hop(0)
        assert after != before
        assert after == robust_two_hop(network.edges, network.insertion_times(), 0)

    def test_global_queries_invalidate_on_any_change(self):
        network, oracle = self.build()
        assert oracle.cycles_of_length(3) == {frozenset({0, 1, 2})}
        network.apply_changes(2, RoundChanges.deletes([(0, 1)]))
        oracle.observe(network)
        assert oracle.cycles_of_length(3) == set()


class TestActivityProportionalGhostHook:
    """The no_ghost_triangles round hook under partial activity reporting."""

    class FakeNode:
        def __init__(self, triangles=(), consistent=True):
            self._triangles = set(triangles)
            self._consistent = consistent

        def is_consistent(self):
            return self._consistent

        def known_triangles(self):
            return set(self._triangles)

    def drive(self, active_per_round):
        """Run the hook over four rounds; node 0 claims {0,1,2} throughout."""
        from repro.verification import CHECKS, CheckSession

        network = DynamicNetwork(5)
        nodes = {v: self.FakeNode() for v in range(5)}
        nodes[0] = self.FakeNode(triangles=[frozenset({0, 1, 2})])
        session = CheckSession(CHECKS["no_ghost_triangles"], None)
        hook = session.validator()
        schedule = {
            1: RoundChanges.inserts([(0, 1), (0, 2)]),  # ghost: (1,2) missing
            2: RoundChanges.empty(),                    # ghost persists
            3: RoundChanges.inserts([(1, 2)]),          # triangle real now
            4: RoundChanges.deletes([(1, 2)]),          # ghost returns
        }
        for r in range(1, 5):
            network.apply_changes(r, schedule[r])
            view = (
                nodes
                if active_per_round is None
                else ActiveNodesView(nodes, active_per_round[r])
            )
            hook(r, network, view)
        return session.round_failures

    def test_sparse_activity_matches_full_scan(self):
        # Sparse reporting: only round 1 touches any node; later rounds rely
        # on the dirty ball (rounds 3/4) and the carried-forward ghost map
        # (round 2).
        sparse = self.drive({1: {0, 1, 2}, 2: set(), 3: set(), 4: set()})
        dense = self.drive(None)
        assert [(f.round_index, f.node, f.field) for f in sparse] == [
            (f.round_index, f.node, f.field) for f in dense
        ]
        assert [f.round_index for f in sparse] == [1, 2, 4]

    def test_real_triangle_not_containing_claimer_is_not_a_ghost(self):
        # Regression: the hook's ghost predicate is edge existence (same as
        # collect()), not membership in triangles_containing(claimer) -- a
        # node listing a real triangle it is not part of is odd but sound.
        from repro.verification import CHECKS, CheckSession

        network = DynamicNetwork(5)
        network.apply_changes(
            1, RoundChanges.inserts([(1, 2), (1, 3), (2, 3)])
        )
        nodes = {v: self.FakeNode() for v in range(5)}
        nodes[0] = self.FakeNode(triangles=[frozenset({1, 2, 3})])
        session = CheckSession(CHECKS["no_ghost_triangles"], None)
        hook = session.validator()
        hook(1, network, ActiveNodesView(nodes, {0, 1, 2, 3}))
        assert session.round_failures == []
        # A far deletion breaks the claimed triangle while the claimer is
        # inactive and outside the 1-hop dirty ball: still reported.
        network.apply_changes(2, RoundChanges.deletes([(2, 3)]))
        hook(2, network, ActiveNodesView(nodes, set()))
        assert [(f.round_index, f.node) for f in session.round_failures] == [(2, 0)]

    def test_inconsistent_claimer_is_not_a_ghost(self):
        from repro.verification import CHECKS, CheckSession

        network = DynamicNetwork(3)
        network.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        nodes = {
            0: self.FakeNode(triangles=[frozenset({0, 1, 2})], consistent=False),
            1: self.FakeNode(),
            2: self.FakeNode(),
        }
        session = CheckSession(CHECKS["no_ghost_triangles"], None)
        hook = session.validator()
        hook(1, network, nodes)
        assert session.round_failures == []


class TestOracleReferenceProperty:
    """Hypothesis: every incremental answer equals the from-scratch reference."""

    @settings(**HYP_SETTINGS)
    @given(rounds=churn_schedules(n=N, max_rounds=14, max_events_per_round=3))
    def test_live_queries_bit_identical(self, rounds):
        network = DynamicNetwork(N)
        oracle = GroundTruthOracle(N)
        for _ in observe_schedule(network, [oracle], rounds):
            edges = network.edges
            times = dict(network.insertion_times())
            for v in range(N):
                assert oracle.khop_edges(v, 2) == khop_edges(edges, v, 2)
                assert oracle.khop_edges(v, 3) == khop_edges(edges, v, 3)
                assert oracle.robust_two_hop(v) == robust_two_hop(edges, times, v)
                assert oracle.triangle_pattern_set(v) == triangle_pattern_set(
                    edges, times, v
                )
                assert oracle.robust_three_hop(v) == robust_three_hop(edges, times, v)
                assert oracle.triangles_containing(v) == triangles_containing(edges, v)
                assert oracle.cliques_containing(v, 3) == cliques_containing(edges, v, 3)
            assert oracle.cycles_of_length(4) == cycles_of_length(edges, 4)

    @settings(**HYP_SETTINGS)
    @given(
        rounds=churn_schedules(n=N, max_rounds=12, max_events_per_round=3),
        mask=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_skipped_observations_stay_correct(self, rounds, mask):
        """Observing only some changed rounds exercises the diff fallback."""
        network = DynamicNetwork(N)
        oracle = GroundTruthOracle(N)
        for r in observe_schedule(network, [oracle], rounds, observe_mask=mask):
            assert oracle.snapshot().edges == network.edges, r
            assert oracle.snapshot().insertion_times == dict(network.insertion_times()), r
        edges = network.edges
        times = dict(network.insertion_times())
        for v in range(N):
            assert oracle.robust_two_hop(v) == robust_two_hop(edges, times, v)
            assert oracle.triangles_containing(v) == triangles_containing(edges, v)


class TestFlatState:
    """Neither oracle keeps history: long churn around a steady edge set
    leaves the pickled oracle the size it had early on."""

    @staticmethod
    def churn(n=60, steady=140, per_round=4, rounds=4000, seed=3):
        """Yield ``(round, network)``: ``steady`` edges, then ``per_round``
        deletes and inserts every round."""
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        present = rng.sample(pairs, steady)
        network = DynamicNetwork(n)
        network.apply_changes(1, RoundChanges.inserts(present))
        yield 1, network
        for r in range(2, rounds + 1):
            rng.shuffle(present)
            deletes = present[-per_round:]
            inserts = set()
            while len(inserts) < per_round:
                pair = rng.choice(pairs)
                if not network.has_edge(*pair):
                    inserts.add(pair)
            present[-per_round:] = inserts
            network.apply_changes(r, RoundChanges.of(insert=inserts, delete=deletes))
            yield r, network

    @pytest.mark.parametrize("oracle_class", [GroundTruthOracle, NaiveGroundTruthOracle])
    def test_pickled_oracle_stays_flat(self, oracle_class):
        oracle = oracle_class(60)
        sizes = {}
        for r, network in self.churn():
            oracle.observe(network)
            if r % 10 == 0:  # fill the incremental oracle's query cache
                oracle.robust_two_hop(r % 60)
                oracle.triangles_containing(r % 60)
            if r in (1000, 4000):
                sizes[r] = len(pickle.dumps(oracle))
        assert sizes[4000] <= 1.1 * sizes[1000], sizes
