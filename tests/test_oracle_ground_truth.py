"""Tests for the GroundTruthOracle (snapshot bookkeeping and reference queries).

The oracle answers for the latest observed round, so every check below is
made right after the observation of the round it is about.
"""

from repro.oracle import GroundTruthOracle
from repro.simulator import DynamicNetwork, RoundChanges

#: A small history: a triangle appears over three rounds, round 4 is quiet,
#: then the triangle loses an edge.
SCHEDULE = {
    1: RoundChanges.inserts([(0, 1)]),
    2: RoundChanges.inserts([(1, 2)]),
    3: RoundChanges.inserts([(0, 2)]),
    4: RoundChanges.empty(),
    5: RoundChanges.deletes([(1, 2)]),
}
TRIANGLE = frozenset({0, 1, 2})


def observe_schedule():
    """Yield ``(round, oracle)`` right after the oracle observes each round."""
    network = DynamicNetwork(5)
    oracle = GroundTruthOracle(5)
    for r, changes in SCHEDULE.items():
        network.apply_changes(r, changes)
        oracle.observe(network)
        yield r, oracle


def after_round(last):
    """The oracle right after it observes round ``last`` of the schedule."""
    for r, oracle in observe_schedule():
        if r == last:
            return oracle
    raise AssertionError(f"round {last} is not in the schedule")


class TestSnapshots:
    def test_round_zero_is_empty(self):
        snapshot = GroundTruthOracle(4).snapshot()
        assert snapshot.round_index == 0
        assert snapshot.edges == frozenset() and snapshot.insertion_times == {}

    def test_latest_round_tracking(self):
        for r, oracle in observe_schedule():
            assert oracle.latest_round == oracle.snapshot().round_index == r
        assert oracle.snapshot().edges == frozenset({(0, 1), (0, 2)})

    def test_each_round_as_observed(self):
        edges = {r: oracle.snapshot().edges for r, oracle in observe_schedule()}
        assert edges[1] == frozenset({(0, 1)})
        assert edges[3] == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_quiet_round_keeps_the_graph(self):
        # Round 4 changes nothing: its graph is round 3's.
        edges = {r: oracle.snapshot().edges for r, oracle in observe_schedule()}
        assert edges[4] == edges[3]

    def test_insertion_times_each_round(self):
        times = {r: oracle.snapshot().insertion_times for r, oracle in observe_schedule()}
        assert times[3][(0, 2)] == 3
        assert times[3][(1, 2)] == 2
        assert (1, 2) not in times[5]


class TestReferenceQueries:
    def test_subgraph_queries_each_round(self):
        for r, oracle in observe_schedule():
            real = r in (3, 4)
            assert oracle.is_triangle({0, 1, 2}) == real, r
            assert oracle.triangles_containing(0) == ({TRIANGLE} if real else set()), r

    def test_clique_and_cycle_queries(self):
        for r, oracle in observe_schedule():
            real = r in (3, 4)
            assert oracle.is_clique({0, 1}), r
            assert oracle.set_is_cycle({0, 1, 2}) == real, r
            assert oracle.is_cycle_ordering((0, 1, 2)) == real, r
            assert oracle.cycles_of_length(3) == ({TRIANGLE} if real else set()), r

    def test_robust_sets_at_round(self):
        oracle = after_round(3)
        # The far edge (1,2) is older than (0,2) but newer than (0,1):
        # robust for node 0 via endpoint 1.
        assert (1, 2) in oracle.robust_two_hop(0)
        assert (1, 2) in oracle.triangle_pattern_set(0)
        assert (1, 2) in oracle.robust_three_hop(0)
        assert oracle.khop_edges(0, 1) == frozenset({(0, 1), (0, 2)})

    def test_validator_records_rounds(self):
        network = DynamicNetwork(4)
        oracle = GroundTruthOracle(4)
        validator = oracle.validator()
        network.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        validator(1, network, {})
        assert oracle.snapshot().edges == frozenset({(0, 1)})
