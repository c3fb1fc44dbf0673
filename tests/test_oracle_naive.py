"""The reference oracle answers every query as the incremental one does.

:class:`~repro.oracle.NaiveGroundTruthOracle` is the from-scratch baseline
the incremental :class:`~repro.oracle.GroundTruthOracle` is measured
against.  Both record a seeded churn schedule through their ``validator``
hooks in the round loop; then each of the reference oracle's eleven queries
is asked of both, at the current round and at every past round, which puts
rounds on both sides of each of the incremental oracle's keyframes.  The
past-round subgraph queries build a networkx graph, so they also run the
lazy import in :func:`repro.oracle.subgraphs.build_graph`.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations

import pytest

from repro.adversary import RandomChurnAdversary
from repro.experiments.registry import NullWorkloadNode
from repro.oracle import GroundTruthOracle, NaiveGroundTruthOracle

from conftest import run_simulation

N = 9
KEYFRAME_INTERVAL = 8


@pytest.fixture(scope="module")
def run():
    naive = NaiveGroundTruthOracle(N)
    incremental = GroundTruthOracle(N, keyframe_interval=KEYFRAME_INTERVAL)
    adversary = RandomChurnAdversary(
        N, num_rounds=26, inserts_per_round=3, deletes_per_round=2, seed=11
    )
    result, _ = run_simulation(
        NullWorkloadNode,
        adversary,
        N,
        validators=[naive.validator(), incremental.validator()],
        with_oracle=False,
    )
    return naive, incremental, result.network


def _rounds(naive):
    return [None, *range(naive.latest_round + 1)]


def _node_sets(naive, round_index):
    """Triangles, 4-cliques and 4/5-cycles of the round, plus sets that are not."""
    found = set(naive.cycles_of_length(4, round_index)) | set(naive.cycles_of_length(5, round_index))
    for v in range(N):
        found |= naive.triangles_containing(v, round_index)
        found |= naive.cliques_containing(v, 4, round_index)
    return sorted(map(sorted, found)) + [list(c) for c in combinations(range(5), 3)] + [[0, 1, 2, 3]]


def test_validators_recorded_every_round(run):
    naive, incremental, network = run
    assert naive.latest_round == incremental.latest_round == network.round_index > 2 * KEYFRAME_INTERVAL
    assert incremental.memory_profile()["num_keyframes"] >= 3
    assert naive.edges_at() == incremental.edges_at() == network.edges


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_khop_edges(run, radius):
    naive, incremental, _ = run
    for r in _rounds(naive):
        for v in range(N):
            assert naive.khop_edges(v, radius, r) == incremental.khop_edges(v, radius, r), (v, r)


@pytest.mark.parametrize("query", ["robust_two_hop", "triangle_pattern_set", "robust_three_hop"])
def test_robust_sets(run, query):
    naive, incremental, _ = run
    for r in _rounds(naive):
        for v in range(N):
            assert getattr(naive, query)(v, r) == getattr(incremental, query)(v, r), (v, r)


def test_subgraphs_containing_a_node(run):
    naive, incremental, _ = run
    triangles = cliques = 0
    for r in _rounds(naive):
        for v in range(N):
            expected = naive.triangles_containing(v, r)
            assert expected == incremental.triangles_containing(v, r), (v, r)
            triangles += len(expected)
            for k in (3, 4):
                expected = naive.cliques_containing(v, k, r)
                assert expected == incremental.cliques_containing(v, k, r), (v, k, r)
                cliques += len(expected) if k == 4 else 0
    assert triangles and cliques  # the schedule builds both


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cycles_of_length(run, k):
    naive, incremental, _ = run
    found = 0
    for r in _rounds(naive):
        expected = naive.cycles_of_length(k, r)
        assert expected == incremental.cycles_of_length(k, r), r
        found += len(expected)
    assert found


def test_membership_predicates(run):
    naive, incremental, _ = run
    answers = set()
    for r in _rounds(naive):
        for nodes in _node_sets(naive, r):
            for query in ("is_triangle", "is_clique", "set_is_cycle"):
                expected = getattr(naive, query)(nodes, r)
                assert expected == getattr(incremental, query)(nodes, r), (query, nodes, r)
                answers.add((query, expected))
            # The first eight orders put every cyclic order of four nodes, and
            # some of five, after the same start node.
            for ordering in islice(permutations(nodes), 8):
                expected = naive.is_cycle_ordering(ordering, r)
                assert expected == incremental.is_cycle_ordering(ordering, r), (ordering, r)
                answers.add(("is_cycle_ordering", expected))
    # Every predicate answered both ways somewhere in the history.
    assert len(answers) == 8


def test_from_network_matches_the_recorded_oracles(run):
    naive, incremental, network = run
    primed = NaiveGroundTruthOracle.from_network(network)
    assert primed.latest_round == network.round_index
    assert primed.edges_at() == naive.edges_at()
    assert primed.times_at() == naive.times_at() == incremental.times_at()
    for v in range(N):
        assert primed.robust_three_hop(v) == incremental.robust_three_hop(v)
        assert primed.triangles_containing(v) == incremental.triangles_containing(v)
    assert primed.memory_profile() == {
        "snapshot_edge_entries": network.num_edges,
        "num_snapshots": 2,  # the empty round 0 and the primed round
    }


def test_memory_profile_counts_every_snapshot(run):
    naive, incremental, _ = run
    profile = naive.memory_profile()
    assert profile["num_snapshots"] == naive.latest_round + 1
    assert profile["snapshot_edge_entries"] == sum(
        len(naive.edges_at(r)) for r in range(naive.latest_round + 1)
    )
    # The reason the incremental oracle exists: keyframes plus deltas store less.
    assert incremental.memory_profile()["snapshot_edge_entries"] < profile["snapshot_edge_entries"]
