"""The reference oracle answers every query as the incremental one does.

:class:`~repro.oracle.NaiveGroundTruthOracle` is the from-scratch baseline
the incremental :class:`~repro.oracle.GroundTruthOracle` is measured
against.  Both observe a seeded churn schedule through their ``validator``
hooks in the round loop, and after every round (and at round 0, before any
change) a third validator asks both of them each of the reference oracle's
eleven queries.  Both oracles answer for the latest observed round only, so
the answers are recorded as the schedule runs and compared per query below.
The reference oracle's subgraph queries build a networkx graph, so they
also run the lazy import in :func:`repro.oracle.subgraphs.build_graph`.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations

import pytest

from repro.adversary import RandomChurnAdversary
from repro.experiments.registry import NullWorkloadNode
from repro.oracle import GroundTruthOracle, NaiveGroundTruthOracle

from conftest import run_simulation

N = 9

PREDICATES = ("is_triangle", "is_clique", "set_is_cycle", "is_cycle_ordering")


def _node_sets(oracle):
    """Triangles, 4-cliques and 4/5-cycles of the round, plus sets that are not."""
    found = set(oracle.cycles_of_length(4)) | set(oracle.cycles_of_length(5))
    for v in range(N):
        found |= oracle.triangles_containing(v)
        found |= oracle.cliques_containing(v, 4)
    return sorted(map(sorted, found)) + [list(c) for c in combinations(range(5), 3)] + [[0, 1, 2, 3]]


def _answers(oracle, node_sets):
    """Every query's answer at the oracle's latest round, keyed by query and arguments."""
    answers = {}
    for v in range(N):
        for radius in (1, 2, 3):
            answers["khop_edges", v, radius] = oracle.khop_edges(v, radius)
        for query in ("robust_two_hop", "triangle_pattern_set", "robust_three_hop"):
            answers[query, v] = getattr(oracle, query)(v)
        answers["triangles_containing", v] = oracle.triangles_containing(v)
        for k in (3, 4):
            answers["cliques_containing", v, k] = oracle.cliques_containing(v, k)
    for k in (3, 4, 5):
        answers["cycles_of_length", k] = oracle.cycles_of_length(k)
    for nodes in node_sets:
        for query in ("is_triangle", "is_clique", "set_is_cycle"):
            answers[query, tuple(nodes)] = getattr(oracle, query)(nodes)
        # The first eight orders put every cyclic order of four nodes, and
        # some of five, after the same start node.
        for ordering in islice(permutations(nodes), 8):
            answers["is_cycle_ordering", ordering] = oracle.is_cycle_ordering(ordering)
    return answers


@pytest.fixture(scope="module")
def run():
    naive = NaiveGroundTruthOracle(N)
    incremental = GroundTruthOracle(N)
    #: round -> (reference answers, incremental answers) at that round.
    rounds = {}

    def ask_both(round_index, network, nodes) -> None:
        node_sets = _node_sets(naive)
        rounds[round_index] = (_answers(naive, node_sets), _answers(incremental, node_sets))

    ask_both(0, None, None)
    adversary = RandomChurnAdversary(
        N, num_rounds=26, inserts_per_round=3, deletes_per_round=2, seed=11
    )
    result, _ = run_simulation(
        NullWorkloadNode,
        adversary,
        N,
        validators=[naive.validator(), incremental.validator(), ask_both],
        with_oracle=False,
    )
    return naive, incremental, result.network, rounds


def test_validators_recorded_every_round(run):
    naive, incremental, network, rounds = run
    assert naive.latest_round == incremental.latest_round == network.round_index > 16
    assert sorted(rounds) == list(range(network.round_index + 1))
    assert naive.snapshot() == incremental.snapshot()
    assert naive.snapshot().edges == network.edges


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_khop_edges(run, radius):
    *_, rounds = run
    for r, (expected, actual) in rounds.items():
        for v in range(N):
            key = ("khop_edges", v, radius)
            assert expected[key] == actual[key], (v, r)


@pytest.mark.parametrize("query", ["robust_two_hop", "triangle_pattern_set", "robust_three_hop"])
def test_robust_sets(run, query):
    *_, rounds = run
    for r, (expected, actual) in rounds.items():
        for v in range(N):
            assert expected[query, v] == actual[query, v], (v, r)


def test_subgraphs_containing_a_node(run):
    *_, rounds = run
    triangles = cliques = 0
    for r, (expected, actual) in rounds.items():
        for v in range(N):
            key = ("triangles_containing", v)
            assert expected[key] == actual[key], (v, r)
            triangles += len(expected[key])
            for k in (3, 4):
                key = ("cliques_containing", v, k)
                assert expected[key] == actual[key], (v, k, r)
                cliques += len(expected[key]) if k == 4 else 0
    assert triangles and cliques  # the schedule builds both


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cycles_of_length(run, k):
    *_, rounds = run
    found = 0
    for r, (expected, actual) in rounds.items():
        key = ("cycles_of_length", k)
        assert expected[key] == actual[key], r
        found += len(expected[key])
    assert found


def test_membership_predicates(run):
    *_, rounds = run
    answers = set()
    for r, (expected, actual) in rounds.items():
        for key, answer in expected.items():
            if key[0] in PREDICATES:
                assert answer == actual[key], (key, r)
                answers.add((key[0], answer))
    # Every predicate answered both ways somewhere in the run.
    assert len(answers) == 8


def test_from_network_matches_the_recorded_oracles(run):
    naive, incremental, network, _ = run
    primed = NaiveGroundTruthOracle.from_network(network)
    assert primed.latest_round == network.round_index
    assert primed.snapshot() == naive.snapshot() == incremental.snapshot()
    for v in range(N):
        assert primed.robust_three_hop(v) == incremental.robust_three_hop(v)
        assert primed.triangles_containing(v) == incremental.triangles_containing(v)
