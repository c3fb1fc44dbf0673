"""Tests for the process-parallel sharded round engine."""

import multiprocessing
import sys

import pytest

from repro.adversary import RandomChurnAdversary
from repro.core import EdgeQuery, QueryResult, RobustTwoHopNode, TriangleMembershipNode
from repro.simulator import (
    DynamicNetwork,
    MetricsCollector,
    RoundEngine,
    ShardedRoundEngine,
    shard_nodes,
)
from repro.simulator.adversary import AdversaryView

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="fork start method required"
)


class TestSharding:
    def test_shard_nodes_balanced(self):
        shards = shard_nodes(10, 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert sorted(v for shard in shards for v in shard) == list(range(10))

    def test_shard_count_capped_by_n(self):
        assert len(shard_nodes(2, 8)) == 2

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_nodes(5, 0)


def run_serial(n, adversary_factory):
    adversary = adversary_factory()
    network = DynamicNetwork(n)
    nodes = {v: TriangleMembershipNode(v, n) for v in range(n)}
    engine = RoundEngine(network, nodes, metrics=MetricsCollector())
    while not adversary.is_done:
        view = AdversaryView.from_network(network, network.round_index + 1, engine.all_consistent)
        changes = adversary.changes_for_round(view)
        if changes is None:
            break
        engine.execute_round(changes)
    while not engine.all_consistent:
        engine.execute_quiet_round()
    return engine


def run_sharded(n, adversary_factory, workers):
    adversary = adversary_factory()
    engine = ShardedRoundEngine(n, TriangleMembershipNode, num_workers=workers)
    try:
        while not adversary.is_done:
            view = AdversaryView.from_network(
                engine.network, engine.network.round_index + 1, engine.all_consistent
            )
            changes = adversary.changes_for_round(view)
            if changes is None:
                break
            engine.execute_round(changes)
        while not engine.all_consistent:
            engine.execute_quiet_round()
        return engine
    except Exception:
        engine.shutdown()
        raise


class TestEquivalenceWithSerialEngine:
    def test_same_metrics_and_answers(self):
        n = 10
        make_adversary = lambda: RandomChurnAdversary(
            n, num_rounds=60, inserts_per_round=2, deletes_per_round=1, seed=3
        )
        serial = run_serial(n, make_adversary)
        sharded = run_sharded(n, make_adversary, workers=3)
        try:
            assert sharded.network.edges == serial.network.edges
            assert (
                sharded.metrics.inconsistent_rounds == serial.metrics.inconsistent_rounds
            )
            assert sharded.metrics.total_changes == serial.metrics.total_changes
            assert sharded.metrics.total_envelopes == serial.metrics.total_envelopes
            # Spot-check queries against the serial nodes' answers.
            for v in range(n):
                for u in range(v + 1, n):
                    expected = serial.nodes[v].query(EdgeQuery(v, u))
                    assert sharded.query(v, EdgeQuery(v, u)) is expected
        finally:
            sharded.shutdown()

    def test_worker_dying_at_start_up_stops_the_others(self):
        def factory(v, n):
            if v == 5:
                raise ValueError("node 5 cannot be built")
            return TriangleMembershipNode(v, n)

        before = set(multiprocessing.active_children())
        with pytest.raises(EOFError):
            ShardedRoundEngine(8, factory, num_workers=2)
        assert set(multiprocessing.active_children()) <= before

    def test_context_manager_shuts_down(self):
        with ShardedRoundEngine(6, RobustTwoHopNode, num_workers=2) as engine:
            from repro.simulator import RoundChanges

            engine.execute_round(RoundChanges.inserts([(0, 1)]))
            engine.execute_quiet_round()
            assert engine.query(0, EdgeQuery(0, 1)) is QueryResult.TRUE
        # After the context exits the engine refuses further work.
        with pytest.raises(RuntimeError):
            engine.execute_quiet_round()
