"""Equivalence and regression tests for the sparse (activity-proportional) engine.

The contract under test: for every registered algorithm, the sparse engine's
RoundRecord stream, trace, bandwidth accounting, per-node metrics and final
node state are bit-identical to the dense reference engine -- and a fully
quiescent round costs zero algorithm callbacks.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import FlickerTriangleAdversary
from repro.experiments import ALGORITHMS, build_adversary
from repro.simulator import (
    BandwidthPolicy,
    DynamicNetwork,
    MetricsCollector,
    RoundChanges,
    SimulationRunner,
    SparseRoundEngine,
    create_engine,
    drive_engine,
)
from repro.simulator.node import NodeAlgorithm, QuiescenceProtocol


def _fingerprint(result):
    """Everything that must match between the two engines, as plain data."""
    state = {}
    for v, node in result.nodes.items():
        entry = {"consistent": node.is_consistent(), "size": node.local_state_size()}
        if hasattr(node, "known_edges"):
            entry["known"] = node.known_edges()
        state[v] = entry
    return {
        "rounds": result.metrics.rounds,
        "summary": result.summary(),
        "per_node": result.metrics.per_node_inconsistent_rounds,
        "trace": result.trace.to_dict() if result.trace else None,
        "edges": result.network.edges,
        "state": state,
    }


def _run(algorithm, adversary_name, n, rounds, seed, params, mode):
    adversary = build_adversary(
        adversary_name, n=n, rounds=rounds, seed=seed, params=params
    )
    runner = SimulationRunner(
        n=n,
        algorithm_factory=ALGORITHMS[algorithm],
        adversary=adversary,
        strict_bandwidth=algorithm != "broadcast",
        record_trace=True,
        engine_mode=mode,
    )
    return runner.run(num_rounds=rounds)


class TestDenseSparseEquivalence:
    @pytest.mark.parametrize(
        "algorithm",
        ["triangle", "robust2hop", "robust3hop", "twohop", "naive", "cycles", "broadcast"],
    )
    def test_random_churn_identical(self, algorithm):
        dense = _fingerprint(
            _run(algorithm, "churn", 24, 80, 11, {"inserts_per_round": 2, "deletes_per_round": 2}, "dense")
        )
        sparse = _fingerprint(
            _run(algorithm, "churn", 24, 80, 11, {"inserts_per_round": 2, "deletes_per_round": 2}, "sparse")
        )
        assert dense == sparse

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_schedules_property(self, seed):
        """Property-style check: random (n, churn-rate, adversary) cells agree."""
        rng = random.Random(seed)
        n = rng.choice([12, 20, 33, 48])
        rounds = rng.choice([40, 70, 100])
        adversary_name = rng.choice(["churn", "p2p", "growing"])
        params = (
            {
                "inserts_per_round": rng.randint(1, 4),
                "deletes_per_round": rng.randint(0, 3),
            }
            if adversary_name == "churn"
            else {}
        )
        algorithm = rng.choice(["triangle", "robust2hop", "twohop"])
        dense = _fingerprint(_run(algorithm, adversary_name, n, rounds, seed, dict(params), "dense"))
        sparse = _fingerprint(_run(algorithm, adversary_name, n, rounds, seed, dict(params), "sparse"))
        assert dense == sparse

    def test_flicker_schedule_identical(self):
        """The adversarial flicker schedule (delayed queues, re-inserted edges)."""
        for algorithm in ("naive", "triangle", "robust2hop"):
            results = {}
            for mode in ("dense", "sparse"):
                runner = SimulationRunner(
                    n=16,
                    algorithm_factory=ALGORITHMS[algorithm],
                    adversary=FlickerTriangleAdversary(),
                    record_trace=True,
                    engine_mode=mode,
                )
                results[mode] = _fingerprint(runner.run())
            assert results["dense"] == results["sparse"], algorithm

    def test_unported_algorithm_stays_dense_but_correct(self):
        """An algorithm without is_quiescent keeps its dense behaviour under sparse."""

        class EchoNode(NodeAlgorithm):
            def __init__(self, node_id, n):
                super().__init__(node_id, n)
                self.touched_rounds = 0
                self.adj = set()

            def on_topology_change(self, round_index, inserted, deleted):
                self.touched_rounds += 1
                self.adj.difference_update(deleted)
                self.adj.update(inserted)

            def compose_messages(self, round_index):
                return {}

            def on_messages(self, round_index, received):
                pass

            def is_consistent(self):
                return True

            def query(self, query):
                return None

        runs = {}
        for mode in ("dense", "sparse"):
            adversary = build_adversary("churn", n=10, rounds=25, seed=2, params={})
            runner = SimulationRunner(
                n=10, algorithm_factory=EchoNode, adversary=adversary, engine_mode=mode
            )
            result = runner.run(num_rounds=25)
            runs[mode] = (
                result.metrics.rounds,
                {v: node.touched_rounds for v, node in result.nodes.items()},
            )
        # Default is_quiescent() == False => the sparse engine visits every
        # node every round, exactly like the dense engine.
        assert runs["dense"] == runs["sparse"]
        assert all(count == 25 for count in runs["sparse"][1].values())


class _CountingTriangle(ALGORITHMS["triangle"]):
    """Triangle node that counts every engine callback it receives."""

    def __init__(self, node_id, n):
        super().__init__(node_id, n)
        self.callbacks = 0

    def on_topology_change(self, round_index, inserted, deleted):
        self.callbacks += 1
        super().on_topology_change(round_index, inserted, deleted)

    def compose_messages(self, round_index):
        self.callbacks += 1
        return super().compose_messages(round_index)

    def on_messages(self, round_index, received):
        self.callbacks += 1
        super().on_messages(round_index, received)


class TestQuiescence:
    def test_protocol_default_is_active(self):
        node = ALGORITHMS["null"](0, 4)
        assert isinstance(node, QuiescenceProtocol)
        assert node.is_quiescent()

        naive = ALGORITHMS["naive"](0, 4)
        assert naive.is_quiescent()
        naive.on_topology_change(1, [1], [])
        assert not naive.is_quiescent()

    def test_fully_quiescent_round_invokes_zero_callbacks(self):
        """Regression: once everyone is quiescent, a quiet round is free."""
        n = 12
        network = DynamicNetwork(n)
        nodes = {v: _CountingTriangle(v, n) for v in range(n)}
        engine = SparseRoundEngine(network, nodes, BandwidthPolicy(), MetricsCollector())
        engine.execute_round(RoundChanges.inserts([(0, 1), (1, 2), (0, 2)]))
        engine.run_until_quiet()
        assert engine.all_consistent
        assert all(node.is_quiescent() for node in nodes.values())

        before = {v: node.callbacks for v, node in nodes.items()}
        record = engine.execute_quiet_round()
        after = {v: node.callbacks for v, node in nodes.items()}
        assert before == after
        assert record.num_inconsistent_nodes == 0
        assert record.num_envelopes == 0

    def test_quiet_rounds_only_touch_active_nodes(self):
        """While queues drain, untouched nodes receive no callbacks at all."""
        n = 30
        network = DynamicNetwork(n)
        nodes = {v: _CountingTriangle(v, n) for v in range(n)}
        engine = SparseRoundEngine(network, nodes, BandwidthPolicy(), MetricsCollector())
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        engine.run_until_quiet()
        # Only the two endpoints of the single inserted edge were ever active.
        assert all(nodes[v].callbacks == 0 for v in range(n) if v > 1)
        assert nodes[0].callbacks > 0 and nodes[1].callbacks > 0

    def test_only_the_sparse_policy_asks_for_quiescence(self):
        """Dense schedules every node, so its query stage never asks."""

        def asks(mode):
            asked = [0]

            class AskCountingTriangle(ALGORITHMS["triangle"]):
                def is_quiescent(self):
                    asked[0] += 1
                    return super().is_quiescent()

            n = 12
            nodes = {v: AskCountingTriangle(v, n) for v in range(n)}
            engine = create_engine(mode, DynamicNetwork(n), nodes)
            engine.execute_round(RoundChanges.inserts([(0, 1), (1, 2), (0, 2)]))
            engine.run_until_quiet()
            return asked[0]

        assert asks("dense") == 0
        assert asks("sparse") > 0

    def test_create_engine_rejects_unknown_mode(self):
        network = DynamicNetwork(2)
        nodes = {v: ALGORITHMS["null"](v, 2) for v in range(2)}
        with pytest.raises(ValueError, match="engine mode"):
            create_engine("turbo", network, nodes)

    def test_runner_rejects_unknown_mode(self):
        adversary = build_adversary("churn", n=4, rounds=5, seed=0, params={})
        with pytest.raises(ValueError, match="engine_mode"):
            SimulationRunner(
                n=4,
                algorithm_factory=ALGORITHMS["triangle"],
                adversary=adversary,
                engine_mode="turbo",
            )


class ContractViolatorNode(NodeAlgorithm):
    """Claims quiescence while inconsistent -- the latch-bug failure class.

    After its first topology indication the node declares itself permanently
    inconsistent, yet keeps reporting quiescence; under the sparse engine the
    drain reaches a fixpoint it can never leave.
    """

    def __init__(self, node_id, n):
        super().__init__(node_id, n)
        self.touched = False

    def on_topology_change(self, round_index, inserted, deleted):
        if inserted or deleted:
            self.touched = True

    def compose_messages(self, round_index):
        return {}

    def on_messages(self, round_index, received):
        pass

    def is_consistent(self):
        return not self.touched

    def is_quiescent(self):
        return True  # the lie: inconsistent but claiming nothing to do

    def query(self, query):
        return None


class TestQuietRoundFastForward:
    """Drain fixpoint detection: hopeless drains are batched into one step."""

    def _engine(self, mode):
        n = 6
        network = DynamicNetwork(n)
        nodes = {v: ContractViolatorNode(v, n) for v in range(n)}
        engine = create_engine(mode, network, nodes, BandwidthPolicy(), MetricsCollector())
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        return engine

    def test_sparse_engine_fast_forwards_hopeless_drain(self):
        engine = self._engine("sparse")
        assert engine.drain_fixpoint
        with pytest.raises(RuntimeError, match="quiescent fixpoint"):
            engine.run_until_quiet(max_rounds=10_000)
        # the fast-forward executed zero of the 10_000 budgeted quiet rounds
        assert len(engine.metrics.rounds) == 1

    def test_dense_engine_still_walks_the_budget(self):
        engine = self._engine("dense")
        assert not engine.drain_fixpoint  # dense never proves a fixpoint
        with pytest.raises(RuntimeError, match="after 7 quiet rounds"):
            engine.run_until_quiet(max_rounds=7)
        assert len(engine.metrics.rounds) == 8  # change round + 7 quiet rounds

    def test_drive_engine_drain_fast_forwards(self):
        n = 6
        network = DynamicNetwork(n)
        nodes = {v: ContractViolatorNode(v, n) for v in range(n)}
        engine = create_engine("sparse", network, nodes, BandwidthPolicy(), MetricsCollector())
        from repro.adversary import ScriptedAdversary

        with pytest.raises(RuntimeError, match="quiescent fixpoint"):
            drive_engine(
                engine, ScriptedAdversary([([(0, 1)], [])]), drain=True,
                max_drain_rounds=10_000,
            )
        assert len(engine.metrics.rounds) == 1

    def test_fixpoint_does_not_trip_healthy_algorithms(self):
        # A consistent quiescent system exits the drain loop before the
        # fixpoint check matters; the sparse engine's verdict stays usable.
        adversary = build_adversary(
            "churn", n=12, rounds=20, seed=3,
            params={"inserts_per_round": 2, "deletes_per_round": 1},
        )
        runner = SimulationRunner(
            n=12, algorithm_factory=ALGORITHMS["triangle"], adversary=adversary,
            engine_mode="sparse",
        )
        result = runner.run(num_rounds=20, drain=True)
        assert all(node.is_consistent() for node in result.nodes.values())
        assert runner.engine.drain_fixpoint  # drained and quiescent: fixpoint

    def test_fast_forward_preserves_bit_identity_on_successful_runs(self):
        # The satellite's gate: dense and sparse streams stay identical on
        # runs that drain successfully (the fast-forward only touches runs
        # that can never finish).
        outcomes = []
        for mode in ("dense", "sparse"):
            adversary = build_adversary(
                "churn", n=14, rounds=30, seed=9,
                params={"inserts_per_round": 3, "deletes_per_round": 2},
            )
            runner = SimulationRunner(
                n=14, algorithm_factory=ALGORITHMS["robust2hop"], adversary=adversary,
                engine_mode=mode,
            )
            result = runner.run(num_rounds=30, drain=True)
            outcomes.append((result.metrics.rounds, result.summary()))
        assert outcomes[0] == outcomes[1]
