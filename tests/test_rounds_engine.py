"""Unit tests for the round engine (Figure 1 execution order and delivery rules)."""

from typing import Dict, Mapping, Sequence

import pytest

from repro.simulator import (
    BandwidthPolicy,
    DynamicNetwork,
    EdgeEventMessage,
    EdgeOp,
    Envelope,
    MessageTargetError,
    MetricsCollector,
    NodeAlgorithm,
    RoundChanges,
    RoundEngine,
)


class EchoNode(NodeAlgorithm):
    """A minimal algorithm used to probe the engine: records everything it sees."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        self.neighbors: set[int] = set()
        self.received_log: list[tuple[int, int]] = []  # (round, sender)
        self.indication_log: list[tuple[int, tuple, tuple]] = []
        self.pending_target: int | None = None
        self.force_inconsistent_rounds: set[int] = set()
        self._round = 0

    def on_topology_change(self, round_index, inserted: Sequence[int], deleted: Sequence[int]):
        self._round = round_index
        self.neighbors.update(inserted)
        self.neighbors.difference_update(deleted)
        if inserted or deleted:
            self.indication_log.append((round_index, tuple(inserted), tuple(deleted)))

    def compose_messages(self, round_index) -> Dict[int, Envelope]:
        if self.pending_target is not None:
            target = self.pending_target
            self.pending_target = None
            return {
                target: Envelope(
                    payload=EdgeEventMessage((self.node_id, target) if self.node_id < target else (target, self.node_id), EdgeOp.INSERT),
                    is_empty=False,
                )
            }
        return {}

    def on_messages(self, round_index, received: Mapping[int, Envelope]):
        for sender in received:
            self.received_log.append((round_index, sender))

    def is_consistent(self) -> bool:
        return self._round not in self.force_inconsistent_rounds

    def query(self, query):  # pragma: no cover - not used
        return None


def make_engine(n=4):
    network = DynamicNetwork(n)
    nodes = {v: EchoNode(v, n) for v in range(n)}
    engine = RoundEngine(network, nodes, BandwidthPolicy(), MetricsCollector())
    return network, nodes, engine


class TestEngineBasics:
    def test_requires_full_node_cover(self):
        network = DynamicNetwork(3)
        nodes = {0: EchoNode(0, 3), 1: EchoNode(1, 3)}
        with pytest.raises(ValueError):
            RoundEngine(network, nodes)

    def test_indications_reach_touched_nodes_only(self):
        network, nodes, engine = make_engine()
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        assert nodes[0].indication_log == [(1, (1,), ())]
        assert nodes[1].indication_log == [(1, (0,), ())]
        assert nodes[2].indication_log == []

    def test_messages_delivered_same_round(self):
        network, nodes, engine = make_engine()
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        nodes[0].pending_target = 1
        engine.execute_round(RoundChanges.empty())
        assert (2, 0) in nodes[1].received_log

    def test_message_to_non_neighbor_raises(self):
        network, nodes, engine = make_engine()
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        nodes[0].pending_target = 2  # never connected
        with pytest.raises(MessageTargetError):
            engine.execute_round(RoundChanges.empty())

    def test_message_on_just_deleted_edge_raises(self):
        network, nodes, engine = make_engine()
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        nodes[0].pending_target = 1
        # The edge disappears at the beginning of the round in which node 0
        # tries to use it, so the engine must reject the send.
        with pytest.raises(MessageTargetError):
            engine.execute_round(RoundChanges.deletes([(0, 1)]))

    def test_self_message_raises(self):
        network, nodes, engine = make_engine()
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        nodes[0].pending_target = 0
        with pytest.raises(MessageTargetError):
            engine.execute_round(RoundChanges.empty())


class TestEngineAccounting:
    def test_inconsistent_nodes_recorded(self):
        network, nodes, engine = make_engine()
        nodes[2].force_inconsistent_rounds = {1}
        record = engine.execute_round(RoundChanges.inserts([(0, 1)]))
        assert record.num_inconsistent_nodes == 1
        assert engine.inconsistent_nodes == [2]
        assert not engine.all_consistent

    def test_metrics_accumulate_changes(self):
        network, nodes, engine = make_engine()
        engine.execute_round(RoundChanges.inserts([(0, 1), (1, 2)]))
        engine.execute_round(RoundChanges.deletes([(0, 1)]))
        assert engine.metrics.total_changes == 3
        assert engine.metrics.rounds_executed == 2

    def test_run_until_quiet(self):
        network, nodes, engine = make_engine()
        nodes[3].force_inconsistent_rounds = {1, 2}
        engine.execute_round(RoundChanges.inserts([(0, 3)]))
        assert not engine.all_consistent
        quiet = engine.run_until_quiet(max_rounds=10)
        assert engine.all_consistent
        assert quiet >= 1

    def test_run_until_quiet_gives_up(self):
        network, nodes, engine = make_engine()
        nodes[3].force_inconsistent_rounds = set(range(1, 100))
        engine.execute_round(RoundChanges.inserts([(0, 3)]))
        with pytest.raises(RuntimeError):
            engine.run_until_quiet(max_rounds=5)


class CountdownNode(NodeAlgorithm):
    """Becomes inconsistent for exactly ``settle`` quiet rounds after a change.

    Used to pin the inclusive-budget contract of ``run_until_quiet`` at the
    exact boundary: the number of quiet rounds needed is known in advance.
    """

    settle = 3

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        self.remaining = 0

    def on_topology_change(self, round_index, inserted, deleted):
        if inserted or deleted:
            # +1 because this round's own on_messages already decrements.
            self.remaining = self.settle + 1

    def compose_messages(self, round_index):
        return {}

    def on_messages(self, round_index, received):
        if self.remaining > 0:
            self.remaining -= 1

    def is_consistent(self) -> bool:
        return self.remaining == 0

    def is_quiescent(self) -> bool:
        return self.remaining == 0

    def query(self, query):  # pragma: no cover - not used
        return None


class TestRunUntilQuietBoundary:
    """max_rounds is an inclusive budget, for the dense and sparse engines alike.

    Audit result for the check-then-execute loop shape: needing exactly
    ``max_rounds`` quiet rounds succeeds and returns ``max_rounds``; the
    RuntimeError fires only when the budget is genuinely insufficient.
    """

    def make(self, mode: str):
        from repro.simulator import create_engine

        n = 4
        network = DynamicNetwork(n)
        nodes = {v: CountdownNode(v, n) for v in range(n)}
        engine = create_engine(mode, network, nodes)
        engine.execute_round(RoundChanges.inserts([(0, 1)]))
        assert not engine.all_consistent
        return engine

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_exactly_max_rounds_needed_succeeds(self, mode):
        engine = self.make(mode)
        assert engine.run_until_quiet(max_rounds=CountdownNode.settle) == CountdownNode.settle
        assert engine.all_consistent

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_one_round_short_raises(self, mode):
        engine = self.make(mode)
        with pytest.raises(RuntimeError, match="still inconsistent"):
            engine.run_until_quiet(max_rounds=CountdownNode.settle - 1)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_surplus_budget_stops_at_need(self, mode):
        engine = self.make(mode)
        assert engine.run_until_quiet(max_rounds=CountdownNode.settle + 1) == CountdownNode.settle
        assert engine.all_consistent

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_after_round_runs_once_per_quiet_round(self, mode):
        engine = self.make(mode)
        seen = []
        quiet = engine.run_until_quiet(
            max_rounds=10, after_round=lambda: seen.append(engine.metrics.rounds_executed)
        )
        assert quiet == CountdownNode.settle
        assert seen == [2, 3, 4]
        # Already consistent: no round runs, so the callback does not either.
        assert engine.run_until_quiet(max_rounds=10, after_round=lambda: seen.append(0)) == 0
        assert seen == [2, 3, 4]

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_after_round_failure_stops_the_loop(self, mode):
        engine = self.make(mode)

        def fail_on_second_round():
            if engine.metrics.rounds_executed == 3:
                raise AssertionError("validator tripped")

        with pytest.raises(AssertionError, match="validator tripped"):
            engine.run_until_quiet(max_rounds=10, after_round=fail_on_second_round)
        assert engine.metrics.rounds_executed == 3
        assert not engine.all_consistent

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_no_rounds_executed_is_vacuously_quiet(self, mode):
        from repro.simulator import create_engine

        n = 4
        network = DynamicNetwork(n)
        nodes = {v: CountdownNode(v, n) for v in range(n)}
        engine = create_engine(mode, network, nodes)
        assert engine.run_until_quiet(max_rounds=0) == 0
