"""Tests for the simulation runner: drain behaviour, validators, trace recording."""

import pytest

from repro.adversary import ScriptedAdversary
from repro.core import RobustTwoHopNode, TriangleMembershipNode
from repro.faults import FaultPlan, UniformLoss
from repro.simulator import (
    EdgeEventMessage,
    EdgeOp,
    Envelope,
    NodeAlgorithm,
    RoundChanges,
    SimulationRunner,
    TopologyTrace,
    TraceReplayAdversary,
)


class TestRun:
    def test_drain_reaches_consistency(self):
        runner = SimulationRunner(
            n=6,
            algorithm_factory=TriangleMembershipNode,
            adversary=ScriptedAdversary.single_batch(insert=[(0, 1), (1, 2), (0, 2)]),
        )
        result = runner.run()
        assert runner.engine.all_consistent
        assert all(node.is_consistent() for node in result.nodes.values())

    def test_no_drain_can_leave_inconsistent_nodes(self):
        runner = SimulationRunner(
            n=6,
            algorithm_factory=TriangleMembershipNode,
            adversary=ScriptedAdversary.single_batch(
                insert=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
            ),
        )
        result = runner.run(drain=False)
        # Right after the burst, the queues cannot all be empty.
        assert any(not node.is_consistent() for node in result.nodes.values())

    def test_num_rounds_limits_adversary(self):
        adversary = ScriptedAdversary([RoundChanges.inserts([(i, i + 1)]) for i in range(5)])
        runner = SimulationRunner(n=8, algorithm_factory=RobustTwoHopNode, adversary=adversary)
        result = runner.run(num_rounds=2)
        # Only the first two batches were applied (plus drain rounds).
        assert result.metrics.total_changes == 2

    def test_summary_merges_bandwidth(self):
        runner = SimulationRunner(
            n=5,
            algorithm_factory=RobustTwoHopNode,
            adversary=ScriptedAdversary.single_batch(insert=[(0, 1)]),
        )
        summary = runner.run().summary()
        assert "amortized_round_complexity" in summary
        assert "bandwidth_budget_bits" in summary


class TestValidators:
    def test_validators_run_every_round(self):
        seen = []

        def validator(round_index, network, nodes):
            seen.append(round_index)

        runner = SimulationRunner(
            n=4,
            algorithm_factory=RobustTwoHopNode,
            adversary=ScriptedAdversary([RoundChanges.inserts([(0, 1)]), None]),
            validators=[validator],
        )
        runner.run()
        assert seen and seen == sorted(seen)

    def test_validator_failure_propagates(self):
        def validator(round_index, network, nodes):
            raise AssertionError("boom")

        runner = SimulationRunner(
            n=4,
            algorithm_factory=RobustTwoHopNode,
            adversary=ScriptedAdversary([RoundChanges.inserts([(0, 1)])]),
            validators=[validator],
        )
        with pytest.raises(AssertionError):
            runner.run()


class SettlingNode(NodeAlgorithm):
    """Inconsistent for exactly ``SETTLE`` quiet rounds after a change."""

    SETTLE = 3

    def __init__(self, node_id, n):
        super().__init__(node_id, n)
        self.remaining = 0

    def on_topology_change(self, round_index, inserted, deleted):
        if inserted or deleted:
            # +1: this round's own on_messages already counts down once.
            self.remaining = self.SETTLE + 1

    def compose_messages(self, round_index):
        return {}

    def on_messages(self, round_index, received):
        self.remaining = max(0, self.remaining - 1)

    def is_consistent(self):
        return self.remaining == 0

    def is_quiescent(self):
        return self.remaining == 0

    def query(self, query):  # pragma: no cover - not used
        return None


class ChattySettlingNode(SettlingNode):
    """A :class:`SettlingNode` that messages every neighbor while it settles."""

    def __init__(self, node_id, n):
        super().__init__(node_id, n)
        self.neighbors = set()

    def on_topology_change(self, round_index, inserted, deleted):
        super().on_topology_change(round_index, inserted, deleted)
        self.neighbors.update(inserted)
        self.neighbors.difference_update(deleted)

    def compose_messages(self, round_index):
        if not self.remaining:
            return {}
        return {
            u: Envelope(
                payload=EdgeEventMessage(tuple(sorted((self.node_id, u))), EdgeOp.INSERT),
                is_empty=False,
            )
            for u in self.neighbors
        }


@pytest.mark.parametrize("mode", ["dense", "sparse"])
class TestDrain:
    """The drain phase of a run: validators and the ``max_drain_rounds`` budget."""

    def _runner(self, mode, seen):
        return SimulationRunner(
            n=4,
            algorithm_factory=SettlingNode,
            adversary=ScriptedAdversary.single_batch(insert=[(0, 1)]),
            validators=[lambda round_index, network, nodes: seen.append(round_index)],
            engine_mode=mode,
        )

    def test_validators_run_after_every_drain_round(self, mode):
        seen = []
        result = self._runner(mode, seen).run(max_drain_rounds=SettlingNode.SETTLE)
        # One adversary round, then exactly SETTLE drain rounds, each validated.
        assert seen == [1, 2, 3, 4]
        assert [r.round_index for r in result.metrics.rounds] == seen

    def test_max_drain_rounds_is_enforced(self, mode):
        seen = []
        runner = self._runner(mode, seen)
        budget = SettlingNode.SETTLE - 1
        with pytest.raises(RuntimeError, match=f"still inconsistent after {budget} quiet rounds"):
            runner.run(max_drain_rounds=budget)
        assert seen == [1, 2, 3]
        assert not runner.engine.all_consistent

    def test_message_loss_stops_before_the_first_drain_round(self, mode):
        plan = FaultPlan(UniformLoss(4, seed=0, p=1.0))
        dropped = []
        runner = SimulationRunner(
            n=4,
            algorithm_factory=ChattySettlingNode,
            adversary=ScriptedAdversary.single_batch(insert=[(0, 1)]),
            validators=[
                lambda round_index, network, nodes: dropped.append(
                    plan.stats["fault_messages_dropped"]
                )
            ],
            engine_mode=mode,
            faults=plan,
        )
        runner.run(max_drain_rounds=SettlingNode.SETTLE)
        # Both endpoints' messages are lost in the adversary round; the drain
        # freezes the loss before its first round, so every later one lands.
        assert dropped == [2, 2, 2, 2]
        assert runner.engine.all_consistent


class TestTrace:
    def test_trace_recording_and_replay_equivalence(self, tmp_path):
        adversary = ScriptedAdversary(
            [
                RoundChanges.inserts([(0, 1), (1, 2)]),
                RoundChanges.of(insert=[(0, 2)], delete=[(0, 1)]),
                None,
            ]
        )
        runner = SimulationRunner(
            n=5, algorithm_factory=RobustTwoHopNode, adversary=adversary, record_trace=True
        )
        first = runner.run()
        assert first.trace is not None
        path = tmp_path / "trace.json"
        first.trace.save(path)
        replay_trace = TopologyTrace.load(path)
        assert replay_trace.total_changes == first.trace.total_changes

        replay_runner = SimulationRunner(
            n=5,
            algorithm_factory=RobustTwoHopNode,
            adversary=TraceReplayAdversary(replay_trace),
        )
        second = replay_runner.run()
        assert second.network.edges == first.network.edges
        assert second.metrics.total_changes == first.metrics.total_changes

    def test_trace_round_access(self):
        trace = TopologyTrace(n=4)
        trace.append(RoundChanges.of(insert=[(0, 1)], delete=[]))
        trace.append(RoundChanges.of(insert=[], delete=[(0, 1)]))
        assert trace.num_rounds == 2
        assert trace.changes_for(0).insertions == [(0, 1)]
        assert trace.changes_for(1).deletions == [(0, 1)]
