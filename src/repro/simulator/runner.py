"""High-level orchestration of a full simulation.

:class:`SimulationRunner` wires together the four ingredients of an
experiment -- a network size, an algorithm factory, an adversary and a
bandwidth policy -- runs the round loop, and returns a
:class:`SimulationResult` containing the metrics the paper's theorems bound.
Optional per-round validators (used heavily by the test-suite) allow checking
algorithm answers against the centralized oracle after every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set

from .adversary import Adversary, AdversaryView
from .bandwidth import BandwidthPolicy
from .events import RoundChanges
from .metrics import MetricsCollector
from .network import DynamicNetwork
from .node import AlgorithmFactory, NodeAlgorithm
from .rounds import ENGINE_MODES, RoundEngine, create_engine
from .trace import TopologyTrace, TraceRecordingAdversary

__all__ = [
    "ActiveNodesView",
    "RoundValidator",
    "SimulationResult",
    "SimulationRunner",
    "drive_engine",
]

#: A per-round validation hook: ``validator(round_index, network, nodes)``.
#: Validators are called after the query window of every round and should
#: raise (e.g. ``AssertionError``) when the algorithm misbehaves.
RoundValidator = Callable[[int, DynamicNetwork, Mapping[int, NodeAlgorithm]], None]


class ActiveNodesView(Mapping):
    """The nodes mapping handed to round validators, annotated with activity.

    Behaves exactly like the plain ``{node_id: algorithm}`` mapping (O(1)
    wrapper, no copying), but additionally carries :attr:`active_ids` -- the
    engine's last-round active set, or ``None`` when the engine visited every
    node (the dense scheduler).  Activity-aware validators (the incremental
    oracle checks) read the attribute via ``getattr(nodes, "active_ids",
    None)``, so plain dicts keep working wherever tests call validators
    directly.
    """

    __slots__ = ("_nodes", "active_ids")

    def __init__(
        self, nodes: Mapping[int, NodeAlgorithm], active_ids: Optional[Set[int]]
    ) -> None:
        self._nodes = nodes
        self.active_ids = active_ids

    def __getitem__(self, key: int) -> NodeAlgorithm:
        return self._nodes[key]

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass
class SimulationResult:
    """Everything a finished simulation exposes for analysis.

    Attributes:
        metrics: the amortized-complexity accounting.
        network: the final ground-truth graph.
        nodes: the node algorithm instances (their final local state).
        bandwidth: the bandwidth policy with its accumulated statistics.
        trace: the realized topology trace, if recording was requested.
        faults: the :class:`~repro.faults.models.FaultPlan` of the run (with
            its accumulated fault statistics), or ``None``.
    """

    metrics: MetricsCollector
    network: DynamicNetwork
    nodes: Dict[int, NodeAlgorithm]
    bandwidth: BandwidthPolicy
    trace: Optional[TopologyTrace] = None
    faults: object = None

    @property
    def amortized_round_complexity(self) -> float:
        """Shortcut for the headline measure of the paper."""
        return self.metrics.amortized_round_complexity()

    def summary(self) -> Dict[str, float]:
        """Merged metrics and bandwidth summary."""
        out = dict(self.metrics.summary())
        for key, value in self.bandwidth.summary(self.network.n).items():
            out[f"bandwidth_{key}"] = float(value)
        return out


def drive_engine(
    engine: RoundEngine,
    adversary: Adversary,
    *,
    num_rounds: Optional[int] = None,
    drain: bool = True,
    max_drain_rounds: int = 10_000,
    after_round: Optional[Callable[[], None]] = None,
) -> int:
    """Drive a round engine against an adversary; returns rounds executed.

    With ``drain``, the adversary's rounds are followed by
    :meth:`~repro.simulator.rounds.RoundEngine.run_until_quiet` under the
    ``max_drain_rounds`` budget.  ``after_round`` runs after every executed
    round, including drain rounds (the runner hooks its validators here).
    """
    if num_rounds is None and not hasattr(adversary, "is_done"):
        raise ValueError("num_rounds is required for open-ended adversaries")

    executed = 0
    while True:
        if num_rounds is not None and executed >= num_rounds:
            break
        if adversary.is_done:
            break
        view = AdversaryView.from_network(
            engine.network,
            round_index=engine.network.round_index + 1,
            all_consistent=engine.all_consistent,
        )
        changes = adversary.changes_for_round(view)
        if changes is None:
            break
        engine.execute_round(changes)
        executed += 1
        if after_round is not None:
            after_round()

    if drain:
        # The adversary is never consulted during the drain, so topology
        # faults freeze on their own; the plan latches message loss off too
        # (unless configured ``during_drain``), otherwise a self-stabilizing
        # protocol re-sending the same lost update could drain forever.
        if engine.faults is not None:
            engine.faults.enter_drain()
        engine.run_until_quiet(max_drain_rounds, after_round=after_round)
    return executed


class SimulationRunner:
    """Builds and drives a complete highly-dynamic-network simulation.

    Args:
        n: number of nodes.
        algorithm_factory: callable building the per-node algorithm,
            ``factory(node_id, n)``.
        adversary: the topology-change schedule.
        bandwidth_factor: hidden constant of the ``O(log n)`` per-link budget.
        strict_bandwidth: whether exceeding the budget raises (default) or is
            merely recorded (for intentionally wasteful baselines).
        record_trace: whether to record the realized schedule for replay.
        validators: per-round validation hooks.
        engine_mode: ``"sparse"`` (default; activity-proportional scheduling
            via :class:`~repro.simulator.rounds.SparseRoundEngine`, with the
            batch transport for ported algorithms) or ``"dense"`` (the
            reference scheduler visiting every node every round).  Both
            produce identical results; sparse is markedly faster on large,
            low-churn networks.
    """

    def __init__(
        self,
        n: int,
        algorithm_factory: AlgorithmFactory,
        adversary: Adversary,
        *,
        bandwidth_factor: int = 8,
        strict_bandwidth: bool = True,
        record_trace: bool = False,
        validators: Optional[List[RoundValidator]] = None,
        engine_mode: str = "sparse",
        faults=None,
    ) -> None:
        if engine_mode not in ENGINE_MODES:
            raise ValueError(
                f"engine_mode must be one of {ENGINE_MODES}, got {engine_mode!r}"
            )
        self.n = n
        self.engine_mode = engine_mode
        self.network = DynamicNetwork(n)
        self.nodes: Dict[int, NodeAlgorithm] = {
            v: algorithm_factory(v, n) for v in range(n)
        }
        self.bandwidth = BandwidthPolicy(factor=bandwidth_factor, strict=strict_bandwidth)
        self.metrics = MetricsCollector()
        self.faults = faults
        if faults is not None:
            # The plan rebuilds amnesiac nodes through the same factory.
            faults.algorithm_factory = algorithm_factory
            if faults.affects_topology:
                # Imported lazily: repro.faults depends on the simulator's
                # submodules, so the top level must not import back into it.
                from ..faults.overlay import FaultOverlayAdversary

                adversary = FaultOverlayAdversary(adversary, n, faults)
        self.engine = create_engine(
            engine_mode, self.network, self.nodes, self.bandwidth, self.metrics, faults
        )
        # Alias the engine's nodes dict (create_engine copies the mapping) so
        # amnesia resets replacing instances in-place stay visible to the
        # validators and to SimulationResult.nodes.
        self.nodes = self.engine.nodes
        self._validators: List[RoundValidator] = list(validators or [])
        if record_trace:
            # Trace recording wraps *outside* the fault overlay: recorded
            # traces are the physical post-fault schedule, identical across
            # engines and replayable without the overlay.
            self.adversary: Adversary = TraceRecordingAdversary(adversary, n)
        else:
            self.adversary = adversary

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def add_validator(self, validator: RoundValidator) -> None:
        """Register an additional per-round validation hook."""
        self._validators.append(validator)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        num_rounds: Optional[int] = None,
        *,
        drain: bool = True,
        max_drain_rounds: int = 10_000,
    ) -> SimulationResult:
        """Run the simulation.

        Args:
            num_rounds: maximum number of adversary-driven rounds to execute.
                ``None`` means "until the adversary reports it is done" (only
                valid for finite-schedule adversaries).
            drain: after the adversary finishes (or ``num_rounds`` is
                reached), keep executing quiet rounds until every node is
                consistent.  This matches the paper's long-lived-network view
                in which the environment eventually gives the algorithm time
                to catch up, and makes end-of-run query checks meaningful.
            max_drain_rounds: safety bound on the drain phase.

        Returns:
            The :class:`SimulationResult`.
        """
        drive_engine(
            self.engine,
            self.adversary,
            num_rounds=num_rounds,
            drain=drain,
            max_drain_rounds=max_drain_rounds,
            after_round=self._run_validators,
        )

        trace = None
        if isinstance(self.adversary, TraceRecordingAdversary):
            trace = self.adversary.trace
        return SimulationResult(
            metrics=self.metrics,
            network=self.network,
            nodes=self.nodes,
            bandwidth=self.bandwidth,
            trace=trace,
            faults=self.faults,
        )

    def step(self, changes: RoundChanges) -> None:
        """Execute a single externally supplied round (bypassing the adversary).

        Useful for interactive exploration and for tests that drive the
        engine directly.
        """
        self.engine.execute_round(changes)
        self._run_validators()

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _run_validators(self) -> None:
        if not self._validators:
            return
        nodes = ActiveNodesView(self.nodes, self.engine.last_active_nodes)
        for validator in self._validators:
            validator(self.network.round_index, self.network, nodes)
