"""Simulator substrate for highly dynamic distributed networks.

This package implements the computational model of Censor-Hillel, Kolobov and
Schwartzman (SPAA 2021): a synchronous network on ``n`` nodes that starts
empty, whose edge set an adversary rewrites arbitrarily at the beginning of
every round, with CONGEST-style ``O(log n)``-bit per-link messages and a
query window at the end of every round in which each node must answer from
local state only (or declare itself inconsistent).

The public surface is:

* :class:`DynamicNetwork`, :class:`RoundChanges` -- the ground-truth dynamic
  graph and one round's batch of changes (its canonical inserted and deleted
  edge lists).
* :class:`NodeAlgorithm` -- the per-node algorithm interface.
* :class:`RoundEngine` / :class:`SparseRoundEngine` -- the one round loop
  under its dense and activity-proportional scheduling policies (see also
  :class:`QuiescenceProtocol`, and :class:`ColumnarProtocol` for the sparse
  policy's batch transport).
* :class:`SimulationRunner` / :class:`SimulationResult` -- end-to-end
  orchestration of an adversary against an algorithm.
* :class:`BandwidthPolicy`, :class:`MetricsCollector` -- bandwidth and
  amortized-complexity accounting.
* :class:`Adversary`, :class:`AdversaryView` -- the adversary interface.
* :class:`TopologyTrace` -- trace record / replay.
"""

from .adversary import Adversary, AdversaryView
from .bandwidth import BandwidthExceededError, BandwidthPolicy, BandwidthViolation
from .columnar import SendBuffer
from .events import Edge, RoundChanges, canonical_edge
from .messages import (
    EdgeDeleteHopMessage,
    EdgeEventMessage,
    EdgeOp,
    Envelope,
    PathInsertMessage,
    PatternMark,
    SnapshotChunkMessage,
    id_bits,
)
from .metrics import MetricsCollector, RoundRecord
from .network import DynamicNetwork, NodeIndication, TopologyError
from .node import (
    AlgorithmFactory,
    ColumnarProtocol,
    NodeAlgorithm,
    QuiescenceProtocol,
    canonical_state,
    state_fingerprint,
)
from .rounds import (
    ENGINE_MODES,
    MessageTargetError,
    RoundEngine,
    SparseRoundEngine,
    create_engine,
)
from .runner import RoundValidator, SimulationResult, SimulationRunner, drive_engine
from .trace import TopologyTrace, TraceRecordingAdversary, TraceReplayAdversary

__all__ = [
    "Adversary",
    "AdversaryView",
    "AlgorithmFactory",
    "BandwidthExceededError",
    "BandwidthPolicy",
    "BandwidthViolation",
    "canonical_edge",
    "canonical_state",
    "ColumnarProtocol",
    "create_engine",
    "drive_engine",
    "DynamicNetwork",
    "ENGINE_MODES",
    "Edge",
    "EdgeDeleteHopMessage",
    "EdgeEventMessage",
    "EdgeOp",
    "Envelope",
    "id_bits",
    "MessageTargetError",
    "MetricsCollector",
    "NodeAlgorithm",
    "NodeIndication",
    "PathInsertMessage",
    "PatternMark",
    "QuiescenceProtocol",
    "RoundChanges",
    "RoundEngine",
    "RoundRecord",
    "RoundValidator",
    "SendBuffer",
    "state_fingerprint",
    "SimulationResult",
    "SimulationRunner",
    "SparseRoundEngine",
    "SnapshotChunkMessage",
    "TopologyError",
    "TopologyTrace",
    "TraceRecordingAdversary",
    "TraceReplayAdversary",
]
