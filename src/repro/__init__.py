"""repro -- a reproduction of *Finding Subgraphs in Highly Dynamic Networks* (SPAA 2021).

The library has five layers:

* :mod:`repro.simulator` -- the highly dynamic network model: synchronous
  rounds, adversarial edge insertions/deletions, ``O(log n)``-bit per-link
  messages, local-only queries and amortized-complexity accounting.
* :mod:`repro.core` -- the paper's distributed dynamic data structures:
  robust 2-hop / 3-hop neighborhoods, triangle and k-clique membership
  listing, 4-cycle and 5-cycle listing, plus the baselines they are compared
  against.
* :mod:`repro.adversary` -- workload generators, from random and heavy-tailed
  churn to the exact adversarial constructions of the lower-bound proofs.
* :mod:`repro.oracle` -- a centralized ground-truth oracle used to verify the
  distributed algorithms.
* :mod:`repro.analysis` / :mod:`repro.workloads` -- measurement analysis,
  counting bounds and canned workloads for the benchmark harness.
* :mod:`repro.obs` -- opt-in observability: the process-local telemetry
  registry (counters / histograms / spans), JSONL snapshot sinks, hotspot
  reports and live campaign progress rendering.

Quickstart::

    from repro import SimulationRunner, TriangleMembershipNode, RandomChurnAdversary
    from repro.core import TriangleQuery, QueryResult

    runner = SimulationRunner(
        n=30,
        algorithm_factory=TriangleMembershipNode,
        adversary=RandomChurnAdversary(30, num_rounds=200, seed=1),
    )
    result = runner.run()
    print("amortized round complexity:", result.amortized_round_complexity)
"""

from .adversary import (
    BatchInsertAdversary,
    CycleLowerBoundAdversary,
    FlickerTriangleAdversary,
    HeavyTailedChurnAdversary,
    MembershipLowerBoundAdversary,
    RandomChurnAdversary,
    ScriptedAdversary,
    ThreePathLowerBoundAdversary,
)
from .core import (
    CliqueMembershipNode,
    CliqueQuery,
    CycleListingNode,
    CycleQuery,
    EdgeQuery,
    FullBroadcastNode,
    NaiveForwardingNode,
    QueryResult,
    RobustThreeHopNode,
    RobustTwoHopNode,
    TriangleMembershipNode,
    TriangleQuery,
    TwoHopListingNode,
    TwoHopQuery,
)
from .obs import TELEMETRY, CampaignProgress, Histogram, Telemetry, TelemetrySink
from .oracle import GroundTruthOracle
from .serve import (
    AnswerChanged,
    EventSource,
    LogConverter,
    LogEventSource,
    MonitorAnswer,
    MonitorService,
    ServingMonitor,
    ServingReport,
    SubscriptionRegistry,
    TraceEventSource,
)
from .simulator import (
    DynamicNetwork,
    MetricsCollector,
    RoundChanges,
    RoundEngine,
    SimulationResult,
    SimulationRunner,
)

__version__ = "1.0.0"

__all__ = [
    "AnswerChanged",
    "BatchInsertAdversary",
    "CampaignProgress",
    "CliqueMembershipNode",
    "CliqueQuery",
    "CycleListingNode",
    "CycleLowerBoundAdversary",
    "CycleQuery",
    "DynamicNetwork",
    "EdgeQuery",
    "EventSource",
    "FlickerTriangleAdversary",
    "FullBroadcastNode",
    "GroundTruthOracle",
    "HeavyTailedChurnAdversary",
    "Histogram",
    "LogConverter",
    "LogEventSource",
    "MembershipLowerBoundAdversary",
    "MetricsCollector",
    "MonitorAnswer",
    "MonitorService",
    "NaiveForwardingNode",
    "QueryResult",
    "RandomChurnAdversary",
    "RobustThreeHopNode",
    "RobustTwoHopNode",
    "RoundChanges",
    "RoundEngine",
    "ScriptedAdversary",
    "ServingMonitor",
    "ServingReport",
    "SimulationResult",
    "SimulationRunner",
    "SubscriptionRegistry",
    "TELEMETRY",
    "Telemetry",
    "TelemetrySink",
    "ThreePathLowerBoundAdversary",
    "TraceEventSource",
    "TriangleMembershipNode",
    "TriangleQuery",
    "TwoHopListingNode",
    "TwoHopQuery",
    "__version__",
]
