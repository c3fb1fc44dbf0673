"""Named registries binding experiment specs to runnable objects.

A spec file refers to algorithms, adversaries and end-of-run checks by name;
this module owns the three registries that resolve those names:

* :data:`ALGORITHMS` -- node-algorithm factories (``factory(node_id, n)``),
  every structure of :mod:`repro.core` plus the :class:`NullWorkloadNode`
  baseline that realizes a workload without running any algorithm.
* :data:`ADVERSARIES` -- adversary builders ``builder(n, rounds, seed,
  params)`` covering every implemented adversary and the canned workload
  generators of :mod:`repro.workloads`.
* :data:`CHECKS` -- the first-class result checks of
  :mod:`repro.verification.checks` (re-exported here for convenience):
  oracle-backed validators with per-round hooks and structured failure
  reports, whose metrics merge into each cell's record.

The CLI shares these registries, so anything expressible on the command line
is expressible in a campaign spec and vice versa.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Sequence

from ..adversary import (
    WAIT_FOR_STABILITY,
    BatchInsertAdversary,
    CycleLowerBoundAdversary,
    FlickerTriangleAdversary,
    HeavyTailedChurnAdversary,
    MembershipLowerBoundAdversary,
    RandomChurnAdversary,
    ScheduleAdversary,
    ThreePathLowerBoundAdversary,
)
from ..core import (
    CliqueMembershipNode,
    CycleListingNode,
    FullBroadcastNode,
    HintFreeTriangleNode,
    NaiveForwardingNode,
    RobustThreeHopNode,
    RobustTwoHopNode,
    TriangleMembershipNode,
    TwoHopListingNode,
)
from ..core.membership import PATTERNS
from ..faults.chaos import CHAOS_ADVERSARIES
from ..fuzz.generators import build_fuzz_adversary
from ..simulator import Adversary, Envelope, NodeAlgorithm, RoundChanges
from ..simulator.trace import TopologyTrace, TraceReplayAdversary
from ..verification.checks import CHECKS, register_check
from ..workloads import (
    growing_random_graph,
    planted_clique_churn,
    planted_cycle_churn,
)

__all__ = [
    "ALGORITHMS",
    "ADVERSARIES",
    "CHECKS",
    "NullWorkloadNode",
    "build_adversary",
    "register_adversary",
    "register_algorithm",
    "register_check",
]

#: An adversary builder: ``builder(n, rounds, seed, params)``.  ``rounds`` is
#: the spec's round budget (may be ``None`` for finite-schedule adversaries)
#: and ``params`` the adversary-specific keyword arguments from the spec.
AdversaryBuilder = Callable[[int, Any, int, Dict[str, Any]], Adversary]


class NullWorkloadNode(NodeAlgorithm):
    """A do-nothing algorithm used to realize a workload on the bare network.

    Always consistent, never sends a message: running it through the engine
    materialises exactly the adversary's schedule in the ground-truth network,
    which is what workload-characterisation experiments (e.g. robust-set
    coverage) need.
    """

    def on_topology_change(self, round_index, inserted, deleted) -> None:
        pass

    def compose_messages(self, round_index) -> Dict[int, Envelope]:
        return {}

    def on_messages(self, round_index, received) -> None:
        pass

    def is_consistent(self) -> bool:
        return True

    def is_quiescent(self) -> bool:
        return True

    def query(self, query: Any) -> Any:
        return None


ALGORITHMS: Dict[str, Callable] = {
    "robust2hop": RobustTwoHopNode,
    "triangle": TriangleMembershipNode,
    "clique": CliqueMembershipNode,
    "robust3hop": RobustThreeHopNode,
    "cycles": CycleListingNode,
    "twohop": TwoHopListingNode,
    "naive": NaiveForwardingNode,
    "broadcast": FullBroadcastNode,
    "triangle_nohints": HintFreeTriangleNode,
    "null": NullWorkloadNode,
}


# --------------------------------------------------------------------- #
# Adversary builders
# --------------------------------------------------------------------- #
def _round_budget(rounds, params: Dict[str, Any], default: int = 200) -> int:
    """Resolve the round budget for adversaries that need one up front."""
    if "num_rounds" in params:
        return int(params.pop("num_rounds"))
    if rounds is not None:
        return int(rounds)
    return default


def _build_churn(n, rounds, seed, params):
    return RandomChurnAdversary(n, _round_budget(rounds, params), seed=seed, **params)


def _build_p2p(n, rounds, seed, params):
    return HeavyTailedChurnAdversary(n, _round_budget(rounds, params), seed=seed, **params)


def _build_batch(n, rounds, seed, params):
    num_edges = int(params.pop("num_edges", 3 * n))
    return BatchInsertAdversary.random_graph(n, num_edges, seed=seed, **params)


def _build_theorem2(n, rounds, seed, params):
    pattern = params.pop("pattern", "P3")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}")
    return MembershipLowerBoundAdversary(n, PATTERNS[pattern], **params)


def _build_theorem4(n, rounds, seed, params):
    return CycleLowerBoundAdversary(n, params.pop("k", 6), seed=seed, **params)


def _build_threepath(n, rounds, seed, params):
    return ThreePathLowerBoundAdversary(n, seed=seed, **params)


def _build_flicker(n, rounds, seed, params):
    if "n" in params:
        raise ValueError(
            "the flicker adversary takes its node count from the spec's n; "
            "remove 'n' from adversary_params"
        )
    # The background edges are the cell's only randomness: wire the spec seed
    # in (overridable) so multi-seed sweeps realize distinct graphs.
    params.setdefault("background_seed", seed)
    adversary = FlickerTriangleAdversary(n=n, **params)
    needed = 1 + max(
        (adversary.v, adversary.u, adversary.w)
        + tuple(params.get("filler_u", (3, 4)))
        + tuple(params.get("filler_w", (5, 6, 7, 8)))
    )
    if n < needed:
        raise ValueError(f"flicker adversary touches node ids up to {needed - 1}; need n >= {needed}")
    return adversary


def _build_scripted(n, rounds, seed, params):
    if "trace_path" in params:
        trace = TopologyTrace.load(params.pop("trace_path"))
    elif "trace" in params:
        trace = TopologyTrace.from_dict(params.pop("trace"))
    else:
        raise ValueError("scripted adversary needs 'trace_path' or an inline 'trace' dict")
    if params:
        raise ValueError(f"unexpected scripted params: {sorted(params)}")
    # TraceReplayAdversary additionally rejects schedules referencing node
    # ids outside the trace's own declared range -- replay is strict, never
    # silently dropping (or smuggling in) changes the recording could not
    # have produced.  The shrinker's node-renaming pass relies on this.
    return TraceReplayAdversary(trace.check_fits(n))


def _build_planted_clique(n, rounds, seed, params):
    k = int(params.pop("k", 4))
    num_plants = int(params.pop("num_plants", 3))
    adversary, _ = planted_clique_churn(n, k, num_plants, seed=seed, **params)
    return adversary


def _build_planted_cycle(n, rounds, seed, params):
    k = int(params.pop("k", 4))
    num_plants = int(params.pop("num_plants", 3))
    adversary, _ = planted_cycle_churn(n, k, num_plants, seed=seed, **params)
    return adversary


def _build_growing(n, rounds, seed, params):
    num_edges = int(params.pop("num_edges", 2 * n))
    return growing_random_graph(n, num_edges, seed=seed, **params)


def _build_growing_star(n, rounds, seed, params):
    """A star grown one leaf per phase, waiting for stability in between.

    The Lemma 1 worst case (experiment E7): every insertion at the hub forces
    a fresh neighborhood snapshot towards the new leaf.
    """
    center = int(params.pop("center", 0))
    if params:
        raise ValueError(f"unexpected growing_star params: {sorted(params)}")

    def schedule():
        for leaf in range(n):
            if leaf == center:
                continue
            yield RoundChanges.inserts([(center, leaf)])
            yield WAIT_FOR_STABILITY

    return ScheduleAdversary(schedule())


ADVERSARIES: Dict[str, AdversaryBuilder] = {
    "churn": _build_churn,
    "p2p": _build_p2p,
    "batch": _build_batch,
    "theorem2": _build_theorem2,
    "theorem4": _build_theorem4,
    "threepath": _build_threepath,
    "flicker": _build_flicker,
    "scripted": _build_scripted,
    "planted_clique": _build_planted_clique,
    "planted_cycle": _build_planted_cycle,
    "growing": _build_growing,
    "growing_star": _build_growing_star,
    # Seeded adversarial schedule fuzzing (repro.fuzz): deterministic given
    # (n, rounds, seed, params), so fuzz cells sweep and verify like any
    # other experiment -- a "seed" grid axis is a fuzzing campaign.
    "fuzz": build_fuzz_adversary,
    # Chaos adversaries (repro.faults.chaos): cells that SIGKILL or stall
    # their own campaign worker to exercise the runner's supervision, then
    # delegate to a real inner adversary.
    **CHAOS_ADVERSARIES,
}


def build_adversary(
    name: str,
    *,
    n: int,
    rounds=None,
    seed: int = 0,
    params: Mapping[str, Any] | None = None,
) -> Adversary:
    """Instantiate a registered adversary for one experiment cell."""
    if name not in ADVERSARIES:
        raise ValueError(f"unknown adversary {name!r}; choose from {sorted(ADVERSARIES)}")
    try:
        return ADVERSARIES[name](n, rounds, seed, dict(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for adversary {name!r}: {exc}") from exc


# --------------------------------------------------------------------- #
# End-of-run checks
# --------------------------------------------------------------------- #
# The checks registry lives in :mod:`repro.verification.checks` (first-class
# Check objects with per-round hooks and structured failure reports); CHECKS
# and register_check are re-exported above.


# --------------------------------------------------------------------- #
# Extension hooks
# --------------------------------------------------------------------- #
def register_algorithm(name: str, factory: Callable) -> None:
    """Register an extra algorithm factory under ``name``."""
    ALGORITHMS[name] = factory


def register_adversary(name: str, builder: AdversaryBuilder) -> None:
    """Register an extra adversary builder under ``name``."""
    ADVERSARIES[name] = builder
