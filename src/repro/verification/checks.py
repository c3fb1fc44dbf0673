"""First-class result checks with structured failure reports.

The checks registry used by experiment campaigns and the CLI maps names to
first-class :class:`Check` objects that

* know which algorithms / adversaries they apply to (so the spec layer can
  reject nonsensical combinations up front and the ``verify`` command can
  auto-select every applicable check for a cell),
* may install a **per-round hook** (run inside the simulation as a
  :data:`~repro.simulator.runner.RoundValidator`), not just an end-of-run
  evaluation,
* report violations as structured :class:`CheckFailure` records (which check,
  which round, which node, which field) instead of a bare 0.0 metric, and
* carry a small self-contained **coverage cell** -- a spec dict exercising the
  check -- which the differential verifier uses to guarantee that every
  registered check executes at least once per ``verify`` run.

Every check is oracle-backed: it compares the distributed nodes' final (or
per-round) state against the centralized ground truth of :mod:`repro.oracle`.
Queries go through the incremental
:class:`~repro.oracle.ground_truth.GroundTruthOracle`: end-of-run checks
build one oracle over the final network (one shared adjacency instead of a
rebuild per query), and per-round hooks get a session-owned oracle that is
fed each round's delta, so with the sparse engine's active set a quiet round
costs O(1) and a busy round costs O(changes), not O(n).  The metric names of
the pre-existing checks (``triangle_matches_oracle``, ``coverage_*``,
``believes_deleted_edge`` ...) are preserved bit-for-bit, so stored campaign
results and benchmark tables are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from ..adversary import CycleLowerBoundAdversary, ThreePathLowerBoundAdversary
from ..core.queries import QueryResult, TriangleQuery
from ..oracle import GroundTruthOracle, cycles_of_length
from ..simulator import DynamicNetwork
from ..simulator.adversary import AdversaryView
from ..simulator.runner import SimulationResult
from ..simulator.trace import TopologyTrace

__all__ = [
    "CHECKS",
    "Check",
    "CheckFailure",
    "CheckOutcome",
    "CheckSession",
    "applicable_checks",
    "first_divergent_round",
    "register_check",
]

#: Cap on stored failures per check per run, so a badly corrupted result does
#: not produce an unbounded report.
MAX_FAILURES = 16

#: One ground-truth oracle per final network, shared by every end-of-run
#: check of a run (several checks grade the same result, and each would
#: otherwise rebuild the same adjacency and re-answer the same queries).
#: Keyed weakly so oracles die with their networks; invalidated whenever the
#: network advanced or was mutated (the corrupted-fixture tests do both).
_NETWORK_ORACLES: "WeakKeyDictionary[Any, Tuple[Tuple[int, int], GroundTruthOracle]]" = (
    WeakKeyDictionary()
)


def oracle_for(network: DynamicNetwork) -> GroundTruthOracle:
    """The shared end-of-run oracle for ``network``'s current state."""
    state = (network.round_index, network.total_changes)
    cached = _NETWORK_ORACLES.get(network)
    if cached is not None and cached[0] == state:
        return cached[1]
    oracle = GroundTruthOracle.from_network(network)
    _NETWORK_ORACLES[network] = (state, oracle)
    return oracle


@dataclass(frozen=True)
class CheckFailure:
    """One structured check violation.

    Attributes:
        check: name of the check that found the violation.
        field: what diverged (e.g. ``known_triangles``, ``sandwich_upper``).
        round_index: the round of the violation (``None`` for end-of-run).
        node: the offending node id (``None`` for global violations).
        expected: short description of the oracle's value.
        actual: short description of the node's value.
    """

    check: str
    field: str
    round_index: Optional[int] = None
    node: Optional[int] = None
    expected: str = ""
    actual: str = ""

    def describe(self) -> str:
        where = []
        if self.round_index is not None:
            where.append(f"round {self.round_index}")
        if self.node is not None:
            where.append(f"node {self.node}")
        location = f" at {', '.join(where)}" if where else ""
        detail = ""
        if self.expected or self.actual:
            detail = f" (expected {self.expected!s}, got {self.actual!s})"
        return f"[{self.check}] {self.field}{location}{detail}"


@dataclass
class CheckOutcome:
    """The full result of one check on one finished simulation."""

    check: str
    metrics: Dict[str, float] = field(default_factory=dict)
    failures: List[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            return f"[{self.check}] ok"
        return "\n".join(f.describe() for f in self.failures)


def _shorten(values, limit: int = 6) -> str:
    """Render a small, deterministic sample of a collection for reports."""
    try:
        items = sorted(values, key=repr)
    except TypeError:  # pragma: no cover - defensive
        items = list(values)
    sample = ", ".join(repr(x) for x in items[:limit])
    suffix = ", ..." if len(items) > limit else ""
    return f"{{{sample}{suffix}}} ({len(items)} items)"


class Check:
    """Base class of all registered checks.

    Subclasses set the class attributes and implement :meth:`collect` (and
    optionally :meth:`check_round` with ``has_round_hook = True``).

    Attributes:
        name: registry name (also the CLI / spec token).
        description: one-line summary for ``--help`` and the README table.
        algorithms: registry names of the algorithms the check understands,
            or ``None`` for any algorithm.
        adversaries: adversary names the check requires, or ``None`` for any.
        requires_drain: whether the check is only meaningful on a drained
            (all-consistent) final state.
        has_round_hook: whether :meth:`check_round` should run as a per-round
            validator during the simulation.
    """

    name: str = ""
    description: str = ""
    algorithms: Optional[frozenset] = None
    adversaries: Optional[frozenset] = None
    requires_drain: bool = True
    has_round_hook: bool = False

    # ------------------------------------------------------------------ #
    # Applicability
    # ------------------------------------------------------------------ #
    def applies_to(self, spec: Any) -> bool:
        """Whether this check can run on the given :class:`ExperimentSpec`."""
        if self.algorithms is not None and spec.algorithm not in self.algorithms:
            return False
        if self.adversaries is not None and spec.adversary not in self.adversaries:
            return False
        if self.requires_drain and not spec.drain:
            return False
        return True

    def coverage_cell(self) -> Optional[Dict[str, Any]]:
        """A small spec dict exercising this check (for verify coverage runs)."""
        return None

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def check_round(
        self,
        round_index: int,
        network: DynamicNetwork,
        nodes: Mapping[int, Any],
        spec: Any,
        oracle: Optional[GroundTruthOracle] = None,
        state: Optional[Dict[str, Any]] = None,
    ) -> List[CheckFailure]:
        """Per-round hook; only called when ``has_round_hook`` is set.

        ``oracle`` is the session's incremental ground-truth oracle, already
        fed this round's delta; ``state`` is a per-run scratch dict the hook
        may use to stay activity-proportional (e.g. remembering previously
        found violations so only nodes whose state or truth changed need
        re-examination).  Both are ``None`` when a hook is driven outside a
        :class:`CheckSession`.
        """
        return []

    def collect(
        self, result: SimulationResult, spec: Any
    ) -> Tuple[Dict[str, float], List[CheckFailure]]:
        """End-of-run evaluation: return ``(metrics, failures)``."""
        raise NotImplementedError

    def evaluate(self, result: SimulationResult, spec: Any = None) -> CheckOutcome:
        """Run the end-of-run evaluation and package the outcome."""
        metrics, failures = self.collect(result, spec)
        return CheckOutcome(check=self.name, metrics=dict(metrics), failures=list(failures))

    def _failure(self, field_name: str, **kwargs: Any) -> CheckFailure:
        return CheckFailure(check=self.name, field=field_name, **kwargs)


class CheckSession:
    """Per-run binding of a check to a spec, collecting round-hook failures.

    :class:`Check` instances in the registry are shared singletons; a session
    gives one simulation run its own failure accumulator so concurrent or
    repeated runs never observe each other's violations.
    """

    def __init__(self, check: Check, spec: Any = None) -> None:
        self.check = check
        self.spec = spec
        self.round_failures: List[CheckFailure] = []
        #: Incremental oracle fed once per round (created lazily on the first
        #: hook call, when the network's size is known).
        self.oracle: Optional[GroundTruthOracle] = None
        #: Per-run scratch space for activity-proportional hooks.
        self.round_state: Dict[str, Any] = {}

    @property
    def name(self) -> str:
        return self.check.name

    def validator(self) -> Optional[Callable]:
        """The per-round :data:`RoundValidator` hook, or ``None``."""
        if not self.check.has_round_hook:
            return None

        def hook(round_index: int, network: DynamicNetwork, nodes: Mapping[int, Any]) -> None:
            budget = MAX_FAILURES - len(self.round_failures)
            if budget <= 0:
                return
            if self.oracle is None:
                self.oracle = GroundTruthOracle(network.n)
            self.oracle.observe(network)
            failures = self.check.check_round(
                round_index, network, nodes, self.spec, self.oracle, self.round_state
            )
            self.round_failures.extend(failures[:budget])

        return hook

    def finish(self, result: SimulationResult) -> CheckOutcome:
        """End-of-run evaluation merged with the collected round failures."""
        outcome = self.check.evaluate(result, self.spec)
        if self.check.has_round_hook:
            outcome.failures = self.round_failures + outcome.failures
            outcome.metrics[f"{self.name}_violations"] = float(len(self.round_failures))
        return outcome


# --------------------------------------------------------------------- #
# Generic checks
# --------------------------------------------------------------------- #
class AllConsistentCheck(Check):
    name = "consistent"
    description = "every node declares a consistent data structure at the end of the run"
    requires_drain = True

    def collect(self, result, spec):
        bad = [v for v, node in result.nodes.items() if not node.is_consistent()]
        failures = [
            self._failure("is_consistent", node=v, expected="True", actual="False")
            for v in bad[:MAX_FAILURES]
        ]
        return {"all_consistent": 1.0 if not bad else 0.0}, failures

    def coverage_cell(self):
        return {
            "algorithm": "robust2hop",
            "adversary": "churn",
            "n": 10,
            "rounds": 25,
            "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
        }


class CoverageCheck(Check):
    """Robust-set coverage ratios of the final graph (workload characterisation)."""

    name = "coverage"
    description = "robust-set coverage ratios (|R|/|E|) of the final graph"
    requires_drain = False

    def collect(self, result, spec):
        network = result.network
        edges = network.edges
        failures: List[CheckFailure] = []
        # Build the time map edge by edge so a network whose bookkeeping lost
        # an insertion time is reported as a failure instead of crashing.
        times: Dict[Any, int] = {}
        for edge in sorted(edges):
            t = network.insertion_time(*edge)
            if t < 0:
                if len(failures) < MAX_FAILURES:
                    failures.append(
                        self._failure(
                            "insertion_times",
                            expected=f"a true insertion time for edge {edge}",
                            actual="missing",
                        )
                    )
            else:
                times[edge] = t
        if failures:
            # The robust sets are undefined without true insertion times; do
            # not grade ratios against a corrupt time map.
            return {}, failures
        oracle = oracle_for(network)
        ratios: Dict[str, list] = {"r2_e2": [], "t2_e2": [], "r3_e3": []}
        for v in range(network.n):
            e2 = oracle.khop_edges(v, 2)
            e3 = oracle.khop_edges(v, 3)
            if e2:
                ratios["r2_e2"].append(len(oracle.robust_two_hop(v)) / len(e2))
                ratios["t2_e2"].append(len(oracle.triangle_pattern_set(v)) / len(e2))
            if e3:
                ratios["r3_e3"].append(len(oracle.robust_three_hop(v)) / len(e3))
        metrics = {
            f"coverage_{key}": sum(vals) / len(vals)
            for key, vals in ratios.items()
            if vals
        }
        return metrics, failures

    def coverage_cell(self):
        return {
            "algorithm": "null",
            "adversary": "churn",
            "n": 10,
            "rounds": 20,
            "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
        }


# --------------------------------------------------------------------- #
# Oracle-backed checks, one per shipped structure
# --------------------------------------------------------------------- #
class RobustTwoHopOracleCheck(Check):
    name = "robust2hop_oracle"
    description = "known edge set equals the oracle's R^{v,2} on the drained final graph"
    algorithms = frozenset({"robust2hop"})

    def collect(self, result, spec):
        oracle = oracle_for(result.network)
        failures: List[CheckFailure] = []
        for v, node in result.nodes.items():
            expected = oracle.robust_two_hop(v)
            actual = node.known_edges()
            if actual != expected and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "known_edges",
                        node=v,
                        expected=_shorten(expected),
                        actual=_shorten(actual),
                    )
                )
        return {"robust2hop_matches_oracle": 1.0 if not failures else 0.0}, failures

    def coverage_cell(self):
        return {
            "algorithm": "robust2hop",
            "adversary": "churn",
            "n": 10,
            "rounds": 30,
            "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
        }


class RobustThreeHopOracleCheck(Check):
    name = "robust3hop_oracle"
    description = "the Theorem 6 sandwich R^{v,3} subseteq known subseteq E^{v,3} holds"
    algorithms = frozenset({"robust3hop", "cycles"})

    def collect(self, result, spec):
        oracle = oracle_for(result.network)
        failures: List[CheckFailure] = []
        for v, node in result.nodes.items():
            known = node.known_edges()
            lower = oracle.robust_three_hop(v)
            upper = oracle.khop_edges(v, 3)
            if not lower <= known and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "sandwich_lower",
                        node=v,
                        expected=f"known superset of R^{{v,3}}",
                        actual=f"missing {_shorten(lower - known)}",
                    )
                )
            if not known <= upper and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "sandwich_upper",
                        node=v,
                        expected=f"known subset of E^{{v,3}}",
                        actual=f"extra {_shorten(known - upper)}",
                    )
                )
        return {"robust3hop_sandwich": 1.0 if not failures else 0.0}, failures

    def coverage_cell(self):
        return {
            "algorithm": "robust3hop",
            "adversary": "churn",
            "n": 10,
            "rounds": 25,
            "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
        }


class TwoHopOracleCheck(Check):
    name = "twohop_oracle"
    description = "the Lemma 1 structure lists exactly the 2-hop neighborhood after drain"
    algorithms = frozenset({"twohop"})

    def collect(self, result, spec):
        oracle = oracle_for(result.network)
        failures: List[CheckFailure] = []
        for v, node in result.nodes.items():
            expected = oracle.khop_edges(v, 2)
            actual = node.known_edges()
            if actual != expected and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "known_edges",
                        node=v,
                        expected=_shorten(expected),
                        actual=_shorten(actual),
                    )
                )
        return {"twohop_matches_oracle": 1.0 if not failures else 0.0}, failures

    def coverage_cell(self):
        return {
            "algorithm": "twohop",
            "adversary": "growing",
            "n": 10,
            "adversary_params": {"num_edges": 14},
        }


class TriangleOracleCheck(Check):
    # Exact oracle equality holds for the full Theorem 1 structure only; the
    # triangle_nohints ablation is *designed* to miss triangles (graded by
    # triangle_recall instead), so it is deliberately not listed here.
    name = "triangle_oracle"
    description = "every node's triangle list equals the centralized ground truth"
    algorithms = frozenset({"triangle", "clique"})

    def collect(self, result, spec):
        oracle = oracle_for(result.network)
        failures: List[CheckFailure] = []
        for v, node in result.nodes.items():
            expected = oracle.triangles_containing(v)
            actual = node.known_triangles()
            if actual != expected and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "known_triangles",
                        node=v,
                        expected=_shorten(expected),
                        actual=_shorten(actual),
                    )
                )
        return {"triangle_matches_oracle": 1.0 if not failures else 0.0}, failures

    def coverage_cell(self):
        return {
            "algorithm": "triangle",
            "adversary": "churn",
            "n": 10,
            "rounds": 30,
            "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
        }


class CliqueOracleCheck(Check):
    name = "clique_oracle"
    description = "every node's k-clique list equals the centralized ground truth"
    algorithms = frozenset({"clique"})

    def collect(self, result, spec):
        oracle = oracle_for(result.network)
        k = 3
        if spec is not None:
            # Mirror the planted_clique builder's default (k=4) so a spec
            # omitting k is graded against the clique size actually planted.
            default_k = 4 if spec.adversary == "planted_clique" else 3
            k = int(spec.adversary_params.get("k", default_k))
        failures: List[CheckFailure] = []
        for v, node in result.nodes.items():
            expected = oracle.cliques_containing(v, k)
            actual = node.known_cliques(k)
            if actual != expected and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        f"known_cliques(k={k})",
                        node=v,
                        expected=_shorten(expected),
                        actual=_shorten(actual),
                    )
                )
        return {"clique_matches_oracle": 1.0 if not failures else 0.0}, failures

    def coverage_cell(self):
        return {
            "algorithm": "clique",
            "adversary": "planted_clique",
            "n": 12,
            "adversary_params": {"k": 3, "num_plants": 2, "noise_edges_per_round": 1},
        }


class CycleCoverCheck(Check):
    name = "cycle_cover"
    description = "every k-cycle of the final graph is listed by at least one member"
    algorithms = frozenset({"cycles"})

    def collect(self, result, spec):
        k = 4
        if spec is not None:
            k = int(spec.adversary_params.get("k", 4))
        network = result.network
        cycles = oracle_for(network).cycles_of_length(k)
        failures: List[CheckFailure] = []
        listed = 0
        for cycle in sorted(cycles, key=sorted):
            if any(
                result.nodes[v].is_consistent() and result.nodes[v].knows_cycle_set(cycle)
                for v in cycle
            ):
                listed += 1
            elif len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        f"cycle_listing(k={k})",
                        expected=f"some member of {sorted(cycle)} lists the cycle",
                        actual="no consistent member does",
                    )
                )
        cover = listed / len(cycles) if cycles else 1.0
        return (
            {"cycle_cover": cover, "cycles_in_final_graph": float(len(cycles))},
            failures,
        )

    def coverage_cell(self):
        return {
            "algorithm": "cycles",
            "adversary": "planted_cycle",
            "n": 10,
            "seed": 1,
            "adversary_params": {"k": 4, "num_plants": 2, "teardown": False},
        }


class MembershipOracleCheck(Check):
    """Three-valued membership answers against the ground truth.

    For every node ``v`` and every true triangle through ``v``, the
    membership query must answer TRUE; for the (deterministically sampled)
    neighbor pairs of ``v`` that do *not* close a triangle, it must answer
    FALSE.  Applies to any algorithm answering
    :class:`~repro.core.queries.TriangleQuery` (the membership cast of
    Theorem 1 / Corollary 1 / Lemma 1).
    """

    name = "membership_oracle"
    description = "TriangleQuery membership answers match the centralized oracle"
    algorithms = frozenset({"triangle", "clique", "twohop"})
    #: How many non-occurrences to sample per node.
    negative_samples = 4

    def collect(self, result, spec):
        network = result.network
        oracle = oracle_for(network)
        failures: List[CheckFailure] = []
        queries = 0
        for v, node in result.nodes.items():
            if not node.is_consistent():
                continue
            truth = oracle.triangles_containing(v)
            for tri in sorted(truth, key=sorted):
                queries += 1
                answer = node.query(TriangleQuery(tri))
                if answer is not QueryResult.TRUE and len(failures) < MAX_FAILURES:
                    failures.append(
                        self._failure(
                            "membership_true",
                            node=v,
                            expected=f"TRUE for triangle {sorted(tri)}",
                            actual=answer.value,
                        )
                    )
            neighbors = sorted(
                u for u in range(network.n) if u != v and network.has_edge(v, u)
            )
            sampled = 0
            for a, b in combinations(neighbors, 2):
                if sampled >= self.negative_samples:
                    break
                if frozenset({v, a, b}) in truth:
                    continue
                sampled += 1
                queries += 1
                answer = node.query(TriangleQuery({v, a, b}))
                if answer is not QueryResult.FALSE and len(failures) < MAX_FAILURES:
                    failures.append(
                        self._failure(
                            "membership_false",
                            node=v,
                            expected=f"FALSE for non-triangle {sorted({v, a, b})}",
                            actual=answer.value,
                        )
                    )
        return (
            {
                "membership_matches_oracle": 1.0 if not failures else 0.0,
                "membership_queries": float(queries),
            },
            failures,
        )

    def coverage_cell(self):
        return {
            "algorithm": "clique",
            "adversary": "churn",
            "n": 10,
            "rounds": 25,
            "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
        }


class TriangleRecallCheck(Check):
    """Membership recall and precision vs the oracle (used by the ablation study).

    Recall (``triangle_recall``) may legitimately be below 1 for ablated
    structures; *precision* violations -- a consistent node believing in a
    triangle that does not exist -- are reported as failures.
    """

    name = "triangle_recall"
    description = "fraction of true triangles each node knows (ablation metric)"
    algorithms = frozenset({"triangle", "clique", "triangle_nohints"})

    def collect(self, result, spec):
        oracle = oracle_for(result.network)
        expected = 0
        found = 0
        failures: List[CheckFailure] = []
        for v, node in result.nodes.items():
            truth = oracle.triangles_containing(v)
            known = node.known_triangles()
            expected += len(truth)
            found += len(truth & known)
            if node.is_consistent():
                for ghost in sorted(known - truth, key=sorted):
                    if len(failures) < MAX_FAILURES:
                        failures.append(
                            self._failure(
                                "known_triangles_precision",
                                node=v,
                                expected=f"no belief in nonexistent {sorted(ghost)}",
                                actual="believed",
                            )
                        )
        recall = (found / expected) if expected else 1.0
        return (
            {
                "triangle_recall": recall,
                "triangle_recall_found": float(found),
                "triangle_recall_expected": float(expected),
            },
            failures,
        )

    def coverage_cell(self):
        return {
            "algorithm": "triangle",
            "adversary": "churn",
            "n": 10,
            "rounds": 25,
            "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
        }


class NoGhostTrianglesCheck(Check):
    """Per-round soundness: consistent nodes never invent triangles.

    This is the mid-run discipline of Theorem 1 (TRUE answers from consistent
    nodes are always real), enforced after *every* round via the round hook
    rather than only on the drained final state.

    The hook is activity-proportional: a node's ghost set can only change
    when its own state changed (it was in the engine's active set) or when
    the truth of its claimed triangles changed.  For the normal case -- a
    claimed triangle *containing* the claimer -- all three edges lie within
    one hop of it, so the 1-hop dirty ball of this round's changes (read off
    the session oracle) covers every truth flip; everybody else's verdict
    from the previous round is carried forward in the session state, and a
    quiet round costs O(1) instead of O(n).  Claims on triangles *not*
    containing the claimer (only a buggy algorithm produces them) can be
    broken by a change anywhere, so they are tracked separately and
    re-evaluated every round -- the map is normally empty.  The reported
    failure list is rebuilt in sorted node order, making it identical
    whether or not the engine reported activity, and the ghost predicate is
    the same edge-existence test :meth:`collect` uses on the final state.
    """

    name = "no_ghost_triangles"
    description = "consistent nodes never list a triangle absent from the true graph"
    algorithms = frozenset({"triangle", "clique"})
    requires_drain = False
    has_round_hook = True

    def _ghosts(self, network, nodes) -> List[Tuple[int, frozenset]]:
        out = []
        for v, node in nodes.items():
            if not node.is_consistent():
                continue
            for tri in node.known_triangles():
                a, b, c = sorted(tri)
                if not (
                    network.has_edge(a, b)
                    and network.has_edge(a, c)
                    and network.has_edge(b, c)
                ):
                    out.append((v, tri))
        return out

    def check_round(self, round_index, network, nodes, spec, oracle=None, state=None):
        if state is None:
            state = {}
        near_ghosts: Dict[int, List[frozenset]] = state.setdefault("near_ghosts", {})
        far_claims: Dict[int, List[frozenset]] = state.setdefault("far_claims", {})
        active = getattr(nodes, "active_ids", None)
        if oracle is None or active is None:
            candidates = list(nodes)
        else:
            candidates = set(active) | oracle.last_changed_ball(1)

        def is_real(tri) -> bool:
            if oracle is not None:
                return oracle.is_triangle(tri)
            a, b, c = sorted(tri)
            return (
                network.has_edge(a, b)
                and network.has_edge(a, c)
                and network.has_edge(b, c)
            )

        for v in candidates:
            node = nodes[v]
            near: List[frozenset] = []
            far: List[frozenset] = []
            if node.is_consistent():
                for tri in node.known_triangles():
                    if v in tri:
                        if not is_real(tri):
                            near.append(tri)
                    else:
                        far.append(tri)
            if near:
                near_ghosts[v] = sorted(near, key=sorted)
            else:
                near_ghosts.pop(v, None)
            if far:
                far_claims[v] = sorted(far, key=sorted)
            else:
                far_claims.pop(v, None)

        ghost_map: Dict[int, List[frozenset]] = dict(near_ghosts)
        for v, tris in far_claims.items():
            broken = [tri for tri in tris if not is_real(tri)]
            if broken:
                ghost_map[v] = sorted(ghost_map.get(v, []) + broken, key=sorted)
        return [
            self._failure(
                "known_triangles",
                round_index=round_index,
                node=v,
                expected=f"no belief in nonexistent {sorted(tri)}",
                actual="believed while consistent",
            )
            for v in sorted(ghost_map)
            for tri in ghost_map[v]
        ]

    def collect(self, result, spec):
        ghosts = self._ghosts(result.network, result.nodes)
        failures = [
            self._failure(
                "known_triangles",
                node=v,
                expected=f"no belief in nonexistent {sorted(tri)}",
                actual="believed while consistent",
            )
            for v, tri in ghosts[:MAX_FAILURES]
        ]
        return {"ghost_triangles": float(len(ghosts))}, failures

    def coverage_cell(self):
        return {
            "algorithm": "triangle",
            "adversary": "churn",
            "n": 10,
            "rounds": 25,
            "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
        }


# --------------------------------------------------------------------- #
# The Section 1.3 flickering-triangle verdict
# --------------------------------------------------------------------- #
class FlickerGhostCheck(Check):
    """The Section 1.3 verdict: does node ``v`` still believe the deleted far edge?

    The triangle geometry (``v``, ``u``, ``w``) is read from the spec's
    ``adversary_params``, so relocated gadgets are graded at their actual
    nodes; without a spec the default geometry (``v=0``, far edge ``{1, 2}``)
    is assumed.  A run whose final graph does not carry the gadget's signature
    (edges ``{v,u}`` and ``{v,w}`` present, ``{u,w}`` deleted) is reported as
    a structured geometry failure rather than grading the wrong node.
    """

    name = "flicker_ghost"
    description = "whether node v still believes the deleted far edge of the flicker gadget"
    algorithms = frozenset(
        {"naive", "robust2hop", "triangle", "clique", "robust3hop", "twohop", "cycles"}
    )
    adversaries = frozenset({"flicker"})

    def collect(self, result, spec):
        v, u, w = 0, 1, 2
        if spec is not None:
            params = spec.adversary_params
            v = int(params.get("v", 0))
            u = int(params.get("u", 1))
            w = int(params.get("w", 2))
        network = result.network
        failures: List[CheckFailure] = []
        if not (network.has_edge(v, u) and network.has_edge(v, w)) or network.has_edge(u, w):
            failures.append(
                self._failure(
                    "geometry",
                    expected=(
                        f"flicker gadget signature: edges {{{v},{u}}} and {{{v},{w}}} "
                        f"present, {{{u},{w}}} deleted"
                    ),
                    actual=f"final graph edges {_shorten(network.edges)}",
                )
            )
            return {"believes_deleted_edge": 0.0, "node_v_consistent": 0.0}, failures
        node_v = result.nodes[v]
        if not node_v.is_consistent():
            failures.append(
                self._failure(
                    "node_v_consistent",
                    node=v,
                    expected="consistent after the settle rounds",
                    actual="inconsistent",
                )
            )
        return (
            {
                "believes_deleted_edge": 1.0 if node_v.knows_edge(u, w) else 0.0,
                "node_v_consistent": 1.0 if node_v.is_consistent() else 0.0,
            },
            failures,
        )

    def coverage_cell(self):
        return {"algorithm": "robust2hop", "adversary": "flicker", "n": 9}


# --------------------------------------------------------------------- #
# Structural validations of the lower-bound constructions (E8 / E9)
# --------------------------------------------------------------------- #
def first_divergent_round(rounds_a: Sequence, rounds_b: Sequence) -> int:
    """1-based index of the first differing entry of two per-round sequences.

    When one sequence is a strict prefix of the other, the first round past
    the shorter one is reported.  Shared by the trace-grading checks and the
    differential harness so divergence and check-failure reports agree on
    round numbering.
    """
    return next(
        (i + 1 for i, (a, b) in enumerate(zip(rounds_a, rounds_b)) if a != b),
        min(len(rounds_a), len(rounds_b)) + 1,
    )


def _trace_divergence(check: Check, recorded, replayed: TopologyTrace) -> List[CheckFailure]:
    """Grade a recorded trace against the independently replayed schedule.

    Returns one ``trace`` failure naming the first divergent round when the
    engine's recorded schedule does not match the construction's, and nothing
    when they agree (or no trace was recorded).
    """
    if recorded is None or recorded.rounds == replayed.rounds:
        return []
    return [
        check._failure(
            "trace",
            round_index=first_divergent_round(recorded.rounds, replayed.rounds),
            expected="the construction's deterministic schedule",
            actual="the recorded trace diverges",
        )
    ]


def _drive_structural(adversary, n: int):
    """Drive an adversary standalone over a bare network, one round at a time.

    Mirrors a run under the null workload algorithm (always consistent), which
    is how the lower-bound constructions are executed in campaigns: yields
    ``(changes, network)`` after applying each round's batch.
    """
    network = DynamicNetwork(n)
    while not adversary.is_done:
        view = AdversaryView.from_network(network, network.round_index + 1, True)
        changes = adversary.changes_for_round(view)
        if changes is None:
            break
        network.apply_changes(network.round_index + 1, changes)
        yield changes, network


class Theorem4VisitsCheck(Check):
    """Structural validation of the Figure 4 construction (experiment E8).

    Re-drives the (deterministic) adversary, sampling the number of k-cycles
    each component visit creates through shared leaves; the proof's pigeonhole
    argument requires at least ``D/3`` per visit.  When the result carries a
    recorded trace, the re-driven schedule is compared against it, so a cell
    whose engine run diverged from the construction is reported too.
    """

    name = "theorem4_visits"
    description = "each Figure 4 component visit creates >= D/3 k-cycles"
    algorithms = frozenset({"null"})
    adversaries = frozenset({"theorem4"})
    requires_drain = False
    #: Sample at most this many visits (matching the E8 harness).
    max_samples = 6

    def _build(self, spec):
        params = dict(spec.adversary_params)
        k = int(params.pop("k", 6))
        return CycleLowerBoundAdversary(spec.n, k, seed=spec.seed, **params)

    def collect(self, result, spec):
        if spec is None:
            raise ValueError(f"{self.name} needs the experiment spec to rebuild the adversary")
        adversary = self._build(spec)
        replayed = TopologyTrace(n=spec.n)
        visit_cycle_counts: List[int] = []
        bridged = False
        for changes, network in _drive_structural(adversary, spec.n):
            replayed.append(changes)
            if (
                changes.insertions
                and adversary.connection_events
                and len(changes.insertions) <= 2
            ):
                bridged = True
            elif bridged and changes.deletions:
                bridged = False
            if bridged and len(visit_cycle_counts) < self.max_samples:
                visit_cycle_counts.append(len(cycles_of_length(network.edges, adversary.k)))
                bridged = False
        failures = self._grade(result, replayed, visit_cycle_counts, adversary)
        required = adversary.D // 3
        return (
            {
                "theorem4_components": float(adversary.t),
                "theorem4_D": float(adversary.D),
                "theorem4_attached": float(adversary.attached_count),
                "theorem4_min_cycles_per_visit": float(
                    min(visit_cycle_counts) if visit_cycle_counts else 0
                ),
                "theorem4_required_cycles": float(required),
                "theorem4_visits_sampled": float(len(visit_cycle_counts)),
            },
            failures,
        )

    def _grade(self, result, replayed, per_visit, adversary) -> List[CheckFailure]:
        failures: List[CheckFailure] = []
        required = adversary.D // 3
        if not per_visit:
            failures.append(
                self._failure(
                    "visits_sampled",
                    expected="at least one sampled component visit",
                    actual="none",
                )
            )
        for i, count in enumerate(per_visit):
            if count < required and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "cycles_per_visit",
                        round_index=None,
                        expected=f">= D/3 = {required} (visit {i})",
                        actual=str(count),
                    )
                )
        failures.extend(_trace_divergence(self, result.trace, replayed))
        return failures

    def coverage_cell(self):
        return {
            "algorithm": "null",
            "adversary": "theorem4",
            "n": 81,
            "adversary_params": {"k": 6, "num_components": 2},
        }


class ThreePathVisitsCheck(Check):
    """Structural validation of the Remark 1 construction (experiment E9)."""

    name = "threepath_visits"
    description = "each Remark 1 hub visit creates >= D/3 three-paths"
    algorithms = frozenset({"null"})
    adversaries = frozenset({"threepath"})
    requires_drain = False
    max_samples = 6

    def collect(self, result, spec):
        if spec is None:
            raise ValueError(f"{self.name} needs the experiment spec to rebuild the adversary")
        adversary = ThreePathLowerBoundAdversary(
            spec.n, seed=spec.seed, **dict(spec.adversary_params)
        )
        replayed = TopologyTrace(n=spec.n)
        per_visit: List[int] = []
        for changes, network in _drive_structural(adversary, spec.n):
            replayed.append(changes)
            if (
                changes.insertions
                and adversary.connection_events
                and len(per_visit) < self.max_samples
            ):
                ell, m = adversary.connection_events[len(per_visit)]
                per_visit.append(len(adversary.shared_leaf_indices(ell, m)))
        failures: List[CheckFailure] = []
        required = adversary.D // 3
        if not per_visit:
            failures.append(
                self._failure(
                    "visits_sampled",
                    expected="at least one sampled hub visit",
                    actual="none",
                )
            )
        for i, count in enumerate(per_visit):
            if count < required and len(failures) < MAX_FAILURES:
                failures.append(
                    self._failure(
                        "threepaths_per_visit",
                        expected=f">= D/3 = {required} (visit {i})",
                        actual=str(count),
                    )
                )
        failures.extend(_trace_divergence(self, result.trace, replayed))
        return (
            {
                "threepath_components": float(adversary.t),
                "threepath_D": float(adversary.D),
                "threepath_attached": float(adversary.attached_count),
                "threepath_min_per_visit": float(min(per_visit) if per_visit else 0),
                "threepath_required": float(required),
                "threepath_visits_sampled": float(len(per_visit)),
            },
            failures,
        )

    def coverage_cell(self):
        # n = 49 gives D = 6 leaves per hub, the smallest D whose floor(2D/3)
        # attachment still pigeonholes a D/3 overlap between two hubs.
        return {
            "algorithm": "null",
            "adversary": "threepath",
            "n": 49,
            "adversary_params": {"num_components": 2},
        }


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
CHECKS: Dict[str, Check] = {
    check.name: check
    for check in (
        AllConsistentCheck(),
        CoverageCheck(),
        TriangleOracleCheck(),
        CliqueOracleCheck(),
        RobustTwoHopOracleCheck(),
        RobustThreeHopOracleCheck(),
        TwoHopOracleCheck(),
        CycleCoverCheck(),
        MembershipOracleCheck(),
        TriangleRecallCheck(),
        NoGhostTrianglesCheck(),
        FlickerGhostCheck(),
        Theorem4VisitsCheck(),
        ThreePathVisitsCheck(),
    )
}


def register_check(name: str, check: Check) -> None:
    """Register an extra :class:`Check` instance under ``name``."""
    if not isinstance(check, Check):
        raise TypeError(f"register_check expects a Check instance, got {type(check).__name__}")
    if not check.name:
        check.name = name
    CHECKS[name] = check


def applicable_checks(spec: Any) -> List[str]:
    """Names of every registered check that can run on ``spec``, sorted."""
    return sorted(name for name, check in CHECKS.items() if check.applies_to(spec))
