"""The core serving monitor: one data structure over an externally-driven graph.

This is the middle layer of the serving subsystem (:mod:`repro.serve`).  It
owns a :class:`~repro.simulator.rounds.RoundEngine` running one of the
paper's data structures on every node of a
:class:`~repro.simulator.network.DynamicNetwork`, advances it one round per
ingested batch, and answers local queries through one path,
:meth:`ServingMonitor.answer`, which returns one of three shared
:class:`MonitorAnswer` values (definite true/false or "still propagating");
the typed helpers (``knows_edge``, ``is_triangle``, ...) build a query
object and call it.

It deliberately knows nothing about *where* batches come from (that is the
ingestion layer, :mod:`repro.serve.ingest`) or *who* is asking (standing
queries live in :mod:`repro.serve.subscriptions`); an application that
simply *has* a dynamic graph uses this class directly::

    monitor = ServingMonitor(n=50, structure="clique")
    monitor.update(insert=[(0, 1), (1, 2), (0, 2)])
    monitor.settle()                      # let announcements propagate
    monitor.is_triangle(0, 1, 2)          # MonitorAnswer(value=True, definite=True)

The monitor rides either scheduling policy -- ``"dense"`` or ``"sparse"``
(default) -- and produces bit-identical answers, metrics and state
fingerprints under both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from ..core import (
    CliqueMembershipNode,
    CliqueQuery,
    CycleListingNode,
    CycleQuery,
    EdgeQuery,
    QueryResult,
    RobustThreeHopNode,
    RobustTwoHopNode,
    TriangleMembershipNode,
    TriangleQuery,
    TwoHopListingNode,
)
from ..obs.telemetry import TELEMETRY
from ..simulator import (
    BandwidthPolicy,
    DynamicNetwork,
    MetricsCollector,
    NodeAlgorithm,
    RoundChanges,
    RoundRecord,
    create_engine,
)

__all__ = ["MonitorAnswer", "ServingMonitor", "STRUCTURES"]

#: The data structures the monitor can run, keyed by a short name.
STRUCTURES = {
    "robust2hop": RobustTwoHopNode,
    "triangle": TriangleMembershipNode,
    "clique": CliqueMembershipNode,
    "robust3hop": RobustThreeHopNode,
    "cycles": CycleListingNode,
    "twohop": TwoHopListingNode,
}


@dataclass(frozen=True)
class MonitorAnswer:
    """Answer of a monitor query.

    A query has three possible answers, and the monitor returns one of three
    shared instances for them (:meth:`from_result`,
    :meth:`ServingMonitor.list_cycle`), so answering builds no answer object
    and two answers can be compared by identity before equality.  An instance
    built directly still compares equal to the shared one of its value.

    Attributes:
        value: the Boolean answer, or ``None`` while the node is inconsistent.
        definite: whether the answer is usable right now.  ``False`` means the
            queried node's data structure is still processing topology changes
            (call :meth:`ServingMonitor.settle` or keep updating and ask
            again later).
    """

    value: Optional[bool]
    definite: bool

    @classmethod
    def from_result(cls, result: QueryResult) -> "MonitorAnswer":
        """The shared answer for ``result``.

        Picked by identity against module-level aliases of the members, which
        is cheaper than an enum-keyed dict (whose ``__hash__`` runs Python
        code) or a ``QueryResult.TRUE`` lookup on the enum class.
        """
        if result is _RESULT_TRUE:
            return _TRUE
        if result is _RESULT_INCONSISTENT:
            return _INDEFINITE
        return _FALSE

    def __bool__(self) -> bool:
        return bool(self.value)


_RESULT_TRUE = QueryResult.TRUE
_RESULT_INCONSISTENT = QueryResult.INCONSISTENT
_TRUE = MonitorAnswer(value=True, definite=True)
_FALSE = MonitorAnswer(value=False, definite=True)
_INDEFINITE = MonitorAnswer(value=None, definite=False)


class ServingMonitor:
    """Maintain one of the paper's data structures over an externally-driven graph.

    Args:
        n: number of nodes (fixed, as in the model).
        structure: which data structure every node runs -- one of
            ``"robust2hop"``, ``"triangle"``, ``"clique"`` (default),
            ``"robust3hop"``, ``"cycles"``, ``"twohop"`` -- or any
            :class:`~repro.simulator.node.NodeAlgorithm` factory.
        bandwidth_factor: per-link budget multiplier (``factor * ceil(log2 n)``
            bits per round).
        strict_bandwidth: raise if a message exceeds the budget (default).
        engine_mode: ``"sparse"`` (default, activity-proportional rounds) or
            ``"dense"`` (reference scheduler); identical results under both.
    """

    def __init__(
        self,
        n: int,
        structure: str | type = "clique",
        *,
        bandwidth_factor: int = 8,
        strict_bandwidth: bool = True,
        engine_mode: str = "sparse",
    ) -> None:
        if isinstance(structure, str):
            try:
                factory = STRUCTURES[structure]
            except KeyError as exc:
                raise ValueError(
                    f"unknown structure {structure!r}; choose from {sorted(STRUCTURES)}"
                ) from exc
        else:
            factory = structure
        self.n = n
        self.structure_name = structure if isinstance(structure, str) else factory.__name__
        self.network = DynamicNetwork(n)
        self.nodes: Dict[int, NodeAlgorithm] = {v: factory(v, n) for v in range(n)}
        self.engine = create_engine(
            engine_mode,
            self.network,
            self.nodes,
            BandwidthPolicy(factor=bandwidth_factor, strict=strict_bandwidth),
            MetricsCollector(),
        )
        self.engine_mode = engine_mode

    # ------------------------------------------------------------------ #
    # Driving the graph
    # ------------------------------------------------------------------ #
    def ingest(self, changes: RoundChanges) -> RoundRecord:
        """Apply one canonical batch and run that communication round.

        This is the serving-layer entry point: the ingestion layer hands the
        monitor one :class:`RoundChanges` batch per round (an empty batch is a
        quiet round that lets earlier changes propagate).
        """
        with TELEMETRY.span("monitor.update"):
            return self.engine.execute_round(changes)

    def update(
        self,
        insert: Iterable[Tuple[int, int]] = (),
        delete: Iterable[Tuple[int, int]] = (),
    ) -> None:
        """Apply one round's edge changes and run that communication round.

        An empty update is allowed and simply gives the structures one more
        round to propagate earlier changes.
        """
        self.ingest(RoundChanges.of(insert=insert, delete=delete))

    def tick(self) -> None:
        """Run one quiet round (no topology changes)."""
        with TELEMETRY.span("monitor.tick"):
            self.engine.execute_quiet_round()

    def settle(self, max_rounds: int = 10_000) -> int:
        """Run quiet rounds until every node is consistent; returns how many were needed."""
        with TELEMETRY.span("monitor.settle"):
            return self.engine.run_until_quiet(max_rounds=max_rounds)

    # ------------------------------------------------------------------ #
    # Graph introspection
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The current ground-truth edge set."""
        return self.network.edges

    def has_edge(self, u: int, w: int) -> bool:
        return self.network.has_edge(u, w)

    @property
    def round_index(self) -> int:
        """Index of the last executed round (0 before the first)."""
        return self.network.round_index

    @property
    def all_consistent(self) -> bool:
        """Whether every node could answer queries definitively right now."""
        return self.engine.all_consistent if self.engine.metrics.rounds else True

    @property
    def amortized_round_complexity(self) -> float:
        """The paper's complexity measure accumulated so far."""
        return self.engine.metrics.amortized_round_complexity()

    def metrics_summary(self) -> Dict[str, float]:
        """All accounting metrics (rounds, changes, bits, ...)."""
        return self.engine.metrics.summary()

    def state_fingerprint(self) -> str:
        """One stable digest over every node's full local state.

        Equal across engine modes for the same update stream (the serving
        differential gates rely on this), and cheap enough to include in
        service reports.
        """
        payload = repr([(v, self.nodes[v].state_fingerprint()) for v in range(self.n)])
        return hashlib.sha1(payload.encode()).hexdigest()

    # ------------------------------------------------------------------ #
    # Queries (all answered by the queried node's local state only)
    # ------------------------------------------------------------------ #
    def answer(self, node: int, query) -> MonitorAnswer:
        """Ask ``node`` one query object (:class:`~repro.core.EdgeQuery`,
        :class:`~repro.core.TriangleQuery`, ...) and wrap its local answer.

        The one query path: the helpers below build their query object per
        call, standing subscriptions build theirs once at registration.  The
        node is looked up on every call.  Returns one of the three shared
        :class:`MonitorAnswer` values.
        """
        # Per-query answer latency is the monitoring-service SLO quantity
        # (p50/p95/p99 in the telemetry report), so it gets its own histogram
        # rather than just a span.
        if not TELEMETRY.enabled:
            return MonitorAnswer.from_result(self.nodes[node].query(query))
        start = perf_counter()
        answer = MonitorAnswer.from_result(self.nodes[node].query(query))
        TELEMETRY.observe("monitor.query_latency_s", perf_counter() - start)
        TELEMETRY.count(
            "monitor.queries_definite" if answer.definite else "monitor.queries_indefinite"
        )
        return answer

    def knows_edge(self, node: int, u: int, w: int) -> MonitorAnswer:
        """Does ``node`` currently know the edge ``{u, w}`` (robust-neighborhood query)?"""
        return self.answer(node, EdgeQuery(u, w))

    def is_triangle(self, a: int, b: int, c: int, *, ask: Optional[int] = None) -> MonitorAnswer:
        """Is ``{a, b, c}`` a triangle?  Asked at ``ask`` (default: ``a``)."""
        node = a if ask is None else ask
        return self.answer(node, TriangleQuery({a, b, c}))

    def is_clique(self, members: Iterable[int], *, ask: Optional[int] = None) -> MonitorAnswer:
        """Is ``members`` a clique?  Asked at ``ask`` (default: the smallest member)."""
        members = frozenset(members)
        node = min(members) if ask is None else ask
        return self.answer(node, CliqueQuery(members))

    def is_cycle(self, ordering: Sequence[int], *, ask: Optional[int] = None) -> MonitorAnswer:
        """Is the cyclically ordered ``ordering`` a cycle?  Asked at ``ask`` (default: first)."""
        node = ordering[0] if ask is None else ask
        return self.answer(node, CycleQuery(tuple(ordering)))

    def list_cycle(self, members: Iterable[int]) -> MonitorAnswer:
        """Collective 4/5-cycle listing query: ask *every* member.

        Mirrors the paper's listing guarantee: returns a definite TRUE if some
        consistent member recognises the node set as a cycle, a definite FALSE
        if all members are consistent and none does, and an indefinite answer
        if any member is still inconsistent (and none says TRUE).
        """
        members = frozenset(members)
        any_inconsistent = False
        for v in sorted(members):
            node = self.nodes[v]
            if not hasattr(node, "knows_cycle_set"):
                raise TypeError(
                    f"the {self.structure_name!r} structure does not answer "
                    "collective cycle-listing queries"
                )
            if not node.is_consistent():
                any_inconsistent = True
                continue
            if node.knows_cycle_set(members):
                return _TRUE
        return _INDEFINITE if any_inconsistent else _FALSE

    # ------------------------------------------------------------------ #
    # Enumeration helpers (local state of one node)
    # ------------------------------------------------------------------ #
    def triangles_of(self, node: int) -> Set[FrozenSet[int]]:
        """All triangles through ``node`` according to its local state."""
        algo = self.nodes[node]
        if not hasattr(algo, "known_triangles"):
            raise TypeError(
                f"the {self.structure_name!r} structure does not enumerate triangles"
            )
        return algo.known_triangles()

    def cliques_of(self, node: int, k: int) -> Set[FrozenSet[int]]:
        """All k-cliques through ``node`` according to its local state."""
        algo = self.nodes[node]
        if not hasattr(algo, "known_cliques"):
            raise TypeError(
                f"the {self.structure_name!r} structure does not enumerate cliques"
            )
        return algo.known_cliques(k)

    def cycles_of(self, node: int, k: int) -> Set[FrozenSet[int]]:
        """All k-cycles (k in {4, 5}) visible from ``node``'s local state."""
        algo = self.nodes[node]
        if not hasattr(algo, "known_cycles"):
            raise TypeError(
                f"the {self.structure_name!r} structure does not enumerate cycles"
            )
        return algo.known_cycles(k)

    def is_node_consistent(self, node: int) -> bool:
        """Whether ``node`` could answer queries definitively right now."""
        return self.nodes[node].is_consistent()
