"""A centralized observer of the evolving graph, used as ground truth.

Two oracle implementations share one query surface, and both answer for the
latest observed round only:

* :class:`GroundTruthOracle` -- the **incremental** oracle (the default
  everywhere).  It watches a
  :class:`~repro.simulator.network.DynamicNetwork` round by round and pays
  per *change*, mirroring the algorithms it checks: a live adjacency and
  insertion-time map are maintained under edge updates, and query answers
  are cached, with an edge change only invalidating the cached answers of
  nodes within r hops of its endpoints (the *dirty region*).  Quiet rounds
  -- no changes since the last observation -- cost O(1) to observe.  It
  keeps no history, so its memory is O(|E|) plus the cache however long
  the run.

* :class:`NaiveGroundTruthOracle` -- the deliberately centralized and slow
  reference: a copy of the latest edge set and insertion times, and a
  from-scratch computation per query.  The incremental oracle is
  differentially tested (and benchmarked,
  ``benchmarks/bench_oracle_scaling.py``) against it.

Both answer, for the latest observed round ``i``:

* which edges / subgraphs exist in ``G_i``,
* the full r-hop neighborhood ``E^{v,r}_i`` of any node,
* the robust sets ``R^{v,2}_i``, ``T^{v,2}_i``, ``R^{v,3}_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from ..obs.telemetry import SIZE_BUCKETS, TELEMETRY
from ..simulator.events import Edge
from ..simulator.network import DynamicNetwork
from . import robust_sets, subgraphs

__all__ = ["RoundDelta", "RoundSnapshot", "GroundTruthOracle", "NaiveGroundTruthOracle"]

#: Maximum tracked dirty-region radius.  Covers every shipped query (the
#: deepest is ``R^{v,3}``, which depends on edges within 2 hops, and
#: ``E^{v,r}`` up to radius 4); rarer deeper queries fall back to a global
#: invalidation stamp.
R_MAX = 3


@dataclass(frozen=True)
class RoundSnapshot:
    """The graph as it was at the end of one observed round."""

    round_index: int
    edges: FrozenSet[Edge]
    insertion_times: Mapping[Edge, int]


@dataclass(frozen=True)
class RoundDelta:
    """The graph changes one observation applied.

    Attributes:
        round_index: the round whose end-state the delta leads to.
        inserted: ``(edge, insertion_time)`` pairs; an edge that was deleted
            and re-inserted since the previous observation appears here with
            its *new* time (deletions apply first, then insertions).
        deleted: edges removed since the previous observation.
    """

    round_index: int
    inserted: Tuple[Tuple[Edge, int], ...]
    deleted: Tuple[Edge, ...]

    @property
    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    def touched_nodes(self) -> Set[int]:
        """All endpoints of the edges this delta changes."""
        nodes: Set[int] = set()
        for edge, _ in self.inserted:
            nodes.update(edge)
        for edge in self.deleted:
            nodes.update(edge)
        return nodes


class GroundTruthOracle:
    """Incremental ground-truth oracle for the latest observed round.

    Observation cost is proportional to the number of changes since the last
    observation (O(1) when nothing changed); queries are served from a cache
    invalidated only inside the dirty region of the changes.

    Args:
        n: number of nodes of the observed network.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._live_edges: Set[Edge] = set()
        self._live_times: Dict[Edge, int] = {}
        self._live_adj: Dict[int, Set[int]] = {}
        self._latest_round = 0
        #: The most recent round whose observation changed the graph.
        self._last_changed_round = 0
        #: ``network.total_changes`` at the last observation (continuity check).
        self._observed_changes = 0
        #: Bumped once per non-empty delta; cache entries remember the version
        #: they were computed at.
        self._version = 0
        self._global_dirty_version = 0
        #: node -> last version with a change within distance d, per d <= R_MAX.
        self._dirty: Dict[int, List[int]] = {}
        #: (kind, node, ...) -> (answer, version computed at).
        self._cache: Dict[tuple, tuple] = {}
        #: node -> distance to the most recent non-empty delta's endpoints.
        self._last_ball: Dict[int, int] = {}

    @classmethod
    def from_network(cls, network: DynamicNetwork) -> "GroundTruthOracle":
        """An oracle primed with the network's current state (one observation)."""
        oracle = cls(network.n)
        oracle.observe(network)
        return oracle

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe(self, network: DynamicNetwork) -> RoundDelta:
        """Record the network's current state; returns the applied delta.

        The cost is proportional to the changes since the previous
        observation: when the network reports no new changes the call is
        O(1), and when exactly one round's batch happened in between (the
        per-round validator case) the delta is read straight off
        :attr:`~repro.simulator.network.DynamicNetwork.last_changes`.  Only
        when observations skipped changed rounds does the oracle fall back to
        a full O(|E|) diff against its live state.
        """
        round_index = network.round_index
        if round_index < self._latest_round:
            raise ValueError(
                f"cannot observe round {round_index} after round {self._latest_round}"
            )
        delta = self._delta_from(network, round_index)
        if not delta.is_empty:
            if round_index == self._last_changed_round:
                raise ValueError(f"round {round_index} was already observed with changes")
            self._last_changed_round = round_index
        self._apply_delta(delta)
        self._observed_changes = network.total_changes
        self._latest_round = round_index
        return delta

    def _delta_from(self, network: DynamicNetwork, round_index: int) -> RoundDelta:
        changes_since = network.total_changes - self._observed_changes
        if changes_since == 0:
            return RoundDelta(round_index, (), ())
        last = network.last_changes
        if (
            last is not None
            and network.last_changes_round == round_index
            and changes_since == len(last)
        ):
            return RoundDelta(
                round_index,
                tuple((edge, round_index) for edge in last.insertions),
                tuple(last.deletions),
            )
        # Observations skipped at least one changed round: diff the full state.
        new_edges = network.edges
        new_times = network.insertion_times()
        inserted = tuple(
            (edge, t)
            for edge, t in sorted(new_times.items())
            if self._live_times.get(edge) != t
        )
        deleted = tuple(sorted(e for e in self._live_edges if e not in new_edges))
        return RoundDelta(round_index, inserted, deleted)

    def _apply_delta(self, delta: RoundDelta) -> None:
        if delta.is_empty:
            self._last_ball = {}
            return
        sources = delta.touched_nodes()
        ball = self._ball_distances(sources)
        adj = self._live_adj
        for edge in delta.deleted:
            a, b = edge
            self._live_edges.discard(edge)
            self._live_times.pop(edge, None)
            adj.get(a, set()).discard(b)
            adj.get(b, set()).discard(a)
        for edge, t in delta.inserted:
            a, b = edge
            self._live_edges.add(edge)
            self._live_times[edge] = t
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        # The dirty region is the union of the pre- and post-change balls: a
        # cached answer is affected whether the change created or destroyed
        # reachability.
        for node, dist in self._ball_distances(sources).items():
            prev = ball.get(node)
            if prev is None or dist < prev:
                ball[node] = dist
        self._version += 1
        self._global_dirty_version = self._version
        for node, dist in ball.items():
            stamps = self._dirty.get(node)
            if stamps is None:
                stamps = self._dirty[node] = [0] * (R_MAX + 1)
            for depth in range(dist, R_MAX + 1):
                stamps[depth] = self._version
        self._last_ball = ball
        if TELEMETRY.enabled:
            TELEMETRY.observe("oracle.dirty_ball", len(ball), SIZE_BUCKETS)

    def _ball_distances(self, sources: Iterable[int]) -> Dict[int, int]:
        """Multi-source BFS distances up to ``R_MAX`` over the live adjacency."""
        dist = {node: 0 for node in sources}
        frontier = list(dist)
        adj = self._live_adj
        for d in range(1, R_MAX + 1):
            nxt = []
            for node in frontier:
                for nb in adj.get(node, ()):
                    if nb not in dist:
                        dist[nb] = d
                        nxt.append(nb)
            frontier = nxt
        return dist

    def validator(self):
        """A :class:`~repro.simulator.runner.RoundValidator` that observes every round."""

        def _record(round_index: int, network: DynamicNetwork, nodes) -> None:
            self.observe(network)

        return _record

    def last_changed_ball(self, depth: int) -> Set[int]:
        """Nodes within ``depth`` hops of the most recent observed changes.

        Empty after a quiet observation.  Per-round checks use this (together
        with the engine's active set) to only re-examine nodes whose ground
        truth could have changed.
        """
        return {node for node, d in self._last_ball.items() if d <= depth}

    # ------------------------------------------------------------------ #
    # Snapshot access
    # ------------------------------------------------------------------ #
    @property
    def latest_round(self) -> int:
        return self._latest_round

    def snapshot(self) -> RoundSnapshot:
        """The graph at the latest observed round (a copy)."""
        return RoundSnapshot(
            self._latest_round, frozenset(self._live_edges), dict(self._live_times)
        )

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def _fresh(self, node: int, depth: int, version: int) -> bool:
        if depth > R_MAX:
            return self._global_dirty_version <= version
        stamps = self._dirty.get(node)
        return stamps is None or stamps[depth] <= version

    def _cached(self, key: tuple, node: int, depth: int, compute):
        entry = self._cache.get(key)
        if entry is not None and self._fresh(node, depth, entry[1]):
            if TELEMETRY.enabled:
                TELEMETRY.count("oracle.cache_hits")
            return entry[0]
        if TELEMETRY.enabled:
            TELEMETRY.count("oracle.cache_misses")
        value = compute()
        self._cache[key] = (value, self._version)
        return value

    # ------------------------------------------------------------------ #
    # Reference sets
    # ------------------------------------------------------------------ #
    def khop_edges(self, v: int, radius: int) -> FrozenSet[Edge]:
        return self._cached(
            ("khop", v, radius),
            v,
            max(0, radius - 1),
            lambda: robust_sets.khop_edges_adj(self._live_adj, v, radius),
        )

    def robust_two_hop(self, v: int) -> FrozenSet[Edge]:
        return self._cached(
            ("r2", v),
            v,
            1,
            lambda: robust_sets.robust_two_hop_adj(self._live_adj, self._live_times, v),
        )

    def triangle_pattern_set(self, v: int) -> FrozenSet[Edge]:
        return self._cached(
            ("t2", v),
            v,
            1,
            lambda: robust_sets.triangle_pattern_set_adj(self._live_adj, self._live_times, v),
        )

    def robust_three_hop(self, v: int) -> FrozenSet[Edge]:
        return self._cached(
            ("r3", v),
            v,
            2,
            lambda: robust_sets.robust_three_hop_adj(self._live_adj, self._live_times, v),
        )

    # ------------------------------------------------------------------ #
    # Reference subgraphs
    # ------------------------------------------------------------------ #
    def triangles_containing(self, v: int) -> Set[FrozenSet[int]]:
        return self._cached(
            ("tri", v),
            v,
            1,
            lambda: subgraphs.triangles_containing_adj(self._live_adj, v),
        )

    def cliques_containing(self, v: int, k: int) -> Set[FrozenSet[int]]:
        return self._cached(
            ("clique", v, k),
            v,
            1,
            lambda: subgraphs.cliques_containing_adj(self._live_adj, v, k),
        )

    def cycles_of_length(self, k: int) -> Set[FrozenSet[int]]:
        # A global query: any change anywhere invalidates it.
        return self._cached(
            ("cycles", k),
            -1,
            R_MAX + 1,
            lambda: subgraphs.cycles_of_length(self._live_edges, k),
        )

    def is_triangle(self, nodes: Iterable[int]) -> bool:
        node_set = set(nodes)
        return len(node_set) == 3 and subgraphs.is_clique_adj(self._live_adj, node_set)

    def is_clique(self, nodes: Iterable[int]) -> bool:
        return subgraphs.is_clique_adj(self._live_adj, nodes)

    def set_is_cycle(self, nodes: Iterable[int]) -> bool:
        return subgraphs.set_is_cycle(self._live_edges, nodes)

    def is_cycle_ordering(self, ordering) -> bool:
        return subgraphs.is_cycle_ordering(self._live_edges, ordering)


class NaiveGroundTruthOracle:
    """The from-scratch reference oracle: one snapshot, no caching.

    Holds a complete :class:`RoundSnapshot` of the latest observed round
    and recomputes every query from scratch.  Deliberately simple; the
    incremental :class:`GroundTruthOracle` is differentially tested against
    it, and ``benchmarks/bench_oracle_scaling.py`` measures the gap between
    the two.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        # Round 0: the empty graph the model starts from.
        self._snapshot = RoundSnapshot(0, frozenset(), {})

    @classmethod
    def from_network(cls, network: DynamicNetwork) -> "NaiveGroundTruthOracle":
        oracle = cls(network.n)
        oracle.observe(network)
        return oracle

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def observe(self, network: DynamicNetwork) -> RoundSnapshot:
        """Replace the held snapshot with the network's current state."""
        self._snapshot = RoundSnapshot(
            round_index=network.round_index,
            edges=network.edges,
            insertion_times=dict(network.insertion_times()),
        )
        return self._snapshot

    def validator(self):
        """A :class:`~repro.simulator.runner.RoundValidator` that observes every round."""

        def _record(round_index: int, network: DynamicNetwork, nodes) -> None:
            self.observe(network)

        return _record

    # ------------------------------------------------------------------ #
    # Snapshot access
    # ------------------------------------------------------------------ #
    @property
    def latest_round(self) -> int:
        return self._snapshot.round_index

    def snapshot(self) -> RoundSnapshot:
        """The graph at the latest observed round."""
        return self._snapshot

    # ------------------------------------------------------------------ #
    # Reference sets
    # ------------------------------------------------------------------ #
    def khop_edges(self, v: int, radius: int) -> FrozenSet[Edge]:
        return robust_sets.khop_edges(self._snapshot.edges, v, radius)

    def robust_two_hop(self, v: int) -> FrozenSet[Edge]:
        snap = self._snapshot
        return robust_sets.robust_two_hop(snap.edges, snap.insertion_times, v)

    def triangle_pattern_set(self, v: int) -> FrozenSet[Edge]:
        snap = self._snapshot
        return robust_sets.triangle_pattern_set(snap.edges, snap.insertion_times, v)

    def robust_three_hop(self, v: int) -> FrozenSet[Edge]:
        snap = self._snapshot
        return robust_sets.robust_three_hop(snap.edges, snap.insertion_times, v)

    # ------------------------------------------------------------------ #
    # Reference subgraphs
    # ------------------------------------------------------------------ #
    def triangles_containing(self, v: int) -> Set[FrozenSet[int]]:
        return subgraphs.triangles_containing(self._snapshot.edges, v)

    def cliques_containing(self, v: int, k: int) -> Set[FrozenSet[int]]:
        return subgraphs.cliques_containing(self._snapshot.edges, v, k)

    def cycles_of_length(self, k: int) -> Set[FrozenSet[int]]:
        return subgraphs.cycles_of_length(self._snapshot.edges, k)

    def is_triangle(self, nodes: Iterable[int]) -> bool:
        node_set = set(nodes)
        return len(node_set) == 3 and subgraphs.is_clique(self._snapshot.edges, node_set)

    def is_clique(self, nodes: Iterable[int]) -> bool:
        return subgraphs.is_clique(self._snapshot.edges, nodes)

    def set_is_cycle(self, nodes: Iterable[int]) -> bool:
        return subgraphs.set_is_cycle(self._snapshot.edges, nodes)

    def is_cycle_ordering(self, ordering) -> bool:
        return subgraphs.is_cycle_ordering(self._snapshot.edges, ordering)
