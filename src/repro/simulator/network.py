"""The dynamic communication graph maintained by the simulator.

:class:`DynamicNetwork` is the *ground truth* evolving graph ``G_i`` of the
highly dynamic model: a set of nodes fixed in advance and an edge set that the
adversary rewrites at the beginning of every round.  The network also tracks
the true insertion time ``t_e`` of every edge -- the latest round in which the
edge was inserted -- which is the quantity the paper's *robust neighborhood*
definitions are phrased in terms of (Appendix A of the paper).  True
timestamps are **never** made available to the distributed algorithms through
messages; they exist for the benefit of the adversary, the oracle and the
analysis code, exactly like in the paper where they are "defined only for the
sake of analysis".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Set

from .events import Edge, EdgeDelete, EdgeInsert, RoundChanges, TopologyEvent, canonical_edge

__all__ = ["NodeIndication", "DynamicNetwork", "TopologyError"]


class TopologyError(ValueError):
    """Raised when a round batch is inconsistent with the current graph.

    Examples: inserting an edge that already exists, deleting an edge that
    does not exist, or referring to a node outside ``range(n)``.
    """


@dataclass(frozen=True)
class NodeIndication:
    """The local indication a single node receives at the start of a round.

    Per the model, every node is notified of the topology changes *it is part
    of*, i.e. of insertions and deletions of edges incident to it.

    Attributes:
        inserted: neighbors gained this round (other endpoint of inserted edges).
        deleted: neighbors lost this round (other endpoint of deleted edges).
    """

    inserted: tuple[int, ...]
    deleted: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    @classmethod
    def empty(cls) -> "NodeIndication":
        return cls((), ())


class DynamicNetwork:
    """The evolving ground-truth graph of a highly dynamic network.

    The graph starts empty on ``n`` nodes (identified ``0 .. n-1``).  Each
    call to :meth:`apply_changes` advances the graph by one round of
    adversarial topology changes and returns the per-node indications.

    The class keeps, per edge:

    * whether the edge currently exists,
    * its true insertion time ``t_e`` (latest round it was inserted; ``-1``
      for edges that were never inserted), and
    * its latest deletion time (for analysis purposes).

    Attributes:
        n: number of nodes.
        round_index: index of the last round whose changes were applied
            (``0`` before any changes).
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("the network must have at least one node")
        self.n = int(n)
        self.round_index = 0
        self._adj: Dict[int, Set[int]] = {v: set() for v in range(self.n)}
        self._edges: Set[Edge] = set()
        self._insertion_time: Dict[Edge, int] = {}
        self._deletion_time: Dict[Edge, int] = {}
        self._total_changes = 0
        # Cached frozen snapshots, invalidated by apply_changes.  The round
        # engines and the adversary view read these every round, so rebuilding
        # a fresh frozenset per call would make every round O(n + m) even when
        # nothing changed.
        self._edges_snapshot: Optional[FrozenSet[Edge]] = None
        self._neighbor_snapshots: Dict[int, FrozenSet[int]] = {}
        # The most recent applied batch (and its round), so incremental
        # observers (the ground-truth oracle) can pay per change instead of
        # diffing the full edge set every round.
        self._last_changes: Optional[RoundChanges] = None
        self._last_changes_round = 0

    # ------------------------------------------------------------------ #
    # Read access
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> range:
        """All node identifiers."""
        return range(self.n)

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The current edge set (a frozen snapshot, cached between changes)."""
        if self._edges_snapshot is None:
            self._edges_snapshot = frozenset(self._edges)
        return self._edges_snapshot

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def total_changes(self) -> int:
        """Total number of topology changes applied so far."""
        return self._total_changes

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` currently exists."""
        return canonical_edge(u, v) in self._edges

    def neighbors(self, v: int) -> FrozenSet[int]:
        """The current neighbors of ``v`` (a frozen snapshot, cached between changes)."""
        snapshot = self._neighbor_snapshots.get(v)
        if snapshot is None:
            self._check_node(v)
            snapshot = frozenset(self._adj[v])
            self._neighbor_snapshots[v] = snapshot
        return snapshot

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adj[v])

    def edges_incident(self, nodes) -> FrozenSet[Edge]:
        """Every current edge with at least one endpoint in ``nodes``.

        The edge set a crashed (or regionally failed) node tears down: the
        fault overlay masks exactly these edges out of the physical graph,
        and tests assert against the same query.  Computed from the adjacency
        lists, so the cost scales with the failed nodes' degrees rather than
        the whole edge set.
        """
        out: Set[Edge] = set()
        for v in nodes:
            self._check_node(v)
            for u in self._adj[v]:
                out.add(canonical_edge(u, v))
        return frozenset(out)

    def insertion_time(self, u: int, v: int) -> int:
        """True (latest) insertion time ``t_e`` of edge ``{u, v}``.

        Returns ``-1`` if the edge was never inserted.  The value is defined
        also for edges that were inserted and later deleted.
        """
        return self._insertion_time.get(canonical_edge(u, v), -1)

    def deletion_time(self, u: int, v: int) -> int:
        """Latest deletion time of edge ``{u, v}`` (``-1`` if never deleted)."""
        return self._deletion_time.get(canonical_edge(u, v), -1)

    def insertion_times(self) -> Mapping[Edge, int]:
        """Mapping of *current* edges to their true insertion times."""
        return {e: self._insertion_time[e] for e in self._edges}

    def snapshot(self) -> FrozenSet[Edge]:
        """Alias of :attr:`edges`, for symmetry with trace recording."""
        return self.edges

    @property
    def last_changes(self) -> Optional[RoundChanges]:
        """The most recent batch applied via :meth:`apply_changes` (or ``None``).

        Together with :attr:`total_changes` this lets an incremental observer
        recover the exact delta since its previous observation without a full
        edge-set diff whenever it observed the preceding round.
        """
        return self._last_changes

    @property
    def last_changes_round(self) -> int:
        """The round whose start :attr:`last_changes` was applied at."""
        return self._last_changes_round

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply_changes(
        self, round_index: int, changes: RoundChanges
    ) -> Dict[int, NodeIndication]:
        """Apply one round's topology changes and return node indications.

        Args:
            round_index: the 1-based index of the round whose start the
                changes belong to.  Rounds must be applied in strictly
                increasing order.
            changes: the batch of events.

        Returns:
            A dict mapping every node touched by at least one change to its
            :class:`NodeIndication`.  Untouched nodes are absent.

        Raises:
            TopologyError: if the batch is invalid for the current graph.
        """
        if round_index <= self.round_index:
            raise TopologyError(
                f"round indices must be strictly increasing: got {round_index} "
                f"after {self.round_index}"
            )
        # Validate the entire batch before mutating anything, so a failed
        # batch leaves the graph untouched.
        for ev in changes:
            self._validate_event(ev)

        inserted_by_node: Dict[int, list[int]] = {}
        deleted_by_node: Dict[int, list[int]] = {}
        if len(changes) > 0:
            self._edges_snapshot = None
        for ev in changes:
            a, b = ev.edge
            self._neighbor_snapshots.pop(a, None)
            self._neighbor_snapshots.pop(b, None)
            if ev.is_insert:
                self._edges.add(ev.edge)
                self._adj[a].add(b)
                self._adj[b].add(a)
                self._insertion_time[ev.edge] = round_index
                inserted_by_node.setdefault(a, []).append(b)
                inserted_by_node.setdefault(b, []).append(a)
            else:
                self._edges.discard(ev.edge)
                self._adj[a].discard(b)
                self._adj[b].discard(a)
                self._deletion_time[ev.edge] = round_index
                deleted_by_node.setdefault(a, []).append(b)
                deleted_by_node.setdefault(b, []).append(a)
            self._total_changes += 1

        self.round_index = round_index
        self._last_changes = changes
        self._last_changes_round = round_index

        indications: Dict[int, NodeIndication] = {}
        for node in set(inserted_by_node) | set(deleted_by_node):
            indications[node] = NodeIndication(
                inserted=tuple(sorted(inserted_by_node.get(node, ()))),
                deleted=tuple(sorted(deleted_by_node.get(node, ()))),
            )
        return indications

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise TopologyError(f"node {v} outside range(0, {self.n})")

    def _validate_event(self, ev: TopologyEvent) -> None:
        a, b = ev.edge
        self._check_node(a)
        self._check_node(b)
        exists = ev.edge in self._edges
        if ev.is_insert and exists:
            raise TopologyError(f"cannot insert existing edge {ev.edge}")
        if ev.is_delete and not exists:
            raise TopologyError(f"cannot delete missing edge {ev.edge}")

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def copy(self) -> "DynamicNetwork":
        """Deep copy of the network state (used by the oracle and tests)."""
        clone = DynamicNetwork(self.n)
        clone.round_index = self.round_index
        clone._adj = {v: set(neigh) for v, neigh in self._adj.items()}
        clone._edges = set(self._edges)
        clone._insertion_time = dict(self._insertion_time)
        clone._deletion_time = dict(self._deletion_time)
        clone._total_changes = self._total_changes
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicNetwork(n={self.n}, round={self.round_index}, "
            f"edges={len(self._edges)}, changes={self._total_changes})"
        )

