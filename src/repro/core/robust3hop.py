"""The robust 3-hop neighborhood data structure (Theorem 6, Figure 3).

4-cycle and 5-cycle listing need knowledge of edges up to three hops away,
but -- as with the 2-hop case -- the *full* 3-hop neighborhood is unaffordable.
The paper defines the **robust 3-hop neighborhood** ``R^{v,3}_i`` by the
temporal edge patterns of Figure 3:

* (a) ``v - u - w`` with ``t_{u,w} >= t_{v,u}`` (the robust 2-hop patterns),
* (b) ``v - u - w - x`` with ``t_{w,x} >= t_{u,w}`` and ``t_{w,x} >= t_{v,u}``
  (the farthest edge of the 3-path is the newest),

plus all edges incident to ``v``.

Theorem 6 maintains (a sandwich around) this set with ``O(1)`` amortized
rounds using a *path-set* mechanism instead of timestamps: node ``v`` stores,
for every known edge ``e``, the set ``P_e`` of paths along which ``e`` was
learned.  A path is added when an insertion announcement travels towards
``v`` (each hop prepends itself and re-broadcasts announcements of at most
two edges), and removed when any edge on it is deleted (deletions are
broadcast with a constant hop counter).  The edge is considered known while
``P_e`` is non-empty.

Consistency uses a two-round rule: besides its own queue being empty and no
neighbor reporting a non-empty queue (``IsEmpty = false``), the node also
requires that no neighbor reported, via ``AreNeighborsEmpty = false``, that
*its* neighbors had non-empty queues in the previous round.  This gives the
correctness guarantee of the paper: when consistent,

``R^{v,2}_i ∪ (R^{v,3}_{i-1} \\ R^{v,2}_{i-1})  ⊆  S̃_v,i  ⊆
E^{v,2}_i ∪ (E^{v,3}_{i-1} \\ E^{v,2}_{i-1})``,

which is exactly what the 4-cycle / 5-cycle listing layer of Theorem 5 needs.

Reproduction notes
------------------
* The paper's step 4 re-enqueues a processed insertion path "if it is an edge
  or a 2-path".  Taken literally for a node's *own* dequeued single-edge item
  this would re-enqueue it forever; we therefore forward only items received
  from a neighbor, which is the propagation the correctness proof uses
  (endpoint -> distance 1 -> distance 2).
* Deletions are forwarded with the literal ``hops <= 1`` rule on receipt
  (reaching distance 3, one hop further than strictly necessary), but a
  node's own dequeued deletion is not re-enqueued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..simulator.events import Edge, canonical_edge
from ..simulator.messages import EdgeDeleteHopMessage, Envelope, PathInsertMessage
from ..simulator.node import NodeAlgorithm
from .queries import EdgeQuery, QueryResult

__all__ = ["RobustThreeHopNode"]

#: A path stored at node ``v``: a tuple of nodes starting at ``v``.
Path = Tuple[int, ...]


@dataclass
class _PathItem:
    """A pending insertion announcement: a path (starting at this node) to broadcast."""

    path: Path


@dataclass
class _DeleteItem:
    """A pending deletion announcement: an edge plus the constant hop counter."""

    edge: Edge
    hops: int


_QueueItem = Union[_PathItem, _DeleteItem]


def _path_edges(path: Path) -> Tuple[Edge, ...]:
    """The consecutive edges of a node path, in canonical form."""
    return tuple(canonical_edge(a, b) for a, b in zip(path, path[1:]))


class RobustThreeHopNode(NodeAlgorithm):
    """Per-node algorithm of Theorem 6 (robust 3-hop neighborhood listing).

    Query interface: :class:`~repro.core.queries.EdgeQuery`, answered TRUE iff
    the edge currently has a non-empty path set.
    """

    #: Maximum number of edges of a path that is re-broadcast.  Received paths
    #: of this length are extended by one hop by the receiver, so stored paths
    #: have at most ``MAX_FORWARD_EDGES + 1`` edges.
    MAX_FORWARD_EDGES = 2

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        #: Current neighbors.
        self.adj: Set[int] = set()
        #: Known edges mapped to the set of paths along which they were learned.
        self.S: Dict[Edge, Set[Path]] = {}
        # Reverse index: traversed edge -> set of (supported edge, path) pairs.
        # Purely a performance structure so deletions do not scan every stored
        # path (the hot loop of large simulations).
        self._traversed_by: Dict[Edge, Set[tuple]] = {}
        #: Pending announcements, drained one per round.
        self.Q: List[_QueueItem] = []
        #: Consistency flag ``C_v`` (two-round rule).
        self.consistent: bool = True
        self._prev_round_clean: bool = True
        # Whether some neighbor reported a non-empty queue in the previous
        # round; broadcast as AreNeighborsEmpty in the current round.
        self._neighbor_reported_nonempty_prev: bool = False

    # ------------------------------------------------------------------ #
    # Round hooks
    # ------------------------------------------------------------------ #
    def on_topology_change(
        self, round_index: int, inserted: Sequence[int], deleted: Sequence[int]
    ) -> None:
        # Local state updates happen here, at indication time, not when the
        # corresponding announcement reaches the queue head: an incident
        # deletion whose prune were deferred would destroy knowledge that a
        # re-insertion (and the announcements it triggers) rebuilt in between,
        # leaving the node permanently short of ``R^{v,3}``.  The queue only
        # delays what the *neighbors* hear, exactly like the robust 2-hop and
        # triangle structures.
        for u in deleted:
            self.adj.discard(u)
            self._remove_paths_through(canonical_edge(self.node_id, u), first_hop=None)
            self.Q.append(_DeleteItem(canonical_edge(self.node_id, u), hops=0))
        for u in inserted:
            self.adj.add(u)
            self._store_path((self.node_id, u))
            self.Q.append(_PathItem((self.node_id, u)))

    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        # Local on purpose: composing with an empty queue must not mutate
        # state (the quiescence contract the sparse engine relies on).
        queue_empty_at_send = not self.Q
        are_neighbors_empty = not self._neighbor_reported_nonempty_prev

        item: Optional[_QueueItem] = self.Q.pop(0) if self.Q else None
        payload = None
        if isinstance(item, _PathItem):
            # Purely an announcement: the local store happened at indication
            # time (re-storing here could resurrect an edge deleted since).
            payload = PathInsertMessage(item.path)
        elif isinstance(item, _DeleteItem):
            # Likewise announcement-only; local pruning happened at
            # indication time (hops == 0) or at receive time (hops > 0).
            payload = EdgeDeleteHopMessage(item.edge, item.hops)

        outgoing: Dict[int, Envelope] = {}
        for u in self.adj:
            envelope = Envelope(
                payload=payload,
                is_empty=queue_empty_at_send,
                are_neighbors_empty=are_neighbors_empty,
            )
            if not envelope.is_silent:
                outgoing[u] = envelope
        return outgoing

    def on_messages(self, round_index: int, received: Mapping[int, Envelope]) -> None:
        saw_nonempty_neighbor = False
        saw_nonempty_two_hop = False
        for sender, envelope in received.items():
            if not envelope.is_empty:
                saw_nonempty_neighbor = True
            if envelope.are_neighbors_empty is False:
                saw_nonempty_two_hop = True
            message = envelope.payload
            if message is None:
                continue
            if isinstance(message, PathInsertMessage):
                self._apply_remote_path(sender, message.path)
            elif isinstance(message, EdgeDeleteHopMessage):
                if self.node_id in message.edge:
                    # Our own incident edges are tracked authoritatively from
                    # the topology indications; a (possibly long-delayed)
                    # remote echo about them must not prune knowledge that the
                    # edge's re-insertion has since rebuilt.
                    continue
                self._remove_paths_through(message.edge, first_hop=sender)
                # Deletions are forwarded exactly one hop past the deleted
                # edge's endpoints, which is how far stored paths can reach
                # (see the module docstring's reproduction notes).
                if message.hops == 0:
                    self.Q.append(_DeleteItem(message.edge, message.hops + 1))
            else:
                raise TypeError(f"unexpected message type {type(message).__name__}")

        clean_now = (
            (not self.Q) and (not saw_nonempty_neighbor) and (not saw_nonempty_two_hop)
        )
        self.consistent = clean_now and self._prev_round_clean
        self._prev_round_clean = clean_now
        self._neighbor_reported_nonempty_prev = saw_nonempty_neighbor

    # ------------------------------------------------------------------ #
    # Path-set maintenance
    # ------------------------------------------------------------------ #
    def _store_path(self, path: Path) -> None:
        """Record ``path`` (which starts at this node): every prefix supports its last edge."""
        for idx, edge in enumerate(_path_edges(path), start=2):
            prefix = path[:idx]
            stored = self.S.setdefault(edge, set())
            if prefix in stored:
                continue
            stored.add(prefix)
            entry = (edge, prefix)
            for traversed in _path_edges(prefix):
                self._traversed_by.setdefault(traversed, set()).add(entry)

    def _apply_remote_path(self, sender: int, path: Path) -> None:
        """Handle an insertion announcement received from a neighbor."""
        if path[0] != sender:
            # Announcements always describe a path starting at the sender; a
            # mismatch indicates a corrupted or misrouted message.
            return
        if self.node_id in path:
            # Prepending ourselves would create a non-simple walk; the edges of
            # such a path are already covered by shorter routes.
            return
        extended: Path = (self.node_id,) + tuple(path)
        self._store_path(extended)
        if len(extended) - 1 <= self.MAX_FORWARD_EDGES:
            self.Q.append(_PathItem(extended))

    def _remove_paths_through(self, edge: Edge, first_hop: Optional[int]) -> None:
        """Remove stored paths that traverse ``edge``.

        When ``first_hop`` is given, only paths learned through that neighbor
        (paths whose second node is ``first_hop``) are pruned.  Announcements
        and deletion forwards travel the same per-link FIFO routes, so pruning
        per route keeps knowledge obtained through *other* routes intact when a
        delayed ("stale") deletion of a meanwhile re-inserted edge arrives --
        the re-insertion's announcement follows the stale deletion on the same
        route and restores that route's paths, while other routes are left
        alone.  ``first_hop=None`` (own incident deletions) prunes every path
        through the edge.
        """
        entries = self._traversed_by.get(edge)
        if not entries:
            return
        doomed = [
            (known_edge, path)
            for known_edge, path in entries
            if first_hop is None or path[1] == first_hop
        ]
        for known_edge, path in doomed:
            stored = self.S.get(known_edge)
            if stored is not None:
                stored.discard(path)
                if not stored:
                    del self.S[known_edge]
            entry = (known_edge, path)
            for traversed in _path_edges(path):
                bucket = self._traversed_by.get(traversed)
                if bucket is not None:
                    bucket.discard(entry)
                    if not bucket:
                        del self._traversed_by[traversed]

    # ------------------------------------------------------------------ #
    # Query window
    # ------------------------------------------------------------------ #
    def is_quiescent(self) -> bool:
        # The two-round consistency rule keeps extra state between rounds:
        # besides an empty queue and a consistent verdict, the node must have
        # seen a clean previous round and must not owe its neighbors an
        # AreNeighborsEmpty = false report -- otherwise the next (empty) round
        # would still flip one of these flags and must not be skipped.
        return (
            self.consistent
            and not self.Q
            and self._prev_round_clean
            and not self._neighbor_reported_nonempty_prev
        )

    def is_consistent(self) -> bool:
        return self.consistent

    def query(self, query: Any) -> QueryResult:
        """Answer an :class:`EdgeQuery` about the robust 3-hop neighborhood."""
        if not isinstance(query, EdgeQuery):
            raise TypeError(
                f"RobustThreeHopNode answers EdgeQuery, got {type(query).__name__}"
            )
        if not self.consistent:
            return QueryResult.INCONSISTENT
        return QueryResult.of(self.knows_edge(query.u, query.w))

    def knows_edge(self, u: int, w: int) -> bool:
        """Whether the edge ``{u, w}`` currently has a non-empty path set."""
        edge = canonical_edge(u, w)
        if self.node_id in edge:
            other = edge[0] if edge[1] == self.node_id else edge[1]
            return other in self.adj
        return edge in self.S

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def known_edges(self) -> FrozenSet[Edge]:
        """The edge set ``S̃_v`` (edges with a non-empty path set) plus incident edges."""
        incident = frozenset(canonical_edge(self.node_id, u) for u in self.adj)
        return frozenset(self.S) | incident

    def local_state_size(self) -> int:
        return sum(len(paths) for paths in self.S.values()) + len(self.Q) + len(self.adj)
