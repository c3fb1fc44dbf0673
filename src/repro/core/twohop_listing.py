"""Full 2-hop neighborhood listing in O(n / log n) amortized rounds (Lemma 1).

Corollary 2 of the paper shows that maintaining the *entire* 2-hop
neighborhood (equivalently, membership listing of the 3-vertex path) requires
``Ω(n / log n)`` amortized rounds.  Lemma 1 (Appendix B) gives the matching
upper bound: every node keeps one update queue per neighbor; incident edge
changes are enqueued on every queue, and every edge insertion additionally
enqueues a full snapshot of the endpoint's neighborhood -- an ``n``-bit string
chopped into ``Θ(n / log n)`` chunks -- on the queue towards the other
endpoint.  One item per queue is sent each round, so the queues drain in
parallel and the amortized cost is dominated by the snapshot length.

This algorithm is the **baseline** for two experiments:

* E6 -- running it against the Theorem 2 adversary exhibits the near-linear
  amortized cost that the lower bound proves unavoidable for non-clique
  membership listing;
* E7 -- its amortized complexity under insertion-heavy churn scales like
  ``n / log n``, matching Lemma 1.

It also answers triangle and H-membership queries (for patterns of radius 1
around the queried node), since full 2-hop knowledge subsumes the temporal
patterns of the fast algorithms; what it cannot do is stay consistent cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..simulator.events import Edge, canonical_edge
from ..simulator.messages import (
    EdgeEventMessage,
    EdgeOp,
    Envelope,
    PatternMark,
    SnapshotChunkMessage,
    id_bits,
)
from ..simulator.node import NodeAlgorithm
from .membership import HMembershipQuery
from .queries import EdgeQuery, QueryResult, TriangleQuery, TwoHopQuery

__all__ = ["TwoHopListingNode"]


@dataclass
class _EventItem:
    """A pending incremental update about one of this node's incident edges."""

    edge: Edge
    op: EdgeOp


@dataclass
class _ChunkItem:
    """A pending chunk of a neighborhood snapshot."""

    message: SnapshotChunkMessage


_QueueItem = Union[_EventItem, _ChunkItem]


class TwoHopListingNode(NodeAlgorithm):
    """Per-node algorithm of Lemma 1 (full 2-hop neighborhood listing).

    Query interface: :class:`~repro.core.queries.TwoHopQuery`,
    :class:`~repro.core.queries.EdgeQuery`,
    :class:`~repro.core.queries.TriangleQuery` and
    :class:`~repro.core.membership.HMembershipQuery`.

    Args:
        node_id: this node's identifier.
        n: number of nodes.
        chunk_bits: payload bits per snapshot chunk.  The default of
            ``4 * ceil(log2 n)`` keeps each chunk (plus its bookkeeping
            identifiers and control bits) within the default bandwidth budget
            of ``8 * ceil(log2 n)`` bits.
    """

    def __init__(self, node_id: int, n: int, *, chunk_bits: Optional[int] = None) -> None:
        super().__init__(node_id, n)
        self.chunk_bits = chunk_bits if chunk_bits is not None else 4 * id_bits(n)
        if self.chunk_bits <= 0:
            raise ValueError("chunk_bits must be positive")
        #: Current neighbors.
        self.adj: Set[int] = set()
        #: For each neighbor, its neighborhood as far as we know it.
        self.view: Dict[int, Set[int]] = {}
        #: One FIFO update queue per current neighbor.
        self.out_queues: Dict[int, List[_QueueItem]] = {}
        #: Snapshot epoch counter (so receivers can recognise chunk batches).
        self._epoch = 0
        self.consistent: bool = True
        self._queues_empty_at_send: bool = True

    # ------------------------------------------------------------------ #
    # Round hooks
    # ------------------------------------------------------------------ #
    def on_topology_change(
        self, round_index: int, inserted: Sequence[int], deleted: Sequence[int]
    ) -> None:
        for u in deleted:
            self.adj.discard(u)
            self.view.pop(u, None)
            self.out_queues.pop(u, None)
            edge = canonical_edge(self.node_id, u)
            for w in self.adj:
                self.out_queues[w].append(_EventItem(edge, EdgeOp.DELETE))
        for u in inserted:
            self.adj.add(u)
            self.view[u] = set()
            self.out_queues[u] = []
            edge = canonical_edge(self.node_id, u)
            for w in self.adj:
                if w != u:
                    self.out_queues[w].append(_EventItem(edge, EdgeOp.INSERT))
            # A fresh snapshot of our entire neighborhood goes to the new
            # neighbor, chopped into Theta(log n)-bit chunks.
            self._enqueue_snapshot(u)

    def _enqueue_snapshot(self, target: int) -> None:
        self._epoch += 1
        total_chunks = max(1, math.ceil(self.n / self.chunk_bits))
        neighbors = sorted(self.adj)
        for index in range(total_chunks):
            low = index * self.chunk_bits
            high = min(self.n, (index + 1) * self.chunk_bits)
            members = tuple(w for w in neighbors if low <= w < high)
            self.out_queues[target].append(
                _ChunkItem(
                    SnapshotChunkMessage(
                        owner=self.node_id,
                        epoch=self._epoch,
                        chunk_index=index,
                        total_chunks=total_chunks,
                        members=members,
                        chunk_bits=high - low,
                    )
                )
            )

    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        self._queues_empty_at_send = all(not q for q in self.out_queues.values())
        outgoing: Dict[int, Envelope] = {}
        for u in self.adj:
            queue = self.out_queues[u]
            payload = None
            if queue:
                item = queue.pop(0)
                if isinstance(item, _EventItem):
                    payload = EdgeEventMessage(item.edge, item.op, PatternMark.A)
                else:
                    payload = item.message
            envelope = Envelope(payload=payload, is_empty=self._queues_empty_at_send)
            if not envelope.is_silent:
                outgoing[u] = envelope
        return outgoing

    def on_messages(self, round_index: int, received: Mapping[int, Envelope]) -> None:
        saw_nonempty_neighbor = False
        for sender, envelope in received.items():
            if not envelope.is_empty:
                saw_nonempty_neighbor = True
            message = envelope.payload
            if message is None:
                continue
            if sender not in self.adj:
                continue
            if isinstance(message, EdgeEventMessage):
                self._apply_event(sender, message)
            elif isinstance(message, SnapshotChunkMessage):
                self._apply_chunk(sender, message)
            else:
                raise TypeError(f"unexpected message type {type(message).__name__}")
        queues_empty = all(not q for q in self.out_queues.values())
        self.consistent = queues_empty and not saw_nonempty_neighbor

    def _apply_event(self, sender: int, message: EdgeEventMessage) -> None:
        edge = message.edge
        if sender not in edge:
            return
        other = edge[0] if edge[1] == sender else edge[1]
        if message.op is EdgeOp.INSERT:
            self.view[sender].add(other)
        else:
            self.view[sender].discard(other)

    def _apply_chunk(self, sender: int, message: SnapshotChunkMessage) -> None:
        if message.owner != sender:
            return
        low = message.chunk_index * self.chunk_bits
        high = low + message.chunk_bits
        view = self.view[sender]
        for w in [w for w in view if low <= w < high]:
            view.discard(w)
        view.update(message.members)

    # ------------------------------------------------------------------ #
    # Query window
    # ------------------------------------------------------------------ #
    def is_consistent(self) -> bool:
        return self.consistent

    def is_quiescent(self) -> bool:
        # All per-neighbor queues drained and a consistent verdict: composing
        # would emit only silent envelopes and an empty receive is a no-op.
        return self.consistent and all(not q for q in self.out_queues.values())

    def knows_edge(self, u: int, w: int) -> bool:
        """Whether the edge ``{u, w}`` exists according to the 2-hop knowledge."""
        edge = canonical_edge(u, w)
        if self.node_id in edge:
            other = edge[0] if edge[1] == self.node_id else edge[1]
            return other in self.adj
        in_view_u = u in self.adj and w in self.view.get(u, ())
        in_view_w = w in self.adj and u in self.view.get(w, ())
        return in_view_u or in_view_w

    def query(self, query: Any) -> QueryResult:
        if isinstance(query, (TwoHopQuery, EdgeQuery)):
            if not self.consistent:
                return QueryResult.INCONSISTENT
            return QueryResult.of(self.knows_edge(query.u, query.w))
        if isinstance(query, TriangleQuery):
            if self.node_id not in query.nodes:
                raise ValueError("triangle queries must contain the queried node")
            if not self.consistent:
                return QueryResult.INCONSISTENT
            u, w = sorted(query.nodes - {self.node_id})
            return QueryResult.of(
                u in self.adj and w in self.adj and self.knows_edge(u, w)
            )
        if isinstance(query, HMembershipQuery):
            if not self.consistent:
                return QueryResult.INCONSISTENT
            return QueryResult.of(
                all(self.knows_edge(a, b) for a, b in query.mapped_edges())
            )
        raise TypeError(
            f"TwoHopListingNode does not answer {type(query).__name__} queries"
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def known_edges(self) -> FrozenSet[Edge]:
        """Every edge of the (believed) 2-hop neighborhood."""
        edges: Set[Edge] = {canonical_edge(self.node_id, u) for u in self.adj}
        for u, members in self.view.items():
            if u not in self.adj:
                continue
            for w in members:
                if w != u:
                    edges.add(canonical_edge(u, w))
        return frozenset(edges)

    def local_state_size(self) -> int:
        return (
            len(self.adj)
            + sum(len(v) for v in self.view.values())
            + sum(len(q) for q in self.out_queues.values())
        )
