"""Baseline algorithms that the paper argues against.

Two strawmen appear in the paper's discussion and both are implemented here
so that the benchmarks can demonstrate *why* the robust-neighborhood
machinery is necessary:

* :class:`NaiveForwardingNode` -- the timestamp-free algorithm sketched in
  Section 1.3: every node forwards its incident edge changes to its neighbors
  and keeps whatever it was told.  Under the flickering adversary
  (:mod:`repro.adversary.flicker`) this algorithm reports itself consistent
  while believing in an edge that was deleted, i.e. it is *incorrect* -- which
  experiment E10 reproduces.
* :class:`FullBroadcastNode` -- the unbounded-bandwidth algorithm mentioned at
  the start of Section 2 ("this would be a trivial task if large messages were
  available"): every node sends its entire neighborhood to every neighbor
  after each change.  It is correct (up to one round of staleness) but each
  message carries ``Θ(n)`` bits; running it with a non-strict bandwidth policy
  lets benchmarks report by how much it violates the CONGEST budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Sequence, Set

from ..simulator.events import Edge, canonical_edge
from ..simulator.messages import (
    EdgeEventMessage,
    EdgeOp,
    Envelope,
    PatternMark,
    SnapshotChunkMessage,
)
from ..simulator.node import NodeAlgorithm
from .queries import EdgeQuery, QueryResult, TriangleQuery

__all__ = ["NaiveForwardingNode", "FullBroadcastNode"]


@dataclass
class _PendingEvent:
    edge: Edge
    op: EdgeOp


class NaiveForwardingNode(NodeAlgorithm):
    """The timestamp-free forwarding strawman of Section 1.3.

    Each node queues its incident edge changes and forwards one per round to
    all neighbors; received announcements are applied verbatim.  Without
    timestamps there is no way to notice that a far edge's deletion
    announcement was missed while the connecting edges flickered, so the
    algorithm can stay *wrong forever* while claiming consistency.
    """

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        self.adj: Set[int] = set()
        #: Believed far edges (no timestamps -- that is the flaw).
        self.S: Set[Edge] = set()
        self.Q: List[_PendingEvent] = []
        self.consistent: bool = True

    def on_topology_change(
        self, round_index: int, inserted: Sequence[int], deleted: Sequence[int]
    ) -> None:
        for u in deleted:
            self.adj.discard(u)
            self.S.discard(canonical_edge(self.node_id, u))
            self.Q.append(_PendingEvent(canonical_edge(self.node_id, u), EdgeOp.DELETE))
        for u in inserted:
            self.adj.add(u)
            self.S.add(canonical_edge(self.node_id, u))
            self.Q.append(_PendingEvent(canonical_edge(self.node_id, u), EdgeOp.INSERT))

    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        item = self.Q.pop(0) if self.Q else None
        is_empty = not self.Q
        outgoing: Dict[int, Envelope] = {}
        for u in self.adj:
            payload = (
                EdgeEventMessage(item.edge, item.op, PatternMark.A) if item else None
            )
            envelope = Envelope(payload=payload, is_empty=is_empty)
            if not envelope.is_silent:
                outgoing[u] = envelope
        return outgoing

    def on_messages(self, round_index: int, received: Mapping[int, Envelope]) -> None:
        saw_nonempty = False
        for _, envelope in received.items():
            if not envelope.is_empty:
                saw_nonempty = True
            message = envelope.payload
            if message is None or not isinstance(message, EdgeEventMessage):
                continue
            if self.node_id in message.edge:
                continue
            if message.op is EdgeOp.INSERT:
                self.S.add(message.edge)
            else:
                self.S.discard(message.edge)
        self.consistent = (not self.Q) and (not saw_nonempty)

    def is_consistent(self) -> bool:
        return self.consistent

    def is_quiescent(self) -> bool:
        # Same shape as the paper's structures: empty queue and a consistent
        # verdict mean the hooks would be no-ops until new input arrives.
        return self.consistent and not self.Q

    def knows_edge(self, u: int, w: int) -> bool:
        """Whether the edge ``{u, w}`` is believed to exist (incident or heard of)."""
        edge = canonical_edge(u, w)
        if self.node_id in edge:
            other = edge[0] if edge[1] == self.node_id else edge[1]
            return other in self.adj
        return edge in self.S

    def query(self, query: Any) -> QueryResult:
        if isinstance(query, TriangleQuery):
            if not self.consistent:
                return QueryResult.INCONSISTENT
            u, w = sorted(query.nodes - {self.node_id})
            return QueryResult.of(
                u in self.adj and w in self.adj and canonical_edge(u, w) in self.S
            )
        if isinstance(query, EdgeQuery):
            if not self.consistent:
                return QueryResult.INCONSISTENT
            edge = query.edge
            if self.node_id in edge:
                other = edge[0] if edge[1] == self.node_id else edge[1]
                return QueryResult.of(other in self.adj)
            return QueryResult.of(edge in self.S)
        raise TypeError(f"NaiveForwardingNode does not answer {type(query).__name__}")

    def known_edges(self) -> FrozenSet[Edge]:
        return frozenset(self.S)

    def local_state_size(self) -> int:
        return len(self.S) + len(self.Q) + len(self.adj)


class FullBroadcastNode(NodeAlgorithm):
    """The unbounded-bandwidth strawman: ship the whole neighborhood every change.

    After any incident change the node broadcasts its full neighborhood (an
    ``n``-bit snapshot in a single message) to every neighbor.  This keeps the
    2-hop view correct within one round but each message costs ``Θ(n)`` bits;
    it must be run with ``strict_bandwidth=False`` and exists so experiments
    can quantify the bandwidth the fast algorithms avoid.
    """

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        self.adj: Set[int] = set()
        self.view: Dict[int, Set[int]] = {}
        self._dirty = False
        self._epoch = 0

    def on_topology_change(
        self, round_index: int, inserted: Sequence[int], deleted: Sequence[int]
    ) -> None:
        for u in deleted:
            self.adj.discard(u)
            self.view.pop(u, None)
        for u in inserted:
            self.adj.add(u)
            self.view.setdefault(u, set())
        if inserted or deleted:
            self._dirty = True

    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        if not self._dirty or not self.adj:
            self._dirty = False
            return {}
        self._dirty = False
        self._epoch += 1
        snapshot = SnapshotChunkMessage(
            owner=self.node_id,
            epoch=self._epoch,
            chunk_index=0,
            total_chunks=1,
            members=tuple(sorted(self.adj)),
            chunk_bits=self.n,
        )
        return {
            u: Envelope(payload=snapshot, is_empty=True) for u in self.adj
        }

    def on_messages(self, round_index: int, received: Mapping[int, Envelope]) -> None:
        for sender, envelope in received.items():
            message = envelope.payload
            if isinstance(message, SnapshotChunkMessage) and sender in self.adj:
                self.view[sender] = set(message.members)

    def is_consistent(self) -> bool:
        # The broadcast baseline never declares inconsistency; its answers are
        # correct up to the one-round staleness inherent to the model.
        return True

    def is_quiescent(self) -> bool:
        # Once the pending snapshot broadcast is out the node has nothing to
        # send and ignores empty receives.
        return not self._dirty

    def query(self, query: Any) -> QueryResult:
        if isinstance(query, (EdgeQuery, TriangleQuery)):
            if isinstance(query, TriangleQuery):
                u, w = sorted(query.nodes - {self.node_id})
            else:
                u, w = query.u, query.w
            edge = canonical_edge(u, w)
            if self.node_id in edge:
                other = edge[0] if edge[1] == self.node_id else edge[1]
                return QueryResult.of(other in self.adj)
            known = (u in self.adj and w in self.view.get(u, ())) or (
                w in self.adj and u in self.view.get(w, ())
            )
            if isinstance(query, TriangleQuery):
                known = known and u in self.adj and w in self.adj
            return QueryResult.of(known)
        raise TypeError(f"FullBroadcastNode does not answer {type(query).__name__}")

    def local_state_size(self) -> int:
        return len(self.adj) + sum(len(v) for v in self.view.values())
