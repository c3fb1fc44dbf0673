"""Triangle membership listing (Theorem 1).

Each node ``v`` maintains knowledge of the temporal edge patterns of Figure 2:

* **pattern (a)** -- the robust 2-hop neighborhood: a far edge ``{u, w}`` with
  ``t_{u,w} >= t_{v,u}`` for a currently existing edge ``{v,u}``;
* **pattern (b)** -- a far edge ``{u, w}`` between two current neighbors that
  is *older* than both ``{v, u}`` and ``{v, w}``.

Together with the incident edges these patterns contain every triangle through
``v``, so the data structure answers triangle *membership* queries -- and, by
Corollary 1, k-clique membership queries for every ``k >= 3`` -- in ``O(1)``
amortized rounds.

Pattern (a) is learned exactly as in the robust 2-hop structure of Theorem 7:
every incident edge change is queued and announced (one item per round) to the
neighbors whose connecting edge is not newer than the announced edge.  Pattern
(b) edges cannot be learned that way (their announcement predates the edges
towards ``v``), so the algorithm adds the *mark (b)* hint mechanism of the
paper: when a node learns of an edge between two of its neighbors, it forwards
its own incident edges towards those neighbors, closing exactly the triangles
whose far edge is older than the newly announced edge.  Each announcement
triggers at most two hints per common neighbor, which keeps the amortized
round complexity constant.

Implementation notes (differences from a literal reading of the pseudocode)
----------------------------------------------------------------------------
* Local bookkeeping uses the same **per-endpoint claim** organisation as
  :class:`~repro.core.robust2hop.RobustTwoHopNode` (see that module's
  docstring): a far edge is known while at least one of (i) a pattern-(a)
  claim via an endpoint, or (ii) a pattern-(b) claim provided by the endpoint
  that sent the hint, survives.  This keeps FIFO per-endpoint semantics and
  makes stale deletion announcements harmless.
* Deletion announcements (mark (a) with a delete flag) are broadcast to *all*
  current neighbors rather than timestamp-filtered: a pattern-(b) edge is by
  definition older than the edges towards the node that knows it, so a
  filtered deletion would never reach that node and the dead edge would be
  retained forever.  The number of queue items and the per-message size are
  unchanged.
* The mark-(b) hint is sent towards *both* endpoints of the learned edge (the
  paper sends it only towards the endpoint whose connecting edge is newer).
  This drops the fragile imaginary-timestamp comparison from the hint trigger
  while keeping the count at ``O(1)`` hints per announcement, and makes the
  completeness argument a one-liner: for any triangle, the vertex opposite its
  newest edge receives that edge's announcement and hints its two incident
  edges to the other two vertices -- exactly the edges they might be missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from ..simulator.events import Edge, canonical_edge
from ..simulator.messages import EdgeEventMessage, EdgeOp, Envelope, PatternMark
from ..simulator.node import NodeAlgorithm
from .queries import EdgeQuery, QueryResult, TriangleQuery

__all__ = ["TriangleMembershipNode"]


@dataclass
class _PatternAItem:
    """A pending mark-(a) announcement about an incident edge change."""

    edge: Edge
    op: EdgeOp
    timestamp: int


@dataclass
class _PatternBItem:
    """A pending mark-(b) hint: tell ``target`` about the incident ``edge``."""

    edge: Edge
    target: int


_QueueItem = Union[_PatternAItem, _PatternBItem]


@dataclass
class _Claims:
    """Why a far edge is currently believed to exist.

    ``via``: endpoints whose pattern-(a) announcement certifies the edge.
    ``hinted_by``: endpoints whose pattern-(b) hint certifies the edge.
    """

    via: Set[int]
    hinted_by: Set[int]

    def __bool__(self) -> bool:
        return bool(self.via or self.hinted_by)

    def size(self) -> int:
        return len(self.via) + len(self.hinted_by)


class TriangleMembershipNode(NodeAlgorithm):
    """Per-node algorithm of Theorem 1 (triangle membership listing).

    Query interface:

    * :class:`~repro.core.queries.TriangleQuery` -- is the given 3-set (which
      must contain this node) a triangle of the current graph?
    * :class:`~repro.core.queries.EdgeQuery` -- is the edge in the maintained
      temporal-pattern set ``T^{v,2}_i``?  (Used by tests and by the k-clique
      wrapper of Corollary 1.)
    """

    #: Whether mark-(b) hints are generated.  The ablation study (experiment
    #: E13) disables this to show that the robust 2-hop patterns alone are not
    #: enough for triangle *membership* listing.
    GENERATE_HINTS = True

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        #: Current neighbors mapped to the true insertion time of the edge.
        self.adj: Dict[int, int] = {}
        #: Far edges mapped to the claims that certify them.
        self.S: Dict[Edge, _Claims] = {}
        #: Pending announcements (marks (a) and (b)), drained one per round.
        self.Q: List[_QueueItem] = []
        #: Consistency flag ``C_v``.
        self.consistent: bool = True

    # ------------------------------------------------------------------ #
    # Round hooks
    # ------------------------------------------------------------------ #
    def on_topology_change(
        self, round_index: int, inserted: Sequence[int], deleted: Sequence[int]
    ) -> None:
        deleted_timestamps: Dict[int, int] = {}
        for u in deleted:
            deleted_timestamps[u] = self.adj.pop(u, -1)
        for u in deleted:
            self._drop_claims_involving(u)
            self.Q.append(
                _PatternAItem(
                    canonical_edge(self.node_id, u), EdgeOp.DELETE, deleted_timestamps[u]
                )
            )
        for u in inserted:
            edge_vu = canonical_edge(self.node_id, u)
            self.adj[u] = round_index
            self.Q.append(_PatternAItem(edge_vu, EdgeOp.INSERT, round_index))

    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        # Theorem 1 piggybacks "IsEmpty = was the queue empty at the beginning
        # of the round", i.e. before this round's dequeue.  Reporting emptiness
        # conservatively is what lets a neighbor conclude, one round later,
        # that every hint derived from our queue has reached it.  Kept local
        # so composing with an empty queue is a strict no-op on state (the
        # quiescence contract the sparse engine and the state-fingerprint
        # identity gate rely on).
        queue_empty_at_send = not self.Q
        item: Optional[_QueueItem] = self.Q.pop(0) if self.Q else None

        targets_with_payload: Dict[int, EdgeEventMessage] = {}
        if isinstance(item, _PatternAItem):
            for u, t_vu in self.adj.items():
                if item.op is EdgeOp.DELETE or item.timestamp >= t_vu:
                    targets_with_payload[u] = EdgeEventMessage(item.edge, item.op, PatternMark.A)
        elif isinstance(item, _PatternBItem):
            # The hint target may have stopped being a neighbor (or the hinted
            # edge may have been deleted) since the hint was enqueued; in that
            # case the hint is simply dropped.
            other = item.edge[0] if item.edge[1] == self.node_id else item.edge[1]
            if item.target in self.adj and other in self.adj:
                targets_with_payload[item.target] = EdgeEventMessage(
                    item.edge, EdgeOp.INSERT, PatternMark.B
                )

        outgoing: Dict[int, Envelope] = {}
        for u in self.adj:
            envelope = Envelope(
                payload=targets_with_payload.get(u),
                is_empty=queue_empty_at_send,
            )
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
            if not isinstance(message, EdgeEventMessage):
                raise TypeError(f"unexpected message type {type(message).__name__}")
            if message.pattern is PatternMark.A:
                self._apply_pattern_a(sender, message.edge, message.op)
            else:
                self._apply_pattern_b(sender, message.edge)
        self.consistent = (not self.Q) and (not saw_nonempty_neighbor)

    # ------------------------------------------------------------------ #
    # Message handlers (shared verbatim by the per-envelope path above and
    # the columnar batched path below -- one implementation, one behavior)
    # ------------------------------------------------------------------ #
    def _apply_pattern_a(self, sender: int, edge: Edge, op: EdgeOp) -> None:
        if sender not in edge:
            # Mark-(a) announcements always concern an edge incident to the sender.
            return
        if self.node_id in edge:
            # Incident edges are tracked authoritatively from the indications,
            # but an announcement of an edge between two of our neighbors from
            # the *other* endpoint never lands here (v is in the edge), so
            # nothing else to do.
            return
        if op is EdgeOp.DELETE:
            claims = self.S.get(edge)
            if claims is not None:
                claims.via.discard(sender)
                claims.hinted_by.discard(sender)
                if not claims:
                    del self.S[edge]
            return
        if sender not in self.adj:
            # The connecting edge disappeared within the round; drop the item.
            return
        # Pattern-(a) claim via the sender.
        claims = self.S.setdefault(edge, _Claims(set(), set()))
        claims.via.add(sender)
        # Mark-(b) hint generation: the announced edge connects two of our
        # neighbors, so each of them might be missing our edge towards the
        # other -- forward both incident edges (at most two O(log n)-bit items).
        if not self.GENERATE_HINTS:
            return
        x, y = edge
        if x in self.adj and y in self.adj:
            self.Q.append(_PatternBItem(canonical_edge(self.node_id, x), target=y))
            self.Q.append(_PatternBItem(canonical_edge(self.node_id, y), target=x))

    def _apply_pattern_b(self, sender: int, edge: Edge) -> None:
        if sender not in edge or self.node_id in edge:
            return
        x, y = edge
        # Only accept the hint if both endpoints of the hinted edge are current
        # neighbors (otherwise the hinted edge is not a Figure 2 pattern for us).
        if x not in self.adj or y not in self.adj:
            return
        claims = self.S.setdefault(edge, _Claims(set(), set()))
        claims.hinted_by.add(sender)

    # ------------------------------------------------------------------ #
    # Columnar port (ColumnarProtocol)
    # ------------------------------------------------------------------ #
    @classmethod
    def columnar_compose(cls, nodes, senders, round_index, buf) -> None:
        """Batched :meth:`compose_messages`: append rows, skip envelopes.

        Mirrors the per-node method exactly: a node with an empty queue would
        compose only silent envelopes, so it contributes no rows; a node with
        a non-empty queue dequeues one item and reaches *every* neighbor with
        ``is_empty=False`` (payload columns ``None`` where the per-node path
        would send a payload-free envelope), in ``adj`` iteration order.
        """
        ap_s = buf.senders.append
        ap_t = buf.targets.append
        ap_e = buf.edges.append
        ap_o = buf.ops.append
        ap_p = buf.patterns.append
        ap_f = buf.empty_flags.append
        rows_before = len(buf.senders)
        payload_rows = 0
        mark_a = PatternMark.A
        mark_b = PatternMark.B
        op_delete = EdgeOp.DELETE
        op_insert = EdgeOp.INSERT
        for v in senders:
            node = nodes[v]
            q = node.Q
            if not q:
                continue
            item = q.pop(0)
            adj = node.adj
            if type(item) is _PatternAItem:
                edge, op, ts = item.edge, item.op, item.timestamp
                if op is op_delete:
                    for u in adj:
                        ap_s(v); ap_t(u); ap_e(edge); ap_o(op); ap_p(mark_a); ap_f(False)
                    payload_rows += len(adj)
                else:
                    for u, t_vu in adj.items():
                        ap_s(v); ap_t(u); ap_f(False)
                        if ts >= t_vu:
                            ap_e(edge); ap_o(op); ap_p(mark_a)
                            payload_rows += 1
                        else:
                            ap_e(None); ap_o(None); ap_p(None)
            else:
                edge = item.edge
                other = edge[0] if edge[1] == v else edge[1]
                target = item.target if (item.target in adj and other in adj) else None
                for u in adj:
                    ap_s(v); ap_t(u); ap_f(False)
                    if u == target:
                        ap_e(edge); ap_o(op_insert); ap_p(mark_b)
                        payload_rows += 1
                    else:
                        ap_e(None); ap_o(None); ap_p(None)
        buf.payload_rows += payload_rows
        # Every triangle row carries is_empty=False (the sender's queue was
        # non-empty at send), so every row costs its one control bit.
        buf.flag_rows += len(buf.senders) - rows_before
        buf.payload_flag_rows += payload_rows

    @classmethod
    def columnar_deliver(cls, nodes, round_index, receivers, buf, groups) -> None:
        """Batched :meth:`on_messages` over grouped, non-dropped rows."""
        edges = buf.edges
        flags = buf.empty_flags
        row_senders = buf.senders
        patterns = buf.patterns
        ops = buf.ops
        mark_a = PatternMark.A
        for v in receivers:
            node = nodes[v]
            rows = groups.get(v)
            saw_nonempty = False
            if rows:
                for i in rows:
                    if not flags[i]:
                        saw_nonempty = True
                    edge = edges[i]
                    if edge is None:
                        continue
                    if patterns[i] is mark_a:
                        node._apply_pattern_a(row_senders[i], edge, ops[i])
                    else:
                        node._apply_pattern_b(row_senders[i], edge)
            node.consistent = (not node.Q) and (not saw_nonempty)

    # ------------------------------------------------------------------ #
    # Claim bookkeeping
    # ------------------------------------------------------------------ #
    def _drop_claims_involving(self, endpoint: int) -> None:
        """Drop every claim that relied on the (now deleted) edge towards ``endpoint``."""
        for edge in [e for e in self.S if endpoint in e]:
            claims = self.S[edge]
            # Knowledge announced over the vanished edge can no longer be
            # certified ...
            claims.via.discard(endpoint)
            # ... and a pattern-(b) claim needs *both* endpoints of the far
            # edge to be neighbors, so it is invalidated outright.
            claims.hinted_by.clear()
            if not claims:
                del self.S[edge]

    # ------------------------------------------------------------------ #
    # Query window
    # ------------------------------------------------------------------ #
    def is_consistent(self) -> bool:
        return self.consistent

    def is_quiescent(self) -> bool:
        # Empty queue => only silent envelopes would be composed; consistent
        # => an empty receive leaves the verdict at True.  Skipping is a no-op.
        return self.consistent and not self.Q

    def knows_edge(self, u: int, w: int) -> bool:
        """Whether the edge ``{u, w}`` is currently known (incident or claimed)."""
        edge = canonical_edge(u, w)
        if self.node_id in edge:
            other = edge[0] if edge[1] == self.node_id else edge[1]
            return other in self.adj
        return edge in self.S

    def query(self, query: Any) -> QueryResult:
        """Answer a :class:`TriangleQuery` or an :class:`EdgeQuery`."""
        if isinstance(query, TriangleQuery):
            if self.node_id not in query.nodes:
                raise ValueError(
                    f"node {self.node_id} was queried for a triangle not containing it: {query.nodes}"
                )
            if not self.consistent:
                return QueryResult.INCONSISTENT
            others = sorted(query.nodes - {self.node_id})
            u, w = others
            return QueryResult.of(
                u in self.adj and w in self.adj and self.knows_edge(u, w)
            )
        if isinstance(query, EdgeQuery):
            if not self.consistent:
                return QueryResult.INCONSISTENT
            return QueryResult.of(self.knows_edge(query.u, query.w))
        raise TypeError(
            f"TriangleMembershipNode answers TriangleQuery/EdgeQuery, got {type(query).__name__}"
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def known_edges(self) -> FrozenSet[Edge]:
        """The known edge set (equals ``T^{v,2}_i`` when consistent)."""
        incident = frozenset(canonical_edge(self.node_id, u) for u in self.adj)
        return frozenset(self.S) | incident

    def known_triangles(self) -> Set[FrozenSet[int]]:
        """All triangles through this node according to the local state."""
        triangles: Set[FrozenSet[int]] = set()
        neighbors = sorted(self.adj)
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1 :]:
                if canonical_edge(u, w) in self.S:
                    triangles.add(frozenset({self.node_id, u, w}))
        return triangles

    def local_state_size(self) -> int:
        return sum(c.size() for c in self.S.values()) + len(self.Q) + len(self.adj)
