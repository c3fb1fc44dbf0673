"""The robust 2-hop neighborhood data structure (Theorem 7, Appendix A).

A node cannot afford to maintain its entire 2-hop neighborhood (that is
2-hop neighborhood *listing*, which Corollary 2 shows requires a near-linear
amortized number of rounds).  The paper therefore defines the **robust 2-hop
neighborhood** ``R^{v,2}_i``: the edge ``e = {u, w}`` is *(v, i)-robust* if

* ``v`` is one of its endpoints, or
* ``t_e >= t_{v,u}`` and ``{v,u}`` exists in ``G_i``, or
* ``t_e >= t_{v,w}`` and ``{v,w}`` exists in ``G_i``,

where ``t_e`` is the latest round in which ``e`` was inserted.  Theorem 7
shows a deterministic distributed dynamic data structure maintaining exactly
this set with ``O(1)`` amortized round complexity.

Implementation notes (bookkeeping)
----------------------------------
The paper's algorithm keeps, per known edge, a single *imaginary* timestamp
``t'_e`` (the insertion time of the edge over which the announcement arrived)
and prunes edges by comparing imaginary timestamps on deletions.  We keep the
exact same messages and the same pruning *rules*, but organise the local
bookkeeping as **per-endpoint support claims**: node ``v`` records, for every
far edge ``e = {u, w}``, through which of its endpoints it currently knows
the edge.

* an announcement of ``e`` received from endpoint ``s`` (which the sender only
  emits towards neighbors whose connecting edge is not newer than ``e``)
  creates the claim *via s*;
* a deletion announcement of ``e`` received from ``s`` removes the claim
  *via s*;
* the deletion of the incident edge ``{v, s}`` removes every claim *via s*
  (this is the paper's step-2 cleanup: knowledge obtained through a vanished
  edge cannot be trusted anymore);
* the edge is known while at least one claim remains.

Because announcements from one endpoint arrive in FIFO order, a claim always
reflects that endpoint's most recent announcement, which makes the structure
immune to "stale" deletion announcements from one endpoint erasing fresh
knowledge obtained through the other -- the interleaving that a literal
single-timestamp reading mishandles.  When the node reports consistency the
claim set coincides with ``R^{v,2}_i`` (each claim *via s* certifies exactly
``t_e >= t_{v,s}`` with ``{v,s}`` present, and conversely every robust edge
has received its announcement over a continuously-present connecting edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from ..simulator.events import Edge, canonical_edge
from ..simulator.messages import EdgeEventMessage, EdgeOp, Envelope, PatternMark
from ..simulator.node import NodeAlgorithm
from .queries import EdgeQuery, QueryResult

__all__ = ["RobustTwoHopNode"]


@dataclass
class _QueueItem:
    """A pending announcement: an incident edge change plus its timestamp.

    ``timestamp`` is the true insertion time of the edge at enqueue time (for
    deletion items, the insertion time the edge had when it was deleted).  It
    is only used locally to decide which neighbors receive the item and is
    never transmitted.
    """

    edge: Edge
    op: EdgeOp
    timestamp: int


class RobustTwoHopNode(NodeAlgorithm):
    """Per-node algorithm of Theorem 7 (robust 2-hop neighborhood listing).

    Query interface: :class:`~repro.core.queries.EdgeQuery`, answered TRUE iff
    the edge is currently known.  When the node reports consistency, the known
    set equals the robust 2-hop neighborhood ``R^{v,2}_i``.
    """

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id, n)
        #: Current neighbors and the true insertion time of the connecting edge.
        self.adj: Dict[int, int] = {}
        #: Far edges mapped to the set of endpoints through which they are known.
        self.S: Dict[Edge, Set[int]] = {}
        #: Pending announcements, drained one per round.
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
            # Step-2 cleanup: knowledge obtained through the vanished edge
            # {v, u} can no longer be certified -- drop every claim via u.
            self._drop_claims_via(u)
            self.Q.append(
                _QueueItem(canonical_edge(self.node_id, u), EdgeOp.DELETE, deleted_timestamps[u])
            )
        for u in inserted:
            self.adj[u] = round_index
            self.Q.append(
                _QueueItem(canonical_edge(self.node_id, u), EdgeOp.INSERT, round_index)
            )

    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        payload: Optional[_QueueItem] = self.Q.pop(0) if self.Q else None
        # Theorem 7 piggybacks "IsEmpty = is the queue empty *now*", i.e. after
        # the dequeue of this round.  Kept local so composing with an empty
        # queue stays a strict no-op on state (the quiescence contract).
        queue_empty_at_send = not self.Q
        outgoing: Dict[int, Envelope] = {}
        for u, t_vu in self.adj.items():
            message = None
            if payload is not None and payload.timestamp >= t_vu:
                message = EdgeEventMessage(payload.edge, payload.op, PatternMark.A)
            envelope = Envelope(payload=message, is_empty=queue_empty_at_send)
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
            self._apply_remote_event(sender, message.edge, message.op)
        # Consistency: the queue must be empty and no neighbor may still have
        # pending items.
        self.consistent = (not self.Q) and (not saw_nonempty_neighbor)

    def _apply_remote_event(self, sender: int, edge: Edge, op: EdgeOp) -> None:
        # Shared verbatim by the per-envelope path above and the columnar
        # batched path below -- one implementation, one behavior.
        if self.node_id in edge:
            # The node's own incident edges are tracked authoritatively from
            # its topology indications; remote echoes are ignored.
            return
        if sender not in edge:
            # Announcements always concern an edge incident to the sender.
            return
        if op is EdgeOp.INSERT:
            if sender not in self.adj:
                # The connecting edge disappeared within this round; without it
                # the announcement certifies nothing and is dropped (the later
                # cleanup / announcements keep the set correct).
                return
            self.S.setdefault(edge, set()).add(sender)
        else:
            self._drop_claim(edge, sender)

    # ------------------------------------------------------------------ #
    # Columnar port (ColumnarProtocol)
    # ------------------------------------------------------------------ #
    @classmethod
    def columnar_compose(cls, nodes, senders, round_index, buf) -> None:
        """Batched :meth:`compose_messages`: append rows, skip envelopes.

        Mirrors the per-node method exactly.  A node with an empty queue is
        silent everywhere and contributes no rows.  Otherwise one item is
        dequeued; Theorem 7 reports "IsEmpty = empty *after* the dequeue", so
        when the queue drains this round only the timestamp-qualifying
        neighbors get a (payload, ``is_empty=True``) row and everyone else
        sees silence, while a still-non-empty queue reaches every neighbor
        with ``is_empty=False`` (payload columns ``None`` for non-qualifying
        neighbors), in ``adj`` iteration order.
        """
        ap_s = buf.senders.append
        ap_t = buf.targets.append
        ap_e = buf.edges.append
        ap_o = buf.ops.append
        ap_p = buf.patterns.append
        ap_f = buf.empty_flags.append
        payload_rows = 0
        flag_rows = 0
        payload_flag_rows = 0
        mark_a = PatternMark.A
        for v in senders:
            node = nodes[v]
            q = node.Q
            if not q:
                continue
            item = q.pop(0)
            empty_after = not q
            edge, op, ts = item.edge, item.op, item.timestamp
            if empty_after:
                for u, t_vu in node.adj.items():
                    if ts >= t_vu:
                        ap_s(v); ap_t(u); ap_e(edge); ap_o(op); ap_p(mark_a); ap_f(True)
                        payload_rows += 1
            else:
                for u, t_vu in node.adj.items():
                    ap_s(v); ap_t(u); ap_f(False)
                    flag_rows += 1
                    if ts >= t_vu:
                        ap_e(edge); ap_o(op); ap_p(mark_a)
                        payload_rows += 1
                        payload_flag_rows += 1
                    else:
                        ap_e(None); ap_o(None); ap_p(None)
        buf.payload_rows += payload_rows
        buf.flag_rows += flag_rows
        buf.payload_flag_rows += payload_flag_rows

    @classmethod
    def columnar_deliver(cls, nodes, round_index, receivers, buf, groups) -> None:
        """Batched :meth:`on_messages` over grouped, non-dropped rows."""
        edges = buf.edges
        flags = buf.empty_flags
        row_senders = buf.senders
        ops = buf.ops
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
                    node._apply_remote_event(row_senders[i], edge, ops[i])
            node.consistent = (not node.Q) and (not saw_nonempty)

    # ------------------------------------------------------------------ #
    # Claim bookkeeping
    # ------------------------------------------------------------------ #
    def _drop_claim(self, edge: Edge, endpoint: int) -> None:
        claims = self.S.get(edge)
        if claims is None:
            return
        claims.discard(endpoint)
        if not claims:
            del self.S[edge]

    def _drop_claims_via(self, endpoint: int) -> None:
        for edge in [e for e in self.S if endpoint in e]:
            self._drop_claim(edge, endpoint)

    # ------------------------------------------------------------------ #
    # Query window
    # ------------------------------------------------------------------ #
    def is_consistent(self) -> bool:
        return self.consistent

    def is_quiescent(self) -> bool:
        # With an empty queue the node composes only silent envelopes, and a
        # consistent node's verdict is unchanged by an empty receive -- so
        # skipping its hooks is a no-op until an indication or message arrives.
        return self.consistent and not self.Q

    def knows_edge(self, u: int, w: int) -> bool:
        """Whether the edge ``{u, w}`` is currently known (incident or claimed)."""
        edge = canonical_edge(u, w)
        if self.node_id in edge:
            other = edge[0] if edge[1] == self.node_id else edge[1]
            return other in self.adj
        return edge in self.S

    def query(self, query: Any) -> QueryResult:
        """Answer an :class:`EdgeQuery` about the robust 2-hop neighborhood."""
        if not isinstance(query, EdgeQuery):
            raise TypeError(f"RobustTwoHopNode answers EdgeQuery, got {type(query).__name__}")
        if not self.consistent:
            return QueryResult.INCONSISTENT
        return QueryResult.of(self.knows_edge(query.u, query.w))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def known_edges(self) -> FrozenSet[Edge]:
        """All edges currently known: incident edges plus claimed far edges."""
        incident = frozenset(canonical_edge(self.node_id, u) for u in self.adj)
        return frozenset(self.S) | incident

    def local_state_size(self) -> int:
        return sum(len(c) for c in self.S.values()) + len(self.Q) + len(self.adj)
