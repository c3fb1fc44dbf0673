"""Topology-change batches for highly dynamic networks.

The model of Censor-Hillel, Kolobov and Schwartzman (SPAA 2021) starts from an
empty graph on ``n`` nodes and, at the *beginning* of every round, applies an
arbitrary batch of edge insertions and deletions chosen by an adversary.  The
nodes incident to a change receive a local indication of that change before
the communication part of the round starts (Figure 1 of the paper).

This module defines the change vocabulary used throughout the simulator:

* :class:`RoundChanges` -- the batch of changes applied in one round, held as
  its lists of inserted and deleted canonical edges.
* :func:`canonical_edge` -- the canonical undirected-edge representation used
  everywhere in the code base (a sorted 2-tuple of node identifiers).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Tuple

__all__ = ["Edge", "canonical_edge", "RoundChanges"]

#: Canonical undirected edge type: a sorted pair of node identifiers.
Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical representation of the undirected edge ``{u, v}``.

    Node identifiers are non-negative integers.  The canonical form is the
    pair sorted in increasing order, which makes edges hashable and directly
    comparable regardless of the order in which endpoints are supplied.

    Endpoints are normalized to the builtin ``int``: the rng-backed
    adversaries draw node ids through numpy and would otherwise leak
    ``np.int64`` into :class:`RoundChanges` batches, indications and recorded
    traces, where ``json.dumps`` raises and reprs (hence fingerprints) drift.
    Every edge in the code base passes through here, so this is the single
    choke point that keeps traces JSON-serializable and hash-stable.  Only
    integers convert: anything with ``__index__`` (numpy ints included) is
    accepted, while a ``bool``, ``float`` or ``str`` is rejected rather than
    truncated or parsed.

    Raises:
        ValueError: if an endpoint is not an integer, if ``u == v`` (self
            loops are not part of the model) or if either endpoint is
            negative.
    """
    if type(u) is not int:
        u = _node_id(u)
    if type(v) is not int:
        v = _node_id(v)
    if u == v:
        raise ValueError(f"self loops are not allowed: ({u}, {v})")
    if u < 0 or v < 0:
        raise ValueError(f"node identifiers must be non-negative: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def _node_id(value) -> int:
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"node identifiers must be integers, got {value!r}")


def _canonical_edges(edges: Iterable[Tuple[int, int]]) -> list[Edge]:
    out: list[Edge] = []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise ValueError(f"an edge is a pair of node ids, got {edge!r}") from None
        out.append(canonical_edge(u, v))
    return out


@dataclass
class RoundChanges:
    """The batch of topology changes applied at the beginning of one round.

    The adversary of the highly dynamic model may insert and delete an
    *arbitrary* number of edges per round.  All changes of a round are
    simultaneous, but a batch may not touch an edge twice -- the adversary
    must pick, for every edge, at most one of "insert" or "delete" per round.

    Construction canonicalizes every edge once (see :func:`canonical_edge`)
    and rejects a repeated edge, within one list or across the two, so every
    consumer reads the lists as they are.  Applying a batch
    (:meth:`~repro.simulator.network.DynamicNetwork.apply_changes`) deletes
    before it inserts.

    Attributes:
        insertions: canonical edges inserted in this round.
        deletions: canonical edges deleted in this round.
    """

    insertions: list[Edge] = field(default_factory=list)
    deletions: list[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.insertions = _canonical_edges(self.insertions)
        self.deletions = _canonical_edges(self.deletions)
        touched = set(self.deletions)
        touched.update(self.insertions)
        if len(touched) < len(self):
            seen: set[Edge] = set()
            for edge in (*self.deletions, *self.insertions):
                if edge in seen:
                    raise ValueError(f"round batch touches edge {edge} more than once")
                seen.add(edge)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "RoundChanges":
        """A round with no topology changes (a *quiet* round)."""
        return cls()

    @classmethod
    def inserts(cls, edges: Iterable[Tuple[int, int]]) -> "RoundChanges":
        """Build a batch consisting only of insertions of ``edges``."""
        return cls(insertions=edges)

    @classmethod
    def deletes(cls, edges: Iterable[Tuple[int, int]]) -> "RoundChanges":
        """Build a batch consisting only of deletions of ``edges``."""
        return cls(deletions=edges)

    @classmethod
    def of(
        cls,
        insert: Iterable[Tuple[int, int]] = (),
        delete: Iterable[Tuple[int, int]] = (),
    ) -> "RoundChanges":
        """Build a batch with both insertions and deletions."""
        return cls(insertions=insert, deletions=delete)

    def __len__(self) -> int:
        return len(self.insertions) + len(self.deletions)

    def __bool__(self) -> bool:
        return bool(self.insertions or self.deletions)
