"""Reference (centralized) computation of the paper's temporal edge-pattern sets.

These pure functions compute, from a full view of the graph and the true
insertion times, the sets that the distributed data structures are supposed to
maintain:

* ``E^{v,r}_i`` -- all edges of the r-hop neighborhood of ``v``
  (:func:`khop_edges`);
* ``R^{v,2}_i`` -- the robust 2-hop neighborhood of Appendix A
  (:func:`robust_two_hop`);
* ``T^{v,2}_i`` -- the Figure 2 temporal patterns (a) + (b) maintained by the
  triangle membership structure (:func:`triangle_pattern_set`);
* ``R^{v,3}_i`` -- the robust 3-hop neighborhood of Figure 3
  (:func:`robust_three_hop`).

They are the ground truth against which the test-suite and the coverage
benchmark (E11) compare the distributed implementations.  All functions take
the edge set and the insertion-time map explicitly, so they work on any
graph a caller holds.

The ``*_adj`` variants compute the same sets from a prebuilt adjacency map
instead of rebuilding one from the full edge set per call, so their cost is
proportional to the queried node's neighborhood rather than to |E|.  They are
what the incremental :class:`~repro.oracle.ground_truth.GroundTruthOracle`
serves cache misses from; the edge-set functions above them stay as the
deliberately simple from-scratch reference the incremental oracle is
differentially tested against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Set

from ..simulator.events import Edge, canonical_edge

__all__ = [
    "adjacency",
    "khop_edges",
    "khop_edges_adj",
    "robust_two_hop",
    "robust_two_hop_adj",
    "triangle_pattern_set",
    "triangle_pattern_set_adj",
    "robust_three_hop",
    "robust_three_hop_adj",
]


def adjacency(edges: Iterable[Edge]) -> Dict[int, Set[int]]:
    """Adjacency map of an edge set."""
    adj: Dict[int, Set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def khop_edges(edges: Iterable[Edge], v: int, radius: int) -> FrozenSet[Edge]:
    """``E^{v,r}_i``: the edges of the r-hop neighborhood of ``v``.

    Following the paper's operative definition (Section 2 spells it out for
    ``r = 2``: "the set of edges that touch the node v or any of its
    neighbors"), an edge belongs to the r-hop neighborhood iff at least one of
    its endpoints is within distance ``r - 1`` of ``v`` -- equivalently, the
    edge lies on some path of at most ``r`` edges starting at ``v``.
    """
    edge_set = set(edges)
    adj = adjacency(edge_set)
    dist: Dict[int, int] = {v: 0}
    frontier = [v]
    for d in range(1, radius):
        nxt = []
        for node in frontier:
            for nb in adj.get(node, ()):  # BFS layer by layer
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return frozenset(
        e
        for e in edge_set
        if (e[0] in dist and dist[e[0]] <= radius - 1)
        or (e[1] in dist and dist[e[1]] <= radius - 1)
    )


def robust_two_hop(
    edges: Iterable[Edge], times: Mapping[Edge, int], v: int
) -> FrozenSet[Edge]:
    """``R^{v,2}_i``: the (v, i)-robust edges of Appendix A.

    An edge ``e = {u, w}`` is (v, i)-robust if ``v`` is one of its endpoints,
    or ``t_e >= t_{v,u}`` with ``{v,u}`` present, or ``t_e >= t_{v,w}`` with
    ``{v,w}`` present.
    """
    edge_set = set(edges)
    adj = adjacency(edge_set)
    neighbors = adj.get(v, set())
    robust: Set[Edge] = {canonical_edge(v, u) for u in neighbors}
    for e in edge_set:
        if v in e:
            continue
        u, w = e
        t_e = times[e]
        if u in neighbors and t_e >= times[canonical_edge(v, u)]:
            robust.add(e)
        elif w in neighbors and t_e >= times[canonical_edge(v, w)]:
            robust.add(e)
    return frozenset(robust)


def triangle_pattern_set(
    edges: Iterable[Edge], times: Mapping[Edge, int], v: int
) -> FrozenSet[Edge]:
    """``T^{v,2}_i``: the Figure 2 temporal patterns (a) and (b).

    Pattern (a) is the robust 2-hop neighborhood; pattern (b) additionally
    includes every edge ``{u, w}`` between two neighbors of ``v`` that is
    *older* than both ``{v,u}`` and ``{v,w}``.  Together these sets contain
    every triangle through ``v``.
    """
    edge_set = set(edges)
    adj = adjacency(edge_set)
    neighbors = adj.get(v, set())
    out: Set[Edge] = set(robust_two_hop(edge_set, times, v))
    for e in edge_set:
        if v in e:
            continue
        u, w = e
        if u in neighbors and w in neighbors:
            t_e = times[e]
            if t_e < times[canonical_edge(v, u)] and t_e < times[canonical_edge(v, w)]:
                out.add(e)
    return frozenset(out)


def robust_three_hop(
    edges: Iterable[Edge], times: Mapping[Edge, int], v: int
) -> FrozenSet[Edge]:
    """``R^{v,3}_i``: the robust 3-hop neighborhood of Figure 3.

    * incident edges of ``v``;
    * pattern (a): ``v - u - w`` with ``t_{u,w} >= t_{v,u}``;
    * pattern (b): ``v - u - w - x`` (a simple 3-path) with
      ``t_{w,x} >= t_{u,w}`` and ``t_{w,x} >= t_{v,u}``.
    """
    edge_set = set(edges)
    adj = adjacency(edge_set)
    neighbors = adj.get(v, set())
    robust: Set[Edge] = {canonical_edge(v, u) for u in neighbors}

    # Pattern (a): same as the non-incident part of the robust 2-hop set.
    robust |= set(robust_two_hop(edge_set, times, v)) - {
        canonical_edge(v, u) for u in neighbors
    }

    # Pattern (b): 3-paths v - u - w - x whose farthest edge is newest.
    for u in neighbors:
        t_vu = times[canonical_edge(v, u)]
        for w in adj.get(u, ()):  # second hop
            if w == v or w == u:
                continue
            e_uw = canonical_edge(u, w)
            t_uw = times[e_uw]
            for x in adj.get(w, ()):  # third hop
                if x in (v, u, w):
                    continue
                e_wx = canonical_edge(w, x)
                t_wx = times[e_wx]
                if t_wx >= t_uw and t_wx >= t_vu:
                    robust.add(e_wx)
    return frozenset(robust)


# --------------------------------------------------------------------- #
# Adjacency-based variants (activity-proportional query cost)
# --------------------------------------------------------------------- #
def khop_edges_adj(adj: Mapping[int, Set[int]], v: int, radius: int) -> FrozenSet[Edge]:
    """``E^{v,r}_i`` from a prebuilt adjacency; equals :func:`khop_edges`.

    An edge belongs to the r-hop neighborhood iff one of its endpoints is
    within distance ``r - 1`` of ``v``, so collecting the incident edges of
    every node of the BFS ball of depth ``r - 1`` yields exactly the
    reference set while only touching the ball.
    """
    if radius < 1:
        return frozenset()  # matches the reference: no node is within r - 1 < 0
    dist: Dict[int, int] = {v: 0}
    frontier = [v]
    for d in range(1, radius):
        nxt = []
        for node in frontier:
            for nb in adj.get(node, ()):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return frozenset(
        canonical_edge(u, nb) for u in dist for nb in adj.get(u, ())
    )


def robust_two_hop_adj(
    adj: Mapping[int, Set[int]], times: Mapping[Edge, int], v: int
) -> FrozenSet[Edge]:
    """``R^{v,2}_i`` from a prebuilt adjacency; equals :func:`robust_two_hop`."""
    neighbors = adj.get(v, set())
    robust: Set[Edge] = {canonical_edge(v, u) for u in neighbors}
    for u in neighbors:
        t_vu = times[canonical_edge(v, u)]
        for w in adj.get(u, ()):
            if w == v:
                continue
            e = canonical_edge(u, w)
            if times[e] >= t_vu:
                robust.add(e)
    return frozenset(robust)


def triangle_pattern_set_adj(
    adj: Mapping[int, Set[int]], times: Mapping[Edge, int], v: int
) -> FrozenSet[Edge]:
    """``T^{v,2}_i`` from a prebuilt adjacency; equals :func:`triangle_pattern_set`."""
    neighbors = adj.get(v, set())
    out: Set[Edge] = set(robust_two_hop_adj(adj, times, v))
    for u in neighbors:
        t_vu = times[canonical_edge(v, u)]
        for w in adj.get(u, ()):
            if w == v or w not in neighbors:
                continue
            e = canonical_edge(u, w)
            t_e = times[e]
            if t_e < t_vu and t_e < times[canonical_edge(v, w)]:
                out.add(e)
    return frozenset(out)


def robust_three_hop_adj(
    adj: Mapping[int, Set[int]], times: Mapping[Edge, int], v: int
) -> FrozenSet[Edge]:
    """``R^{v,3}_i`` from a prebuilt adjacency; equals :func:`robust_three_hop`."""
    neighbors = adj.get(v, set())
    robust: Set[Edge] = {canonical_edge(v, u) for u in neighbors}

    # Pattern (a): v - u - w with t_{u,w} >= t_{v,u}.
    robust |= set(robust_two_hop_adj(adj, times, v))

    # Pattern (b): 3-paths v - u - w - x whose farthest edge is newest.
    for u in neighbors:
        t_vu = times[canonical_edge(v, u)]
        for w in adj.get(u, ()):
            if w == v or w == u:
                continue
            t_uw = times[canonical_edge(u, w)]
            for x in adj.get(w, ()):
                if x in (v, u, w):
                    continue
                e_wx = canonical_edge(w, x)
                t_wx = times[e_wx]
                if t_wx >= t_uw and t_wx >= t_vu:
                    robust.add(e_wx)
    return frozenset(robust)
