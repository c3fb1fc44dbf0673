"""Centralized subgraph enumeration used as ground truth by tests and benches.

All functions operate on a plain edge set (canonical tuples) and enumerate
the subgraphs the paper's data structures are asked about: triangles,
k-cliques, and k-cycles, optionally restricted to those containing a given
node.  Most of them build a :class:`networkx.Graph` with :func:`build_graph`,
which imports networkx on its first call; no other code in the package
imports it.  The ``*_adj`` variants work off a prebuilt adjacency map and
never load it.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..simulator.events import Edge, canonical_edge

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "build_graph",
    "triangles_containing",
    "triangles_containing_adj",
    "all_triangles",
    "cliques_containing",
    "cliques_containing_adj",
    "is_clique",
    "is_clique_adj",
    "cycles_of_length",
    "cycles_containing",
    "is_cycle_ordering",
    "set_is_cycle",
]


def build_graph(edges: Iterable[Edge], n: int | None = None) -> nx.Graph:
    """Build a networkx graph from canonical edges (optionally with isolated nodes)."""
    import networkx as nx

    graph = nx.Graph()
    if n is not None:
        graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return graph


def all_triangles(edges: Iterable[Edge]) -> Set[FrozenSet[int]]:
    """Every triangle of the graph, as frozensets of three nodes."""
    graph = build_graph(edges)
    triangles: Set[FrozenSet[int]] = set()
    for u, w in graph.edges():
        for z in set(graph[u]) & set(graph[w]):
            triangles.add(frozenset({u, w, z}))
    return triangles


def triangles_containing(edges: Iterable[Edge], v: int) -> Set[FrozenSet[int]]:
    """All triangles containing node ``v``."""
    graph = build_graph(edges)
    if v not in graph:
        return set()
    out: Set[FrozenSet[int]] = set()
    neighbors = sorted(graph[v])
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1 :]:
            if graph.has_edge(u, w):
                out.add(frozenset({v, u, w}))
    return out


def is_clique(edges: Iterable[Edge], nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` form a clique in the graph."""
    edge_set = set(edges)
    node_list = sorted(set(nodes))
    return all(
        canonical_edge(a, b) in edge_set for a, b in combinations(node_list, 2)
    )


def cliques_containing(edges: Iterable[Edge], v: int, k: int) -> Set[FrozenSet[int]]:
    """All k-cliques containing node ``v``."""
    graph = build_graph(edges)
    if v not in graph or graph.degree(v) < k - 1:
        return set()
    out: Set[FrozenSet[int]] = set()
    neighbors = sorted(graph[v])
    for combo in combinations(neighbors, k - 1):
        candidate = set(combo) | {v}
        if is_clique(edges, candidate):
            out.add(frozenset(candidate))
    return out


def cycles_of_length(edges: Iterable[Edge], k: int) -> Set[FrozenSet[int]]:
    """All (chordless or chorded) k-cycles of the graph, as node sets.

    A node set counts as a k-cycle if *some* cyclic ordering of it has all its
    consecutive edges present -- the subgraph-listing convention used by the
    paper (chords are irrelevant to whether the cycle subgraph exists).
    """
    graph = build_graph(edges)
    cycles: Set[FrozenSet[int]] = set()
    nodes = sorted(graph.nodes)

    def extend(path: List[int], start: int) -> None:
        if len(path) == k:
            if graph.has_edge(path[-1], start):
                cycles.add(frozenset(path))
            return
        for nxt in graph[path[-1]]:
            # Enumerate each cycle once: keep the start as the minimum node and
            # never revisit nodes.
            if nxt > start and nxt not in path:
                extend(path + [nxt], start)

    for start in nodes:
        extend([start], start)
    return cycles


def cycles_containing(edges: Iterable[Edge], v: int, k: int) -> Set[FrozenSet[int]]:
    """All k-cycles (as node sets) that contain node ``v``."""
    return {cycle for cycle in cycles_of_length(edges, k) if v in cycle}


def is_cycle_ordering(edges: Iterable[Edge], ordering: Sequence[int]) -> bool:
    """Whether the given cyclic ordering has all its consecutive edges present."""
    edge_set = set(edges)
    k = len(ordering)
    return all(
        canonical_edge(ordering[i], ordering[(i + 1) % k]) in edge_set for i in range(k)
    )


def set_is_cycle(edges: Iterable[Edge], nodes: Iterable[int]) -> bool:
    """Whether some cyclic ordering of ``nodes`` forms a cycle in the graph."""
    node_list = sorted(set(nodes))
    if len(node_list) < 3:
        return False
    graph = build_graph(edges)
    if any(v not in graph for v in node_list):
        return False
    sub_edges = [
        canonical_edge(a, b)
        for a, b in combinations(node_list, 2)
        if graph.has_edge(a, b)
    ]
    return frozenset(node_list) in {
        c for c in cycles_of_length(sub_edges, len(node_list))
    }


# --------------------------------------------------------------------- #
# Adjacency-based variants (activity-proportional query cost)
# --------------------------------------------------------------------- #
def triangles_containing_adj(adj, v: int) -> Set[FrozenSet[int]]:
    """All triangles containing ``v``; equals :func:`triangles_containing`.

    Works off a prebuilt adjacency map, so the cost is quadratic in ``v``'s
    degree instead of linear in |E| (no graph rebuild per call).
    """
    neighbors = sorted(adj.get(v, ()))
    out: Set[FrozenSet[int]] = set()
    for i, u in enumerate(neighbors):
        adj_u = adj.get(u, ())
        for w in neighbors[i + 1 :]:
            if w in adj_u:
                out.add(frozenset({v, u, w}))
    return out


def is_clique_adj(adj, nodes: Iterable[int]) -> bool:
    """Whether ``nodes`` form a clique, from a prebuilt adjacency map."""
    node_list = sorted(set(nodes))
    return all(b in adj.get(a, ()) for a, b in combinations(node_list, 2))


def cliques_containing_adj(adj, v: int, k: int) -> Set[FrozenSet[int]]:
    """All k-cliques containing ``v``; equals :func:`cliques_containing`."""
    neighbors = sorted(adj.get(v, ()))
    if len(neighbors) < k - 1:
        return set()
    out: Set[FrozenSet[int]] = set()
    for combo in combinations(neighbors, k - 1):
        if is_clique_adj(adj, combo):
            out.add(frozenset(combo) | {v})
    return out
