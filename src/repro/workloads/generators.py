"""Canned dynamic workloads shared by examples, tests and benchmarks.

These generators produce explicit topology schedules (as
:class:`~repro.adversary.scripted.ScriptedAdversary` instances) with known
structure -- planted triangles, cliques or cycles that appear and disappear
over time -- so that experiments can ask the data structures about subgraphs
that are guaranteed to exist (or to have existed and been destroyed).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import List, Optional, Sequence, Set, Tuple

from ..adversary.base import seeded_rng
from ..adversary.scripted import ScriptedAdversary
from ..simulator.events import Edge, RoundChanges, canonical_edge

__all__ = [
    "planted_clique_churn",
    "planted_cycle_churn",
    "growing_random_graph",
    "flip_flop_edges",
]


def planted_clique_churn(
    n: int,
    k: int,
    num_plants: int,
    *,
    noise_edges_per_round: int = 1,
    seed: int = 0,
) -> Tuple[ScriptedAdversary, List[frozenset]]:
    """A schedule that repeatedly plants and dismantles k-cliques amid noise.

    Each plant picks ``k`` random nodes, inserts the clique edges one round at
    a time (interleaved with random noise insertions/deletions), keeps the
    clique alive for a few rounds and then deletes it edge by edge.

    Returns the adversary and the list of planted cliques (node frozensets) in
    plant order.
    """
    if k > n:
        raise ValueError("k cannot exceed n")
    rng = seeded_rng(seed)
    rounds: List[RoundChanges] = []
    plants: List[frozenset] = []
    present: Set[Edge] = set()

    def noise(batch_insert: List[Edge], batch_delete: List[Edge], protected: Set[Edge]) -> None:
        """Add random insertions/deletions that never touch the protected edges."""
        for _ in range(noise_edges_per_round):
            u, w = rng.integers(0, n, size=2)
            if u == w:
                continue
            e = canonical_edge(int(u), int(w))
            if e in protected or e in batch_insert or e in batch_delete:
                continue
            if e in present:
                batch_delete.append(e)
            else:
                batch_insert.append(e)

    for _ in range(num_plants):
        members = sorted(int(x) for x in rng.choice(n, size=k, replace=False))
        plants.append(frozenset(members))
        clique_edges = [canonical_edge(a, b) for a, b in combinations(members, 2)]
        protected = set(clique_edges)
        # Insert the clique edges one per round (skipping noise duplicates).
        for edge in clique_edges:
            inserts: List[Edge] = []
            deletes: List[Edge] = []
            if edge not in present:
                inserts.append(edge)
            noise(inserts, deletes, protected)
            present.update(inserts)
            present.difference_update(deletes)
            rounds.append(RoundChanges.of(insert=inserts, delete=deletes))
        # Let the clique live for a couple of quiet rounds.
        rounds.extend(RoundChanges.empty() for _ in range(3))
        # Tear it down (the clique edges may now be touched again).
        for edge in clique_edges:
            deletes = [edge] if edge in present else []
            inserts = []
            noise(inserts, deletes, {edge})
            present.update(inserts)
            present.difference_update(deletes)
            rounds.append(RoundChanges.of(insert=inserts, delete=deletes))
    rounds.extend(RoundChanges.empty() for _ in range(3))
    return ScriptedAdversary(rounds), plants


def planted_cycle_churn(
    n: int,
    k: int,
    num_plants: int,
    *,
    seed: int = 0,
    teardown: bool = True,
) -> Tuple[ScriptedAdversary, List[Tuple[int, ...]]]:
    """A schedule that plants k-cycles in random edge order.

    Each planted cycle lives for a few quiet rounds; with ``teardown=True``
    (the default) its edges are subsequently removed, otherwise all planted
    cycles remain in the final graph.

    Returns the adversary and the list of planted cycles as node orderings.
    """
    if k > n:
        raise ValueError("k cannot exceed n")
    rng = seeded_rng(seed)
    rounds: List[RoundChanges] = []
    plants: List[Tuple[int, ...]] = []
    present: Set[Edge] = set()

    for _ in range(num_plants):
        members = [int(x) for x in rng.choice(n, size=k, replace=False)]
        plants.append(tuple(members))
        cycle_edges = [
            canonical_edge(members[i], members[(i + 1) % k]) for i in range(k)
        ]
        order = list(rng.permutation(len(cycle_edges)))
        for idx in order:
            edge = cycle_edges[idx]
            if edge in present:
                rounds.append(RoundChanges.empty())
            else:
                present.add(edge)
                rounds.append(RoundChanges.inserts([edge]))
        rounds.extend(RoundChanges.empty() for _ in range(3))
        if teardown:
            for edge in cycle_edges:
                if edge in present:
                    present.discard(edge)
                    rounds.append(RoundChanges.deletes([edge]))
    rounds.extend(RoundChanges.empty() for _ in range(3))
    return ScriptedAdversary(rounds), plants


def growing_random_graph(
    n: int, num_edges: int, *, edges_per_round: int = 1, seed: int = 0
) -> ScriptedAdversary:
    """Insert ``num_edges`` distinct random edges, ``edges_per_round`` at a time."""
    rng = seeded_rng(seed)
    edges: Set[Edge] = set()
    max_edges = n * (n - 1) // 2
    target = min(num_edges, max_edges)
    while len(edges) < target:
        u, w = rng.integers(0, n, size=2)
        if u != w:
            edges.add(canonical_edge(int(u), int(w)))
    ordered = sorted(edges)
    rounds = [
        RoundChanges.inserts(ordered[i : i + edges_per_round])
        for i in range(0, len(ordered), edges_per_round)
    ]
    return ScriptedAdversary(rounds)


def flip_flop_edges(
    edges: Sequence[Tuple[int, int]], repetitions: int, *, gap_rounds: int = 1
) -> ScriptedAdversary:
    """Insert and delete the same edges repeatedly (a stress test for timestamps).

    Each repetition inserts all ``edges`` (one round), waits ``gap_rounds``
    quiet rounds, deletes them (one round), and waits again.  This exercises
    exactly the delete/re-insert interleavings that make imaginary timestamps
    subtle.
    """
    rounds: List[RoundChanges] = []
    for _ in range(repetitions):
        rounds.append(RoundChanges.inserts(edges))
        rounds.extend(RoundChanges.empty() for _ in range(gap_rounds))
        rounds.append(RoundChanges.deletes(edges))
        rounds.extend(RoundChanges.empty() for _ in range(gap_rounds))
    return ScriptedAdversary(rounds)
