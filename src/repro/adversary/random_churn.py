"""Random churn adversaries.

The highly dynamic model allows an arbitrary number of edge insertions and
deletions per round; the simplest realistic workload is uniform random churn:
every round, a number of random absent edges are inserted and a number of
random present edges are deleted.  This is the default workload of the
quickstart example and of the upper-bound benchmarks (E1-E5), where the
interesting measurement is the amortized complexity under sustained,
unstructured change.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..simulator.adversary import Adversary, AdversaryView
from ..simulator.events import RoundChanges, canonical_edge
from .base import seeded_rng

__all__ = ["RandomChurnAdversary"]


class RandomChurnAdversary(Adversary):
    """Uniform random insertions and deletions every round.

    Args:
        n: number of nodes.
        num_rounds: how many churn rounds to produce before reporting done.
        inserts_per_round: how many absent edges to insert per round (capped by
            the number of absent edges).
        deletes_per_round: how many present edges to delete per round (capped
            by the number of present edges).
        seed: RNG seed (the adversary is deterministic given the seed).
        warmup_edges: edges inserted in the very first round to start from a
            non-trivial graph (``0`` starts from the empty graph as in the
            paper's model).
    """

    def __init__(
        self,
        n: int,
        num_rounds: int,
        *,
        inserts_per_round: int = 2,
        deletes_per_round: int = 1,
        seed: int = 0,
        warmup_edges: int = 0,
    ) -> None:
        if n < 2:
            raise ValueError("need at least two nodes")
        self.n = n
        self.num_rounds = num_rounds
        self.inserts_per_round = inserts_per_round
        self.deletes_per_round = deletes_per_round
        self.warmup_edges = warmup_edges
        self._rng = seeded_rng(seed)
        self._emitted = 0

    # ------------------------------------------------------------------ #
    # Adversary interface
    # ------------------------------------------------------------------ #
    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        if self._emitted >= self.num_rounds:
            return None
        self._emitted += 1

        current = set(view.edges)
        inserts = []
        deletes = []

        if self._emitted == 1 and self.warmup_edges > 0:
            inserts.extend(self._sample_absent(current, self.warmup_edges))
            current.update(inserts)

        deletes.extend(self._sample_present(current, self.deletes_per_round))
        current.difference_update(deletes)
        # Edges deleted this round may not be re-inserted in the same batch
        # (the model applies at most one event per edge per round).
        new_edges = self._sample_absent(current | set(deletes), self.inserts_per_round)
        inserts.extend(new_edges)

        return RoundChanges.of(insert=inserts, delete=deletes)

    @property
    def is_done(self) -> bool:
        return self._emitted >= self.num_rounds

    # ------------------------------------------------------------------ #
    # Sampling helpers
    # ------------------------------------------------------------------ #
    def _sample_absent(self, current: set, count: int) -> list[Tuple[int, int]]:
        """Sample up to ``count`` distinct absent edges uniformly at random."""
        picked: list[Tuple[int, int]] = []
        seen = set(current)
        max_edges = self.n * (self.n - 1) // 2
        attempts = 0
        while len(picked) < count and len(seen) < max_edges and attempts < 50 * max(1, count):
            attempts += 1
            u, w = self._rng.integers(0, self.n, size=2)
            if u == w:
                continue
            edge = canonical_edge(int(u), int(w))
            if edge in seen:
                continue
            seen.add(edge)
            picked.append(edge)
        return picked

    def _sample_present(self, current: set, count: int) -> list[Tuple[int, int]]:
        """Sample up to ``count`` distinct present edges uniformly at random."""
        if not current or count <= 0:
            return []
        edges = sorted(current)
        count = min(count, len(edges))
        indices = self._rng.choice(len(edges), size=count, replace=False)
        return [edges[i] for i in sorted(int(i) for i in indices)]
