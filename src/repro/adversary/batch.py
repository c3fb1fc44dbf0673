"""One-shot batch adversaries.

The introduction of the paper points out why *worst-case* round complexity is
hopeless in the highly dynamic setting: an adversary can start from the empty
graph and materialise an arbitrary graph in a single round, after which any
fast membership-listing algorithm would contradict the near-linear CONGEST
lower bound.  :class:`BatchInsertAdversary` is that adversary: it inserts a
whole edge list at once and then stays quiet, so experiments can measure how
long the data structures need to re-converge after a massive burst.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..simulator.adversary import Adversary, AdversaryView
from ..simulator.events import RoundChanges, canonical_edge
from .base import seeded_rng

__all__ = ["BatchInsertAdversary"]


class BatchInsertAdversary(Adversary):
    """Inserts a fixed edge list in round 1, then optionally idles.

    Args:
        edges: the edges to insert in the single burst round.
        quiet_rounds: number of quiet rounds to emit afterwards (gives the
            algorithm time to drain its queues while the adversary still
            controls the run length).
    """

    def __init__(self, edges: Iterable[Tuple[int, int]], quiet_rounds: int = 0) -> None:
        self.edges = [canonical_edge(u, w) for u, w in edges]
        self.quiet_rounds = quiet_rounds
        self._emitted = 0

    @classmethod
    def random_graph(
        cls, n: int, num_edges: int, seed: int = 0, quiet_rounds: int = 0
    ) -> "BatchInsertAdversary":
        """A burst of ``num_edges`` distinct random edges on ``n`` nodes."""
        rng = seeded_rng(seed)
        edges = set()
        max_edges = n * (n - 1) // 2
        target = min(num_edges, max_edges)
        while len(edges) < target:
            u, w = rng.integers(0, n, size=2)
            if u != w:
                edges.add(canonical_edge(int(u), int(w)))
        return cls(sorted(edges), quiet_rounds=quiet_rounds)

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        if self._emitted > self.quiet_rounds:
            return None
        self._emitted += 1
        if self._emitted == 1:
            return RoundChanges.inserts(self.edges)
        return RoundChanges.empty()

    @property
    def is_done(self) -> bool:
        return self._emitted > self.quiet_rounds
