"""The Remark 1 adversary: even 3-path listing is hard.

Remark 1 of the paper observes that the Theorem 4 construction can be adapted
to show a ``Ω(sqrt(n) / log n)`` amortized lower bound already for listing
3-paths (paths with three edges, i.e. four vertices): unify the two chain
endpoints ``u^1_ℓ`` and ``u^γ_ℓ`` of every component into a single hub node
``u_ℓ`` attached to an arbitrary 2D/3-subset of its leaves, and in phase II
bridge pairs of hubs.  While ``u_ℓ - u_m`` exists, every leaf pair
``(v^j_ℓ, v^j_m)`` attached on both sides forms the 3-path
``v^j_ℓ - u_ℓ - u_m - v^j_m``, and the same counting argument applies.

This shows that "ultra-fast" listing stops already at some 4-vertex subgraphs,
nicely complementing Theorem 2 (membership listing of non-cliques is hard) and
the 4-cycle/5-cycle upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..simulator.events import RoundChanges, canonical_edge
from .base import WAIT_FOR_STABILITY, ScheduleAdversary, seeded_rng

__all__ = ["ThreePathLowerBoundAdversary"]


@dataclass
class HubComponent:
    """One component of the Remark 1 construction: a hub and its leaves."""

    index: int
    hub: int
    leaves: Tuple[int, ...]
    attached_leaf_indices: Tuple[int, ...] = field(default=())


class ThreePathLowerBoundAdversary(ScheduleAdversary):
    """The unified-endpoint variant of the Figure 4 adversary (Remark 1).

    Args:
        n: number of nodes available.
        num_components: override for the number of components ``t``
            (defaults to ``~sqrt(n)``).
        seed: RNG seed used for the arbitrary 2D/3 leaf subsets.
    """

    def __init__(self, n: int, *, num_components: Optional[int] = None, seed: int = 0) -> None:
        t = int(math.isqrt(n))
        D = t - 1
        while t >= 2 and t * (1 + D) > n:
            t -= 1
            D = t - 1
        if num_components is not None:
            t = min(num_components, t)
        if t < 2 or D < 3:
            raise ValueError(f"n={n} is too small for the Remark 1 construction")
        self.t = t
        self.D = D
        self._rng = seeded_rng(seed)
        self.components: List[HubComponent] = []
        self.connection_events: List[Tuple[int, int]] = []
        block = 1 + D
        for ell in range(t):
            base = ell * block
            self.components.append(
                HubComponent(ell + 1, hub=base, leaves=tuple(base + 1 + j for j in range(D)))
            )
        super().__init__(self._build_schedule())

    @property
    def attached_count(self) -> int:
        return max(2, (2 * self.D) // 3)

    def _build_schedule(self):
        for comp in self.components:
            chosen = sorted(
                int(i)
                for i in self._rng.choice(self.D, size=self.attached_count, replace=False)
            )
            comp.attached_leaf_indices = tuple(chosen)
            yield RoundChanges.inserts(
                [canonical_edge(comp.hub, comp.leaves[idx]) for idx in chosen]
            )
        yield WAIT_FOR_STABILITY

        for ell in range(1, self.t):
            comp_l = self.components[ell]
            for m in range(ell):
                comp_m = self.components[m]
                bridge = [canonical_edge(comp_l.hub, comp_m.hub)]
                self.connection_events.append((comp_l.index, comp_m.index))
                yield RoundChanges.inserts(bridge)
                yield WAIT_FOR_STABILITY
                yield RoundChanges.deletes(bridge)

    def shared_leaf_indices(self, ell: int, m: int) -> Tuple[int, ...]:
        """Leaf indices attached on both sides; each yields one 3-path while bridged."""
        comp_l = self.components[ell - 1]
        comp_m = self.components[m - 1]
        return tuple(
            sorted(set(comp_l.attached_leaf_indices) & set(comp_m.attached_leaf_indices))
        )
