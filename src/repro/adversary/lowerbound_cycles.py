"""The Theorem 4 adversary: k-cycle listing for k >= 6 is hard (Figure 4).

Theorem 4 shows that listing k-cycles for any ``k >= 6`` requires
``Ω(sqrt(n) / log n)`` amortized rounds.  The adversary builds ``t ≈ sqrt(n)``
components; component ``ℓ`` consists of a chain ``u^1_ℓ, ..., u^γ_ℓ``
(``γ = ceil(k/2) - 1``) and ``D ≈ sqrt(n)`` leaf nodes ``v^1_ℓ .. v^D_ℓ``:
``u^1_ℓ`` is connected to an arbitrary 2D/3-subset of the leaves and every
leaf is connected to ``u^2_ℓ``.  In phase II the adversary repeatedly connects
component ``ℓ`` to an earlier component ``m`` by just two edges
(``u^1_ℓ - u^1_m`` and ``u^γ_ℓ - u^γ_m``), waits for the algorithm to
stabilize, and disconnects them again.  Each such visit creates ``Θ(D)``
k-cycles through the leaf pairs the two components share, and a counting
argument shows ``Ω(D)`` bits must cross the two connecting edges, giving the
``sqrt(n)/log n`` bound.

:class:`CycleLowerBoundAdversary` reproduces the schedule; experiment E8 uses
it for structural validation (the number of k-cycles each connection creates)
and :mod:`repro.analysis.information` recomputes the counting bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..simulator.events import RoundChanges, canonical_edge
from .base import WAIT_FOR_STABILITY, ScheduleAdversary, seeded_rng

__all__ = ["CycleLowerBoundAdversary", "choose_parameters"]


def choose_parameters(n: int, k: int) -> Tuple[int, int, int]:
    """Pick the construction parameters ``(t, D, gamma)`` for ``n`` nodes.

    The paper sets ``t = D + gamma = sqrt(n)``; for arbitrary ``n`` we take the
    largest ``t`` with ``t * (gamma + D) <= n`` where ``D = t - gamma``
    (requiring ``D >= 3`` so that the 2D/3-subsets are meaningful).
    """
    if k < 6:
        raise ValueError("the Theorem 4 construction applies to k >= 6")
    gamma = math.ceil(k / 2) - 1
    t = int(math.isqrt(n))
    while t > gamma + 3 and t * ((t - gamma) + gamma) > n:
        t -= 1
    D = t - gamma
    if D < 3 or t < 2:
        raise ValueError(
            f"n={n} is too small for the Theorem 4 construction with k={k}; "
            f"need roughly n >= {(gamma + 3 + gamma) * (gamma + 3 + gamma)}"
        )
    return t, D, gamma


@dataclass
class Component:
    """One component ``C_ℓ`` of the Figure 4 construction."""

    index: int
    u_nodes: Tuple[int, ...]
    v_nodes: Tuple[int, ...]
    #: Indices (into ``v_nodes``) of the leaves connected to ``u^1``.
    attached_leaf_indices: Tuple[int, ...] = field(default=())

    @property
    def u1(self) -> int:
        return self.u_nodes[0]

    @property
    def u_gamma(self) -> int:
        return self.u_nodes[-1]


class CycleLowerBoundAdversary(ScheduleAdversary):
    """The two-phase component adversary of Theorem 4 / Figure 4.

    Args:
        n: number of nodes available.
        k: the cycle length (>= 6).
        num_components: override for ``t`` (defaults to the paper's ``~sqrt(n)``).
        seed: RNG seed used for the arbitrary 2D/3 leaf subsets.

    Attributes:
        components: the realized components (node ids and attached leaves).
        connection_events: the (ℓ, m) pairs connected during phase II, in order.
    """

    def __init__(
        self,
        n: int,
        k: int = 6,
        *,
        num_components: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        t, D, gamma = choose_parameters(n, k)
        if num_components is not None:
            t = min(num_components, t)
            if t < 2:
                raise ValueError("need at least two components")
        self.k = k
        self.t = t
        self.D = D
        self.gamma = gamma
        self._rng = seeded_rng(seed)
        self.components: List[Component] = []
        self.connection_events: List[Tuple[int, int]] = []
        block = gamma + D
        for ell in range(t):
            base = ell * block
            u_nodes = tuple(base + j for j in range(gamma))
            v_nodes = tuple(base + gamma + j for j in range(D))
            self.components.append(Component(ell + 1, u_nodes, v_nodes))
        super().__init__(self._build_schedule())

    # ------------------------------------------------------------------ #
    # Schedule construction
    # ------------------------------------------------------------------ #
    @property
    def attached_count(self) -> int:
        """How many leaves ``u^1`` of each component is attached to (2D/3)."""
        return max(2, (2 * self.D) // 3)

    def _build_schedule(self):
        # ---------------- Phase I: build the components. ----------------
        for comp in self.components:
            edges = []
            chosen = sorted(
                int(i)
                for i in self._rng.choice(self.D, size=self.attached_count, replace=False)
            )
            comp.attached_leaf_indices = tuple(chosen)
            for idx in chosen:
                edges.append(canonical_edge(comp.u1, comp.v_nodes[idx]))
            if self.gamma >= 2:
                u2 = comp.u_nodes[1]
                for leaf in comp.v_nodes:
                    edges.append(canonical_edge(u2, leaf))
                for a, b in zip(comp.u_nodes[1:], comp.u_nodes[2:]):
                    edges.append(canonical_edge(a, b))
            yield RoundChanges.inserts(edges)
        yield WAIT_FOR_STABILITY

        # ---------------- Phase II: pairwise visits. ----------------
        for ell in range(1, self.t):
            comp_l = self.components[ell]
            for m in range(ell):
                comp_m = self.components[m]
                bridge = [
                    canonical_edge(comp_l.u1, comp_m.u1),
                    canonical_edge(comp_l.u_gamma, comp_m.u_gamma),
                ]
                # With gamma == 1 the two bridge edges coincide; keep one.
                bridge = sorted(set(bridge))
                self.connection_events.append((comp_l.index, comp_m.index))
                yield RoundChanges.inserts(bridge)
                yield WAIT_FOR_STABILITY
                yield RoundChanges.deletes(bridge)
            # Odd-k adjustment (step 2 of phase II): re-route the chain so the
            # two "arms" of the cycle have the right lengths.  Only chain edges
            # that the phase-I construction actually created are deleted, and
            # the shortcut is only inserted if it is not already present (for
            # k = 6 the whole step is a no-op, as in the paper).
            if self.k % 2 == 1:
                a = comp_l.u_nodes[max(0, math.floor(self.k / 2) - 3)]
                b = comp_l.u_nodes[max(0, math.ceil(self.k / 2) - 3)]
                g = comp_l.u_gamma
                chain_edges = {
                    canonical_edge(x, y)
                    for x, y in zip(comp_l.u_nodes[1:], comp_l.u_nodes[2:])
                }
                deletes = []
                if a != b and canonical_edge(a, b) in chain_edges:
                    deletes.append(canonical_edge(a, b))
                if b != g and canonical_edge(b, g) in chain_edges:
                    deletes.append(canonical_edge(b, g))
                shortcut = None if a == g else canonical_edge(a, g)
                inserts = (
                    [shortcut]
                    if shortcut is not None and shortcut not in chain_edges
                    else []
                )
                if deletes or inserts:
                    yield RoundChanges.of(insert=inserts, delete=deletes)
                    yield WAIT_FOR_STABILITY

    # ------------------------------------------------------------------ #
    # Structural helpers used by tests and the E8 bench
    # ------------------------------------------------------------------ #
    def shared_leaf_indices(self, ell: int, m: int) -> Tuple[int, ...]:
        """Leaf indices attached to ``u^1`` in *both* components ``ell`` and ``m``.

        Each such shared index contributes one k-cycle while the two
        components are bridged; the proof's pigeonhole argument lower-bounds
        their number by ``D / 3``.
        """
        comp_l = self.components[ell - 1]
        comp_m = self.components[m - 1]
        return tuple(
            sorted(set(comp_l.attached_leaf_indices) & set(comp_m.attached_leaf_indices))
        )

    def expected_total_changes(self) -> int:
        """Total number of topology changes the schedule performs (O(t^2 + tD))."""
        phase1 = sum(
            self.attached_count + (self.D + (self.gamma - 2) if self.gamma >= 2 else 0)
            for _ in self.components
        )
        pairs = self.t * (self.t - 1) // 2
        bridge_edges = 2 if self.gamma >= 2 else 1
        phase2 = pairs * 2 * bridge_edges
        return phase1 + phase2
