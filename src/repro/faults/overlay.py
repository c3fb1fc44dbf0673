"""Topology-fault overlay: masks the adversary's graph down to the physical one.

The adversary of the model edits a *logical* graph -- the topology that would
exist if nothing were failing.  Topology faults (crashes, regional outages,
partitions) mask parts of that graph: edges incident to a down node and edges
severed by a partition do not physically exist, and reappear when the node
recovers or the cut heals.

:class:`FaultOverlayAdversary` implements the masking as an adversary
wrapper, which keeps the engines almost fault-agnostic: the wrapped inner
adversary runs against a private logical :class:`DynamicNetwork`, and per
round the overlay emits the *delta between the current physical graph and
the desired (masked) one* as an ordinary :class:`RoundChanges` batch.
Consequences, all deliberate:

* A crashed node *receives its edge-delete indications* -- the network tears
  the links, exactly like every other topology change in the model.  There
  is no fail-silent state below the topology layer.
* Recorded traces (and therefore the differential harness) see the
  **physical** schedule, so both scheduling policies replay the identical
  graph without knowing faults exist.
* The fuzzer's scripted twins re-derive the physical schedule from the
  *logical* one: ``materialize_trace`` regenerates the logical schedule and
  the spec's fault fields rebuild the same overlay on top.

Masking is recomputed from the full logical edge set every round (not
incrementally) so the physical graph is a pure function of (logical graph,
round, seed) -- the overlay cannot drift even across recover/heal races.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

from ..simulator.adversary import Adversary, AdversaryView
from ..simulator.events import Edge, RoundChanges
from ..simulator.network import DynamicNetwork
from .models import FaultPlan

__all__ = ["FaultOverlayAdversary"]


class FaultOverlayAdversary(Adversary):
    """Wraps an adversary, masking its logical schedule with topology faults.

    Args:
        inner: the logical adversary (any registry adversary, including
            trace replay and the fuzzer).
        n: network size.
        plan: the run's :class:`~repro.faults.models.FaultPlan`; must carry a
            model with ``affects_topology`` (pure-loss models do not need an
            overlay and should not pay for one).
    """

    def __init__(self, inner: Adversary, n: int, plan: FaultPlan) -> None:
        if not plan.affects_topology:
            raise ValueError(
                f"fault model {plan.name!r} does not affect topology; "
                "wire it through the engines only"
            )
        self._inner = inner
        self._n = int(n)
        self._plan = plan
        self._logical = DynamicNetwork(n)
        self._down_prev: FrozenSet[int] = frozenset()

    @property
    def is_done(self) -> bool:
        return self._inner.is_done

    @property
    def inner(self) -> Adversary:
        """The wrapped logical adversary (exposed for introspection/tests)."""
        return self._inner

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        round_index = view.round_index
        # The inner adversary observes the *logical* graph it is editing, not
        # the fault-masked physical one -- its schedule must be independent
        # of the fault model so the same seed yields the same logical trace
        # with faults on or off.
        logical_view = AdversaryView(
            round_index=round_index,
            n=self._n,
            edges=self._logical.edges,
            all_consistent=view.all_consistent,
            total_changes=self._logical.total_changes,
        )
        changes = self._inner.changes_for_round(logical_view)
        if changes is None:
            return None
        self._logical.apply_changes(round_index, changes)

        model = self._plan.model
        down = model.down_nodes(round_index)
        down_incident = self._logical.edges_incident(down)
        desired: Set[Edge] = set()
        masked = 0
        for edge in self._logical.edges:
            if edge in down_incident or model.cuts_edge(round_index, *edge):
                masked += 1
            else:
                desired.add(edge)
        self._plan.note_topology_round(masked_edges=masked, down_nodes=len(down))

        # Amnesia: nodes leaving the down set this round restart blank.  The
        # plan records them; the engines rebuild the instances right after
        # applying this round's changes, so the fresh node sees its
        # re-insertion indications.
        recovered = self._down_prev - down
        if model.amnesia and recovered:
            self._plan.record_resets(round_index, sorted(recovered))
        self._down_prev = down

        current = view.edges
        insert: Tuple[Edge, ...] = tuple(sorted(desired - current))
        delete: Tuple[Edge, ...] = tuple(sorted(current - desired))
        return RoundChanges.of(insert=insert, delete=delete)
