"""The flickering-triangle adversary of Section 1.3.

The paper motivates the timestamp machinery of the robust 2-hop neighborhood
with the following bad case: a triangle ``{v, u, w}`` that ``v`` knows about
loses its far edge ``{u, w}``, but the deletion announcements of ``u`` and
``w`` are delayed by queue backlog; the adversary then deletes and immediately
re-inserts ``{v, u}`` exactly in the round in which ``u`` finally announces
the deletion, and likewise ``{v, w}`` for ``w``'s announcement.  Without
timestamps ``v`` never hears about the deletion (it is disconnected from the
announcer in exactly the announcement round) yet at least one of its triangle
edges exists in every round, so the naive algorithm keeps believing in the
dead edge forever.

:class:`FlickerTriangleAdversary` builds that schedule explicitly.  The
backlog is created by giving ``u`` and ``w`` a configurable number of filler
edges in round 1, so that their (FIFO, one-item-per-round) queues announce the
far-edge deletion in two *different*, predictable rounds.

Experiment E10 runs this schedule against both the naive forwarding strawman
(which ends up consistent but wrong) and the paper's structures (which end up
consistent and right).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..simulator.events import Edge, RoundChanges, canonical_edge
from .base import ScheduleAdversary

__all__ = ["FlickerTriangleAdversary", "flicker_schedule"]


def flicker_schedule(
    v: int,
    u: int,
    w: int,
    filler_u: List[int],
    filler_w: List[int],
) -> List[RoundChanges]:
    """Build the Section 1.3 flickering schedule as an explicit round list.

    Args:
        v, u, w: the triangle nodes; ``v`` is the node that should (wrongly,
            for the naive algorithm) keep believing in ``{u, w}``.
        filler_u: extra nodes connected to ``u`` in round 1 to delay its queue.
        filler_w: extra nodes connected to ``w`` in round 1; must create a
            *different* delay than ``filler_u`` so the two announcement rounds
            differ (the construction requires ``i_u != i_w``).

    Returns:
        The per-round batches.  With FIFO queues draining one item per round,
        ``u`` announces the deletion of ``{u, w}`` in round
        ``3 + len(filler_u)`` and ``w`` in round ``3 + len(filler_w)``; the
        schedule deletes ``{v,u}`` (resp. ``{v,w}``) exactly in that round and
        re-inserts it in the next.
    """
    if len(filler_u) == len(filler_w):
        raise ValueError("filler_u and filler_w must have different lengths (i_u != i_w)")
    nodes = {v, u, w, *filler_u, *filler_w}
    if len(nodes) != 3 + len(filler_u) + len(filler_w):
        raise ValueError("triangle nodes and filler nodes must all be distinct")

    # Round 1: build the triangle and the filler edges creating the backlog.
    round1 = RoundChanges.inserts(
        [(v, u), (v, w), (u, w)]
        + [(u, x) for x in filler_u]
        + [(w, x) for x in filler_w]
    )
    # After round 1, u's queue holds {u,v}, {u,w} and its filler edges; it
    # drains one per round.  The deletion of {u,w} enqueued in round 2 is
    # therefore announced by u in round (2 + len(filler_u) + 2) - 1 =
    # 3 + len(filler_u); similarly for w.
    announce_u = 3 + len(filler_u)
    announce_w = 3 + len(filler_w)
    last_round = max(announce_u, announce_w) + 1

    schedule: List[RoundChanges] = [round1]
    for round_index in range(2, last_round + 1):
        inserts: List[Tuple[int, int]] = []
        deletes: List[Tuple[int, int]] = []
        if round_index == 2:
            deletes.append((u, w))
        if round_index == announce_u:
            deletes.append((v, u))
        if round_index == announce_u + 1:
            inserts.append((v, u))
        if round_index == announce_w:
            deletes.append((v, w))
        if round_index == announce_w + 1:
            inserts.append((v, w))
        schedule.append(RoundChanges.of(insert=inserts, delete=deletes))
    return schedule


def _background_edges(count: int, n: Optional[int], gadget, seed: int) -> List[Edge]:
    """Random static edges among the non-gadget nodes, sorted."""
    if n is None:
        raise ValueError("background_edges requires the network size n")
    pool = [x for x in range(n) if x not in gadget]
    max_edges = len(pool) * (len(pool) - 1) // 2
    if count > max_edges:
        raise ValueError(
            f"cannot place {count} background edges among {len(pool)} non-gadget nodes"
        )
    rng = random.Random(seed)
    edges = set()
    while len(edges) < count:
        a, b = rng.sample(pool, 2)
        edges.add(canonical_edge(a, b))
    return sorted(edges)


class FlickerTriangleAdversary(ScheduleAdversary):
    """Replays the Section 1.3 flickering schedule.

    Args:
        v, u, w: the triangle nodes.
        filler_u / filler_w: filler-node ids used to create different queue
            backlogs at ``u`` and ``w`` (see :func:`flicker_schedule`).
        settle_rounds: quiet rounds appended at the end so all queues drain and
            every node reports consistency before the final queries.
        background_edges: static random edges among the non-gadget nodes,
            inserted with round 1 and never touched again.  This embeds the
            tiny flickering gadget in a *large* static graph -- the
            low-activity big-|E| regime that activity-proportional machinery
            (the sparse engine, the incremental oracle) is built for.
            Requires ``n``.
        n: total node count, only needed to draw background edges from.
        background_seed: RNG seed for the background edges.
    """

    def __init__(
        self,
        v: int = 0,
        u: int = 1,
        w: int = 2,
        filler_u: Tuple[int, ...] = (3, 4),
        filler_w: Tuple[int, ...] = (5, 6, 7, 8),
        settle_rounds: int = 12,
        background_edges: int = 0,
        n: Optional[int] = None,
        background_seed: int = 0,
    ) -> None:
        self.v, self.u, self.w = v, u, w
        schedule = flicker_schedule(v, u, w, list(filler_u), list(filler_w))
        if background_edges:
            gadget = {v, u, w, *filler_u, *filler_w}
            background = _background_edges(background_edges, n, gadget, background_seed)
            schedule[0] = RoundChanges.inserts(schedule[0].insertions + background)
        schedule.extend(RoundChanges.empty() for _ in range(settle_rounds))
        super().__init__(iter(schedule))
        self.num_scheduled_rounds = len(schedule)

    @property
    def doomed_edge(self) -> Tuple[int, int]:
        """The far edge that is deleted but that the naive algorithm keeps believing in."""
        return (self.u, self.w) if self.u < self.w else (self.w, self.u)
