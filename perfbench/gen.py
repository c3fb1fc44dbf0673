"""Seeded inputs for the serving workloads: JSONL link logs and subscriptions.

Both logs are drawn from the benchmark's own ``random.Random(seed)``, never
through ``repro.adversary``, so a change to the program cannot change the
input it is measured on.  Each generator also returns the final edge set the
log leaves behind, which the correctness gate compares against the served
graph.

* :func:`local_log` -- uniform local churn: every round inserts ``ups``
  absent and deletes ``downs`` present edges, drawn uniformly from the ring
  edges ``{i, i+1}`` and ``{i, i+2}`` (mod ``n``).  The matching triangle
  subscriptions watch the ring triples ``{a, a+1, a+2}``, so some of them
  become real triangles and their answers move.
* :func:`p2p_log` -- heavy-tailed peer sessions: every peer alternates online
  and offline periods with Pareto lengths; an arriving peer links to a few
  online peers, a leaving peer loses every link, and both ends report each
  lost link (the duplicate is coalesced by log normalization).
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Set, Tuple

Edge = Tuple[int, int]


def _edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _line(ts: float, edge: Edge, up: bool) -> str:
    return json.dumps({"ts": ts, "u": edge[0], "v": edge[1], "op": "up" if up else "down"})


def _round_lines(round_index: int, events: List[Tuple[Edge, bool]]) -> List[str]:
    """One round's events, time-stamped in order inside ``[r, r + 1)``."""
    step = 1.0 / (len(events) + 1)
    return [
        _line(round_index + (i + 1) * step, edge, up) for i, (edge, up) in enumerate(events)
    ]


class _EdgeSet:
    """Present edges with O(1) uniform sampling (list plus position map)."""

    def __init__(self) -> None:
        self.items: List[Edge] = []
        self.pos: Dict[Edge, int] = {}

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.pos

    def __len__(self) -> int:
        return len(self.items)

    def add(self, edge: Edge) -> None:
        self.pos[edge] = len(self.items)
        self.items.append(edge)

    def remove(self, edge: Edge) -> None:
        index = self.pos.pop(edge)
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self.pos[last] = index


def local_log(
    seed: int, *, n: int, rounds: int, ups: int, downs: int, subscriptions: int
) -> Tuple[List[str], List[dict], Set[Edge]]:
    """Uniform local churn; returns ``(log lines, subscription specs, final edges)``."""
    if subscriptions > n // 2:
        raise ValueError("at most n // 2 ring-triple subscriptions fit")
    rng = random.Random(seed)
    present = _EdgeSet()
    lines: List[str] = []
    for r in range(rounds):
        touched: Set[Edge] = set()
        events: List[Tuple[Edge, bool]] = []
        for _ in range(downs):
            candidates = len(present) - len(touched)
            if candidates <= 0:
                break
            while True:
                edge = present.items[rng.randrange(len(present))]
                if edge not in touched:
                    break
            touched.add(edge)
            events.append((edge, False))
        for _ in range(ups):
            while True:
                a = rng.randrange(n)
                edge = _edge(a, (a + rng.choice((1, 2))) % n)
                if edge not in present and edge not in touched:
                    break
            touched.add(edge)
            events.append((edge, True))
        rng.shuffle(events)
        for edge, up in events:
            if up:
                present.add(edge)
            else:
                present.remove(edge)
        lines.extend(_round_lines(r, events))
    specs = [
        {"id": f"tri-{i:05d}", "kind": "triangle", "members": sorted({2 * i, (2 * i + 1) % n, (2 * i + 2) % n})}
        for i in range(subscriptions)
    ]
    return lines, specs, set(present.items)


def _pareto(rng: random.Random, shape: float, scale: float) -> int:
    """A Pareto draw rounded up to whole rounds (at least one)."""
    return max(1, math.ceil(scale * rng.paretovariate(shape)))


def p2p_log(
    seed: int,
    *,
    peers: int,
    rounds: int,
    degree: int,
    shape: float,
    online_scale: float,
    offline_scale: float,
    subscriptions: int,
) -> Tuple[List[str], List[dict], Set[Edge]]:
    """Heavy-tailed on/off peer sessions; returns ``(lines, specs, final edges)``."""
    rng = random.Random(seed)
    online = [rng.random() < 0.5 for _ in range(peers)]
    remaining = [
        _pareto(rng, shape, online_scale if on else offline_scale) for on in online
    ]
    links: Dict[int, Set[int]] = {p: set() for p in range(peers)}
    lines: List[str] = []
    for r in range(rounds):
        leaving, arriving = [], []
        for p in range(peers):
            remaining[p] -= 1
            if remaining[p] <= 0:
                (leaving if online[p] else arriving).append(p)
        # (edge, up, reported by both ends)
        events: List[Tuple[Edge, bool, bool]] = []
        for p in leaving:
            online[p] = False
            remaining[p] = _pareto(rng, shape, offline_scale)
            for q in sorted(links[p]):
                links[q].discard(p)
                events.append((_edge(p, q), False, True))
            links[p].clear()
        for p in arriving:
            online[p] = True
            remaining[p] = _pareto(rng, shape, online_scale)
        for p in arriving:
            choices = [q for q in range(peers) if online[q] and q != p and q not in links[p]]
            for q in rng.sample(choices, min(degree, len(choices))):
                links[p].add(q)
                links[q].add(p)
                events.append((_edge(p, q), True, False))
        flat: List[Tuple[Edge, bool]] = []
        for edge, up, both_ends in events:
            flat.append((edge, up))
            if both_ends:
                flat.append((edge, up))
        lines.extend(_round_lines(r, flat))
    specs = []
    for i in range(subscriptions):
        node = i % peers
        other = rng.randrange(peers - 1)
        other += other >= node
        specs.append({"id": f"edge-{i:04d}", "kind": "edge", "node": node, "u": node, "w": other})
    final = {_edge(p, q) for p in links for q in links[p]}
    return lines, specs, final
