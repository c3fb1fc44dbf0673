"""Heavy-tailed peer-to-peer churn (the paper's motivating workload).

The introduction of the paper motivates the highly dynamic model with
measurements of large peer-to-peer systems in which peer session lengths are
short on average but heavy-tailed -- some peers stay connected for days while
most churn within minutes.  :class:`HeavyTailedChurnAdversary` synthesises
exactly that behaviour:

* every node alternates between *online sessions* whose lengths are drawn
  from a Pareto distribution (heavy tail) and *offline gaps* drawn from a
  geometric distribution;
* when a node comes online it connects to a few random online peers (its
  links appear); when its session ends all of its links disappear at once,
  which is precisely the "arbitrary number of topology changes per round"
  regime the model allows.

The generator is deterministic given its seed, so benchmarks and tests can
replay identical workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..simulator.adversary import Adversary, AdversaryView
from ..simulator.events import Edge, RoundChanges, canonical_edge
from .base import seeded_rng

__all__ = ["HeavyTailedChurnAdversary"]


class HeavyTailedChurnAdversary(Adversary):
    """P2P-style churn with Pareto-distributed session lengths.

    Args:
        n: number of nodes (peers).
        num_rounds: number of churn rounds to generate.
        target_degree: how many online peers a newly arrived peer connects to.
        pareto_shape: shape parameter of the session-length distribution
            (smaller = heavier tail); the paper's cited measurement studies
            report heavy tails, so the default is a fairly extreme 1.5.
        mean_session: scale of the session length distribution, in rounds.
        offline_probability: per-round probability that an offline peer comes
            back online.
        seed: RNG seed.
    """

    def __init__(
        self,
        n: int,
        num_rounds: int,
        *,
        target_degree: int = 3,
        pareto_shape: float = 1.5,
        mean_session: float = 10.0,
        offline_probability: float = 0.25,
        seed: int = 0,
    ) -> None:
        if n < 2:
            raise ValueError("need at least two peers")
        self.n = n
        self.num_rounds = num_rounds
        self.target_degree = target_degree
        self.pareto_shape = pareto_shape
        self.mean_session = mean_session
        self.offline_probability = offline_probability
        self._rng = seeded_rng(seed)
        self._emitted = 0
        #: Remaining online rounds per currently online peer.
        self._online: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Adversary interface
    # ------------------------------------------------------------------ #
    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        if self._emitted >= self.num_rounds:
            return None
        self._emitted += 1

        current_edges: Set[Edge] = set(view.edges)
        deletes: List[Edge] = []
        inserts: List[Edge] = []

        # 1. Age online sessions; peers whose session ends drop all their links.
        departing = [v for v, remaining in self._online.items() if remaining <= 0]
        for v in departing:
            del self._online[v]
            for edge in [e for e in current_edges if v in e]:
                deletes.append(edge)
                current_edges.discard(edge)
        for v in self._online:
            self._online[v] -= 1

        # 2. Offline peers come online with the configured probability and
        #    connect to a few random online peers.  Peers whose session ended
        #    this very round stay offline until at least the next round, so a
        #    single batch never inserts an edge it also deletes.
        offline = [v for v in range(self.n) if v not in self._online and v not in departing]
        for v in offline:
            if self._rng.random() >= self.offline_probability:
                continue
            session = self._draw_session_length()
            self._online[v] = session
            peers = [p for p in self._online if p != v]
            if not peers:
                continue
            count = min(self.target_degree, len(peers))
            chosen = self._rng.choice(len(peers), size=count, replace=False)
            for idx in chosen:
                edge = canonical_edge(v, peers[int(idx)])
                if edge not in current_edges:
                    inserts.append(edge)
                    current_edges.add(edge)

        return RoundChanges.of(insert=inserts, delete=deletes)

    @property
    def is_done(self) -> bool:
        return self._emitted >= self.num_rounds

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _draw_session_length(self) -> int:
        """Draw a heavy-tailed session length (in rounds), at least 1."""
        # numpy's pareto returns samples of the Lomax distribution; shifting by
        # one and scaling yields the classic Pareto with the requested mean-ish
        # scale.  The exact parametrisation matters less than the heavy tail.
        raw = (1.0 + self._rng.pareto(self.pareto_shape)) * self.mean_session / 3.0
        return max(1, int(raw))

    # ------------------------------------------------------------------ #
    # Introspection (useful for examples)
    # ------------------------------------------------------------------ #
    @property
    def online_peers(self) -> Tuple[int, ...]:
        """The peers currently online (after the last generated round)."""
        return tuple(sorted(self._online))
