"""Amortized-complexity accounting for highly dynamic simulations.

The paper's complexity measure is the *amortized round complexity*: for every
round ``i``, the number of rounds up to ``i`` in which at least one node holds
an inconsistent data structure, divided by the number of topology changes that
occurred up to round ``i``.  :class:`MetricsCollector` tracks exactly this
ratio, along with per-node inconsistency counts, message and bit counters, and
a per-round log that the benchmarks behind README.md's paper-claim table draw
their tables from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

__all__ = ["RoundRecord", "MetricsCollector"]


@dataclass(frozen=True)
class RoundRecord:
    """Summary of a single simulated round."""

    round_index: int
    num_changes: int
    num_inconsistent_nodes: int
    num_envelopes: int
    bits_sent: int

    @property
    def has_inconsistency(self) -> bool:
        return self.num_inconsistent_nodes > 0


@dataclass
class MetricsCollector:
    """Collects the quantities bounded by the paper's theorems.

    Attributes:
        rounds: per-round records, in execution order.
        per_node_inconsistent_rounds: for each node, the number of rounds in
            which it declared itself inconsistent.
    """

    rounds: List[RoundRecord] = field(default_factory=list)
    per_node_inconsistent_rounds: Dict[int, int] = field(default_factory=dict)
    _total_changes: int = 0
    _inconsistent_rounds: int = 0
    _total_envelopes: int = 0
    _total_bits: int = 0
    # The live inconsistent set, maintained by delta so engines that only
    # visit active nodes never have to re-scan the full node set.
    _current_inconsistent: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_round(
        self,
        round_index: int,
        num_changes: int,
        inconsistent_nodes: List[int],
        num_envelopes: int,
        bits_sent: int,
    ) -> RoundRecord:
        """Record the outcome of one round and return its summary record.

        Thin wrapper over :meth:`record_round_delta`: the full inconsistent
        list is diffed against the live set, so both entry points share one
        accounting implementation and can never drift apart.
        """
        new = set(inconsistent_nodes)
        current = self._current_inconsistent
        return self.record_round_delta(
            round_index=round_index,
            num_changes=num_changes,
            became_inconsistent=new - current,
            became_consistent=current - new,
            num_envelopes=num_envelopes,
            bits_sent=bits_sent,
        )

    def record_round_delta(
        self,
        round_index: int,
        num_changes: int,
        became_inconsistent: Iterable[int],
        became_consistent: Iterable[int],
        num_envelopes: int,
        bits_sent: int,
    ) -> RoundRecord:
        """Record one round given only the *change* in the inconsistent set.

        The collector maintains the live inconsistent set itself, so an
        activity-proportional engine can report just the nodes whose
        consistency flipped this round instead of re-scanning all ``n`` nodes.
        Produces exactly the same :class:`RoundRecord` and per-node accounting
        as :meth:`record_round` with the full list.
        """
        current = self._current_inconsistent
        current.difference_update(became_consistent)
        current.update(became_inconsistent)
        record = RoundRecord(
            round_index=round_index,
            num_changes=num_changes,
            num_inconsistent_nodes=len(current),
            num_envelopes=num_envelopes,
            bits_sent=bits_sent,
        )
        self.rounds.append(record)
        self._total_changes += num_changes
        self._total_envelopes += num_envelopes
        self._total_bits += bits_sent
        if current:
            self._inconsistent_rounds += 1
        for node in current:
            self.per_node_inconsistent_rounds[node] = (
                self.per_node_inconsistent_rounds.get(node, 0) + 1
            )
        return record

    @property
    def current_inconsistent_nodes(self) -> Set[int]:
        """The inconsistent set at the end of the last recorded round (a copy)."""
        return set(self._current_inconsistent)

    # ------------------------------------------------------------------ #
    # The paper's complexity measures
    # ------------------------------------------------------------------ #
    @property
    def total_changes(self) -> int:
        """Total number of topology changes applied so far."""
        return self._total_changes

    @property
    def inconsistent_rounds(self) -> int:
        """Number of rounds with at least one inconsistent node (global measure)."""
        return self._inconsistent_rounds

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)

    @property
    def total_envelopes(self) -> int:
        return self._total_envelopes

    @property
    def total_bits(self) -> int:
        return self._total_bits

    def amortized_round_complexity(self) -> float:
        """Inconsistent rounds divided by topology changes (the paper's measure).

        Returns ``0.0`` when no topology change has happened yet (in that case
        no algorithm can be charged; the paper's measure is only defined once
        changes occur and our algorithms are consistent on the empty prefix).
        """
        if self._total_changes == 0:
            return 0.0
        return self._inconsistent_rounds / self._total_changes

    def amortized_bits_per_change(self) -> float:
        """Total bits transmitted divided by topology changes."""
        if self._total_changes == 0:
            return 0.0
        return self._total_bits / self._total_changes

    def worst_node_inconsistent_rounds(self) -> int:
        """The maximum, over nodes, of the number of inconsistent rounds."""
        if not self.per_node_inconsistent_rounds:
            return 0
        return max(self.per_node_inconsistent_rounds.values())

    def running_amortized_complexity(self) -> List[float]:
        """The amortized complexity after each round (a prefix-wise curve).

        Useful for checking that the ratio is bounded *for every* ``i`` as the
        paper requires, not only at the end of the run.
        """
        curve: List[float] = []
        changes = 0
        inconsistent = 0
        for rec in self.rounds:
            changes += rec.num_changes
            if rec.has_inconsistency:
                inconsistent += 1
            curve.append(inconsistent / changes if changes else 0.0)
        return curve

    def max_running_amortized_complexity(self) -> float:
        """The supremum over rounds of the prefix-wise amortized complexity."""
        curve = [c for c in self.running_amortized_complexity() if c > 0.0]
        return max(curve) if curve else 0.0

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Aggregate statistics as a flat dict (used by benches and the CLI)."""
        return {
            "rounds_executed": float(self.rounds_executed),
            "total_changes": float(self.total_changes),
            "inconsistent_rounds": float(self.inconsistent_rounds),
            "amortized_round_complexity": self.amortized_round_complexity(),
            "max_running_amortized_complexity": self.max_running_amortized_complexity(),
            "total_envelopes": float(self.total_envelopes),
            "total_bits": float(self.total_bits),
            "amortized_bits_per_change": self.amortized_bits_per_change(),
            "worst_node_inconsistent_rounds": float(
                self.worst_node_inconsistent_rounds()
            ),
        }

    def tail_consistent_rounds(self) -> int:
        """Length of the suffix of rounds with no inconsistent node."""
        count = 0
        for rec in reversed(self.rounds):
            if rec.has_inconsistency:
                break
            count += 1
        return count
