"""Per-link bandwidth accounting for the CONGEST-style restriction.

The model allows each node to send ``O(log n)`` bits over each incident link
per round.  :class:`BandwidthPolicy` turns that asymptotic allowance into a
concrete per-link budget ``factor * ceil(log2 n)`` bits and checks every
envelope against it.  Two enforcement modes are provided:

* ``strict=True`` (default) raises :class:`BandwidthExceededError` as soon as
  any envelope exceeds the budget -- used by tests to prove that the paper's
  algorithms really fit in logarithmic bandwidth.
* ``strict=False`` merely records violations -- used by baselines that
  intentionally exceed the budget (e.g. the unbounded-bandwidth strawman) so
  that benchmarks can report *how much* extra bandwidth they need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Dict, Iterable, List, Tuple

from .messages import Envelope, id_bits

__all__ = ["BandwidthExceededError", "BandwidthViolation", "BandwidthPolicy"]


class BandwidthExceededError(RuntimeError):
    """An envelope exceeded the per-link per-round bandwidth budget."""


@dataclass(frozen=True)
class BandwidthViolation:
    """Record of a single budget violation (non-strict mode)."""

    round_index: int
    sender: int
    receiver: int
    size_bits: int
    budget_bits: int


@dataclass
class BandwidthPolicy:
    """Concrete per-link bandwidth budget and its enforcement.

    Attributes:
        factor: the hidden constant of the ``O(log n)`` allowance.  The
            default of 8 comfortably fits the largest constant-size message of
            the paper's algorithms (a 4-identifier path plus marks) while
            still being logarithmic.  Must be positive.
        strict: whether violations raise (``True``) or are recorded
            (``False``).
    """

    factor: int = 8
    strict: bool = True
    violations: List[BandwidthViolation] = field(default_factory=list)
    max_observed_bits: int = 0
    total_bits: int = 0
    total_envelopes: int = 0

    def __post_init__(self) -> None:
        factor = self.factor
        if isinstance(factor, bool) or not isinstance(factor, Real) or not factor > 0:
            raise ValueError(f"bandwidth_factor must be a positive number, got {factor!r}")

    def budget_bits(self, n: int) -> int:
        """The per-link per-round budget in bits for an ``n``-node network."""
        return self.factor * id_bits(n)

    def charge(
        self, round_index: int, sender: int, receiver: int, envelope: Envelope, n: int
    ) -> int:
        """Account for one envelope and enforce the budget.

        Returns the envelope size in bits.  Silent envelopes (no payload, all
        control flags at their default "true" values) cost zero bits and are
        not counted as transmissions.
        """
        size = envelope.size_bits(n)
        if envelope.is_silent:
            return 0
        self.charge_bits(round_index, sender, receiver, size, n)
        return size

    def charge_bits(
        self, round_index: int, sender: int, receiver: int, size: int, n: int
    ) -> None:
        """Account for one non-silent transmission of ``size`` bits.

        The one place that moves the counters, records violations and raises
        in strict mode; :meth:`charge` and :meth:`charge_rows` both end here.
        """
        self.total_envelopes += 1
        self.total_bits += size
        if size > self.max_observed_bits:
            self.max_observed_bits = size
        budget = self.budget_bits(n)
        if size > budget:
            violation = BandwidthViolation(
                round_index=round_index,
                sender=sender,
                receiver=receiver,
                size_bits=size,
                budget_bits=budget,
            )
            self.violations.append(violation)
            if self.strict:
                raise BandwidthExceededError(
                    f"round {round_index}: envelope {sender}->{receiver} uses "
                    f"{size} bits, budget is {budget} bits"
                )

    def charge_rows(
        self,
        round_index: int,
        n: int,
        count: int,
        bits: int,
        largest: int,
        rows: Iterable[Tuple[int, int, int]],
    ) -> None:
        """Account for ``count`` non-silent transmissions of ``bits`` bits in all.

        When the largest one (``largest`` bits) fits the budget, none can
        violate it and the counters move in O(1) to exactly where charging
        each would leave them.  Otherwise every ``(sender, receiver, size)``
        of ``rows``, in send order, goes through :meth:`charge_bits`, so the
        violation records and the strict-mode raise match the per-envelope
        path bit for bit.
        """
        if largest <= self.budget_bits(n):
            self.total_envelopes += count
            self.total_bits += bits
            if largest > self.max_observed_bits:
                self.max_observed_bits = largest
            return
        for sender, receiver, size in rows:
            self.charge_bits(round_index, sender, receiver, size, n)

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def summary(self, n: int) -> Dict[str, int]:
        """Aggregate bandwidth statistics for reporting."""
        return {
            "budget_bits": self.budget_bits(n),
            "max_observed_bits": self.max_observed_bits,
            "total_bits": self.total_bits,
            "total_envelopes": self.total_envelopes,
            "violations": self.num_violations,
        }
