"""Shared helpers for concrete adversaries.

The adversary *interface* (:class:`~repro.simulator.adversary.Adversary` and
:class:`~repro.simulator.adversary.AdversaryView`) lives in the simulator
package; this module provides the building blocks the concrete adversaries in
this package are assembled from:

* :class:`ScheduleAdversary` -- drive an adversary from a Python generator
  that yields :class:`~repro.simulator.events.RoundChanges` (or ``None`` for a
  quiet round) and may wait for the algorithm to stabilize between phases,
  which is how the paper's lower-bound constructions are phrased ("wait for
  the algorithm to stabilize").
* :func:`seeded_rng` -- the seeded random generator of every randomized
  schedule.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator, Optional

from ..simulator.adversary import Adversary, AdversaryView
from ..simulator.events import RoundChanges

__all__ = ["ScheduleAdversary", "WAIT_FOR_STABILITY", "seeded_rng"]


def seeded_rng(seed: int):
    """numpy's default generator for ``seed``; numpy loads on the first call."""
    import numpy as np

    return np.random.default_rng(seed)


#: Sentinel a schedule generator can yield to request "emit quiet rounds until
#: every node reports a consistent data structure, then resume the schedule".
WAIT_FOR_STABILITY = object()


class ScheduleAdversary(Adversary):
    """An adversary driven by a generator of round batches.

    The generator yields one of:

    * a :class:`RoundChanges` batch -- applied at the beginning of the next round;
    * ``None`` -- a quiet round;
    * :data:`WAIT_FOR_STABILITY` -- the adversary emits quiet rounds until the
      :class:`AdversaryView` reports that every node was consistent at the end
      of the previous round, then resumes the generator.

    When the generator is exhausted the adversary reports :attr:`is_done`.
    """

    def __init__(self, schedule: Iterator) -> None:
        self._schedule = iter(schedule)
        self._waiting_for_stability = False
        self._done = False

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        if self._done:
            return None
        if self._waiting_for_stability:
            if not view.all_consistent:
                return RoundChanges.empty()
            self._waiting_for_stability = False
        while True:
            try:
                item = next(self._schedule)
            except StopIteration:
                self._done = True
                return None
            if item is WAIT_FOR_STABILITY:
                if view.all_consistent:
                    # Already stable; ask the generator for the next step
                    # without burning a round.
                    continue
                self._waiting_for_stability = True
                return RoundChanges.empty()
            if item is None:
                return RoundChanges.empty()
            if isinstance(item, RoundChanges):
                return item
            raise TypeError(
                f"schedule yielded {type(item).__name__}; expected RoundChanges, "
                "None or WAIT_FOR_STABILITY"
            )

    @property
    def is_done(self) -> bool:
        return self._done
