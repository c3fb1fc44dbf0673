"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples lie
    beyond it, i.e. ``len(values) * (1 - q / 100) >= 10``: a p99 needs 1,000
    samples.  A tail read off fewer points is one or two outliers, not a
    percentile.
    """
    if not 0 < q < 100:
        raise ValueError("q must be strictly between 0 and 100")
    beyond = len(values) * (100 - q) / 100
    if beyond < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:.1f} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

