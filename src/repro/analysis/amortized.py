"""Analysis of measured amortized complexities against the paper's bounds.

The upper-bound theorems claim *constant* amortized round complexity; the
lower-bound theorems claim growth like ``n / log n`` or ``sqrt(n) / log n``.
This module provides small, dependency-light tools to check a series of
measurements against those shapes:

* :func:`is_bounded_by_constant` -- every measurement below a threshold.
* :func:`growth_exponent` -- least-squares log-log slope of a curve.
* :func:`fit_scaled_model` -- best multiplicative fit of a measurement series
  against a reference model (``n/log n``, ``sqrt(n)/log n``, constant) and the
  relative residual of that fit.
* :func:`compare_models` -- which of several models explains the data best.

The two fits import numpy when called, so importing :mod:`repro` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

__all__ = [
    "MODELS",
    "FitResult",
    "is_bounded_by_constant",
    "growth_exponent",
    "fit_scaled_model",
    "compare_models",
]

#: Reference growth models, mapping a size ``n`` to the model's value.
MODELS: Dict[str, Callable[[float], float]] = {
    "constant": lambda n: 1.0,
    "log_n": lambda n: math.log2(max(2.0, n)),
    "sqrt_n_over_log_n": lambda n: math.sqrt(n) / math.log2(max(2.0, n)),
    "n_over_log_n": lambda n: n / math.log2(max(2.0, n)),
    "linear": lambda n: float(n),
}


@dataclass(frozen=True)
class FitResult:
    """Result of fitting measurements against a scaled reference model."""

    model: str
    scale: float
    relative_residual: float

    def predict(self, n: float) -> float:
        return self.scale * MODELS[self.model](n)


def is_bounded_by_constant(values: Sequence[float], bound: float) -> bool:
    """Whether every measured value is at most ``bound``."""
    return all(v <= bound for v in values)


def growth_exponent(sizes: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of ``log(values)`` against ``log(sizes)``.

    A slope near 0 indicates constant behaviour, near 0.5 square-root growth,
    near 1 linear growth.  Zero values are clamped to a small epsilon so that
    a flat all-zero series reports slope 0.
    """
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("need at least two (size, value) pairs")
    import numpy as np

    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.maximum(np.asarray(values, dtype=float), 1e-12))
    slope, _intercept = np.polyfit(xs, ys, 1)
    return float(slope)


def fit_scaled_model(
    sizes: Sequence[float], values: Sequence[float], model: str
) -> FitResult:
    """Best least-squares multiplicative fit of ``values ≈ c * model(sizes)``.

    Returns the scale ``c`` and the relative RMS residual
    ``||values - c*model|| / ||values||``.
    """
    if model not in MODELS:
        raise KeyError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    import numpy as np

    reference = np.asarray([MODELS[model](n) for n in sizes], dtype=float)
    measured = np.asarray(values, dtype=float)
    denom = float(reference @ reference)
    scale = float(measured @ reference) / denom if denom > 0 else 0.0
    residual = measured - scale * reference
    norm = float(np.linalg.norm(measured))
    relative = float(np.linalg.norm(residual)) / norm if norm > 0 else 0.0
    return FitResult(model=model, scale=scale, relative_residual=relative)


def compare_models(
    sizes: Sequence[float],
    values: Sequence[float],
    models: Sequence[str] = ("constant", "sqrt_n_over_log_n", "n_over_log_n"),
) -> Mapping[str, FitResult]:
    """Fit several models and return them keyed by name (best = lowest residual)."""
    return {model: fit_scaled_model(sizes, values, model) for model in models}
