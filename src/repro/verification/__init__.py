"""Differential verification: cross-engine identity plus a rich checks registry.

The reproduction's correctness story has two legs:

* **Checks** (:mod:`repro.verification.checks`) -- first-class
  :class:`~repro.verification.checks.Check` objects comparing the distributed
  nodes' state against the centralized oracle, with per-round hooks and
  structured :class:`~repro.verification.checks.CheckFailure` reports.  The
  :data:`~repro.verification.checks.CHECKS` registry is shared with the
  experiment-campaign subsystem and the CLI.
* **Differential runs** (:mod:`repro.verification.differential`) -- executing
  the same :class:`~repro.experiments.spec.ExperimentSpec` under the dense
  and sparse scheduling policies and asserting bit-identity of round records,
  traces, summary metrics and final node state, with structured
  :class:`~repro.verification.differential.Divergence` reports (first
  divergent round, node, field).

``repro-dynamic-subgraphs verify --spec sweep.json`` drives both over a whole
campaign grid, guaranteeing every registered check executes at least once.
"""

from .checks import (
    CHECKS,
    Check,
    CheckFailure,
    CheckOutcome,
    CheckSession,
    applicable_checks,
    register_check,
)

#: Names provided by :mod:`repro.verification.differential`, loaded lazily
#: (PEP 562).  The differential harness imports :mod:`repro.experiments`,
#: which itself imports :mod:`repro.verification.checks` for the shared
#: registry; deferring the differential import keeps that cycle open.
_DIFFERENTIAL_EXPORTS = frozenset(
    {
        "CellVerification",
        "DifferentialReport",
        "Divergence",
        "ModeRun",
        "VerificationSummary",
        "normalize_cell",
        "run_differential",
        "run_reference",
        "verify_campaign",
    }
)


def __getattr__(name: str):
    if name in _DIFFERENTIAL_EXPORTS:
        from . import differential

        return getattr(differential, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CHECKS",
    "Check",
    "CheckFailure",
    "CheckOutcome",
    "CheckSession",
    "CellVerification",
    "DifferentialReport",
    "Divergence",
    "ModeRun",
    "VerificationSummary",
    "applicable_checks",
    "normalize_cell",
    "register_check",
    "run_differential",
    "run_reference",
    "verify_campaign",
]
