"""Failure signatures and schedule fingerprints for the fuzzing subsystem.

A fuzz run, a shrink candidate and a corpus replay all need the same two
primitives:

* :func:`evaluate_spec` -- run one cell through the differential harness
  (:func:`repro.verification.run_differential` with every applicable check)
  and distill the outcome into a :class:`FailureSignature`;
* :func:`trace_fingerprint` -- a stable content digest of ``(algorithm, n,
  schedule)``, used to cache shrink verdicts and deduplicate corpus entries.

A :class:`FailureSignature` abstracts a failure to its *class*: the set of
``(kind, field)`` divergence pairs, ``(check, field)`` check-failure pairs
and exception type names.  Two reports of the same underlying bug on
different schedules typically share a class even though their round/node
details differ, which is exactly the equivalence the ddmin shrinker needs
("does this smaller schedule still reproduce the failure I started from?").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..experiments.spec import ExperimentSpec

__all__ = ["FailureSignature", "evaluate_spec", "trace_fingerprint"]


@dataclass(frozen=True)
class FailureSignature:
    """The failure class of one differential run (empty when the run is ok).

    Attributes:
        divergences: sorted unique ``(kind, field)`` pairs of the report's
            :class:`~repro.verification.differential.Divergence` records.
        checks: sorted unique ``(check, field)`` pairs of the structured
            :class:`~repro.verification.checks.CheckFailure` records.
        errors: exception type names when the run itself raised.
    """

    divergences: Tuple[Tuple[str, str], ...] = ()
    checks: Tuple[Tuple[str, str], ...] = ()
    errors: Tuple[str, ...] = ()

    @classmethod
    def of(cls, report: Any) -> "FailureSignature":
        """Distill a :class:`DifferentialReport` into its failure class."""
        return cls(
            divergences=tuple(
                sorted({(d.kind, d.field) for d in report.divergences})
            ),
            checks=tuple(
                sorted({(f.check, f.field) for f in report.check_failures})
            ),
        )

    @classmethod
    def of_error(cls, exc: BaseException) -> "FailureSignature":
        return cls(errors=(type(exc).__name__,))

    @property
    def is_failure(self) -> bool:
        return bool(self.divergences or self.checks or self.errors)

    def matches(self, other: "FailureSignature") -> bool:
        """Whether the two signatures share at least one failure class.

        Intersection (not equality) semantics: shrinking a schedule often
        sheds *secondary* symptoms (e.g. a summary-metric divergence implied
        by a final-state divergence) while preserving the root one, and a
        candidate that keeps any of the original classes alive is still a
        reproducer of the bug under investigation.
        """
        return bool(
            set(self.divergences) & set(other.divergences)
            or set(self.checks) & set(other.checks)
            or set(self.errors) & set(other.errors)
        )

    def residual(self, knowns: Sequence["FailureSignature"]) -> "FailureSignature":
        """The part of this signature not covered by any known signature.

        Empty when every component (divergence pair, check pair, error type)
        already appears in some known class; otherwise exactly the *new*
        failure classes -- which is what a shrinker should preserve when a
        fresh bug first surfaces tangled together with an already-banked one.
        """
        known_div = {pair for k in knowns for pair in k.divergences}
        known_checks = {pair for k in knowns for pair in k.checks}
        known_errors = {name for k in knowns for name in k.errors}
        return FailureSignature(
            divergences=tuple(sorted(set(self.divergences) - known_div)),
            checks=tuple(sorted(set(self.checks) - known_checks)),
            errors=tuple(sorted(set(self.errors) - known_errors)),
        )

    def describe(self) -> str:
        if not self.is_failure:
            return "ok"
        parts = []
        parts.extend(f"divergence {kind}:{fld}" for kind, fld in self.divergences)
        parts.extend(f"check {check}:{fld}" for check, fld in self.checks)
        parts.extend(f"error {name}" for name in self.errors)
        return "; ".join(parts)

    # ------------------------------------------------------------------ #
    # Serialisation (corpus entries)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "divergences": [list(pair) for pair in self.divergences],
            "checks": [list(pair) for pair in self.checks],
            "errors": list(self.errors),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureSignature":
        return cls(
            divergences=tuple(
                sorted(tuple(str(x) for x in pair) for pair in data.get("divergences", ()))
            ),
            checks=tuple(
                sorted(tuple(str(x) for x in pair) for pair in data.get("checks", ()))
            ),
            errors=tuple(sorted(str(x) for x in data.get("errors", ()))),
        )


def evaluate_spec(spec: ExperimentSpec) -> Tuple[FailureSignature, Optional[Any]]:
    """Run ``spec`` differentially and return ``(signature, report)``.

    Every applicable registered check runs on the dense reference leg.  A run that
    raises (livelocked drain, bandwidth violation, message to a non-neighbor,
    ...) is itself a failure mode worth shrinking, so exceptions become
    ``errors`` signatures with ``report=None`` rather than propagating.
    """
    from ..verification.differential import run_differential

    try:
        report = run_differential(spec, auto_checks=True)
    except Exception as exc:  # noqa: BLE001 - the exception *is* the verdict
        return FailureSignature.of_error(exc), None
    return FailureSignature.of(report), report


def trace_fingerprint(algorithm: str, n: int, rounds: Sequence, *, drain: bool = True) -> str:
    """Content digest of one scripted schedule under one algorithm.

    Stable across processes and Python hash seeds (plain JSON of canonical
    data); used as the shrinker's verdict-cache key and the corpus entry id.
    """
    payload = {
        "algorithm": algorithm,
        "n": int(n),
        "drain": bool(drain),
        "rounds": [
            [sorted([int(a), int(b)] for a, b in ins), sorted([int(a), int(b)] for a, b in dels)]
            for ins, dels in rounds
        ],
    }
    return hashlib.sha1(json.dumps(payload, sort_keys=True).encode()).hexdigest()
