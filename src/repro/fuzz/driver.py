"""The fuzzing loop: generate, differentially verify, shrink, bank.

:func:`run_fuzz` turns a budget of seeded schedules into verdicts: every
schedule runs through :func:`repro.verification.run_differential` under dense
and sparse with every applicable registered check; failures are
distilled to :class:`~repro.fuzz.signature.FailureSignature` classes, the
first schedule of each new class is ddmin-shrunk to a minimal scripted trace,
and the minimized reproducer is banked in a
:class:`~repro.fuzz.corpus.CorpusStore` so the bug stays retested forever.

Every fuzz cell is an ordinary :class:`~repro.experiments.spec.ExperimentSpec`
over the registered ``fuzz`` adversary, so the same workload also runs inside
:class:`~repro.experiments.campaign.CampaignRunner` sweeps (a ``fuzz`` grid
axis) -- the driver only adds the shrink-and-bank loop on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..experiments.spec import ExperimentSpec
from ..obs.telemetry import TELEMETRY
from ..simulator.rounds import ENGINE_MODES
from .corpus import CorpusEntry, CorpusStore
from .generators import PROFILES
from .shrink import ShrinkResult, Shrinker
from .signature import FailureSignature, evaluate_spec

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "run_fuzz"]

#: Per-cell progress callback: ``progress(cell_record, done, total)``.
ProgressCallback = Callable[[Dict[str, Any], int, int], None]

#: Seed stride between fuzz cells (a large prime, so sweeping base seeds
#: 0, 1, 2, ... never replays another sweep's schedule stream).
_SEED_STRIDE = 1_000_003


@dataclass
class FuzzConfig:
    """What to fuzz and how hard.

    Attributes:
        budget: number of schedules to generate and verify.
        seed: base seed; cell ``i`` uses ``seed * 1_000_003 + i``.
        algorithms: round-robin pool of algorithms under test.
        n: network size of every fuzz cell.
        schedule_rounds: rounds per generated schedule.
        profile: phase mix (see :data:`repro.fuzz.generators.PROFILES`).
        shrink: ddmin-minimize the first failure of each new failure class.
        max_shrink_candidates: harness-run budget per shrink session.
        max_events_per_round: churn-burst intensity knob.
        faults: fault-model axis, cycled across cells (``"none"`` entries
            fuzz fault-free).  Every fault plan is a pure function of the
            cell seed, so faulted cells differentially verify and shrink
            like any other.
    """

    budget: int = 50
    seed: int = 0
    algorithms: Tuple[str, ...] = ("triangle", "robust2hop", "robust3hop", "twohop")
    n: int = 8
    schedule_rounds: int = 30
    profile: str = "mixed"
    shrink: bool = False
    max_shrink_candidates: int = 1500
    max_events_per_round: int = 3
    faults: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not self.algorithms:
            raise ValueError("need at least one algorithm to fuzz")
        if self.n < 3:
            raise ValueError(f"the schedule fuzzer needs n >= 3, got {self.n}")
        if self.schedule_rounds < 1:
            raise ValueError("schedule_rounds must be positive")
        if self.max_events_per_round < 1:
            raise ValueError("max_events_per_round must be positive")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; choose from {sorted(PROFILES)}")
        self.faults = tuple(self.faults)
        from ..faults.models import FAULTS

        for name in self.faults:
            if name != "none" and name not in FAULTS:
                raise ValueError(
                    f"unknown fault model {name!r}; choose from "
                    f"{['none'] + sorted(FAULTS)}"
                )

    def cell_spec(self, index: int) -> ExperimentSpec:
        """The ``index``-th fuzz cell of this configuration."""
        faults = self.faults[index % len(self.faults)] if self.faults else "none"
        return ExperimentSpec(
            algorithm=self.algorithms[index % len(self.algorithms)],
            adversary="fuzz",
            n=self.n,
            rounds=self.schedule_rounds,
            seed=self.seed * _SEED_STRIDE + index,
            adversary_params={
                "profile": self.profile,
                "max_events_per_round": self.max_events_per_round,
            },
            faults=faults,
        )


@dataclass
class FuzzFailure:
    """One failing fuzz cell, with its scripted reproducer."""

    spec: ExperimentSpec  # the fuzz cell that failed
    scripted: ExperimentSpec  # the same schedule as a self-contained scripted cell
    signature: FailureSignature
    shrink: Optional[ShrinkResult] = None
    corpus_id: Optional[str] = None

    @property
    def reproducer(self) -> ExperimentSpec:
        """The smallest known reproducer (minimized when shrinking ran)."""
        return self.shrink.minimized if self.shrink is not None else self.scripted

    def describe(self) -> str:
        lines = [f"cell {self.spec.cell_id}: {self.signature.describe()}"]
        if self.shrink is not None:
            lines.append(f"  {self.shrink.describe()}")
        if self.corpus_id is not None:
            lines.append(f"  banked as corpus entry {self.corpus_id}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """The outcome of one fuzzing session."""

    config: FuzzConfig
    cells: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_failing(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failure_classes(self) -> List[Tuple[str, FailureSignature]]:
        """Distinct ``(algorithm, signature)`` classes among the failures."""
        classes: List[Tuple[str, FailureSignature]] = []
        for failure in self.failures:
            if not any(
                failure.spec.algorithm == algorithm and failure.signature.matches(seen)
                for algorithm, seen in classes
            ):
                classes.append((failure.spec.algorithm, failure.signature))
        return classes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": {
                "budget": self.config.budget,
                "seed": self.config.seed,
                "algorithms": list(self.config.algorithms),
                "n": self.config.n,
                "schedule_rounds": self.config.schedule_rounds,
                "profile": self.config.profile,
                "modes": list(ENGINE_MODES),
                "shrink": self.config.shrink,
                "faults": list(self.config.faults),
            },
            "ok": self.ok,
            "num_cells": self.num_cells,
            "num_failing": self.num_failing,
            "cells": self.cells,
            "failures": [
                {
                    "cell_id": failure.spec.cell_id,
                    "signature": failure.signature.to_dict(),
                    "reproducer": failure.reproducer.to_dict(),
                    "shrink": (
                        None
                        if failure.shrink is None
                        else {
                            "rounds_before": failure.shrink.rounds_before,
                            "rounds_after": failure.shrink.rounds_after,
                            "events_before": failure.shrink.events_before,
                            "events_after": failure.shrink.events_after,
                            "n_before": failure.shrink.n_before,
                            "n_after": failure.shrink.n_after,
                            "candidates_tried": failure.shrink.candidates_tried,
                            "cache_hits": failure.shrink.cache_hits,
                        }
                    ),
                    "corpus_id": failure.corpus_id,
                }
                for failure in self.failures
            ],
        }


def _scripted_twin(spec: ExperimentSpec) -> ExperimentSpec:
    """The fuzz cell's schedule as an explicit scripted cell (same bits)."""
    from .shrink import materialize_trace

    data = spec.to_dict()
    data.update(
        adversary="scripted",
        rounds=None,
        adversary_params={"trace": materialize_trace(spec).to_dict()},
    )
    return ExperimentSpec.from_dict(data)


def run_fuzz(
    config: FuzzConfig,
    *,
    corpus: Optional[CorpusStore] = None,
    progress: Optional[ProgressCallback] = None,
) -> FuzzReport:
    """Run one fuzzing session; see the module docstring for the loop.

    Shrinking is attempted once per *new* failure class (signature-matching
    failures of later cells reuse the first reproducer), and minimized
    reproducers are appended to ``corpus`` (deduplicated by schedule).
    """
    report = FuzzReport(config=config)
    # Failure classes already banked as OPEN bugs (in this session or a
    # previous one): later failures of a known class are recorded but not
    # re-shrunk/re-banked.  Classes are scoped per algorithm -- two different
    # algorithms diverging on overlapping summary fields are different bugs
    # -- and fixed bugs (expect == "pass") deliberately do not count: a
    # regression of a fixed class is new and deserves its own reproducer.
    known_classes: List[Tuple[str, FailureSignature]] = (
        [
            (entry.algorithm, entry.signature)
            for entry in corpus.entries()
            if entry.expect == "fail"
        ]
        if corpus is not None
        else []
    )
    for index in range(config.budget):
        spec = config.cell_spec(index)
        with TELEMETRY.span("fuzz.schedule"):
            signature, _ = evaluate_spec(spec)
        record = {
            "cell_id": spec.cell_id,
            "algorithm": spec.algorithm,
            "seed": spec.seed,
            "ok": not signature.is_failure,
            "signature": signature.to_dict(),
        }
        report.cells.append(record)
        if signature.is_failure:
            failure = FuzzFailure(
                spec=spec, scripted=_scripted_twin(spec), signature=signature
            )
            # The new part of this failure, after subtracting every class
            # already known for this algorithm.  A failure whose components
            # are all known is skipped; one that mixes a known class with a
            # fresh one is shrunk *against the fresh part*, so a new bug
            # first surfacing tangled with a banked one still gets its own
            # minimized reproducer.
            fresh = signature.residual(
                [prior for algorithm, prior in known_classes if algorithm == spec.algorithm]
            )
            known_classes.append((spec.algorithm, signature))
            if config.shrink and fresh.is_failure:
                shrinker = Shrinker(max_candidates=config.max_shrink_candidates)
                with TELEMETRY.span("fuzz.shrink"):
                    failure.shrink = shrinker.shrink(failure.scripted, fresh)
            if corpus is not None and fresh.is_failure:
                reproducer = failure.reproducer
                entry = CorpusEntry(
                    algorithm=reproducer.algorithm,
                    n=reproducer.n,
                    trace=reproducer.adversary_params["trace"],
                    signature=fresh,
                    expect="fail",
                    drain=reproducer.drain,
                    faults=reproducer.faults,
                    fault_params=dict(reproducer.fault_params),
                    seed=reproducer.seed,
                    note=f"found by fuzzing (cell {spec.cell_id})",
                    provenance={
                        "base_seed": config.seed,
                        "cell_index": index,
                        "cell_seed": spec.seed,
                        "profile": config.profile,
                        "schedule_rounds": config.schedule_rounds,
                        "shrunk": failure.shrink is not None,
                        "full_signature": signature.to_dict(),
                    },
                )
                if corpus.add(entry):
                    failure.corpus_id = entry.entry_id
            report.failures.append(failure)
        if TELEMETRY.enabled:
            # Heartbeat: long --budget runs tail the telemetry JSONL to see
            # budget consumed, failures banked, and the latest signature.
            TELEMETRY.count("fuzz.schedules")
            if signature.is_failure:
                TELEMETRY.count("fuzz.failures")
            TELEMETRY.gauge("fuzz.budget_used", index + 1)
            TELEMETRY.gauge("fuzz.budget_total", config.budget)
            TELEMETRY.gauge("fuzz.failures_banked", len(report.failures))
            TELEMETRY.gauge("fuzz.last_signature", signature.describe())
            TELEMETRY.tick()
        if progress is not None:
            progress(record, index + 1, config.budget)
    return report
