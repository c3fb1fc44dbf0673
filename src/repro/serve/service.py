"""The serving loop: ingestion -> monitor -> oracle -> subscriptions.

:class:`MonitorService` wires the three serving layers together.  Per served
batch it:

1. hands the batch to the :class:`~repro.serve.core.ServingMonitor`
   (one communication round of the distributed structure),
2. lets its :class:`~repro.oracle.GroundTruthOracle` observe the updated
   network -- one incremental observation whose cost is proportional to the
   batch size, refreshing the dirty-region versioning,
3. asks the :class:`~repro.serve.subscriptions.SubscriptionRegistry` to
   re-evaluate exactly the standing queries whose r-hop ball was touched,
   collecting the fired :class:`~repro.serve.subscriptions.AnswerChanged`
   notifications.

:meth:`MonitorService.run` drains an :class:`~repro.serve.ingest.EventSource`
through that pipeline and returns a :class:`ServingReport` with throughput,
firing log and a state fingerprint -- the serving differential gate compares
these reports across engine modes byte for byte (minus wall-clock fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

from ..obs.telemetry import TELEMETRY
from ..oracle import GroundTruthOracle
from ..simulator import RoundChanges
from .core import ServingMonitor
from .ingest import EventSource
from .subscriptions import DEFAULT_SETTLE_STREAK, AnswerChanged, SubscriptionRegistry

__all__ = ["MonitorService", "ServingReport"]


@dataclass
class ServingReport:
    """What one :meth:`MonitorService.run` did.

    The engine-comparable part (everything except ``duration_s`` /
    ``queries_per_s``) is deterministic for a given update stream and
    subscription set, independent of engine mode -- that is the property the
    serving CI gate asserts.

    The fired notifications are kept as the :class:`AnswerChanged` records
    themselves in :attr:`notifications`; their JSON form, :attr:`firings`, is
    rendered only when read.
    """

    structure: str
    engine_mode: str
    batches: int = 0
    events: int = 0
    subscriptions: int = 0
    evaluated: int = 0
    skipped: int = 0
    fired: int = 0
    notifications: List[AnswerChanged] = field(default_factory=list)
    state_fingerprint: str = ""
    duration_s: float = 0.0

    @property
    def queries_per_s(self) -> float:
        """Standing-query evaluations per second of serving time."""
        return self.evaluated / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def firings(self) -> List[dict]:
        """The firing log: one :meth:`AnswerChanged.to_dict` per notification, in order."""
        return [note.to_dict() for note in self.notifications]

    def summary(self) -> dict:
        """:meth:`to_dict` without ``firings``, leaving the firing log unrendered."""
        figures = dict(vars(self))
        del figures["notifications"]
        figures["queries_per_s"] = self.queries_per_s
        return figures

    def comparable_dict(self) -> dict:
        """The deterministic, engine-independent part of the report."""
        return {
            "structure": self.structure,
            "batches": self.batches,
            "events": self.events,
            "subscriptions": self.subscriptions,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "fired": self.fired,
            "firings": self.firings,
            "state_fingerprint": self.state_fingerprint,
        }

    def to_dict(self) -> dict:
        return {
            **self.comparable_dict(),
            "engine_mode": self.engine_mode,
            "duration_s": self.duration_s,
            "queries_per_s": self.queries_per_s,
        }


class MonitorService:
    """The full serving stack over one monitored graph.

    The service's oracle answers for the latest served batch only and keeps
    no history, so its memory follows the live edge set, not the number of
    batches served.

    Args:
        n: number of nodes.
        structure: data structure name or factory (see
            :data:`~repro.serve.core.STRUCTURES`).
        engine_mode: either serial engine mode (``dense``/``sparse``).
        settle_streak: consecutive definite answers after which a touched
            subscription goes quiet (see
            :class:`~repro.serve.subscriptions.SubscriptionRegistry`).
        monitor_kwargs: forwarded to :class:`~repro.serve.core.ServingMonitor`
            (``bandwidth_factor``, ``strict_bandwidth``).
    """

    def __init__(
        self,
        n: int,
        structure: str | type = "clique",
        *,
        engine_mode: str = "sparse",
        settle_streak: int = DEFAULT_SETTLE_STREAK,
        **monitor_kwargs,
    ) -> None:
        self.monitor = ServingMonitor(
            n, structure, engine_mode=engine_mode, **monitor_kwargs
        )
        self.oracle = GroundTruthOracle.from_network(self.monitor.network)
        self.registry = SubscriptionRegistry(self.monitor, settle_streak=settle_streak)

    # Convenience passthroughs -- the service is the one object applications
    # hold, so the common registration/query surface is reachable directly.
    @property
    def n(self) -> int:
        return self.monitor.n

    def subscribe(self, kind: str, **params) -> str:
        """Register a standing query (see :meth:`SubscriptionRegistry.register`)."""
        return self.registry.register(kind, **params)

    def unsubscribe(self, subscription_id: str) -> None:
        self.registry.unregister(subscription_id)

    # ------------------------------------------------------------------ #
    # The serving pipeline
    # ------------------------------------------------------------------ #
    def ingest(self, changes: RoundChanges) -> List[AnswerChanged]:
        """Serve one batch; returns the notifications it fired.

        An empty batch is a quiet round: the structures get one more
        propagation round and still-dirty subscriptions are re-checked (their
        answers can change while changes propagate), but settled ones are
        skipped outright because the oracle's dirty ball is empty.
        """
        with TELEMETRY.span("serve.ingest"):
            self.monitor.ingest(changes)
            self.oracle.observe(self.monitor.network)
            ball_cache: Dict[int, Set[int]] = {}

            def ball(depth: int) -> Set[int]:
                found = ball_cache.get(depth)
                if found is None:
                    found = ball_cache[depth] = self.oracle.last_changed_ball(depth)
                return found

            notifications = self.registry.evaluate_round(ball, self.monitor.round_index)
        if TELEMETRY.enabled:
            TELEMETRY.count("serve.batches")
            TELEMETRY.count("serve.events_ingested", len(changes))
        return notifications

    def tick(self) -> List[AnswerChanged]:
        """Serve one quiet round."""
        return self.ingest(RoundChanges.empty())

    def run(
        self,
        source: EventSource,
        *,
        max_batches: Optional[int] = None,
        settle_rounds: int = 0,
        on_notification: Optional[Callable[[AnswerChanged], None]] = None,
    ) -> ServingReport:
        """Drain an event source through the serving pipeline.

        Args:
            source: where the batches come from.
            max_batches: stop after this many batches even if the source has
                more (required for open-ended sources).
            settle_rounds: extra quiet rounds served after the source is
                drained, letting in-flight changes reach their answers (and
                fire their notifications) before the report is cut.
            on_notification: called synchronously for every fired
                notification, in order.

        Returns the :class:`ServingReport` for this run.
        """
        report = ServingReport(
            structure=self.monitor.structure_name,
            engine_mode=self.monitor.engine_mode,
            subscriptions=len(self.registry),
        )
        if TELEMETRY.enabled:
            # Log-normalization tallies (coalesced duplicates, dropped no-ops,
            # clamped quiet gaps, ...) live on the source; surface them as
            # serve.ingest.* counters so --telemetry-out captures them.  Done
            # here, not at source construction: the CLI builds the source
            # before it enables telemetry.
            for name, value in (getattr(source, "stats", None) or {}).items():
                TELEMETRY.count(f"serve.ingest.{name}", int(value))
        start = perf_counter()
        while max_batches is None or report.batches < max_batches:
            changes = source.next_batch(self.monitor)
            if changes is None:
                break
            self._serve(changes, report, on_notification)
        for _ in range(settle_rounds):
            self._serve(RoundChanges.empty(), report, on_notification)
        report.duration_s = perf_counter() - start
        report.state_fingerprint = self.monitor.state_fingerprint()
        return report

    def _serve(
        self,
        changes: RoundChanges,
        report: ServingReport,
        on_notification: Optional[Callable[[AnswerChanged], None]],
    ) -> None:
        evaluated_before = self.registry.evaluated
        skipped_before = self.registry.skipped
        notifications = self.ingest(changes)
        report.batches += 1
        report.events += len(changes)
        report.evaluated += self.registry.evaluated - evaluated_before
        report.skipped += self.registry.skipped - skipped_before
        report.fired += len(notifications)
        report.notifications.extend(notifications)
        if on_notification is not None:
            for note in notifications:
                on_notification(note)
