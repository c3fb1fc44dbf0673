"""The serving subsystem: event-stream ingestion, standing subscriptions, SLO serving.

The serving stack has three layers:

* :mod:`repro.serve.ingest` -- **where batches come from**: the
  :class:`EventSource` abstraction with adversary-driven, trace-replay and
  external-JSONL-log sources (the latter normalized through
  :class:`LogConverter` into a replayable trace).
* :mod:`repro.serve.core` -- **the monitor itself**:
  :class:`ServingMonitor` runs one of the paper's structures on every node
  over either serial engine mode and answers typed local queries.
* :mod:`repro.serve.subscriptions` -- **who is asking**: standing queries
  registered by id, re-evaluated incrementally via the oracle's dirty-region
  versioning, firing :class:`AnswerChanged` notifications.

:class:`MonitorService` (:mod:`repro.serve.service`) wires the three together
and produces :class:`ServingReport` objects.  An application that just has
a stream of link changes and wants to ask questions holds a
:class:`ServingMonitor` directly.
"""

from .core import STRUCTURES, MonitorAnswer, ServingMonitor
from .ingest import (
    EVENT_SOURCES,
    AdversaryEventSource,
    ConvertedLog,
    EventSource,
    LogConversionError,
    LogConverter,
    LogEventSource,
    TraceEventSource,
)
from .service import MonitorService, ServingReport
from .subscriptions import (
    DEFAULT_SETTLE_STREAK,
    SUBSCRIPTION_KINDS,
    AnswerChanged,
    Subscription,
    SubscriptionRegistry,
)

__all__ = [
    "AdversaryEventSource",
    "AnswerChanged",
    "ConvertedLog",
    "DEFAULT_SETTLE_STREAK",
    "EVENT_SOURCES",
    "EventSource",
    "LogConversionError",
    "LogConverter",
    "LogEventSource",
    "MonitorAnswer",
    "MonitorService",
    "ServingMonitor",
    "ServingReport",
    "STRUCTURES",
    "SUBSCRIPTION_KINDS",
    "Subscription",
    "SubscriptionRegistry",
    "TraceEventSource",
]
