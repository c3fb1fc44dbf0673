"""Event-stream ingestion: where the serving monitor's batches come from.

The serving subsystem separates *what drives the graph* from *what maintains
and answers it*.  This module owns the driving side:

* :class:`EventSource` -- the abstraction: one canonical
  :class:`~repro.simulator.events.RoundChanges` batch per round, pulled by
  the service loop.
* :class:`AdversaryEventSource` -- wraps any registered
  :class:`~repro.simulator.adversary.Adversary` (flicker, heavy-tailed p2p
  churn, fuzz schedules, ...), feeding it a live
  :class:`~repro.simulator.adversary.AdversaryView` of the served graph so
  stability-waiting schedules work unchanged.
* :class:`TraceEventSource` -- replays a recorded
  :class:`~repro.simulator.trace.TopologyTrace`.
* :class:`LogEventSource` / :class:`LogConverter` -- the normalized-ingest
  path for **external** feeds: timestamped link up/down records (JSONL) are
  bucketed into rounds, coalesced (last event per edge per round wins),
  de-no-op'd against the tracked link state, validated against ``range(n)``
  and frozen into a replayable :class:`TopologyTrace` -- so recorded
  real-world churn becomes a first-class workload for the campaign, fuzz and
  differential machinery, not just for serving.

Log record format (one JSON object per line)::

    {"ts": 12.25, "u": 3, "v": 7, "op": "up"}
    {"ts": 12.75, "u": 3, "v": 7, "op": "down"}

``op`` accepts ``up``/``down`` (aliases: ``insert``/``delete``).  Rounds are
``floor((ts - first_ts) / round_duration)``; a record may instead carry an
explicit integer ``round`` field, which takes precedence.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..simulator.adversary import Adversary, AdversaryView
from ..simulator.events import Edge, RoundChanges, canonical_edge
from ..simulator.trace import TopologyTrace

__all__ = [
    "EventSource",
    "AdversaryEventSource",
    "TraceEventSource",
    "LogEventSource",
    "LogConverter",
    "ConvertedLog",
    "LogConversionError",
    "EVENT_SOURCES",
]


class EventSource(ABC):
    """A pull-based stream of per-round topology batches.

    The service loop calls :meth:`next_batch` once per round, handing the
    source the monitor it is driving (so adversaries can observe the served
    graph exactly as they observe a simulation).  ``None`` means the source
    is exhausted and the service stops ingesting.
    """

    @abstractmethod
    def next_batch(self, monitor) -> Optional[RoundChanges]:
        """The batch for the upcoming round, or ``None`` when exhausted."""

    @property
    def is_done(self) -> bool:
        """Whether the source has no further batches to offer."""
        return False


class AdversaryEventSource(EventSource):
    """Drive the monitor from any :class:`~repro.simulator.adversary.Adversary`.

    Args:
        adversary: the schedule generator.
        rounds: optional hard cap on the number of batches produced;
            required for open-ended adversaries (ones whose ``is_done``
            never fires), mirroring
            :func:`~repro.simulator.runner.drive_engine`.
    """

    def __init__(self, adversary: Adversary, *, rounds: Optional[int] = None) -> None:
        self.adversary = adversary
        self.rounds = rounds
        self._produced = 0
        self._exhausted = False

    def next_batch(self, monitor) -> Optional[RoundChanges]:
        if self.is_done:
            return None
        view = AdversaryView.from_network(
            monitor.network,
            round_index=monitor.network.round_index + 1,
            all_consistent=monitor.all_consistent,
        )
        changes = self.adversary.changes_for_round(view)
        if changes is None:
            self._exhausted = True
            return None
        self._produced += 1
        return changes

    @property
    def is_done(self) -> bool:
        if self._exhausted or self.adversary.is_done:
            return True
        return self.rounds is not None and self._produced >= self.rounds


class TraceEventSource(EventSource):
    """Replay a recorded :class:`TopologyTrace` batch by batch.

    The trace is validated against its declared node range up front, like
    :class:`~repro.simulator.trace.TraceReplayAdversary`.
    """

    def __init__(self, trace: TopologyTrace) -> None:
        self.trace = trace.validate_nodes()
        self._cursor = 0

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceEventSource":
        return cls(TopologyTrace.load(path))

    def next_batch(self, monitor) -> Optional[RoundChanges]:
        if self._cursor >= self.trace.num_rounds:
            return None
        changes = self.trace.changes_for(self._cursor)
        self._cursor += 1
        return changes

    @property
    def is_done(self) -> bool:
        return self._cursor >= self.trace.num_rounds


# --------------------------------------------------------------------- #
# External log ingestion
# --------------------------------------------------------------------- #
class LogConversionError(ValueError):
    """A log record could not be normalized (bad shape, bad ids, bad op)."""


#: The one round every quiet gap of a converted log refers to, so a long gap
#: costs one list slot per round and no round object.
_QUIET_ROUND: Tuple[Tuple[Edge, ...], Tuple[Edge, ...]] = ((), ())

#: Accepted spellings of the two link transitions.
_OPS = {
    "up": True,
    "insert": True,
    "down": False,
    "delete": False,
}


def _decode(lines: Iterable[str]) -> Iterator[Tuple[int, dict]]:
    """``(lineno, record)`` per non-blank JSONL line, decoded as it is reached."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogConversionError(f"line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise LogConversionError(f"line {lineno}: expected a JSON object")
        yield lineno, record


@dataclass
class ConvertedLog:
    """Result of one :class:`LogConverter` run.

    Attributes:
        trace: the replayable normalized schedule (round 0 is the first
            bucket of the feed).
        stats: conversion accounting -- ``records_read``, ``events_emitted``,
            ``coalesced_dropped`` (superseded by a later event for the same
            edge in the same round), ``noop_dropped`` (transitions matching
            the already-tracked link state), ``rounds``, ``quiet_rounds``.
    """

    trace: TopologyTrace
    stats: Dict[str, int] = field(default_factory=dict)


class LogConverter:
    """Normalize timestamped link up/down records into canonical round batches.

    The converter is the boundary between messy external feeds and the
    simulator's strict event vocabulary:

    * **bucketing** -- timestamps map to round indices via ``round_duration``
      (records may carry an explicit ``round`` instead); gaps between buckets
      become quiet rounds, preserving the feed's real-time pacing in round
      units (``max_quiet_gap`` clamps pathological gaps).
    * **coalescing** -- within one round, the *last* event per edge wins, in
      the slot of its last report, because all changes of a round are
      simultaneous in the model and a batch may touch each edge at most
      once.
    * **de-no-op'ing** -- the converter tracks link state across rounds and
      drops transitions to the state a link is already in (duplicate "up"
      reports, deletes of unknown links), which real feeds are full of.
    * **validation** -- node ids must be integers in ``range(n)``, ``u != v``;
      the first offending record is named with its line number.

    Conversion is one pass: each record is decoded and validated before the
    next is read, canonicalized once, and kept only as an ``edge -> is_up``
    entry in its round's bucket, where a later report of the edge replaces
    it.  The buckets are then walked in round order, dropping no-ops, and
    each round's insert and delete lists go straight into the trace.

    Args:
        n: node-id universe of the served graph.
        round_duration: seconds of feed time per simulated round (ignored for
            records carrying an explicit ``round``).
        origin_ts: timestamp mapping to round 0; defaults to the first
            record's timestamp.
        max_quiet_gap: if set, consecutive quiet rounds between buckets are
            clamped to this many.
    """

    def __init__(
        self,
        n: int,
        *,
        round_duration: float = 1.0,
        origin_ts: Optional[float] = None,
        max_quiet_gap: Optional[int] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not math.isfinite(round_duration) or round_duration <= 0:
            raise ValueError(f"round_duration must be a positive finite number, got {round_duration}")
        if origin_ts is not None and not math.isfinite(origin_ts):
            raise ValueError(f"origin_ts must be a finite number, got {origin_ts}")
        if max_quiet_gap is not None and max_quiet_gap < 0:
            raise ValueError("max_quiet_gap must be non-negative")
        self.n = n
        self.round_duration = float(round_duration)
        self.origin_ts = origin_ts
        self.max_quiet_gap = max_quiet_gap

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def convert_file(self, path: Union[str, Path]) -> ConvertedLog:
        """Convert a JSONL log file, reading it one line at a time."""
        with Path(path).open() as lines:
            return self.convert_lines(lines)

    def convert_lines(self, lines: Iterable[str]) -> ConvertedLog:
        """Convert an iterable of JSONL lines (blank lines are skipped)."""
        return self.convert_records(_decode(lines))

    def convert_records(
        self, records: Iterable[Union[dict, Tuple[int, dict]]]
    ) -> ConvertedLog:
        """Convert already-parsed records (optionally ``(lineno, record)`` pairs)."""
        buckets: Dict[int, Dict[Edge, bool]] = {}  # round -> edge -> is_up
        coalesced_dropped = 0
        origin = self.origin_ts
        records_read = 0
        for seq, item in enumerate(records):
            lineno, record = item if isinstance(item, tuple) else (seq + 1, item)
            records_read += 1
            is_up = self._parse_op(lineno, record)
            edge = self._parse_edge(lineno, record)
            if "round" in record:
                round_index = self._parse_round(lineno, record["round"])
            else:
                ts = self._parse_ts(lineno, record)
                if origin is None:
                    origin = ts
                if ts < origin:
                    raise LogConversionError(
                        f"line {lineno}: timestamp {ts} precedes the origin {origin} "
                        "(records must be ordered, or pass origin_ts explicitly)"
                    )
                round_index = int((ts - origin) / self.round_duration)
            bucket = buckets.get(round_index)
            if bucket is None:
                buckets[round_index] = bucket = {}
            elif edge in bucket:
                del bucket[edge]  # re-insert so the edge moves to its last slot
                coalesced_dropped += 1
            bucket[edge] = is_up

        stats = {
            "records_read": records_read,
            "events_emitted": 0,
            "coalesced_dropped": coalesced_dropped,
            "noop_dropped": 0,
            "quiet_rounds": 0,
            "clamped_gap_rounds": 0,
        }
        trace = TopologyTrace(n=self.n)
        present: Set[Edge] = set()
        cursor = 0
        for round_index in sorted(buckets):
            gap = round_index - cursor
            if self.max_quiet_gap is not None and gap > self.max_quiet_gap:
                stats["clamped_gap_rounds"] += gap - self.max_quiet_gap
                gap = self.max_quiet_gap
            trace.rounds.extend(repeat(_QUIET_ROUND, gap))
            stats["quiet_rounds"] += gap
            inserts: List[Edge] = []
            deletes: List[Edge] = []
            for edge, is_up in buckets.pop(round_index).items():
                if is_up == (edge in present):
                    stats["noop_dropped"] += 1
                elif is_up:
                    present.add(edge)
                    inserts.append(edge)
                else:
                    present.discard(edge)
                    deletes.append(edge)
            stats["events_emitted"] += len(inserts) + len(deletes)
            trace.rounds.append((inserts, deletes))
            cursor = round_index + 1
        stats["rounds"] = trace.num_rounds
        return ConvertedLog(trace=trace, stats=stats)

    # ------------------------------------------------------------------ #
    # Record parsing
    # ------------------------------------------------------------------ #
    def _parse_op(self, lineno: int, record: dict) -> bool:
        op = record.get("op")
        if not isinstance(op, str) or op.lower() not in _OPS:
            raise LogConversionError(
                f"line {lineno}: 'op' must be one of {sorted(_OPS)}, got {op!r}"
            )
        return _OPS[op.lower()]

    def _parse_edge(self, lineno: int, record: dict) -> Edge:
        try:
            u, v = record["u"], record["v"]
        except KeyError as exc:
            raise LogConversionError(f"line {lineno}: missing endpoint field {exc}") from exc
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise LogConversionError(
                f"line {lineno}: endpoints must be integers, got u={u!r} v={v!r}"
            )
        try:
            edge = canonical_edge(u, v)
        except ValueError as exc:
            raise LogConversionError(f"line {lineno}: {exc}") from exc
        if edge[1] >= self.n:
            raise LogConversionError(
                f"line {lineno}: node {edge[1]} out of range for n={self.n}"
            )
        return edge

    def _parse_ts(self, lineno: int, record: dict) -> float:
        ts = record.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            try:
                value = float(ts)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if math.isfinite(value):
                return value
        raise LogConversionError(
            f"line {lineno}: 'ts' must be a finite number (or provide an integer "
            f"'round'), got {ts!r}"
        )

    def _parse_round(self, lineno: int, value) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise LogConversionError(
                f"line {lineno}: 'round' must be a non-negative integer, got {value!r}"
            )
        return value


class LogEventSource(TraceEventSource):
    """Ingest an external JSONL link-event log.

    The log is normalized eagerly through :class:`LogConverter` at
    construction, in one pass that reads a file line by line and keeps no
    parsed record, so malformed feeds fail before the first round, naming
    their first bad line, and the resulting :attr:`trace` is available for
    replay, recording next to results, or splicing into campaigns.  The
    trace's node range is checked once, by :class:`TraceEventSource`.
    """

    def __init__(
        self,
        log: Union[str, Path, Iterable[str]],
        *,
        n: int,
        round_duration: float = 1.0,
        origin_ts: Optional[float] = None,
        max_quiet_gap: Optional[int] = None,
    ) -> None:
        converter = LogConverter(
            n,
            round_duration=round_duration,
            origin_ts=origin_ts,
            max_quiet_gap=max_quiet_gap,
        )
        if isinstance(log, (str, Path)):
            converted = converter.convert_file(log)
        else:
            converted = converter.convert_lines(log)
        self.stats = converted.stats
        super().__init__(converted.trace)


#: Source kinds selectable from the CLI (`serve --source ...`).
EVENT_SOURCES = ("adversary", "trace", "log")
