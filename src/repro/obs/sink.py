"""Periodic JSONL persistence of telemetry snapshots.

A :class:`TelemetrySink` owns one append-only JSONL file (conventionally
``<result store>/telemetry/<cell_id>.jsonl``) and writes cumulative
:meth:`~repro.obs.telemetry.Telemetry.snapshot` lines into it: one line
whenever at least ``interval_s`` has passed since the last flush (driven by
:meth:`Telemetry.tick`, i.e. by round/schedule boundaries), plus one final
``"final": true`` line when the run closes.  Snapshots are cumulative, so a
reader only ever needs the *last* line of a file -- earlier lines exist to
make long runs observable while they are still going (tail the file) and to
survive crashes mid-cell.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Iterator, Optional, Tuple

__all__ = ["TelemetrySink", "read_jsonl", "write_supervision_snapshot"]


def read_jsonl(path: str | Path) -> Iterator[Tuple[int, Any]]:
    """``(line number, value)`` of every line of a JSONL file that parses.

    The one reader of the repository's append-only JSONL files (snapshots,
    trace events, perf history, the fuzz corpus, campaign results).  Blank
    lines and lines that do not parse are skipped: a writer killed
    mid-append leaves a torn line, and the intact lines around it still
    count.  Lines are split at the *byte* level, so a line torn inside a
    multi-byte UTF-8 character is skipped too instead of failing the decode
    of the whole file.  A missing file raises :class:`OSError` on the first
    step; what that means is the caller's rule.
    """
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                value = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            yield lineno, value


def write_supervision_snapshot(
    path: str | Path,
    *,
    label: str,
    counters,
    elapsed_s: float = 0.0,
) -> Path:
    """Write one snapshot-format JSONL line for coordinator-side counters.

    The campaign runner's worker supervision (retries, timeouts, worker
    deaths, quarantines) happens in the coordinator process, outside any
    cell's :data:`~repro.obs.telemetry.TELEMETRY` window.  This helper emits
    those counters in the same cumulative-snapshot shape a
    :class:`TelemetrySink` writes, so ``telemetry report`` merges them with
    per-cell files without special cases (the file lands next to the cell
    files, conventionally as ``telemetry/_campaign.jsonl``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snapshot = {
        "label": label,
        "seq": 0,
        "final": True,
        "ts": time.time(),
        "elapsed_s": float(elapsed_s),
        "ticks": 0,
        "counters": {name: int(value) for name, value in dict(counters).items()},
        "gauges": {},
        "spans": {},
        "histograms": {},
    }
    with path.open("w") as handle:
        handle.write(json.dumps(snapshot) + "\n")
    return path


class TelemetrySink:
    """Appends periodic telemetry snapshots to one JSONL file.

    Args:
        path: the JSONL file to append to (parent directories are created;
            an existing file is truncated -- each run owns its file).
        interval_s: minimum seconds between periodic flushes.  ``0`` flushes
            on every tick (useful in tests); the default keeps file traffic
            negligible next to simulation work.
    """

    def __init__(self, path: str | Path, *, interval_s: float = 1.0) -> None:
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.path = Path(path)
        self.interval_s = interval_s
        self._handle: Optional[IO[str]] = None
        self._last_flush = 0.0
        self.lines_written = 0

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w")
        return self._handle

    def maybe_flush(self, telemetry) -> bool:
        """Flush a snapshot if the periodic interval elapsed; returns whether
        a line was written."""
        now = time.monotonic()
        if self.lines_written and now - self._last_flush < self.interval_s:
            return False
        self.flush(telemetry)
        return True

    def flush(self, telemetry, *, final: bool = False) -> None:
        """Append one snapshot line immediately."""
        handle = self._ensure_open()
        handle.write(json.dumps(telemetry.snapshot(final=final)) + "\n")
        handle.flush()
        self._last_flush = time.monotonic()
        self.lines_written += 1

    def close(self, telemetry=None) -> None:
        """Write the final snapshot (when given a telemetry) and close."""
        if telemetry is not None:
            self.flush(telemetry, final=True)
        if self._handle is not None:
            self._handle.close()
            self._handle = None
