"""Persistent storage and aggregation of campaign results.

A :class:`ResultStore` owns one directory::

    <root>/
      results.jsonl     # one record per finished cell, appended as cells land
      traces/<id>.json  # the realized topology trace of each cell

Records are appended (and flushed) the moment a cell finishes, so a campaign
killed half-way leaves a valid store behind; :meth:`ResultStore.records`
tolerates a torn final line.  Resume works off :meth:`completed_ids`: the
campaign runner skips any cell whose id already has an ``ok`` record.

The aggregation helpers reduce the per-cell metrics to per-group statistics
(mean / p50 / p95 / p99 across seeds, by default) and render them through
:func:`repro.analysis.tables.format_table`.  When telemetry or profiling is
enabled for a campaign, the per-cell artifacts land next to the results::

      telemetry/<id>.jsonl   # periodic cumulative telemetry snapshots
      profiles/<id>.pstats   # cProfile dump (with --profile cprofile)
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..analysis.tables import format_table, load_results_jsonl, record_lookup
from ..simulator.trace import TopologyTrace

__all__ = ["ResultStore", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1 - frac) + ordered[hi] * frac)


#: ``spec.n``-style dotted-path resolution, shared with the analysis tables
#: (bare names try spec fields first, then metrics).
_lookup = record_lookup


class ResultStore:
    """JSONL-backed store of per-cell campaign results and traces."""

    RESULTS_FILE = "results.jsonl"
    TRACES_DIR = "traces"
    TELEMETRY_DIR = "telemetry"
    PROFILES_DIR = "profiles"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.results_path = self.root / self.RESULTS_FILE
        self.traces_root = self.root / self.TRACES_DIR
        self.telemetry_root = self.root / self.TELEMETRY_DIR
        self.profiles_root = self.root / self.PROFILES_DIR

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, record: Mapping[str, Any]) -> None:
        """Append one cell record, creating the store on first write.

        The line is flushed before returning so a later crash cannot lose it.
        """
        if "cell_id" not in record:
            raise ValueError("record must carry a 'cell_id'")
        self.root.mkdir(parents=True, exist_ok=True)
        repair = False
        if self.results_path.exists():
            with self.results_path.open("rb") as handle:
                handle.seek(0, 2)
                if handle.tell() > 0:
                    handle.seek(-1, 2)
                    repair = handle.read(1) != b"\n"
        with self.results_path.open("a") as handle:
            if repair:  # a previous append was torn; start a fresh line
                handle.write("\n")
            handle.write(json.dumps(dict(record), sort_keys=True) + "\n")
            handle.flush()

    def save_trace(self, cell_id: str, trace: TopologyTrace | Mapping[str, Any]) -> Path:
        """Persist a cell's realized topology trace; returns the file path.

        The write is atomic (temp file + ``os.replace``): the supervised
        worker pool kills writers mid-dump on purpose, and a torn trace where
        a complete one used to be would poison replay.  ``sort_keys`` keeps
        re-saves of the same trace byte-identical across runs.
        """
        self.traces_root.mkdir(parents=True, exist_ok=True)
        data = trace.to_dict() if isinstance(trace, TopologyTrace) else dict(trace)
        path = self.trace_path(cell_id)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(data, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def records(self) -> List[Dict[str, Any]]:
        """All stored records, oldest first.

        Undecodable lines are skipped: appends are flushed line-by-line, so a
        corrupt line can only be a torn (interrupted) append, and dropping it
        simply makes the resume pass re-run that cell.  Delegates to
        :func:`repro.analysis.tables.load_results_jsonl`, shared with the
        analysis layer.
        """
        return load_results_jsonl(self.results_path)

    def latest(self) -> Dict[str, Dict[str, Any]]:
        """The most recent record per cell id (later lines win)."""
        latest: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            latest[record["cell_id"]] = record
        return latest

    def completed_ids(self) -> Set[str]:
        """Cell ids whose latest record finished with ``status == "ok"``."""
        return {
            cell_id
            for cell_id, record in self.latest().items()
            if record.get("status") == "ok"
        }

    def trace_path(self, cell_id: str) -> Path:
        return self.traces_root / f"{cell_id}.json"

    def telemetry_path(self, cell_id: str) -> Path:
        """Where a cell's telemetry snapshots (JSONL) live, when collected."""
        return self.telemetry_root / f"{cell_id}.jsonl"

    def profile_path(self, cell_id: str) -> Path:
        """Where a cell's cProfile pstats dump lives, when profiling ran."""
        return self.profiles_root / f"{cell_id}.pstats"

    def load_trace(self, cell_id: str) -> TopologyTrace:
        """Load the recorded trace of a completed cell."""
        path = self.trace_path(cell_id)
        if not path.exists():
            raise FileNotFoundError(f"no trace stored for cell {cell_id}")
        return TopologyTrace.from_dict(json.loads(path.read_text()))

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def aggregate(
        self,
        *,
        group_by: Sequence[str] = ("algorithm", "adversary", "n"),
        metrics: Sequence[str] = ("amortized_round_complexity",),
        records: Optional[Iterable[Mapping[str, Any]]] = None,
    ) -> Tuple[List[str], List[List[Any]]]:
        """Reduce per-cell metrics to per-group mean / percentile statistics.

        Args:
            group_by: spec fields (dotted paths allowed) defining the groups;
                by default one group per (algorithm, adversary, n) -- i.e.
                seeds are the replicates being averaged.
            metrics: metric names to aggregate (dotted paths allowed; bare
                names also resolve top-level record keys such as
                ``duration_s``).
            records: records to aggregate; defaults to the latest ``ok``
                record of every stored cell.

        Returns:
            ``(headers, rows)`` ready for
            :func:`~repro.analysis.tables.format_table`, sorted by group key.
            Each metric contributes mean / p50 / p95 / p99 columns plus a
            ``n <metric>`` column reporting how many of the group's cells
            actually carried the metric: records with a missing or ``None``
            value are excluded from the statistics, and hiding that would let
            the ``cells`` column overstate the coverage of a heterogeneous
            group.
        """
        if records is None:
            records = [r for r in self.latest().values() if r.get("status") == "ok"]
        groups: Dict[Tuple, List[Mapping[str, Any]]] = {}
        for record in records:
            key = tuple(_lookup(record, field) for field in group_by)
            groups.setdefault(key, []).append(record)
        headers = list(group_by) + ["cells"]
        for metric in metrics:
            headers += [
                f"mean {metric}",
                f"p50 {metric}",
                f"p95 {metric}",
                f"p99 {metric}",
                f"n {metric}",
            ]
        rows: List[List[Any]] = []
        def sort_key(key: Tuple) -> Tuple:
            # numbers sort numerically, everything else lexically, mixed
            # columns sort numbers first (so n=8 < n=16 < n=128)
            return tuple(
                (0, float(part), "")
                if isinstance(part, (int, float)) and not isinstance(part, bool)
                else (1, 0.0, str(part))
                for part in key
            )

        for key in sorted(groups, key=sort_key):
            members = groups[key]
            row: List[Any] = list(key) + [len(members)]
            for metric in metrics:
                values = [
                    float(v)
                    for v in (_lookup(r, metric) for r in members)
                    if v is not None
                ]
                if values:
                    row += [
                        sum(values) / len(values),
                        percentile(values, 50),
                        percentile(values, 95),
                        percentile(values, 99),
                        len(values),
                    ]
                else:
                    row += ["-", "-", "-", "-", 0]
            rows.append(row)
        return headers, rows

    def format_aggregate(self, **kwargs: Any) -> str:
        """Render :meth:`aggregate` as an aligned plain-text table."""
        headers, rows = self.aggregate(**kwargs)
        return format_table(headers, rows)
