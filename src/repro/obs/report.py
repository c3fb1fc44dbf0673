"""Merge telemetry snapshots into hotspot tables and a JSON report.

Each campaign cell (or fuzz run) leaves one JSONL file of cumulative
snapshots under ``<store>/telemetry/``; the *last* line per file is that
run's total.  This module loads those finals, merges counters/spans/
histograms across cells, and renders:

* a **hotspot table** -- spans ranked by cumulative time, with call counts,
  mean and max latency;
* a **histogram table** -- per-histogram count/mean/p50/p95/p99/max;
* a **counter table**;
* one machine-readable dict (``build_report``) that the
  ``repro-dynamic-subgraphs telemetry report --json`` CLI dumps verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .sink import read_jsonl
from .telemetry import Histogram

__all__ = [
    "load_final_snapshot",
    "load_snapshots",
    "merge_snapshots",
    "build_report",
    "format_report",
]


def load_final_snapshot(path: str | Path) -> Optional[Dict[str, Any]]:
    """The last snapshot of one JSONL file (None if it holds none).

    Snapshots are cumulative, so after a torn final line (crashed run) the
    latest line that parses stands in for it.
    """
    final = None
    try:
        for _, record in read_jsonl(path):
            if isinstance(record, dict):
                final = record
    except OSError:
        return None
    return final


def load_snapshots(root: str | Path) -> Dict[str, Dict[str, Any]]:
    """Final snapshot per cell: ``{cell_id: snapshot}`` from ``root/*.jsonl``.

    Trace-event files share the directory (``<cell>.trace.jsonl``) and are
    skipped here -- their lines are events, not snapshots.
    """
    root = Path(root)
    if not root.is_dir():
        return {}
    out: Dict[str, Dict[str, Any]] = {}
    for path in sorted(root.glob("*.jsonl")):
        if path.name.endswith(".trace.jsonl"):
            continue
        snap = load_final_snapshot(path)
        if snap is not None:
            out[path.stem] = snap
    return out


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold many snapshot dicts into one: counters/spans sum, histograms
    merge bucket-wise, gauges keep the last value seen."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, Any] = {}
    spans: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Histogram] = {}
    ticks = 0
    elapsed = 0.0
    for snap in snapshots:
        ticks += int(snap.get("ticks", 0))
        elapsed += float(snap.get("elapsed_s", 0.0))
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        gauges.update(snap.get("gauges", {}))
        for name, stat in snap.get("spans", {}).items():
            agg = spans.setdefault(name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            agg["count"] += int(stat["count"])
            agg["total_s"] += float(stat["total_s"])
            agg["max_s"] = max(agg["max_s"], float(stat["max_s"]))
        for name, data in snap.get("histograms", {}).items():
            incoming = Histogram.from_dict(data)
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = incoming
            else:
                existing.merge(incoming)
    return {
        "cells": len(snapshots),
        "ticks": ticks,
        "elapsed_s": elapsed,
        "counters": counters,
        "gauges": gauges,
        "spans": spans,
        "histograms": histograms,
    }


def build_report(root: str | Path, *, top: int = 20) -> Dict[str, Any]:
    """Load every cell's final snapshot under ``root`` and merge them into
    one machine-readable report dict."""
    per_cell = load_snapshots(root)
    merged = merge_snapshots(list(per_cell.values()))
    hotspots = sorted(
        (
            {
                "span": name,
                "count": int(stat["count"]),
                "total_s": stat["total_s"],
                "mean_s": stat["total_s"] / stat["count"] if stat["count"] else 0.0,
                "max_s": stat["max_s"],
            }
            for name, stat in merged["spans"].items()
        ),
        key=lambda row: row["total_s"],
        reverse=True,
    )[:top]
    histogram_rows = []
    for name in sorted(merged["histograms"]):
        hist = merged["histograms"][name]
        histogram_rows.append(
            {
                "histogram": name,
                "count": hist.count,
                "mean": hist.mean,
                "p50": hist.percentile(50),
                "p95": hist.percentile(95),
                "p99": hist.percentile(99),
                "max": hist.max if hist.max is not None else 0.0,
            }
        )
    return {
        "root": str(root),
        "cells": sorted(per_cell),
        "ticks": merged["ticks"],
        "elapsed_s": merged["elapsed_s"],
        "hotspots": hotspots,
        "histograms": histogram_rows,
        "counters": dict(sorted(merged["counters"].items())),
        "gauges": merged["gauges"],
    }


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`build_report` dict."""
    sections: List[str] = []
    sections.append(
        f"telemetry report: {len(report['cells'])} cell(s), "
        f"{report['ticks']} tick(s), {report['elapsed_s']:.2f}s instrumented"
    )
    if report["hotspots"]:
        rows = [
            [
                row["span"],
                str(row["count"]),
                _fmt_s(row["total_s"]),
                _fmt_s(row["mean_s"]),
                _fmt_s(row["max_s"]),
            ]
            for row in report["hotspots"]
        ]
        sections.append(
            "hotspots (top spans by cumulative time)\n"
            + _format_table(["span", "count", "total", "mean", "max"], rows)
        )
    if report["histograms"]:
        rows = []
        for row in report["histograms"]:
            time_like = row["histogram"].endswith(("_s", ".latency", "latency_s"))
            fmt = _fmt_s if time_like else (lambda v: f"{v:.1f}")
            rows.append(
                [
                    row["histogram"],
                    str(row["count"]),
                    fmt(row["mean"]),
                    fmt(row["p50"]),
                    fmt(row["p95"]),
                    fmt(row["p99"]),
                    fmt(row["max"]),
                ]
            )
        sections.append(
            "histograms\n"
            + _format_table(
                ["histogram", "count", "mean", "p50", "p95", "p99", "max"], rows
            )
        )
    if report["counters"]:
        rows = [[name, str(value)] for name, value in report["counters"].items()]
        sections.append("counters\n" + _format_table(["counter", "value"], rows))
    if report.get("gauges"):
        rows = [
            [name, f"{value:.3f}" if isinstance(value, float) else str(value)]
            for name, value in sorted(report["gauges"].items())
        ]
        sections.append("gauges\n" + _format_table(["gauge", "value"], rows))
    if not report["cells"]:
        sections.append("(no telemetry snapshots found)")
    return "\n\n".join(sections)
