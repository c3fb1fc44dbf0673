"""Perf-regression tracking over hotspot reports and result stores.

:func:`load_perf_document` reads a ``telemetry report --json`` hotspot dump,
or merges a result-store directory's telemetry snapshots into one;
:func:`extract_rows` normalizes the report into ``{row_key: {metric:
value}}``, one row per span / histogram / counter; :func:`diff_rows`
compares two extractions under per-metric tolerance thresholds, classifying
each shared metric by direction (``total_s`` up is a regression,
``rounds_per_s`` down is a regression, unclassified metrics are reported but
never gate).

The CLI entry point is ``repro-dynamic-subgraphs telemetry diff``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "metric_direction",
    "extract_rows",
    "load_perf_document",
    "diff_rows",
    "RegressionReport",
    "format_diff",
    "DEFAULT_THRESHOLD",
]

#: Default relative tolerance: a gated metric may move 25% in its bad
#: direction before the diff fails.
DEFAULT_THRESHOLD = 0.25

_HIGHER_TOKENS = ("per_s", "per_sec", "speedup", "throughput", "qps")
_LOWER_SUFFIXES = ("_s", "_ms", "_us", "_bytes", "_mb")


def metric_direction(name: str) -> Optional[str]:
    """Which way is *worse* for ``name``: returns ``"lower"`` (lower is
    better), ``"higher"`` (higher is better), or ``None`` (informational —
    compared and reported, but never gates)."""
    lowered = name.lower()
    if any(token in lowered for token in _HIGHER_TOKENS):
        return "higher"
    if lowered.endswith(_LOWER_SUFFIXES) or "latency" in lowered:
        return "lower"
    return None


def extract_rows(doc: Mapping[str, Any]) -> Dict[str, Dict[str, float]]:
    """Normalize a hotspot report (``telemetry report --json``) into
    ``{row_key: {metric: float}}``: one row per span
    (``total_s``/``mean_s``/``max_s``), per histogram
    (``mean``/``p50``/``p95``/``p99``/``max``) and per counter.

    Any other document yields no rows; callers treat that as "nothing to
    compare" and exit with a diagnostic.
    """
    rows: Dict[str, Dict[str, float]] = {}
    if "hotspots" not in doc:
        return rows
    for span_row in doc["hotspots"]:
        metrics = {
            k: float(v)
            for k, v in span_row.items()
            if k != "span" and isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        if metrics:
            rows[f"span {span_row['span']}"] = metrics
    for hist_row in doc.get("histograms", ()):
        metrics = {
            k: float(v)
            for k, v in hist_row.items()
            if k != "histogram"
            and isinstance(v, (int, float))
            and not isinstance(v, bool)
        }
        if metrics:
            rows[f"histogram {hist_row['histogram']}"] = metrics
    for name, value in doc.get("counters", {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            rows[f"counter {name}"] = {"value": float(value)}
    return rows


def load_perf_document(path: Path) -> Mapping[str, Any]:
    """Load one perf document for diffing.

    ``path`` may be a hotspot-report JSON file or a result-store
    directory, in which case its ``telemetry/`` snapshots are merged into a
    fresh hotspot report.  Raises :class:`FileNotFoundError` /
    :class:`ValueError` with messages naming the path; the CLI converts
    both into exit 2.
    """
    from .report import build_report, load_snapshots  # local: avoid cycle at import

    path = Path(path)
    if path.is_dir():
        root = path / "telemetry" if (path / "telemetry").is_dir() else path
        if not load_snapshots(root):
            raise ValueError(f"no telemetry snapshots under {root}")
        return build_report(root)
    if not path.is_file():
        raise FileNotFoundError(f"no perf document at {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable perf document at {path}: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ValueError(f"perf document at {path} is not a JSON object")
    return doc


@dataclass
class RegressionReport:
    """Outcome of one baseline-vs-candidate comparison."""

    baseline: str
    candidate: str
    threshold: float
    compared: int = 0
    regressions: List[Dict[str, Any]] = field(default_factory=list)
    improvements: List[Dict[str, Any]] = field(default_factory=list)
    missing_rows: List[str] = field(default_factory=list)
    new_rows: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.regressions)


def diff_rows(
    baseline: Mapping[str, Mapping[str, float]],
    candidate: Mapping[str, Mapping[str, float]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    per_metric: Optional[Mapping[str, float]] = None,
    min_value: float = 1e-6,
    baseline_name: str = "baseline",
    candidate_name: str = "candidate",
) -> RegressionReport:
    """Compare two row extractions under relative tolerance ``threshold``.

    A lower-is-better metric regresses when ``candidate > baseline * (1 +
    t)``; a higher-is-better one when ``candidate < baseline / (1 + t)``,
    with ``t`` the per-metric override (``per_metric[name]``) or the global
    threshold.  Metric pairs where both sides sit below ``min_value`` are
    skipped — relative movement of near-zero timings is pure jitter.
    Directionless metrics never regress; beyond-threshold moves in the
    *good* direction are recorded as improvements.
    """
    per_metric = dict(per_metric or {})
    report = RegressionReport(
        baseline=baseline_name, candidate=candidate_name, threshold=threshold
    )
    report.missing_rows = sorted(set(baseline) - set(candidate))
    report.new_rows = sorted(set(candidate) - set(baseline))
    for row_key in sorted(set(baseline) & set(candidate)):
        base_metrics = baseline[row_key]
        cand_metrics = candidate[row_key]
        for metric in sorted(set(base_metrics) & set(cand_metrics)):
            base = float(base_metrics[metric])
            cand = float(cand_metrics[metric])
            report.compared += 1
            direction = metric_direction(metric)
            if direction is None:
                continue
            if abs(base) < min_value and abs(cand) < min_value:
                continue
            tolerance = per_metric.get(metric, threshold)
            entry = {
                "row": row_key,
                "metric": metric,
                "direction": direction,
                "baseline": base,
                "candidate": cand,
                "ratio": (cand / base) if base else float("inf"),
                "threshold": tolerance,
            }
            if direction == "lower":
                if cand > base * (1.0 + tolerance):
                    report.regressions.append(entry)
                elif base > cand * (1.0 + tolerance):
                    report.improvements.append(entry)
            else:  # higher is better
                if cand * (1.0 + tolerance) < base:
                    report.regressions.append(entry)
                elif base * (1.0 + tolerance) < cand:
                    report.improvements.append(entry)
    return report


def format_diff(report: RegressionReport) -> str:
    """Human-readable rendering of a :class:`RegressionReport`."""
    lines = [
        f"perf diff: {report.baseline} -> {report.candidate} "
        f"(threshold {report.threshold:+.0%} per metric)",
        f"  {report.compared} metric pair(s) compared, "
        f"{len(report.regressions)} regression(s), "
        f"{len(report.improvements)} improvement(s)",
    ]
    for title, entries in (
        ("REGRESSION", report.regressions),
        ("improvement", report.improvements),
    ):
        for entry in entries:
            arrow = "^" if entry["candidate"] > entry["baseline"] else "v"
            lines.append(
                f"  {title}: {entry['row']} :: {entry['metric']} "
                f"{entry['baseline']:.6g} -> {entry['candidate']:.6g} "
                f"({arrow} x{entry['ratio']:.2f}, {entry['direction']} is better, "
                f"tol {entry['threshold']:+.0%})"
            )
    if report.missing_rows:
        lines.append(
            f"  {len(report.missing_rows)} baseline row(s) absent from candidate "
            f"(e.g. {report.missing_rows[0]!r})"
        )
    if report.new_rows:
        lines.append(
            f"  {len(report.new_rows)} new row(s) absent from baseline "
            f"(e.g. {report.new_rows[0]!r})"
        )
    if not report.regressions:
        lines.append("  OK: no metric beyond threshold in its bad direction")
    return "\n".join(lines)
