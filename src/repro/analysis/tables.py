"""Plain-text and CSV result tables, fed straight from campaign result stores.

The paper has no empirical tables, so the harness prints its own: one table
per experiment, with the paper's claimed bound next to the measured values.
These helpers keep the formatting consistent across all the benches that
README.md's paper-claim table lists.

Benchmark results live in :class:`~repro.experiments.store.ResultStore`
directories (JSONL records plus traces); :func:`load_results_jsonl` and
:func:`campaign_table` read those records directly -- no CSV intermediary --
so any stored campaign can be rendered as a table after the fact.  (This
module reads the JSONL format itself rather than importing the store, which
depends on these formatting helpers.)
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs.sink import read_jsonl

__all__ = [
    "format_table",
    "write_csv",
    "format_float",
    "load_results_jsonl",
    "latest_ok_records",
    "record_lookup",
    "campaign_table",
]


def format_float(value, precision: int = 4) -> str:
    """Format numbers compactly for table cells (ints stay ints)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.{precision}g}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned plain-text table.

    Args:
        headers: column names.
        rows: row values (any objects; floats are formatted compactly).

    Returns:
        The table as a single string, including a separator line under the
        header.
    """
    rendered_rows: List[List[str]] = [[format_float(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Campaign result-store (JSONL) loading
# --------------------------------------------------------------------- #
def load_results_jsonl(path: str | Path) -> List[Dict[str, Any]]:
    """Load the per-cell records of a campaign result store, oldest first.

    ``path`` may be the store's root directory or the ``results.jsonl`` file
    itself.  Torn lines are skipped (:func:`~repro.obs.sink.read_jsonl`), as
    are records without a ``cell_id``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "results.jsonl"
    if not path.exists():
        return []
    return [
        record
        for _, record in read_jsonl(path)
        if isinstance(record, dict) and "cell_id" in record
    ]


def latest_ok_records(records: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """The latest record per cell id, kept only when its status is ``"ok"``.

    Later lines win, and a cell whose *latest* record is an error is dropped
    entirely (matching the resume semantics of
    :class:`~repro.experiments.store.ResultStore`: such a cell is considered
    incomplete and will be re-run).
    """
    latest: Dict[str, Dict[str, Any]] = {}
    for record in records:
        latest[record["cell_id"]] = dict(record)
    return [r for r in latest.values() if r.get("status") == "ok"]


def record_lookup(record: Mapping[str, Any], dotted: str) -> Any:
    """Resolve a column name into a record: spec fields, then metrics, then
    top-level record keys, then dotted paths (``spec.adversary_params.k``,
    ``metrics.total_changes``).

    The top-level fallback surfaces bookkeeping the campaign runner stamps
    next to the metrics -- ``duration_s``, ``status``, ``finished_at`` -- in
    tables without a dotted path.  Shared with
    :class:`repro.experiments.store.ResultStore` aggregation, so
    column/grouping semantics are identical everywhere.
    """
    if "." in dotted:
        node: Any = record
        for part in dotted.split("."):
            if not isinstance(node, Mapping) or part not in node:
                return None
            node = node[part]
        return node
    spec = record.get("spec", {})
    if dotted in spec:
        return spec[dotted]
    metrics = record.get("metrics", {})
    if dotted in metrics:
        return metrics[dotted]
    return record.get(dotted)


def campaign_table(
    store_path: str | Path,
    columns: Sequence[str],
    *,
    headers: Optional[Sequence[str]] = None,
) -> Tuple[List[str], List[List[Any]]]:
    """Build ``(headers, rows)`` straight from a stored campaign's JSONL.

    Args:
        store_path: result-store directory (or its ``results.jsonl``).
        columns: per-row lookups -- spec fields, metric names, or dotted
            paths into the raw record.
        headers: column titles; defaults to the column lookups themselves.

    Returns a pair ready for :func:`format_table` / :func:`write_csv`, one
    row per completed cell in stored (campaign expansion) order.
    """
    records = latest_ok_records(load_results_jsonl(store_path))
    rows = [[record_lookup(record, column) for column in columns] for record in records]
    return list(headers if headers is not None else columns), rows


def write_csv(path: str | Path, headers: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write the same table as CSV and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return path
