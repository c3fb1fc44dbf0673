"""Observability: telemetry registry, sinks, tracing, reports, regression.

See :mod:`repro.obs.telemetry` for the zero-overhead-when-disabled design
contract, :mod:`repro.obs.tracing` for the trace-event timeline layer,
:mod:`repro.obs.report` for snapshot merging, :mod:`repro.obs.regress` for
perf-regression tracking, and the README's "Observability" section for
end-to-end usage.
"""

from .logcfg import LOG_LEVELS, configure_logging
from .progress import CampaignProgress, format_duration
from .regress import (
    DEFAULT_THRESHOLD,
    RegressionReport,
    diff_rows,
    extract_rows,
    format_diff,
    load_perf_document,
    metric_direction,
)
from .report import (
    build_report,
    format_report,
    load_final_snapshot,
    load_snapshots,
    merge_snapshots,
)
from .sink import TelemetrySink
from .telemetry import SIZE_BUCKETS, TELEMETRY, TIME_BUCKETS, Histogram, Telemetry
from .tracing import (
    DEFAULT_TRACE_CAPACITY,
    TRACE_SUFFIX,
    TraceBuffer,
    build_chrome_trace,
    chrome_trace,
    load_trace_dir,
    read_trace_jsonl,
    write_trace_jsonl,
)

__all__ = [
    "Histogram",
    "Telemetry",
    "TELEMETRY",
    "TIME_BUCKETS",
    "SIZE_BUCKETS",
    "TelemetrySink",
    "TraceBuffer",
    "DEFAULT_TRACE_CAPACITY",
    "TRACE_SUFFIX",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "load_trace_dir",
    "chrome_trace",
    "build_chrome_trace",
    "CampaignProgress",
    "format_duration",
    "configure_logging",
    "LOG_LEVELS",
    "build_report",
    "format_report",
    "load_final_snapshot",
    "load_snapshots",
    "merge_snapshots",
    "RegressionReport",
    "DEFAULT_THRESHOLD",
    "metric_direction",
    "extract_rows",
    "load_perf_document",
    "diff_rows",
    "format_diff",
]
