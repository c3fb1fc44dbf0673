"""Every metric the benchmark reports: name, unit and which direction is better.

``BENCHMARK.json`` lists the same names and units; the tests keep the two in
step.  ``--trace 0`` reports :data:`END_TO_END` from untraced repetitions,
``--trace 1`` reports :data:`PER_LAYER` from traced ones.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("batch_p50_ms", "ms", "lower"),
    ("batch_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("amortized_rounds", "rounds/change", "lower"),
    ("bits_per_change", "bits/change", "lower"),
)

#: Layers whose self time the traced run reports, as ``<layer>_s``.
LAYERS = (
    "import",
    "adversary.build",
    "adversary.schedule",
    "experiments.persist",
    "simulator.setup",
    "simulator.topology",
    "simulator.round",
    "simulator.fingerprint",
    "core.hooks",
    "verification.round_hook",
    "verification.finish",
    "oracle.observe",
    "oracle.ball",
    "serve.convert",
    "serve.register",
    "serve.init",
    "serve.next_batch",
    "serve.sweep",
    "serve.evaluate",
    "unattributed",
)

#: Exact counts, with the direction in which less work (or more served) is better.
COUNTS = (
    ("simulator.rounds", "lower"),
    ("simulator.changes", "higher"),
    ("simulator.envelopes", "lower"),
    ("simulator.bits", "lower"),
    ("simulator.nodes_built", "lower"),
    ("simulator.active_node_rounds", "lower"),
    ("core.hook_calls", "lower"),
    ("oracle.ball_nodes", "lower"),
    ("verification.check_failures", "lower"),
    ("experiments.cells", "higher"),
    ("experiments.cells_failed", "lower"),
    ("experiments.bytes_persisted", "lower"),
    ("serve.log_lines", "higher"),
    ("serve.batches", "higher"),
    ("serve.events", "higher"),
    ("serve.evaluated", "lower"),
    ("serve.skipped", "higher"),
    ("serve.fired", "higher"),
    ("serve.answers_wrong", "lower"),
)

RATIOS = (
    ("simulator.active_fraction", "lower"),
    ("serve.skip_ratio", "higher"),
    ("serve.fire_ratio", "higher"),
    ("core.envelopes_per_change", "lower"),
    ("tracing_overhead", "lower"),
)

PER_LAYER = (
    tuple((f"{layer}_s", "s", "lower") for layer in LAYERS)
    + tuple((name, "count", better) for name, better in COUNTS)
    + tuple((name, "ratio", better) for name, better in RATIOS)
)
