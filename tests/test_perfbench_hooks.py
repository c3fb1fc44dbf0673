"""The names the benchmark's traced ledger wraps still exist.

``perfbench/run.py --trace 1`` times layers by wrapping program methods by
name (:mod:`perfbench.trace`).  A refactor that deletes or renames one of
them makes the traced run stop with an ``AttributeError``, or, for node
hooks, silently drops that time from the ledger.  Each case applies the
instrumentation of one gated workload in a fresh interpreter (it patches
classes process-wide) and checks that every name it needs came out wrapped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from collections import Counter

from perfbench import trace

kind, name, *checks = sys.argv[1:]
if kind == "serving":
    from repro.serve import core, ingest, subscriptions

    node_class = core.STRUCTURES[name]
    trace.instrument_serving(trace.Tracer(), Counter(), name)
    wrapped = [
        (core.ServingMonitor, "__init__"),
        (core.ServingMonitor, "state_fingerprint"),
        (ingest.LogEventSource, "next_batch"),
        (subscriptions.SubscriptionRegistry, "evaluate_round"),
        (subscriptions.Subscription, "evaluate"),
        (node_class, "query"),
        (node_class, "knows_edge"),
    ]
else:
    from repro.experiments import registry

    node_class = registry.ALGORITHMS[name]
    trace.instrument_cells(trace.Tracer(), Counter(), name, checks)
    wrapped = [(node_class, hook) for hook in ("on_topology_change", "query", "knows_edge")]
wrapped += [(node_class, "state_fingerprint")]
missing = [
    f"{owner.__name__}.{attr}"
    for owner, attr in wrapped
    if not hasattr(getattr(owner, attr, None), "__wrapped__")
]
if missing:
    sys.exit("not wrapped: " + ", ".join(missing))
"""


@pytest.mark.parametrize(
    "args",
    [
        ["serving", "robust2hop"],
        ["serving", "triangle"],
        ["cells", "triangle", "triangle_oracle", "no_ghost_triangles"],
    ],
    ids=["serve-p2p-log", "serve-local-log", "cell-churn"],
)
def test_traced_ledger_finds_every_hook(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
