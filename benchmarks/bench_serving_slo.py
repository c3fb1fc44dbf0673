"""E15 -- serving SLO: standing-subscription throughput and answer latency.

The serving stack (:mod:`repro.serve`) re-answers standing queries after
every ingested batch, but only the ones whose r-hop dirty ball was touched
(the oracle's dirty-region versioning).  This bench measures what that buys
under load: a grid of subscriber counts (hundreds to thousands) x churn
model (the Section 1.3 flickering gadget embedded in n=2000, and
heavy-tailed p2p session churn at n=300) x serial engine mode, reporting

* **queries/sec** -- standing-query evaluations per second of serving time,
* **p50/p95/p99 answer latency** -- from the ``serve.answer_latency_s``
  telemetry histogram (per-evaluation wall time),
* **skip ratio** -- the fraction of subscription-rounds that the dirty-ball
  gate skipped outright (the incrementality win),

and asserts that the full notification stream, evaluation counters and final
state fingerprint are **bit-identical across dense and sparse** on every
cell -- the serving differential gate.

Run directly (this is also the CI serving-smoke entry point)::

    python benchmarks/bench_serving_slo.py [--smoke] [--out BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

if __package__ in (None, ""):  # direct `python benchmarks/bench_serving_slo.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.experiments import build_adversary
from repro.obs import TELEMETRY
from repro.serve import AdversaryEventSource, MonitorService
from repro.simulator import ENGINE_MODES

from benchmarks.harness import emit_table

#: The engine modes the serving monitor accepts; kept in sync with the
#: registry by construction.
SERVING_MODES = ENGINE_MODES

#: The two churn models.  ``flicker`` is the paper's Section 1.3 gadget
#: embedded in a large quiet network (the incremental-serving sweet spot:
#: almost every subscription settles and gets skipped); ``p2p`` is
#: heavy-tailed session churn touching the whole graph.
_FULL_WORKLOADS = [
    {
        "name": "flicker",
        "n": 2000,
        "structure": "triangle",
        "adversary": "flicker",
        "adversary_params": {"settle_rounds": 40},
        "rounds": 250,
        "kind": "triangle",
        "counts": [100, 1000, 2000],
    },
    {
        "name": "p2p",
        "n": 300,
        "structure": "robust2hop",
        "adversary": "p2p",
        "adversary_params": {},
        "rounds": 150,
        "kind": "edge",
        "counts": [100, 1000],
    },
]

_SMOKE_WORKLOADS = [
    {
        "name": "flicker",
        "n": 128,
        "structure": "triangle",
        "adversary": "flicker",
        "adversary_params": {"settle_rounds": 20},
        "rounds": 60,
        "kind": "triangle",
        "counts": [10, 50],
    },
    {
        "name": "p2p",
        "n": 64,
        "structure": "robust2hop",
        "adversary": "p2p",
        "adversary_params": {},
        "rounds": 40,
        "kind": "edge",
        "counts": [10, 50],
    },
]

#: Quiet rounds appended after the source drains so in-flight changes reach
#: their subscriptions before the report is cut.
SETTLE_ROUNDS = 12


def subscription_specs(workload: Dict, count: int) -> List[Dict]:
    """``count`` deterministic standing-query specs spread over the node set.

    Triangle subscriptions watch consecutive triples (the flicker gadget's
    own triangle included), edge subscriptions watch ring edges; both stride
    the asking node across the graph so a fixed fraction of subscribers sits
    inside the churn region while the rest settle and get skipped.
    """
    n = workload["n"]
    kind = workload["kind"]
    specs: List[Dict] = []
    for i in range(count):
        if kind == "triangle":
            a = i % (n - 2)
            specs.append(
                {"id": f"tri-{i:05d}", "kind": "triangle", "members": [a, a + 1, a + 2]}
            )
        else:
            node = i % n
            specs.append(
                {
                    "id": f"edge-{i:05d}",
                    "kind": "edge",
                    "node": node,
                    "u": node,
                    "w": (node + 1) % n,
                }
            )
    return specs


def run_cell(workload: Dict, count: int, mode: str) -> Dict:
    """Serve one (workload, subscriber count, engine mode) cell."""
    service = MonitorService(workload["n"], workload["structure"], engine_mode=mode)
    service.registry.register_all(subscription_specs(workload, count))
    adversary = build_adversary(
        workload["adversary"],
        n=workload["n"],
        rounds=workload["rounds"],
        seed=0,
        params=workload["adversary_params"],
    )
    source = AdversaryEventSource(adversary, rounds=workload["rounds"])
    TELEMETRY.enable(label=f"serving:{workload['name']}:{count}:{mode}")
    try:
        report = service.run(source, settle_rounds=SETTLE_ROUNDS)
        hist = TELEMETRY.histograms.get("serve.answer_latency_s")
        latency = {
            "p50": hist.percentile(50) if hist else 0.0,
            "p95": hist.percentile(95) if hist else 0.0,
            "p99": hist.percentile(99) if hist else 0.0,
        }
    finally:
        TELEMETRY.disable()
    considered = report.evaluated + report.skipped
    return {
        "workload": workload["name"],
        "n": workload["n"],
        "structure": workload["structure"],
        "engine_mode": mode,
        "subscriptions": count,
        "batches": report.batches,
        "events": report.events,
        "evaluated": report.evaluated,
        "skipped": report.skipped,
        "skip_ratio": round(report.skipped / considered, 4) if considered else 0.0,
        "fired": report.fired,
        "wall_s": round(report.duration_s, 6),
        "queries_per_s": round(report.queries_per_s, 2),
        "latency_p50_s": latency["p50"],
        "latency_p95_s": latency["p95"],
        "latency_p99_s": latency["p99"],
        "comparable": report.comparable_dict(),
    }


def run_slo(smoke: bool = False) -> Dict:
    """Run the whole grid and return the BENCH_serving report dict."""
    workloads = _SMOKE_WORKLOADS if smoke else _FULL_WORKLOADS
    rows: List[Dict] = []
    identical = True
    divergences: List[str] = []
    for workload in workloads:
        for count in workload["counts"]:
            per_mode = {mode: run_cell(workload, count, mode) for mode in SERVING_MODES}
            reference = per_mode[SERVING_MODES[0]]
            for mode, entry in per_mode.items():
                if entry["comparable"] != reference["comparable"]:
                    identical = False
                    divergences.append(f"{workload['name']} x{count} [{mode}]")
                rows.append(entry)
    for row in rows:
        del row["comparable"]
    return {
        "campaign": "E15_serving_slo" + ("_smoke" if smoke else ""),
        "smoke": smoke,
        "settle_rounds": SETTLE_ROUNDS,
        "cells": rows,
        "engines_identical": identical,
        "divergent_cells": divergences,
    }


def emit_report(report: Dict, out: Path) -> None:
    """Persist the JSON report and the human-readable table."""
    out.write_text(json.dumps(report, indent=2) + "\n")
    table_rows = [
        [
            f"{cell['workload']} n={cell['n']}",
            cell["engine_mode"],
            cell["subscriptions"],
            cell["batches"],
            cell["fired"],
            cell["skip_ratio"],
            cell["queries_per_s"],
            round(cell["latency_p50_s"] * 1e6, 2),
            round(cell["latency_p95_s"] * 1e6, 2),
            round(cell["latency_p99_s"] * 1e6, 2),
        ]
        for cell in report["cells"]
    ]
    emit_table(
        "E15_serving_slo",
        [
            "workload",
            "engine",
            "subs",
            "batches",
            "fired",
            "skip ratio",
            "queries / s",
            "p50 us",
            "p95 us",
            "p99 us",
        ],
        table_rows,
        claim="standing-subscription serving: dirty-ball gating keeps per-round cost "
        "activity-proportional; firings bit-identical across engines",
    )
    print(f"engines identical: {report['engines_identical']}")
    print(f"report written to {out}")


def check_acceptance(report: Dict) -> List[str]:
    """The bar this bench must clear (empty list = pass)."""
    problems: List[str] = []
    if not report["engines_identical"]:
        problems.append(f"engines diverged on {report['divergent_cells']}")
    if not report["smoke"]:
        big = [
            cell
            for cell in report["cells"]
            if cell["workload"] == "flicker" and cell["subscriptions"] >= 1000
        ]
        if not big:
            problems.append("no flicker cell with >= 1000 subscriptions")
        for cell in big:
            if cell["queries_per_s"] <= 0:
                problems.append(f"zero queries/sec at {cell['subscriptions']} subs")
            if not (0 < cell["latency_p50_s"] <= cell["latency_p95_s"] <= cell["latency_p99_s"]):
                problems.append(
                    f"degenerate latency percentiles at {cell['subscriptions']} subs: "
                    f"{cell['latency_p50_s']}/{cell['latency_p95_s']}/{cell['latency_p99_s']}"
                )
    return problems


# --------------------------------------------------------------------- #
# pytest entry points (run with --benchmark-only like the other benches)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", SERVING_MODES)
def test_smoke_identity(benchmark, mode):
    workload = _SMOKE_WORKLOADS[0]
    entry = benchmark.pedantic(run_cell, args=(workload, 10, mode), rounds=1, iterations=1)
    assert entry["evaluated"] > 0
    reference = run_cell(workload, 10, SERVING_MODES[0])
    assert entry["comparable"] == reference["comparable"]


def _emit_table_impl():
    report = run_slo(smoke=False)
    problems = check_acceptance(report)
    assert not problems, problems
    emit_report(report, Path(__file__).resolve().parent.parent / "BENCH_serving.json")


def test_emit_table(benchmark, results_dir):
    """Regenerate and persist this experiment's table (runs under --benchmark-only)."""
    benchmark.pedantic(_emit_table_impl, rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI grid")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report path (default: <repo>/BENCH_serving.json, smoke: BENCH_serving_smoke.json)",
    )
    args = parser.parse_args(argv)
    report = run_slo(smoke=args.smoke)
    default_name = "BENCH_serving_smoke.json" if args.smoke else "BENCH_serving.json"
    out = args.out if args.out is not None else Path(__file__).resolve().parent.parent / default_name
    emit_report(report, out)
    problems = check_acceptance(report)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
