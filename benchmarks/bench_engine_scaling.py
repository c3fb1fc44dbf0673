"""E14 -- engine scaling: dense vs sparse round scheduling.

The sparse engine (:class:`~repro.simulator.rounds.SparseRoundEngine`) only
visits nodes with something to do, and carries the triangle algorithm's
messages on the columnar batch transport; the dense engine visits every node
every round with one envelope per link.  This bench expresses the comparison
as a campaign grid -- workload configurations (network size x churn profile)
times the ``engine_mode`` axis -- runs every cell with per-round latency
instrumentation, verifies that both engines produce **identical metrics** on
every cell, and records the performance trajectory in ``BENCH_engine.json``
(mean / p95 round latency and rounds per second per cell, plus the
per-workload speedup of sparse over dense).

The headline cell is the flickering-triangle gadget embedded in an n=2000
network (~1% of the nodes ever churn): the dense engine sweeps all 2000 nodes
for hundreds of rounds while sparse touches only the gadget; the acceptance
bar is a >= 10x rounds/sec speedup there.  A separate scale probe times the
same gadget at n=100k under sparse only (dense would take minutes) -- cheap
enough for the CI smoke job.

Run directly (this is also the CI perf-smoke entry point)::

    python benchmarks/bench_engine_scaling.py [--smoke] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

if __package__ in (None, ""):  # direct `python benchmarks/bench_engine_scaling.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.experiments import ALGORITHMS, CampaignSpec, ExperimentSpec, build_adversary, percentile
from repro.simulator import SimulationRunner

from benchmarks.harness import emit_table

#: The headline workload: only the 9-node flicker gadget is ever active.
FLICKER_N = 2000

_BASE = {
    "algorithm": "triangle",
    "record_trace": False,
    "checks": [],
}

#: Workload configurations (coupled n + adversary + churn rate).  Churn cells
#: rewrite ~1% of the node set per round; the flicker cell is the large-n
#: low-churn regime the sparse engine is built for.
_FULL_CONFIGS = [
    {
        "n": 200,
        "rounds": 150,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 1, "deletes_per_round": 1},
    },
    {
        "n": 1000,
        "rounds": 150,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 5, "deletes_per_round": 5},
    },
    {
        "n": 2000,
        "rounds": 150,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 10, "deletes_per_round": 10},
    },
    {
        "n": FLICKER_N,
        "rounds": None,
        "adversary": "flicker",
        "adversary_params": {"settle_rounds": 300},
    },
]

#: Scaled-down grid for the CI perf-smoke job: same shape, small sizes.
_SMOKE_CONFIGS = [
    {
        "n": 64,
        "rounds": 40,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 1, "deletes_per_round": 1},
    },
    {
        "n": 128,
        "rounds": None,
        "adversary": "flicker",
        "adversary_params": {"settle_rounds": 60},
    },
]


def build_campaign(smoke: bool = False) -> CampaignSpec:
    """The n x churn x engine-mode sweep as a declarative campaign."""
    return CampaignSpec(
        name="E14_engine_scaling" + ("_smoke" if smoke else ""),
        description="dense vs sparse round scheduling across network size and churn",
        base=dict(_BASE),
        grid={
            "workload": [dict(c) for c in (_SMOKE_CONFIGS if smoke else _FULL_CONFIGS)],
            "engine_mode": ["dense", "sparse"],
        },
    )


def _label(cell: ExperimentSpec) -> str:
    if cell.adversary == "flicker":
        return f"flicker n={cell.n} (~1% nodes churning)"
    churn = cell.adversary_params.get("inserts_per_round", 0) + cell.adversary_params.get(
        "deletes_per_round", 0
    )
    return f"churn n={cell.n} ({churn} changes/round)"


def timed_cell(spec: ExperimentSpec) -> Tuple[Dict[str, float], List[float]]:
    """Run one cell with per-round latency instrumentation.

    Returns ``(metrics, round_latencies_seconds)``.  The metrics are exactly
    what :func:`repro.experiments.run_cell` would report for the same spec, so
    they can be compared across engine modes for the divergence gate.
    """
    adversary = build_adversary(
        spec.adversary,
        n=spec.n,
        rounds=spec.rounds,
        seed=spec.seed,
        params=spec.adversary_params,
    )
    runner = SimulationRunner(
        n=spec.n,
        algorithm_factory=ALGORITHMS[spec.algorithm],
        adversary=adversary,
        bandwidth_factor=spec.bandwidth_factor,
        strict_bandwidth=spec.strict_bandwidth,
        record_trace=False,
        engine_mode=spec.engine_mode,
    )
    stamps = [time.perf_counter()]
    runner.add_validator(lambda *_: stamps.append(time.perf_counter()))
    result = runner.run(num_rounds=spec.rounds, drain=spec.drain)
    metrics = result.summary()
    metrics["final_edges"] = float(result.network.num_edges)
    latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    return metrics, latencies


#: The scale probe: the flicker gadget embedded in a 100k-node network.
#: Dense would sweep 10^5 nodes x hundreds of rounds, so only sparse runs
#: here; its identity with dense on the same gadget is gated at n=2000.
SCALE_PROBE_N = 100_000


def run_scale_probe(smoke: bool = False) -> Dict:
    """Time the n=100k flicker cell under sparse."""
    spec = ExperimentSpec.from_dict(
        {
            **_BASE,
            "n": SCALE_PROBE_N,
            "rounds": None,
            "adversary": "flicker",
            "adversary_params": {"settle_rounds": 60 if smoke else 300},
            "engine_mode": "sparse",
        }
    )
    metrics, latencies = timed_cell(spec)
    wall = sum(latencies)
    rounds = int(metrics["rounds_executed"])
    return {
        "label": f"flicker n={SCALE_PROBE_N} (~0.01% nodes churning)",
        "cells": [
            {
                "n": SCALE_PROBE_N,
                "engine_mode": "sparse",
                "rounds_executed": rounds,
                "wall_s": round(wall, 6),
                "rounds_per_sec": round(rounds / wall, 2) if wall > 0 else float("inf"),
                "mean_round_latency_s": round(wall / rounds, 9) if rounds else 0.0,
                "metrics": metrics,
            }
        ],
    }


def run_scaling(smoke: bool = False) -> Dict:
    """Run the whole grid and return the BENCH_engine report dict."""
    campaign = build_campaign(smoke)
    cells = campaign.expand()
    rows = []
    per_workload: Dict[str, Dict[str, Dict]] = {}
    for cell in cells:
        metrics, latencies = timed_cell(cell)
        wall = sum(latencies)
        rounds = int(metrics["rounds_executed"])
        entry = {
            "label": _label(cell),
            "cell_id": cell.cell_id,
            "n": cell.n,
            "adversary": cell.adversary,
            "engine_mode": cell.engine_mode,
            "rounds_executed": rounds,
            "total_changes": int(metrics["total_changes"]),
            "wall_s": round(wall, 6),
            "rounds_per_sec": round(rounds / wall, 2) if wall > 0 else float("inf"),
            "mean_round_latency_s": round(wall / rounds, 9) if rounds else 0.0,
            "p95_round_latency_s": round(percentile(latencies, 95), 9) if latencies else 0.0,
            "metrics": metrics,
        }
        rows.append(entry)
        per_workload.setdefault(entry["label"], {})[cell.engine_mode] = entry

    sparse_speedups: Dict[str, float] = {}
    identical = True
    divergences: List[str] = []
    for label, modes in per_workload.items():
        dense, sparse = modes["dense"], modes["sparse"]
        if dense["metrics"] != sparse["metrics"]:
            identical = False
            divergences.append(f"{label} [sparse]")
        sparse_speedups[label] = round(sparse["rounds_per_sec"] / dense["rounds_per_sec"], 2)

    return {
        "campaign": campaign.name,
        "smoke": smoke,
        "cells": rows,
        "speedup_sparse_over_dense": sparse_speedups,
        "engines_identical": identical,
        "dense_sparse_identical": identical,
        "divergent_workloads": divergences,
        "scale_probe": run_scale_probe(smoke),
    }


def emit_report(report: Dict, out: Path) -> None:
    """Persist the JSON report to ``out`` and the human-readable table under
    ``benchmarks/results/``, named ``*_smoke`` for the smoke grid."""
    stripped = dict(report)
    stripped["cells"] = [
        {k: v for k, v in cell.items() if k != "metrics"} for cell in report["cells"]
    ]
    stripped["scale_probe"] = {
        **report["scale_probe"],
        "cells": [
            {k: v for k, v in cell.items() if k != "metrics"}
            for cell in report["scale_probe"]["cells"]
        ],
    }
    out.write_text(json.dumps(stripped, indent=2) + "\n")
    table_rows = [
        [
            cell["label"],
            cell["engine_mode"],
            cell["rounds_executed"],
            round(cell["wall_s"], 3),
            cell["rounds_per_sec"],
            round(cell["mean_round_latency_s"] * 1e3, 4),
            round(cell["p95_round_latency_s"] * 1e3, 4),
        ]
        for cell in report["cells"]
    ]
    emit_table(
        "E14_engine_scaling" + ("_smoke" if report["smoke"] else ""),
        ["workload", "engine", "rounds", "wall s", "rounds / s", "mean ms/round", "p95 ms/round"],
        table_rows,
        claim="substrate only: dense vs activity-proportional (sparse) scheduling",
    )
    print(f"speedups (sparse / dense rounds per sec): {report['speedup_sparse_over_dense']}")
    probe = report["scale_probe"]
    print(f"scale probe {probe['label']}: {probe['cells'][0]['rounds_per_sec']} rounds/s")
    print(f"report written to {out}")


# --------------------------------------------------------------------- #
# pytest entry points (run with --benchmark-only like the other benches)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_smoke_identity(benchmark, mode):
    spec = ExperimentSpec.from_dict(
        {**_BASE, **_SMOKE_CONFIGS[0], "engine_mode": mode}
    )
    metrics, latencies = benchmark.pedantic(timed_cell, args=(spec,), rounds=1, iterations=1)
    benchmark.extra_info["rounds_per_sec"] = metrics["rounds_executed"] / max(sum(latencies), 1e-9)
    assert metrics["rounds_executed"] > 0
    # The actual identity gate: this mode's metrics must equal the dense
    # reference run cell-for-cell (timings aside, which are not metrics).
    reference, _ = timed_cell(
        ExperimentSpec.from_dict({**_BASE, **_SMOKE_CONFIGS[0], "engine_mode": "dense"})
    )
    assert metrics == reference


def _emit_table_impl(out: Path):
    report = run_scaling(smoke=False)
    assert report["engines_identical"], report["divergent_workloads"]
    flicker_label = f"flicker n={FLICKER_N} (~1% nodes churning)"
    speedups = report["speedup_sparse_over_dense"]
    assert speedups[flicker_label] >= 10.0, speedups
    emit_report(report, out)


def test_emit_table(benchmark, results_dir):
    """Regenerate this experiment's report and table under ``results_dir``
    (runs under --benchmark-only); the committed ``BENCH_engine.json`` is left alone."""
    benchmark.pedantic(_emit_table_impl, args=(results_dir / "BENCH_engine.json",), rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI grid")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report path (default: <repo>/BENCH_engine.json, smoke: BENCH_engine_smoke.json)",
    )
    args = parser.parse_args(argv)
    report = run_scaling(smoke=args.smoke)
    default_name = "BENCH_engine_smoke.json" if args.smoke else "BENCH_engine.json"
    out = args.out if args.out is not None else Path(__file__).resolve().parent.parent / default_name
    emit_report(report, out)
    if not report["engines_identical"]:
        print(
            f"FAIL: engines diverged on {report['divergent_workloads']}",
            file=sys.stderr,
        )
        return 1
    if not args.smoke:
        flicker_label = f"flicker n={FLICKER_N} (~1% nodes churning)"
        speedups = report["speedup_sparse_over_dense"]
        if speedups[flicker_label] < 10.0:
            print(f"FAIL: flicker speedup below 10x: {speedups}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
