"""E15 -- oracle scaling: naive vs incremental ground truth under per-round checks.

Per-round checks put the oracle on every checked run's hot path.  The
reference :class:`~repro.oracle.NaiveGroundTruthOracle` is deliberately
centralized and slow: it copies the full edge set at every observed round
and recomputes every query from scratch, so a per-round-checked run pays
O(|E|) per round and O(n x |E|) query time however little changed.  The
incremental :class:`~repro.oracle.GroundTruthOracle` pays per *change*
instead: a live adjacency and a dirty-region query cache.  Both answer for
the latest observed round only and keep no history.

This bench drives both oracles over the same realized schedules with an
identical per-round query battery (robust 2-hop set + triangle list for a
rotating node sample -- the shape of the per-round checks), asserts that
**every query answer is identical** after every round (the
naive-vs-incremental differential; any mismatch fails the run), and records
wall-clock in ``BENCH_oracle.json``.

The headline cell is the flickering-triangle gadget embedded in an n=2000
network carrying static background edges: only ~9 nodes ever churn, so the
incremental oracle's per-round cost collapses to the gadget while the naive
oracle keeps paying for the whole graph; the acceptance bar is a >= 10x
oracle speedup there.

Run directly (this is also the CI ``oracle-scaling-smoke`` entry point)::

    python benchmarks/bench_oracle_scaling.py [--smoke] [--out BENCH_oracle.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

if __package__ in (None, ""):  # direct `python benchmarks/bench_oracle_scaling.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.experiments import ALGORITHMS, CampaignSpec, ExperimentSpec, build_adversary
from repro.oracle import GroundTruthOracle, NaiveGroundTruthOracle
from repro.simulator import SimulationRunner

from benchmarks.harness import emit_table

#: The headline workload: a 9-node gadget churning inside a 2000-node graph.
FLICKER_N = 2000

#: Nodes queried per round (same battery for both oracles).
SAMPLE_SIZE = 32

ORACLE_KINDS = ("naive", "incremental")

_BASE = {
    # The null workload realizes the adversary's schedule on the bare
    # network, so wall-clock isolates the oracle instead of an algorithm.
    "algorithm": "null",
    "record_trace": False,
    "checks": [],
}

#: Workload configurations: uniform churn at two sizes plus the low-activity
#: large-|E| flicker regime the incremental oracle is built for.
_FULL_CONFIGS = [
    {
        "n": 200,
        "rounds": 120,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
    },
    {
        "n": 1000,
        "rounds": 120,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 5, "deletes_per_round": 4},
    },
    {
        "n": FLICKER_N,
        "rounds": None,
        "adversary": "flicker",
        "adversary_params": {"settle_rounds": 250, "background_edges": 600},
    },
]

#: Scaled-down grid for the CI smoke job: same shape, small sizes.
_SMOKE_CONFIGS = [
    {
        "n": 48,
        "rounds": 30,
        "adversary": "churn",
        "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
    },
    {
        "n": 96,
        "rounds": None,
        "adversary": "flicker",
        "adversary_params": {"settle_rounds": 40, "background_edges": 60},
    },
]


def build_campaign(smoke: bool = False) -> CampaignSpec:
    """The workload grid as a declarative campaign (oracle kind is swept below)."""
    return CampaignSpec(
        name="E15_oracle_scaling" + ("_smoke" if smoke else ""),
        description="naive vs incremental ground-truth oracle under per-round checks",
        base=dict(_BASE),
        grid={"workload": [dict(c) for c in (_SMOKE_CONFIGS if smoke else _FULL_CONFIGS)]},
    )


def _label(cell: ExperimentSpec) -> str:
    if cell.adversary == "flicker":
        bg = cell.adversary_params.get("background_edges", 0)
        return f"flicker n={cell.n} ({bg} static background edges)"
    churn = cell.adversary_params.get("inserts_per_round", 0) + cell.adversary_params.get(
        "deletes_per_round", 0
    )
    return f"churn n={cell.n} ({churn} changes/round)"


def _build_oracle(kind: str, n: int):
    if kind == "naive":
        return NaiveGroundTruthOracle(n)
    return GroundTruthOracle(n)


def run_oracle_cell(spec: ExperimentSpec, kind: str) -> Dict:
    """Run one workload with a per-round-checking oracle of the given kind.

    The per-round validator observes the oracle and issues the query battery,
    folding every answer into a per-round digest; two runs of the same
    workload are query-identical iff their digest streams are equal.  Only
    time spent inside the validator is charged to the oracle.
    """
    adversary = build_adversary(
        spec.adversary,
        n=spec.n,
        rounds=spec.rounds,
        seed=spec.seed,
        params=spec.adversary_params,
    )
    oracle = _build_oracle(kind, spec.n)
    oracle_seconds = 0.0
    digests: List[int] = []
    queries = 0

    def check(round_index, network, nodes) -> None:
        nonlocal oracle_seconds, queries
        start = time.perf_counter()
        oracle.observe(network)
        digest = 0
        for j in range(SAMPLE_SIZE):
            v = (round_index * 31 + j * 97) % spec.n
            r2 = oracle.robust_two_hop(v)
            triangles = oracle.triangles_containing(v)
            digest = hash((digest, v, r2, frozenset(triangles)))
            queries += 2
        digests.append(digest)
        oracle_seconds += time.perf_counter() - start

    runner = SimulationRunner(
        n=spec.n,
        algorithm_factory=ALGORITHMS[spec.algorithm],
        adversary=adversary,
        record_trace=False,
        validators=[check],
        engine_mode=spec.engine_mode,
    )
    wall_start = time.perf_counter()
    runner.run(num_rounds=spec.rounds, drain=spec.drain)
    wall = time.perf_counter() - wall_start
    return {
        "kind": kind,
        "rounds_observed": len(digests),
        "queries": queries,
        "oracle_s": round(oracle_seconds, 6),
        "wall_s": round(wall, 6),
        "digests": digests,
    }


def run_scaling(smoke: bool = False) -> Dict:
    """Run the whole grid under both oracle kinds; returns the report dict."""
    campaign = build_campaign(smoke)
    rows: List[Dict] = []
    per_workload: Dict[str, Dict[str, Dict]] = {}
    for cell in campaign.expand():
        label = _label(cell)
        for kind in ORACLE_KINDS:
            entry = run_oracle_cell(cell, kind)
            entry["label"] = label
            entry["n"] = cell.n
            entry["adversary"] = cell.adversary
            rows.append(entry)
            per_workload.setdefault(label, {})[kind] = entry

    speedups: Dict[str, float] = {}
    mismatches: List[str] = []
    for label, kinds in per_workload.items():
        naive, incremental = kinds["naive"], kinds["incremental"]
        if naive["digests"] != incremental["digests"]:
            first = next(
                (
                    i + 1
                    for i, (a, b) in enumerate(
                        zip(naive["digests"], incremental["digests"])
                    )
                    if a != b
                ),
                min(len(naive["digests"]), len(incremental["digests"])) + 1,
            )
            mismatches.append(f"{label}: live queries diverge at observed round {first}")
        speedups[label] = round(
            naive["oracle_s"] / incremental["oracle_s"], 2
        ) if incremental["oracle_s"] > 0 else float("inf")

    report = {
        "campaign": campaign.name,
        "smoke": smoke,
        "sample_size": SAMPLE_SIZE,
        "cells": [{key: value for key, value in row.items() if key != "digests"} for row in rows],
        "speedup_naive_over_incremental": speedups,
        "query_identical": not mismatches,
        "mismatches": mismatches,
    }
    return report


def emit_report(report: Dict, out: Path) -> None:
    """Persist the JSON report to ``out`` and the human-readable table under
    ``benchmarks/results/``, named ``*_smoke`` for the smoke grid."""
    out.write_text(json.dumps(report, indent=2) + "\n")
    table_rows = [
        [
            cell["label"],
            cell["kind"],
            cell["rounds_observed"],
            cell["queries"],
            round(cell["oracle_s"], 3),
        ]
        for cell in report["cells"]
    ]
    emit_table(
        "E15_oracle_scaling" + ("_smoke" if report["smoke"] else ""),
        ["workload", "oracle", "rounds", "queries", "oracle s"],
        table_rows,
        claim="substrate only: per-round checks should pay per change, not per graph",
    )
    print(f"speedups (naive / incremental oracle seconds): {report['speedup_naive_over_incremental']}")
    print(f"report written to {out}")


def _flicker_label(smoke: bool) -> str:
    config = (_SMOKE_CONFIGS if smoke else _FULL_CONFIGS)[-1]
    return (
        f"flicker n={config['n']} "
        f"({config['adversary_params']['background_edges']} static background edges)"
    )


# --------------------------------------------------------------------- #
# pytest entry points (run with --benchmark-only like the other benches)
# --------------------------------------------------------------------- #
def test_smoke_query_identity(benchmark):
    spec = ExperimentSpec.from_dict({**_BASE, **_SMOKE_CONFIGS[0]})
    entry = benchmark.pedantic(
        run_oracle_cell, args=(spec, "incremental"), rounds=1, iterations=1
    )
    assert entry["rounds_observed"] > 0
    # The actual gate: the incremental oracle's every answer must match the
    # from-scratch naive reference.
    reference = run_oracle_cell(spec, "naive")
    assert entry["digests"] == reference["digests"]


def _emit_table_impl(out: Path):
    report = run_scaling(smoke=False)
    assert report["query_identical"], report["mismatches"]
    assert report["speedup_naive_over_incremental"][_flicker_label(False)] >= 10.0, report[
        "speedup_naive_over_incremental"
    ]
    emit_report(report, out)


def test_emit_table(benchmark, results_dir):
    """Regenerate this experiment's report and table under ``results_dir``
    (runs under --benchmark-only); the committed ``BENCH_oracle.json`` is left alone."""
    benchmark.pedantic(_emit_table_impl, args=(results_dir / "BENCH_oracle.json",), rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI grid")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report path (default: <repo>/BENCH_oracle.json, smoke: BENCH_oracle_smoke.json)",
    )
    args = parser.parse_args(argv)
    report = run_scaling(smoke=args.smoke)
    default_name = "BENCH_oracle_smoke.json" if args.smoke else "BENCH_oracle.json"
    out = args.out if args.out is not None else Path(__file__).resolve().parent.parent / default_name
    emit_report(report, out)
    if not report["query_identical"]:
        print(
            f"FAIL: naive and incremental oracles diverged: {report['mismatches']}",
            file=sys.stderr,
        )
        return 1
    if not args.smoke:
        flicker = _flicker_label(False)
        if report["speedup_naive_over_incremental"][flicker] < 10.0:
            print(
                f"FAIL: flicker oracle speedup below 10x: "
                f"{report['speedup_naive_over_incremental']}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
