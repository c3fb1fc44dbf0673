"""E16 -- fuzzing throughput and the fuzz campaign axis.

Two questions, answered with one campaign grid:

1. **Does the fuzz axis behave like any other experiment?**  The grid sweeps
   the registered ``fuzz`` adversary (algorithm x phase profile x seeds)
   through :class:`~repro.experiments.campaign.CampaignRunner` with oracle
   checks attached -- every cell is both a stress schedule and a correctness
   gate, and a single check failure fails the bench.
2. **How fast does the pipeline chew schedules?**  The report records
   schedules/sec for the campaign pass and for a differential fuzz pass
   (:func:`repro.fuzz.driver.run_fuzz`), which is the budget currency of CI's
   ``fuzz-smoke`` job and of ``repro-dynamic-subgraphs fuzz --budget N``.

Run directly (also the CI fuzz-bench entry point)::

    python benchmarks/bench_fuzz_stress.py [--smoke] [--out BENCH_fuzz.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

import pytest

if __package__ in (None, ""):  # direct `python benchmarks/bench_fuzz_stress.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.experiments import CampaignRunner, CampaignSpec, ResultStore
from repro.fuzz.driver import FuzzConfig, run_fuzz

from benchmarks.harness import RESULTS_DIR, emit_table

#: Checks attached per fuzzed algorithm (the campaign leg gates on these).
_CHECKS = {
    "triangle": ["triangle_oracle", "no_ghost_triangles", "consistent"],
    "robust2hop": ["robust2hop_oracle", "consistent"],
    "robust3hop": ["robust3hop_oracle", "consistent"],
    "twohop": ["twohop_oracle", "consistent"],
}


def build_campaign(smoke: bool = False) -> CampaignSpec:
    seeds = [0, 1] if smoke else [0, 1, 2, 3]
    rounds = 25 if smoke else 40
    return CampaignSpec(
        name="E16_fuzz_stress",
        description="fuzz adversary axis: algorithm x profile x seeds, oracle-checked",
        base={"adversary": "fuzz", "n": 8, "rounds": rounds},
        grid={
            "workload": [
                {"algorithm": algorithm, "checks": checks}
                for algorithm, checks in _CHECKS.items()
            ],
            "adversary_params.profile": ["mixed", "gadgets"],
        },
        seeds=seeds,
    )


def run_stress(smoke: bool = False) -> Dict:
    campaign = build_campaign(smoke)
    store = ResultStore(RESULTS_DIR / "campaign_E16_fuzz")
    start = time.perf_counter()
    report = CampaignRunner(campaign, store).run(resume=False)
    campaign_s = time.perf_counter() - start
    failed = [r["cell_id"] for r in report.failed]
    check_failures = sum(
        r["metrics"].get("check_failures", 0.0) for r in report.records
    )

    config = FuzzConfig(
        budget=10 if smoke else 40,
        seed=0,
        algorithms=tuple(_CHECKS),
        n=8,
        schedule_rounds=25 if smoke else 40,
    )
    start = time.perf_counter()
    fuzz_report = run_fuzz(config)
    fuzz_s = time.perf_counter() - start

    return {
        "campaign": {
            "cells": report.num_run,
            "failed_cells": failed,
            "check_failures": check_failures,
            "seconds": round(campaign_s, 3),
            "cells_per_sec": round(report.num_run / campaign_s, 2),
        },
        "differential_fuzz": {
            "budget": config.budget,
            "failing": fuzz_report.num_failing,
            "seconds": round(fuzz_s, 3),
            "schedules_per_sec": round(config.budget / fuzz_s, 2),
        },
    }


def emit_report(report: Dict, out: Path) -> None:
    out.write_text(json.dumps(report, indent=2) + "\n")
    rows = [
        [
            "campaign axis",
            report["campaign"]["cells"],
            report["campaign"]["seconds"],
            report["campaign"]["cells_per_sec"],
            len(report["campaign"]["failed_cells"]) + report["campaign"]["check_failures"],
        ],
        [
            "differential fuzz",
            report["differential_fuzz"]["budget"],
            report["differential_fuzz"]["seconds"],
            report["differential_fuzz"]["schedules_per_sec"],
            report["differential_fuzz"]["failing"],
        ],
    ]
    emit_table(
        "E16_fuzz_stress",
        ["leg", "schedules", "seconds", "schedules/sec", "failures"],
        rows,
        claim="fuzz cells run inside the campaign runner like any experiment, "
        "and both legs report zero failures on a correct build",
    )


def test_fuzz_axis_campaign_smoke(benchmark):
    report = benchmark.pedantic(run_stress, args=(True,), rounds=1, iterations=1)
    assert not report["campaign"]["failed_cells"]
    assert report["campaign"]["check_failures"] == 0
    assert report["differential_fuzz"]["failing"] == 0


@pytest.mark.skip(reason="full stress grid; run directly via main()")
def test_full_stress():  # pragma: no cover
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small grid for CI")
    parser.add_argument("--out", type=Path, default=Path("BENCH_fuzz.json"))
    args = parser.parse_args(argv)
    report = run_stress(smoke=args.smoke)
    emit_report(report, args.out)
    bad = (
        report["campaign"]["failed_cells"]
        or report["campaign"]["check_failures"]
        or report["differential_fuzz"]["failing"]
    )
    if bad:
        print("fuzz stress found failures", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
