"""Shared helpers for the benchmark harness.

Each paper-claim benchmark regenerates one row of the paper-claim table in
README.md's Verification section (one per theorem / figure / remark of the
paper).  The helpers here keep the harness uniform:

* :func:`run_experiment` -- run an algorithm against an adversary and return
  the :class:`~repro.simulator.runner.SimulationResult`;
* :func:`emit_table` -- print the experiment's table and store it under
  ``benchmarks/results/`` as CSV.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis import format_table, write_csv
from repro.simulator import Adversary, SimulationResult, SimulationRunner

__all__ = ["RESULTS_DIR", "run_experiment", "emit_table"]

RESULTS_DIR = Path(__file__).parent / "results"


def run_experiment(
    algorithm_factory: Callable,
    adversary: Adversary,
    n: int,
    *,
    strict_bandwidth: bool = True,
    num_rounds: Optional[int] = None,
) -> SimulationResult:
    """Run one simulation to completion (including the drain phase)."""
    runner = SimulationRunner(
        n=n,
        algorithm_factory=algorithm_factory,
        adversary=adversary,
        strict_bandwidth=strict_bandwidth,
    )
    return runner.run(num_rounds=num_rounds)


def emit_table(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    *,
    claim: str,
) -> None:
    """Print an experiment table and persist it under results/ (CSV + text)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rendered = format_table(headers, rows)
    print(f"\n=== {name} ===")
    print(f"paper claim: {claim}")
    print(rendered)
    write_csv(RESULTS_DIR / f"{name}.csv", headers, rows)
    (RESULTS_DIR / f"{name}.txt").write_text(
        f"{name}\npaper claim: {claim}\n{rendered}\n"
    )
