"""Serving and the CLI start without loading numpy or networkx.

numpy is imported only where a seeded random schedule or a fit is built,
networkx only inside :func:`repro.oracle.subgraphs.build_graph`.  So
``import repro.serve`` and ``import repro.cli`` load neither, a served log
needs neither, and a cell loads numpy only when its adversary draws random
numbers.  Each case runs in a fresh interpreter with ``PYTHONPATH=src``,
because this test process imported both long ago; setting a name to
``None`` in ``sys.modules`` makes importing it raise, as if it were not
installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import json, sys
blocked = json.loads(sys.argv[1])
sys.modules.update(dict.fromkeys(blocked, None))
def loaded():
    return sorted(name for name in ("numpy", "networkx") if sys.modules.get(name))
"""


def _run(code: str, blocked=(), *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, json.dumps(list(blocked)), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.mark.parametrize("module", ["repro.serve", "repro.cli"])
def test_import_loads_neither_library(module):
    proc = _run("import importlib\nimportlib.import_module(sys.argv[2])\nprint(loaded())", (), module)
    assert proc.stdout.strip() == "[]"


def test_serve_log_runs_with_both_libraries_blocked():
    proc = _run(
        "from repro.cli import main\nsys.exit(main(sys.argv[2:]))",
        ("numpy", "networkx"),
        "serve", "--source", "log",
        "--log", "examples/serving_churn_log.jsonl",
        "--nodes", "20",
        "--structure", "triangle",
        "--subscriptions", "examples/serving_subscriptions.json",
    )
    assert "log normalized:" in proc.stdout
    assert "state_fingerprint" in proc.stdout


CELL = """
from repro.experiments import ExperimentSpec
from repro.experiments.campaign import execute_cell

record, _ = execute_cell(ExperimentSpec.from_dict(json.loads(sys.argv[2])))
print(json.dumps([record["status"], record["metrics"]["check_failures"], loaded()]))
"""


def _cell(blocked, **fields):
    spec = {"algorithm": "triangle", "n": 16, "rounds": 30, "seed": 3, **fields}
    return json.loads(_run(CELL, blocked, json.dumps(spec)).stdout)


def test_churn_cell_checked_by_the_oracle_needs_no_networkx():
    status, failures, loaded = _cell(
        ("networkx",),
        adversary="churn",
        adversary_params={"inserts_per_round": 3, "deletes_per_round": 2},
        checks=["triangle_oracle", "no_ghost_triangles"],
    )
    assert (status, failures) == ("ok", 0)
    assert loaded == ["numpy"]  # the churn schedule's seeded generator


def test_cell_without_a_random_schedule_needs_no_numpy():
    status, failures, loaded = _cell(
        ("numpy", "networkx"), adversary="flicker", n=12, rounds=None, checks=["flicker_ghost"]
    )
    assert (status, failures) == ("ok", 0)
    assert loaded == []


def test_a_cycle_query_loads_networkx_on_first_use():
    proc = _run(
        "from repro.oracle import GroundTruthOracle\n"
        "oracle = GroundTruthOracle(4)\n"
        "before = loaded()\n"
        "cycles = oracle.cycles_of_length(4)\n"
        "print(json.dumps([before, loaded(), len(cycles)]))",
    )
    assert json.loads(proc.stdout) == [[], ["networkx"], 0]
