"""Exact outputs of a fixed grid of small cells, pinned across versions.

The differential harness compares the dense and sparse schedules of the one
round loop with each other, so a fault in the code they share (routing,
bandwidth charging, the metrics collector) shows in both legs and passes.
This module pins what that loop produced instead: for every cell of
:data:`CELLS` the round count, the change, inconsistency, envelope and bit
totals, the largest envelope, and digests of the round-record stream, the
realized trace and the final edge set.  The combined final-state fingerprint
is kept in a column of its own, so a change that redefines fingerprints
regenerates only that column.

``tests/test_exact_outputs.py`` reruns the grid under both scheduling
policies and names the first cell and field that differ.  A change that
alters outputs on purpose regenerates the file and says why::

    PYTHONPATH=src python tests/exact_outputs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.experiments import ExperimentSpec
from repro.experiments.registry import ALGORITHMS
from repro.verification import run_reference

BASELINE = Path(__file__).resolve().parent / "data" / "exact_outputs.json"

_CHURN = {
    "adversary": "churn",
    "n": 12,
    "rounds": 20,
    "seed": 1,
    "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
}


def _cells() -> Dict[str, Dict[str, Any]]:
    cells = {f"{name}-churn": {**_CHURN, "algorithm": name} for name in sorted(ALGORITHMS)}
    # The paper's own adversaries (lower bounds, the flickering triangle and
    # the Lemma 1 growing star).
    for algorithm, adversary, n in (
        ("twohop", "theorem2", 12),
        ("null", "theorem4", 25),
        ("null", "threepath", 16),
        ("triangle", "flicker", 12),
        ("naive", "flicker", 12),
        ("twohop", "growing_star", 8),
    ):
        cells[f"{algorithm}-{adversary}"] = {
            "algorithm": algorithm,
            "adversary": adversary,
            "n": n,
            "seed": 1,
        }
    # One delivery fault, one topology fault, and a crash with amnesia.
    for algorithm, faults, params in (
        ("robust2hop", "uniform_loss", {"p": 0.1}),
        ("triangle", "partition", {"period": 6}),
        ("robust2hop", "crash", {"amnesia": True}),
    ):
        cells[f"{algorithm}-churn-{faults}"] = {
            **_CHURN,
            "algorithm": algorithm,
            "faults": faults,
            "fault_params": params,
        }
    return cells


#: Cell name -> :class:`~repro.experiments.ExperimentSpec` fields.
CELLS: Dict[str, Dict[str, Any]] = _cells()


def _digest(value: Any) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_cell(fields: Dict[str, Any], mode: str) -> Tuple[Dict[str, Any], str]:
    """One cell's ``(outputs, combined state fingerprint)`` under ``mode``."""
    spec = ExperimentSpec.from_dict(fields)
    result, _ = run_reference(spec, engine_mode=mode)
    metrics = result.metrics
    records = [
        [r.round_index, r.num_changes, r.num_inconsistent_nodes, r.num_envelopes, r.bits_sent]
        for r in metrics.rounds
    ]
    trace = [[sorted(map(list, ins)), sorted(map(list, dels))] for ins, dels in result.trace.rounds]
    outputs = {
        "cell_id": spec.cell_id,
        "rounds": metrics.rounds_executed,
        "changes": metrics.total_changes,
        "inconsistent_node_rounds": sum(r[2] for r in records),
        "envelopes": metrics.total_envelopes,
        "bits": metrics.total_bits,
        "largest_envelope": result.bandwidth.max_observed_bits,
        "records_digest": _digest(records),
        "trace_digest": _digest(trace),
        "edges_digest": _digest(sorted(map(list, result.network.edges))),
    }
    fingerprint = _digest(sorted((v, algo.state_fingerprint()) for v, algo in result.nodes.items()))
    return outputs, fingerprint


def compute(mode: str) -> Dict[str, Dict[str, Any]]:
    """The baseline document for every cell of :data:`CELLS` under ``mode``."""
    outputs: Dict[str, Any] = {}
    fingerprints: Dict[str, str] = {}
    for name, fields in CELLS.items():
        outputs[name], fingerprints[name] = run_cell(fields, mode)
    return {"outputs": outputs, "fingerprints": fingerprints}


def _flatten(doc: Dict[str, Any]) -> Dict[Tuple[str, str], Any]:
    flat = {
        (name, key): value
        for name, outputs in doc["outputs"].items()
        for key, value in outputs.items()
    }
    for name, fingerprint in doc["fingerprints"].items():
        flat[(name, "state_fingerprint")] = fingerprint
    return flat


def first_difference(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """``[cell, field, expected, actual]`` of the first difference, or ``[]``."""
    want, got = _flatten(expected), _flatten(actual)
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            return [*key, repr(want.get(key)), repr(got.get(key))]
    return []


def render(doc: Dict[str, Any]) -> str:
    """The baseline file's exact text for ``doc``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> int:
    dense = compute("dense")
    diff = first_difference(dense, compute("sparse"))
    if diff:
        raise SystemExit("dense and sparse disagree at cell {} field {}: {} vs {}".format(*diff))
    BASELINE.write_text(render(dense))
    print(f"wrote {len(CELLS)} cells to {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
