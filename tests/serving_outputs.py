"""Exact outputs of the serving pipeline, pinned across versions.

:class:`~repro.serve.MonitorService` turns a stream of batches into a report:
batch, event and evaluation counts, the log of fired notifications and the
final state fingerprint.  The dense and sparse engines are compared with
each other by ``tests/test_serve_service.py``, so a fault in code both share
(the subscription sweep, the firing log, the report) passes there.  This
module pins what the pipeline produced instead: for every case of
:data:`CASES` the ``batches``, ``events``, ``evaluated``, ``skipped`` and
``fired`` counts and the sha1 of ``json.dumps(report.firings,
sort_keys=True)``.  The state fingerprint is kept in a column of its own, so
a change that redefines fingerprints regenerates only that column.

The cases are the serving smoke run (the example log on the triangle
structure), edge subscriptions on robust2hop under seeded churn, a clique
subscription on the flickering triangle, and a cycle subscription under
churn.

``tests/test_serving_outputs.py`` reruns every case under both engines and
names the first case and field that differ.  A change that alters serving
outputs on purpose regenerates the file and says why::

    PYTHONPATH=src python tests/serving_outputs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro import FlickerTriangleAdversary, RandomChurnAdversary
from repro.serve import AdversaryEventSource, LogEventSource, MonitorService

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tests" / "data" / "serving_outputs.json"
EXAMPLES = ROOT / "examples"


def _smoke(mode: str) -> Tuple[MonitorService, Any, int]:
    service = MonitorService(20, "triangle", engine_mode=mode)
    service.registry.register_all(
        json.loads((EXAMPLES / "serving_subscriptions.json").read_text())
    )
    return service, LogEventSource(EXAMPLES / "serving_churn_log.jsonl", n=20), 8


def _churn(n: int, rounds: int) -> AdversaryEventSource:
    return AdversaryEventSource(RandomChurnAdversary(n, num_rounds=rounds, seed=7), rounds=rounds)


def _robust2hop_edges(mode: str) -> Tuple[MonitorService, Any, int]:
    service = MonitorService(16, "robust2hop", engine_mode=mode)
    for i in range(8):
        service.subscribe("edge", node=i, u=i, w=(i + 1) % 16)
    return service, _churn(16, 30), 8


def _clique_flicker(mode: str) -> Tuple[MonitorService, Any, int]:
    service = MonitorService(12, "clique", engine_mode=mode)
    service.subscribe("clique", members=[0, 1, 2])
    service.subscribe("clique", members=[0, 1, 2, 3], ask=3)
    source = AdversaryEventSource(FlickerTriangleAdversary(n=12), rounds=60)
    return service, source, 8


def _cycles_churn(mode: str) -> Tuple[MonitorService, Any, int]:
    service = MonitorService(10, "cycles", engine_mode=mode)
    service.subscribe("cycle", members=[0, 1, 2, 3])
    service.subscribe("cycle", members=[2, 4, 6, 8, 9])
    return service, _churn(10, 40), 8


#: Case name -> a call building ``(service, source, settle_rounds)`` for an engine mode.
CASES: Dict[str, Callable[[str], Tuple[MonitorService, Any, int]]] = {
    "serving-smoke": _smoke,
    "robust2hop-edges-churn": _robust2hop_edges,
    "clique-flicker": _clique_flicker,
    "cycles-churn": _cycles_churn,
}


def _digest(value: Any) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_case(name: str, mode: str) -> Tuple[Dict[str, Any], str]:
    """One case's ``(outputs, state fingerprint)`` under ``mode``."""
    service, source, settle_rounds = CASES[name](mode)
    report = service.run(source, settle_rounds=settle_rounds)
    outputs = {
        "batches": report.batches,
        "events": report.events,
        "evaluated": report.evaluated,
        "skipped": report.skipped,
        "fired": report.fired,
        "firings_digest": _digest(report.firings),
    }
    return outputs, report.state_fingerprint


def compute(mode: str) -> Dict[str, Dict[str, Any]]:
    """The baseline document for every case of :data:`CASES` under ``mode``."""
    outputs: Dict[str, Any] = {}
    fingerprints: Dict[str, str] = {}
    for name in CASES:
        outputs[name], fingerprints[name] = run_case(name, mode)
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
    """``[case, field, expected, actual]`` of the first difference, or ``[]``."""
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
        raise SystemExit("dense and sparse disagree at case {} field {}: {} vs {}".format(*diff))
    BASELINE.write_text(render(dense))
    print(f"wrote {len(CASES)} cases to {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
