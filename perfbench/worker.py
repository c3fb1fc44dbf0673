"""One repetition of one workload, in a fresh process.

Run from the checkout root with the program's ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.worker --workload cell-churn --seed 1 \\
        --inputs DIR --scratch DIR --out rep.json [--trace]

The clock starts just before ``import repro``.  ``setup_s`` ends at the start
of the first round (cells) or batch (serving), ``total_s`` at the last
persisted record or the return of ``MonitorService.run``.  Both runs install
the timestamp probes these need (each cell's round loop and round starts, or
each served batch); only ``--trace`` installs the layer wrappers of
:mod:`perfbench.trace`.  Correctness is checked after the clock stops and
after peak RSS is read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from . import gate, trace
from .workloads import WORKLOADS, Cells, Serving


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(value) -> str:
    return hashlib.sha1(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_cells(wl: Cells, seed: int, scratch: Path, tracer, counts) -> dict:
    t0 = perf_counter()
    from repro.experiments import CampaignRunner, CampaignSpec
    from repro.simulator import rounds, runner

    t_import = perf_counter()
    if tracer is not None:
        trace.instrument_cells(tracer, counts, wl.algorithm, wl.checks)
        from repro.experiments import campaign

        execute_cell = campaign.execute_cell

        def keyed_cell(spec, **kwargs):
            tracer.key = spec.cell_id
            return execute_cell(spec, **kwargs)

        campaign.execute_cell = keyed_cell

    # Probes: the start of every round, and of and after each cell's loop.
    round_starts: list = []
    loops: list = []  # (first round index, loop end time)
    loop_start: list = []
    execute_round = rounds.SparseRoundEngine.execute_round
    drive_engine = runner.drive_engine

    def timed_round(self, changes):
        round_starts.append(perf_counter())
        return execute_round(self, changes)

    def timed_loop(*args, **kwargs):
        loop_start.append(perf_counter())
        first = len(round_starts)
        result = drive_engine(*args, **kwargs)
        loops.append((first, perf_counter()))
        return result

    rounds.SparseRoundEngine.execute_round = timed_round
    runner.drive_engine = timed_loop

    store = scratch / "store"
    report = CampaignRunner(CampaignSpec.from_dict(wl.campaign(seed)), store, jobs=1).run(
        resume=False
    )
    t_end = perf_counter()
    peak = _peak_rss_mb()

    batch_s = []
    for index, (first, end) in enumerate(loops):
        last = loops[index + 1][0] if index + 1 < len(loops) else len(round_starts)
        marks = round_starts[first:last] + [end]
        batch_s.extend(b - a for a, b in zip(marks, marks[1:]))
    records = report.records
    totals = Counter()
    for record in records:
        for key in ("rounds_executed", "total_changes", "inconsistent_rounds",
                    "total_envelopes", "total_bits", "check_failures"):
            totals[key] += int(record["metrics"].get(key, 0))
    bytes_persisted = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
    problems = gate.cell_problems(records, wl.checks)
    failed = sum(1 for r in records if r.get("status") != "ok" or r["metrics"].get("check_failures"))
    shutil.rmtree(store, ignore_errors=True)
    exact = {
        "simulator.rounds": totals["rounds_executed"],
        "simulator.changes": totals["total_changes"],
        "simulator.envelopes": totals["total_envelopes"],
        "simulator.bits": totals["total_bits"],
        "simulator.inconsistent_rounds": totals["inconsistent_rounds"],
        "verification.check_failures": totals["check_failures"],
        "experiments.cells": len(records),
        "experiments.cells_failed": failed,
        "fingerprints": _digest([(r["cell_id"], r.get("state_fingerprint")) for r in records]),
    }
    return {
        "import_s": t_import - t0,
        "setup_s": loop_start[0] - t0 if loop_start else t_end - t0,
        "total_s": t_end - t0,
        "batch_s": batch_s,
        "peak_rss_mb": peak,
        "events": totals["total_changes"],
        "n": wl.n,
        "exact": exact,
        "volatile": {"experiments.bytes_persisted": bytes_persisted},
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
    }


def run_serving(wl: Serving, inputs: Path, tracer, counts) -> dict:
    t0 = perf_counter()
    from repro.serve import LogEventSource, MonitorService

    t_import = perf_counter()
    call = tracer.call if tracer is not None else (lambda _name, fn, *a, **k: fn(*a, **k))
    if tracer is not None:
        trace.instrument_serving(tracer, counts, wl.structure)
    source = call("serve.convert", LogEventSource, inputs / "log.jsonl", n=wl.n)
    service = call("serve.init", MonitorService, wl.n, wl.structure)
    specs = json.loads((inputs / "subscriptions.json").read_text())
    call("serve.register", service.registry.register_all, specs)

    # Probe: every batch's service time (one ingest call per source batch or
    # settle round), which also keys the traced spans by batch index.
    batch_s: list = []
    ingest = service.ingest

    def timed_ingest(changes):
        if tracer is not None:
            tracer.key = len(batch_s)
        start = perf_counter()
        result = ingest(changes)
        batch_s.append(perf_counter() - start)
        return result

    service.ingest = timed_ingest
    t_setup = perf_counter()
    report = service.run(source, settle_rounds=wl.settle_rounds)
    t_end = perf_counter()
    peak = _peak_rss_mb()

    from repro.oracle import GroundTruthOracle

    network = service.monitor.network
    final = {tuple(edge) for edge in json.loads((inputs / "final_edges.json").read_text())}
    problems = []
    if set(network.edges) != final:
        problems.append(
            f"served graph has {network.num_edges} edges; the log leaves {len(final)}"
        )
    oracle = GroundTruthOracle.from_network(network)
    truth, answers = {}, {}
    for spec in specs:
        if spec["kind"] == "triangle":
            truth[spec["id"]] = oracle.is_triangle(spec["members"])
        else:
            truth[spec["id"]] = tuple(sorted((spec["u"], spec["w"]))) in final
        sub = service.registry.get(spec["id"])
        answers[spec["id"]] = (sub.answer.value, sub.answer.definite, not sub.dirty)
    wrong = gate.answer_problems(answers, truth)
    problems.extend(wrong)
    summary = service.monitor.metrics_summary()
    exact = {
        "simulator.rounds": int(summary["rounds_executed"]),
        "simulator.changes": int(summary["total_changes"]),
        "simulator.envelopes": int(summary["total_envelopes"]),
        "simulator.bits": int(summary["total_bits"]),
        "simulator.inconsistent_rounds": int(summary["inconsistent_rounds"]),
        "serve.log_lines": source.stats["records_read"],
        "serve.batches": report.batches,
        "serve.events": report.events,
        "serve.evaluated": report.evaluated,
        "serve.skipped": report.skipped,
        "serve.fired": report.fired,
        "serve.answers_wrong": len(wrong),
        "fingerprints": report.state_fingerprint,
        "firings": _digest(report.firings),
    }
    return {
        "import_s": t_import - t0,
        "setup_s": t_setup - t0,
        "total_s": t_end - t0,
        "batch_s": batch_s,
        "peak_rss_mb": peak,
        "events": report.events,
        "n": wl.n,
        "exact": exact,
        "volatile": {},
        "attempted": len(specs),
        "failed": len(wrong),
        "problems": problems,
    }


def main(argv=None) -> int:
    # One fixed CPU for every repetition: on a small VM the CPUs differ in
    # speed, and a repetition's speed should not depend on where it landed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = trace.Tracer() if args.trace else None
    counts: Counter = Counter()
    if wl.kind == "cells":
        result = run_cells(wl, args.seed, args.scratch, tracer, counts)
    else:
        result = run_serving(wl, args.inputs, tracer, counts)
    result["traced"] = tracer is not None
    if tracer is not None:
        layers = trace.self_times(tracer.spans)
        layers["import"] = result["import_s"]
        layers["unattributed"] = trace.residual(
            result["total_s"], tracer.spans, accounted=result["import_s"]
        )
        result["layers"] = layers
        counts["core.hook_calls"] = tracer.calls("core.hooks")
        result["exact"].update(
            {key: counts[key] for key in ("simulator.nodes_built", "simulator.active_node_rounds",
                                          "core.hook_calls", "oracle.ball_nodes")}
        )
        tracer.dump(args.scratch / "spans.jsonl")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
