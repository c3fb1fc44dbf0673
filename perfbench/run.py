"""End-to-end benchmark of campaign cells and log serving, with a per-layer ledger.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cell-churn --seed 1 --seconds 20 --trace 0

Each repetition runs one workload in a fresh process (:mod:`perfbench.worker`)
against the checkout's ``src``.  Repetitions continue until ``--seconds`` are
used up, and at least three times.  Every metric is the median over
repetitions; a batch percentile is first taken within each repetition.

``--trace 0`` prints the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer ledger (self times, exact counts, ratios) of the traced ones; the
spans of the last traced repetition are kept under ``.bench_build/perfbench``.

The run fails -- exit status 1, no metrics printed -- if any cell or answer is
wrong, or if any exact count, fingerprint or firing stream differs between
repetitions, traced or not.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gate, stats  # noqa: E402
from perfbench.metrics import COUNTS, END_TO_END, LAYERS, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Repetitions per run at the least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Wall-clock limit for one repetition.
REP_TIMEOUT_S = 100


class BenchmarkError(Exception):
    """The run cannot report: a repetition crashed, or a gate failed."""


def run_rep(workload: str, seed: int, inputs: Path, scratch: Path, traced: bool) -> dict:
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "rep.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed),
        "--inputs", str(inputs), "--scratch", str(scratch), "--out", str(out),
    ] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"repetition exceeded {REP_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"repetition failed:\n{proc.stderr.strip()}")
    return json.loads(out.read_text())


def repetitions(args, workdir: Path):
    """Run repetitions until the time budget is spent; returns (untraced, traced)."""
    wl = WORKLOADS[args.workload]
    inputs = workdir / "inputs"
    if wl.kind == "serve":
        wl.write_inputs(args.seed, inputs)
    untraced, traced = [], []
    longest = {False: 0.0, True: 0.0}
    start = perf_counter()
    while True:
        if args.trace:
            # Alternate, so drift on the machine hits both sides alike.
            want_traced = len(traced) < len(untraced)
            done = untraced and traced
        else:
            want_traced = False
            done = len(untraced) >= MIN_REPS
        elapsed = perf_counter() - start
        if done and elapsed + longest[want_traced] > args.seconds:
            break
        t = perf_counter()
        scratch = workdir / f"rep{len(untraced) + len(traced)}"
        rep = run_rep(args.workload, args.seed, inputs, scratch, want_traced)
        longest[want_traced] = max(longest[want_traced], perf_counter() - t)
        (traced if want_traced else untraced).append(rep)
        if want_traced:
            ledger = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.move(str(scratch / "spans.jsonl"), ledger)
        shutil.rmtree(scratch, ignore_errors=True)
    return untraced, traced


def check(reps: list) -> None:
    """The correctness and determinism gates over every repetition."""
    problems = [p for rep in reps for p in rep["problems"]]
    if problems:
        raise BenchmarkError("incorrect output:\n  " + "\n  ".join(problems[:20]))
    labels = [f"rep {i} ({'traced' if r['traced'] else 'untraced'})" for i, r in enumerate(reps)]
    common = set.intersection(*(set(r["exact"]) for r in reps))
    diff = gate.mismatches([{k: r["exact"][k] for k in common} for r in reps], labels)
    traced = [(label, r) for label, r in zip(labels, reps) if r["traced"]]
    if traced:
        diff += gate.mismatches([r["exact"] for _, r in traced], [label for label, _ in traced])
    if diff:
        raise BenchmarkError("repetitions disagree:\n  " + "\n  ".join(diff[:20]))


def end_to_end(reps: list) -> dict:
    exact = reps[0]["exact"]
    changes = exact["simulator.changes"]
    def batch_ms(q):
        return statistics.median([stats.percentile(r["batch_s"], q) * 1000.0 for r in reps])

    return {
        "setup_s": statistics.median([r["setup_s"] for r in reps]),
        "total_s": statistics.median([r["total_s"] for r in reps]),
        "events_per_s": statistics.median([r["events"] / (r["total_s"] - r["setup_s"]) for r in reps]),
        "batch_p50_ms": batch_ms(50),
        "batch_p99_ms": batch_ms(99),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
        "amortized_rounds": exact["simulator.inconsistent_rounds"] / changes,
        "bits_per_change": exact["simulator.bits"] / changes,
    }


def per_layer(untraced: list, traced: list) -> dict:
    out = {
        f"{layer}_s": statistics.median([r["layers"].get(layer, 0.0) for r in traced])
        for layer in LAYERS
    }
    exact = dict(traced[0]["exact"])
    exact.update(traced[0]["volatile"])
    for name, _ in COUNTS:
        out[name] = exact.get(name, 0)
    rounds = exact["simulator.rounds"]
    considered = exact.get("serve.evaluated", 0) + exact.get("serve.skipped", 0)
    out["simulator.active_fraction"] = exact["simulator.active_node_rounds"] / (
        traced[0]["n"] * rounds
    )
    out["serve.skip_ratio"] = exact.get("serve.skipped", 0) / considered if considered else 0.0
    out["serve.fire_ratio"] = (
        exact.get("serve.fired", 0) / exact["serve.evaluated"] if exact.get("serve.evaluated") else 0.0
    )
    out["core.envelopes_per_change"] = exact["simulator.envelopes"] / exact["simulator.changes"]
    out["tracing_overhead"] = (
        statistics.median([r["total_s"] for r in traced]) / statistics.median([r["total_s"] for r in untraced])
        - 1.0
    )
    return out


def describe(name: str, unit: str, value: float, reps: list) -> str:
    if name.startswith("batch_p"):
        fewest = min(len(r["batch_s"]) for r in reps)
        note = f"median of {len(reps)} repetitions, each over >= {fewest} batches"
    else:
        note = f"median of {len(reps)} repetitions"
    return f"{name:32s} {value:14.6g} {unit:14s} {note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and waits for its repetition's process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / "perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced = repetitions(args, workdir)
        check(untraced + traced)
        if args.trace:
            metrics = per_layer(untraced, traced)
            spec, shown = PER_LAYER, traced
        else:
            metrics = end_to_end(untraced)
            spec, shown = END_TO_END, untraced
    except (BenchmarkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reps = untraced + traced
    for name, unit, _ in spec:
        print(describe(name, unit, metrics[name], shown))
    result = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
