"""Command-line interface: single runs, experiment campaigns, verification.

Installed as the ``repro-dynamic-subgraphs`` console script.  Three modes:

* the default mode runs one algorithm/adversary combination and prints its
  metrics -- a thin layer over
  :class:`~repro.simulator.runner.SimulationRunner`::

      repro-dynamic-subgraphs --algorithm triangle --adversary churn --nodes 40 --rounds 300

  ``--checks name1,name2`` (or ``--checks auto``) additionally runs the named
  result checks and reports their metrics and structured failures.

* the ``campaign`` subcommand expands a declarative JSON sweep spec and runs
  it across a worker pool (see :mod:`repro.experiments`), persisting per-cell
  results and traces and printing the aggregate table::

      repro-dynamic-subgraphs campaign --spec sweep.json --jobs 4

* the ``verify`` subcommand differentially verifies every unique cell of a
  sweep spec across the dense and sparse scheduling policies, running every
  applicable registered check and reporting structured divergences::

      repro-dynamic-subgraphs verify --spec sweep.json

* the ``fuzz`` subcommand generates seeded adversarial schedules, runs each
  through the differential harness with every applicable check, ddmin-shrinks
  new failures to minimal scripted reproducers and banks them in a corpus
  (see :mod:`repro.fuzz`)::

      repro-dynamic-subgraphs fuzz --budget 200 --seed 7 --shrink --corpus fuzz-out
      repro-dynamic-subgraphs fuzz --replay --corpus tests/data/fuzz_corpus

* the ``telemetry`` subcommand renders the telemetry snapshots a campaign
  collected (``campaign --telemetry``) as a merged hotspot report -- span
  cumulative times, histogram percentiles, counters -- optionally as JSON::

      repro-dynamic-subgraphs telemetry report --store campaigns/sweep
      repro-dynamic-subgraphs telemetry report --store campaigns/sweep --json report.json

* the ``serve`` subcommand runs the serving stack (:mod:`repro.serve`) over an
  event source -- a registered adversary, a recorded trace, or an external
  JSONL link-event log -- with standing subscriptions loaded from a JSON spec,
  printing every fired notification and the serving report::

      repro-dynamic-subgraphs serve --source log --log churn.jsonl --nodes 50 \\
          --structure triangle --subscriptions subs.json

Every subcommand takes ``--log-level`` to tune the ``repro.*`` logging
hierarchy (the library itself never prints; diagnostics go through
:mod:`logging`).

All modes resolve algorithm and adversary names through the shared
registries of :mod:`repro.experiments.registry`, so every implemented
adversary -- including the flickering-triangle construction, the Remark 1
three-path lower bound, recorded-trace replay and the schedule fuzzer -- is
reachable from the command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .analysis.tables import format_table
from .core.membership import PATTERNS
from .experiments import (
    ADVERSARIES,
    ALGORITHMS,
    PROFILERS,
    CampaignRunner,
    CampaignSpec,
    ExperimentSpec,
    ResultStore,
    build_adversary,
)
from .obs import DEFAULT_THRESHOLD, LOG_LEVELS, CampaignProgress, configure_logging
from .simulator import ENGINE_MODES
from .verification import CHECKS

__all__ = [
    "main",
    "build_parser",
    "build_campaign_parser",
    "build_verify_parser",
    "build_fuzz_parser",
    "build_telemetry_parser",
    "build_serve_parser",
    "campaign_main",
    "verify_main",
    "fuzz_main",
    "telemetry_main",
    "serve_main",
    "SUBCOMMANDS",
]


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--log-level`` flag to a (sub)parser."""
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="threshold for the 'repro.*' logging hierarchy on stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    """The single-run argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dynamic-subgraphs",
        description="Run a highly-dynamic-network simulation and report amortized complexity. "
        "Use the 'campaign' subcommand to run a declarative sweep spec instead.",
    )
    parser.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="triangle")
    parser.add_argument(
        "--adversary",
        choices=sorted(ADVERSARIES),
        default="churn",
        help="churn: uniform random churn; p2p: heavy-tailed sessions; "
        "batch: one-shot random graph; flicker: the Section 1.3 flickering triangle; "
        "theorem2/theorem4/threepath: the lower-bound constructions; "
        "scripted: replay a recorded trace (--trace); "
        "planted_clique/planted_cycle/growing: canned workload generators",
    )
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINE_MODES),
        default="sparse",
        help="round scheduler: 'sparse' only visits active nodes and batches "
        "the messages of ported algorithms (default), 'dense' visits every "
        "node every round; both produce identical results",
    )
    parser.add_argument("--inserts-per-round", type=int, default=2)
    parser.add_argument("--deletes-per-round", type=int, default=1)
    parser.add_argument(
        "--pattern", choices=sorted(PATTERNS), default="P3", help="pattern for --adversary theorem2"
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="trace JSON to replay (required for --adversary scripted)",
    )
    parser.add_argument(
        "--save-trace",
        type=Path,
        default=None,
        help="record the realized schedule and write it to this file "
        "(replayable later via --adversary scripted --trace FILE)",
    )
    parser.add_argument(
        "--bandwidth-factor", type=int, default=8, help="per-link budget = factor * ceil(log2 n) bits"
    )
    parser.add_argument(
        "--loose-bandwidth",
        action="store_true",
        help="record bandwidth violations instead of raising (needed for the naive baselines)",
    )
    parser.add_argument(
        "--checks",
        default=None,
        metavar="NAME[,NAME...]",
        help="result checks to run after the simulation (see the registry: "
        f"{', '.join(sorted(CHECKS))}); 'auto' selects every applicable check",
    )
    _add_log_level(parser)
    return parser


def _adversary_params(args: argparse.Namespace) -> Dict:
    """Translate single-run flags into registry builder params."""
    if args.adversary == "churn":
        return {
            "inserts_per_round": args.inserts_per_round,
            "deletes_per_round": args.deletes_per_round,
        }
    if args.adversary == "theorem2":
        return {"pattern": args.pattern}
    if args.adversary == "scripted":
        if args.trace is None:
            raise SystemExit("--adversary scripted requires --trace FILE")
        return {"trace_path": str(args.trace)}
    return {}


def _run_single(args: argparse.Namespace) -> int:
    from .verification import applicable_checks, run_reference

    configure_logging(args.log_level)
    try:
        spec = ExperimentSpec(
            algorithm=args.algorithm,
            adversary=args.adversary,
            n=args.nodes,
            rounds=args.rounds,
            seed=args.seed,
            adversary_params=_adversary_params(args),
            bandwidth_factor=args.bandwidth_factor,
            strict_bandwidth=not args.loose_bandwidth,
            engine_mode=args.engine,
        )
        if args.checks is None:
            check_names: List[str] = []
        elif args.checks.strip() == "auto":
            check_names = applicable_checks(spec)
        else:
            check_names = [part.strip() for part in args.checks.split(",") if part.strip()]
            # Rebuilding the spec with the checks attached funnels name and
            # applicability validation through ExperimentSpec itself -- one
            # validation path, one message format.
            spec = ExperimentSpec.from_dict({**spec.to_dict(), "checks": check_names})
        # Construct the adversary up front so bad parameters (undersized n,
        # missing trace file) surface as usage errors; the unconsumed
        # instance is handed to the run below.
        adversary = build_adversary(
            args.adversary,
            n=spec.n,
            rounds=spec.rounds,
            seed=spec.seed,
            params=spec.adversary_params,
        )
    except (ValueError, OSError) as exc:
        # Exit 2 is reserved for usage errors (bad flags, bad spec inputs);
        # failures *during* the simulation surface as tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, outcomes = run_reference(
        spec,
        engine_mode=args.engine,
        checks=check_names,
        record_trace=args.save_trace is not None,
        adversary=adversary,
    )
    if args.save_trace is not None:
        result.trace.save(args.save_trace)
        print(f"trace written to {args.save_trace}")
    summary = result.summary()
    for outcome in outcomes.values():
        summary.update(outcome.metrics)
    print(
        format_table(
            ["metric", "value"],
            sorted(summary.items()),
        )
    )
    failures = [f for outcome in outcomes.values() for f in outcome.failures]
    if failures:
        print(f"\n{len(failures)} check failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        return 1
    if check_names:
        print(f"checks passed: {', '.join(check_names)}")
    return 0


# --------------------------------------------------------------------- #
# campaign subcommand
# --------------------------------------------------------------------- #
def build_campaign_parser() -> argparse.ArgumentParser:
    """The ``campaign`` subcommand parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dynamic-subgraphs campaign",
        description="Expand a declarative sweep spec (JSON) and run it across a worker pool, "
        "persisting per-cell JSONL results + traces and printing the aggregate table. "
        "Re-running the same spec skips cells that already have stored results.",
    )
    parser.add_argument("--spec", type=Path, required=True, help="campaign spec JSON file")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (1 = inline)")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result-store directory (default: campaigns/<campaign name>)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="re-run every cell even if the store already has its result",
    )
    parser.add_argument(
        "--group-by",
        default="algorithm,adversary,n",
        help="comma-separated spec fields for the aggregate table grouping",
    )
    parser.add_argument(
        "--metrics",
        default="amortized_round_complexity,duration_s",
        help="comma-separated metric names to aggregate "
        "(mean/p50/p95/p99 per group; bare record keys like duration_s work too)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_cells", help="print the expanded cells and exit"
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        default=None,
        help="collect per-cell telemetry snapshots into <store>/telemetry/ "
        "(defaults to the spec's own 'telemetry' settings)",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_false",
        dest="telemetry",
        help="force telemetry off even if the spec enables it",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="snapshot cadence (default: the spec's interval_s, else 1s)",
    )
    parser.add_argument(
        "--trace-events",
        action="store_true",
        default=None,
        help="collect stage-level trace events per cell into "
        "<store>/telemetry/<cell_id>.trace.jsonl (implies --telemetry; "
        "export with 'telemetry trace'; defaults to the spec's "
        "telemetry.trace setting)",
    )
    parser.add_argument(
        "--no-trace-events",
        action="store_false",
        dest="trace_events",
        help="force trace-event collection off even if the spec enables it",
    )
    parser.add_argument(
        "--profile",
        choices=PROFILERS,
        default=None,
        help="run every cell under a profiler; pstats dumps land in <store>/profiles/",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the live per-cell progress rendering on stderr",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry a cell up to N times after an infrastructure failure "
        "(worker death, timeout); a cell that exhausts its retries is "
        "recorded as quarantined instead of hanging the campaign",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt; past it the worker is "
        "killed and the cell retried (or quarantined)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base delay before re-dispatching a failed cell, doubled per "
        "attempt with deterministic jitter (default: 1s)",
    )
    parser.add_argument(
        "--allow-quarantined",
        action="store_true",
        help="exit 0 even when cells were quarantined, as long as every "
        "other cell succeeded (the quarantined ids are still printed)",
    )
    _add_log_level(parser)
    return parser


def campaign_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``campaign`` subcommand."""
    args = build_campaign_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        campaign = CampaignSpec.load(args.spec)
        cells = campaign.expand()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_cells:
        for cell in cells:
            print(cell.cell_id)
        return 0

    out = args.out if args.out is not None else Path("campaigns") / campaign.name
    store = ResultStore(out)
    try:
        runner = CampaignRunner(
            campaign,
            store,
            jobs=args.jobs,
            telemetry=args.telemetry,
            telemetry_interval_s=args.telemetry_interval,
            trace_events=args.trace_events,
            profile=args.profile,
            max_retries=args.retries,
            cell_timeout_s=args.cell_timeout,
            retry_backoff_s=args.retry_backoff,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Live progress renders on stderr so stdout stays clean for the
    # summary/aggregate tables (pipeable, diffable).
    live = None if args.no_progress else CampaignProgress(len(cells))

    print(f"campaign {campaign.name!r}: {len(cells)} cells -> {out}")
    report = runner.run(
        resume=not args.no_resume,
        progress=live.cell_finished if live is not None else None,
        on_start=live.cell_started if live is not None else None,
    )
    if live is not None:
        live.close()
    quarantined = report.quarantined
    print(
        f"ran {report.num_run} cells, skipped {report.num_skipped} already-complete, "
        f"{len(report.failed)} failed"
        + (f" ({len(quarantined)} quarantined)" if quarantined else "")
    )
    if any(report.counters.values()):
        supervision = ", ".join(
            f"{name.split('.', 1)[1]}={value}"
            for name, value in sorted(report.counters.items())
            if value
        )
        print(f"supervision: {supervision}")
    group_by = [part.strip() for part in args.group_by.split(",") if part.strip()]
    metrics = [part.strip() for part in args.metrics.split(",") if part.strip()]
    print(store.format_aggregate(group_by=group_by, metrics=metrics))
    if quarantined:
        ids = ", ".join(record["cell_id"] for record in quarantined[:5])
        print(f"\nquarantined cell(s): {ids}", file=sys.stderr)
    hard_failures = [r for r in report.failed if r.get("status") != "quarantined"]
    if hard_failures or (quarantined and not args.allow_quarantined):
        first = (hard_failures or quarantined)[0]
        print(f"\nfirst failure ({first['cell_id']}):\n{first['error']}", file=sys.stderr)
        return 1
    # Check violations do not error a cell (its metrics are still valid data)
    # but they do fail the campaign: every campaign run is a correctness gate.
    check_failed = [
        record for record in report.records if record["metrics"].get("check_failures")
    ]
    if check_failed:
        cells = ", ".join(record["cell_id"] for record in check_failed[:5])
        print(
            f"\n{len(check_failed)} cell(s) with check failures (e.g. {cells}); "
            "run the 'verify' subcommand for the structured report",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------- #
# verify subcommand
# --------------------------------------------------------------------- #
def build_verify_parser() -> argparse.ArgumentParser:
    """The ``verify`` subcommand parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dynamic-subgraphs verify",
        description="Differentially verify a sweep spec: run every unique cell under "
        "the dense and sparse engine modes, assert bit-identity of round records, traces, "
        "metrics and final node state, and execute every applicable registered "
        "check. Checks not exercised by the spec run on their own coverage cells, "
        "so a verify run executes the whole checks registry.",
    )
    parser.add_argument("--spec", type=Path, required=True, help="campaign spec JSON file")
    parser.add_argument(
        "--limit", type=int, default=None, help="verify at most this many unique cells"
    )
    parser.add_argument(
        "--no-coverage",
        action="store_true",
        help="skip the coverage cells for checks the spec does not exercise",
    )
    parser.add_argument(
        "--require-all-checks",
        action="store_true",
        help="fail (exit 1) if any registered check was never executed",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write the full structured verification report to this JSON file",
    )
    _add_log_level(parser)
    return parser


def verify_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``verify`` subcommand."""
    from .verification import verify_campaign

    args = build_verify_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        campaign = CampaignSpec.load(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(cell, done, total):
        label = " [coverage]" if cell.coverage else ""
        checks = ",".join(cell.report.executed_checks) or "-"
        verdict = "ok" if cell.ok else "FAIL"
        print(f"[{done}/{total}] {cell.spec.cell_id}{label}: {verdict} (checks: {checks})")
        if not cell.ok:
            print(cell.report.describe(), file=sys.stderr)

    print(f"verify {campaign.name!r} across {'/'.join(ENGINE_MODES)}")
    try:
        summary = verify_campaign(
            campaign,
            include_coverage=not args.no_coverage,
            limit=args.limit,
            progress=progress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report is not None:
        args.report.write_text(json.dumps(summary.to_dict(), indent=2) + "\n")
        print(f"report written to {args.report}")
    print(
        f"{len(summary.cells)} cells verified: {summary.num_divergences} divergences, "
        f"{summary.num_check_failures} check failures"
    )
    print(f"checks executed: {', '.join(summary.executed_checks) or '-'}")
    if summary.skipped_checks:
        print(f"checks skipped: {', '.join(summary.skipped_checks)}")
    if not summary.ok:
        return 1
    if args.require_all_checks and summary.skipped_checks:
        print("error: some registered checks were never executed", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
# fuzz subcommand
# --------------------------------------------------------------------- #
def build_fuzz_parser() -> argparse.ArgumentParser:
    """The ``fuzz`` subcommand parser (exposed for testing)."""
    from .fuzz.generators import PROFILES
    from .fuzz.injected import INJECTED_BUGS

    parser = argparse.ArgumentParser(
        prog="repro-dynamic-subgraphs fuzz",
        description="Generate seeded adversarial schedules (churn bursts, flicker-gadget "
        "splices, node isolation, delete/re-insert interleavings), run each through the "
        "cross-engine differential harness with every applicable check, ddmin-shrink new "
        "failures to minimal scripted reproducers, and bank them in a JSONL corpus. "
        "With --replay, re-run every corpus reproducer instead and fail if any behaves "
        "differently than recorded.",
    )
    parser.add_argument("--budget", type=int, default=50, help="number of schedules to try")
    parser.add_argument("--seed", type=int, default=0, help="base seed of the schedule stream")
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="ddmin-minimize the first failure of each new failure class",
    )
    parser.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="corpus directory: minimized reproducers are appended here "
        "(and replayed from here with --replay)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="replay every corpus entry instead of fuzzing (requires --corpus)",
    )
    parser.add_argument(
        "--algorithms",
        default="triangle,robust2hop,robust3hop,twohop",
        metavar="NAME[,NAME...]",
        help="round-robin pool of algorithms under test",
    )
    parser.add_argument("--nodes", type=int, default=8, help="network size of every fuzz cell")
    parser.add_argument(
        "--schedule-rounds", type=int, default=30, help="rounds per generated schedule"
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="mixed",
        help="phase mix of the schedule generator",
    )
    parser.add_argument(
        "--faults",
        default="",
        help="comma-separated fault-model axis cycled across cells "
        "(e.g. 'none,uniform_loss,crash'); empty fuzzes fault-free",
    )
    parser.add_argument(
        "--inject-bug",
        choices=sorted(INJECTED_BUGS),
        default=None,
        help="swap a registry algorithm for a deliberately broken variant "
        "(an injected-bug build, for exercising the pipeline end to end)",
    )
    parser.add_argument(
        "--max-shrink-candidates",
        type=int,
        default=1500,
        help="differential-run budget per shrink session",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="write the full structured fuzz report to this JSON file",
    )
    parser.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="stream fuzz telemetry heartbeats (schedules/sec, failures banked, "
        "current signature) to this JSONL file",
    )
    _add_log_level(parser)
    return parser


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``fuzz`` subcommand."""
    from .fuzz.corpus import CorpusStore
    from .fuzz.driver import FuzzConfig, run_fuzz
    from .fuzz.injected import inject_bug

    args = build_fuzz_parser().parse_args(argv)
    configure_logging(args.log_level)
    algorithms = tuple(part.strip() for part in args.algorithms.split(",") if part.strip())
    config = None
    try:
        if args.replay:
            if args.corpus is None:
                raise ValueError("--replay needs --corpus DIR to replay from")
            # Replay ignores the fuzzing knobs (each entry carries its own
            # size), so they are deliberately not validated here.
        else:
            unknown = [a for a in algorithms if a not in ALGORITHMS]
            if unknown:
                raise ValueError(
                    f"unknown algorithms {unknown}; choose from {sorted(ALGORITHMS)}"
                )
            config = FuzzConfig(
                budget=args.budget,
                seed=args.seed,
                algorithms=algorithms,
                n=args.nodes,
                schedule_rounds=args.schedule_rounds,
                profile=args.profile,
                shrink=args.shrink,
                max_shrink_candidates=args.max_shrink_candidates,
                faults=tuple(
                    part.strip() for part in args.faults.split(",") if part.strip()
                ),
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    restore = None
    if args.inject_bug is not None:
        restore = inject_bug(args.inject_bug)
        print(
            f"NOTE: injected bug {args.inject_bug!r} is active -- this build is "
            "intentionally broken",
            file=sys.stderr,
        )
    telemetry_on = args.telemetry_out is not None
    if telemetry_on:
        from .obs import TELEMETRY, TelemetrySink

        TELEMETRY.enable(sink=TelemetrySink(args.telemetry_out), label="fuzz")
    try:
        corpus = CorpusStore(args.corpus) if args.corpus is not None else None

        if args.replay:
            try:
                entries = corpus.entries()
            except ValueError as exc:
                # A parseable-but-invalid line is a botched hand-edit; the
                # store raises and the CLI reports it like any bad input.
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not entries:
                # An empty replay must not pass vacuously: a typo'd path or a
                # corrupted corpus file would silently disable the CI gate.
                print(
                    f"error: no corpus entries found under {args.corpus} "
                    f"(expected {CorpusStore.CORPUS_FILE})",
                    file=sys.stderr,
                )
                return 2
            outcomes = corpus.replay_all(
                progress=lambda outcome, done, total: print(
                    f"[{done}/{total}] {outcome.describe()}"
                )
            )
            bad = [o for o in outcomes if not o.ok]
            if args.report is not None:
                args.report.write_text(
                    json.dumps(
                        {
                            "ok": not bad,
                            "outcomes": [
                                {
                                    "entry_id": o.entry.entry_id,
                                    "algorithm": o.entry.algorithm,
                                    "expect": o.entry.expect,
                                    "ok": o.ok,
                                    "observed": o.observed.to_dict(),
                                    "detail": o.detail,
                                }
                                for o in outcomes
                            ],
                        },
                        indent=2,
                    )
                    + "\n"
                )
                print(f"report written to {args.report}")
            print(
                f"replayed {len(outcomes)} corpus entries: "
                f"{len(outcomes) - len(bad)} ok, {len(bad)} stale/failing"
            )
            return 1 if bad else 0

        def progress(record, done, total):
            verdict = "ok" if record["ok"] else "FAIL"
            print(f"[{done}/{total}] {record['cell_id']}: {verdict}")

        print(
            f"fuzz: budget {config.budget}, seed {config.seed}, n={config.n}, "
            f"{config.schedule_rounds} rounds/schedule, profile {config.profile}, "
            f"modes {'/'.join(ENGINE_MODES)}"
        )
        report = run_fuzz(config, corpus=corpus, progress=progress)
        if args.report is not None:
            args.report.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
            print(f"report written to {args.report}")
        print(
            f"{report.num_cells} schedules fuzzed: {report.num_failing} failing "
            f"({len(report.failure_classes)} distinct failure classes)"
        )
        for failure in report.failures:
            print(f"\n{failure.describe()}", file=sys.stderr)
        shrunk = next((f for f in report.failures if f.shrink is not None), None)
        if shrunk is not None:
            print("\nminimized reproducer (scripted trace):", file=sys.stderr)
            print(json.dumps(shrunk.reproducer.to_dict(), indent=2), file=sys.stderr)
        return 0 if report.ok else 1
    finally:
        if telemetry_on:
            from .obs import TELEMETRY

            TELEMETRY.disable()
        if restore is not None:
            restore()


# --------------------------------------------------------------------- #
# telemetry subcommand
# --------------------------------------------------------------------- #
def build_telemetry_parser() -> argparse.ArgumentParser:
    """The ``telemetry`` subcommand parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dynamic-subgraphs telemetry",
        description="Inspect the telemetry a campaign collected. "
        "'report' merges every cell's final snapshot into one hotspot table: "
        "span cumulative times (sorted hottest first), histogram percentiles "
        "and counters, across the engine, oracle, monitor and fuzz driver. "
        "'trace' merges the per-cell trace-event JSONL files into one Chrome "
        "trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or "
        "chrome://tracing. "
        "'diff' compares two perf documents ('report --json' hotspot reports "
        "or result-store directories) under per-metric tolerance thresholds "
        "and exits 1 on regression.",
    )
    parser.add_argument(
        "command",
        choices=("report", "trace", "diff"),
        help="'report': merged hotspot report; 'trace': Chrome trace-event "
        "export; 'diff': perf-regression comparison",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="for 'diff': BASELINE and CANDIDATE perf documents (JSON files "
        "or result-store directories)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="campaign result-store directory (its telemetry/ subdirectory is "
        "read), or a directory of telemetry JSONL files directly "
        "(required for 'report' and 'trace')",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="number of hotspot rows to show ('report')"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        dest="json_out",
        help="additionally write the merged report as machine-readable JSON",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path for 'trace' (default: <store>/trace.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="global relative tolerance for 'diff' (default: %(default)s; "
        "e.g. 0.25 lets a timing grow 25%% before failing)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="NAME=THRESHOLD",
        help="per-metric tolerance override for 'diff' (repeatable)",
    )
    parser.add_argument(
        "--min-value",
        type=float,
        default=1e-6,
        metavar="FLOOR",
        help="skip metric pairs where both sides are below FLOOR "
        "(near-zero timings are pure jitter; default: %(default)s)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 anyway ('diff')",
    )
    _add_log_level(parser)
    return parser


def _telemetry_root(store: Optional[Path]) -> Path | int:
    """Resolve ``--store`` to the snapshot directory, or an exit code."""
    if store is None:
        print("error: --store is required for this command", file=sys.stderr)
        return 2
    root = store
    if (root / ResultStore.TELEMETRY_DIR).is_dir():
        root = root / ResultStore.TELEMETRY_DIR
    if not root.is_dir():
        print(f"error: no telemetry directory at {root}", file=sys.stderr)
        return 2
    return root


def _telemetry_report(args) -> int:
    from .obs import build_report, format_report

    root = _telemetry_root(args.store)
    if isinstance(root, int):
        return root
    report = build_report(root, top=args.top)
    if not report["cells"]:
        print(
            f"error: no telemetry snapshots under {root} "
            "(was the campaign run with --telemetry?)",
            file=sys.stderr,
        )
        return 2
    print(format_report(report))
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"json report written to {args.json_out}")
    return 0


def _telemetry_trace(args) -> int:
    from .obs import build_chrome_trace

    root = _telemetry_root(args.store)
    if isinstance(root, int):
        return root
    try:
        trace = build_chrome_trace(root)
    except (FileNotFoundError, ValueError) as exc:
        print(
            f"error: {exc} (was the campaign run with --trace-events?)",
            file=sys.stderr,
        )
        return 2
    out = args.out if args.out is not None else root / "trace.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace) + "\n")
    slices = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(
        f"chrome trace written to {out} ({slices} slices); "
        "load it at https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def _telemetry_diff(args) -> int:
    from .obs import diff_rows, extract_rows, format_diff, load_perf_document

    if len(args.paths) != 2:
        print(
            "error: 'telemetry diff' needs exactly two paths: BASELINE CANDIDATE",
            file=sys.stderr,
        )
        return 2
    per_metric = {}
    for override in args.metric:
        name, sep, value = override.partition("=")
        if not sep or not name:
            print(
                f"error: --metric expects NAME=THRESHOLD, got {override!r}",
                file=sys.stderr,
            )
            return 2
        try:
            per_metric[name] = float(value)
        except ValueError:
            print(
                f"error: --metric threshold must be a number, got {value!r}",
                file=sys.stderr,
            )
            return 2
    baseline_path, candidate_path = args.paths
    extracted = []
    for path in (baseline_path, candidate_path):
        try:
            rows = extract_rows(load_perf_document(path))
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not rows:
            print(f"error: no comparable perf rows in {path}", file=sys.stderr)
            return 2
        extracted.append(rows)
    baseline_rows, candidate_rows = extracted
    report = diff_rows(
        baseline_rows,
        candidate_rows,
        threshold=args.threshold,
        per_metric=per_metric,
        min_value=args.min_value,
        baseline_name=str(baseline_path),
        candidate_name=str(candidate_path),
    )
    if report.compared == 0:
        print(
            f"error: no overlapping perf rows between {baseline_path} and "
            f"{candidate_path} (nothing to compare)",
            file=sys.stderr,
        )
        return 2
    print(format_diff(report))
    if report.failed and not args.warn_only:
        return 1
    return 0


def telemetry_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``telemetry`` subcommand."""
    # intermixed: lets flags appear between/before the positional paths
    # ("telemetry diff --warn-only BASE CAND" and "... BASE CAND --warn-only"
    # both parse), which plain parse_args rejects for a nargs="*" positional.
    args = build_telemetry_parser().parse_intermixed_args(argv)
    configure_logging(args.log_level)
    if args.command == "report":
        return _telemetry_report(args)
    if args.command == "trace":
        return _telemetry_trace(args)
    return _telemetry_diff(args)


# --------------------------------------------------------------------- #
# serve subcommand
# --------------------------------------------------------------------- #
def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand parser (exposed for testing)."""
    from .serve import EVENT_SOURCES
    from .serve.core import STRUCTURES
    from .serve.subscriptions import DEFAULT_SETTLE_STREAK

    parser = argparse.ArgumentParser(
        prog="repro-dynamic-subgraphs serve",
        description="Run the serving stack over an event source: ingest one batch "
        "per round into a monitored graph, re-evaluate the standing subscriptions "
        "whose dirty region was touched, print every fired notification and the "
        "serving report (throughput, evaluations, state fingerprint).",
    )
    parser.add_argument(
        "--source",
        choices=EVENT_SOURCES,
        default="adversary",
        help="where batches come from: a registered adversary (--adversary), a "
        "recorded trace (--trace), or an external JSONL link-event log (--log)",
    )
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument(
        "--structure",
        choices=sorted(STRUCTURES),
        default="triangle",
        help="the data structure every node runs",
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINE_MODES),
        default="sparse",
        help="round scheduler: dense (reference) or sparse (activity-proportional)",
    )
    parser.add_argument(
        "--subscriptions",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON list of standing-query specs, each "
        '{"kind": "edge"|"triangle"|"clique"|"cycle", ...params, "id": optional}',
    )
    parser.add_argument(
        "--adversary",
        choices=sorted(ADVERSARIES),
        default="churn",
        help="schedule generator for --source adversary",
    )
    parser.add_argument("--rounds", type=int, default=200, help="batch cap for --source adversary")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", type=Path, default=None, help="trace JSON to replay (--source trace)"
    )
    parser.add_argument(
        "--log", type=Path, default=None, help="JSONL link-event log to ingest (--source log)"
    )
    parser.add_argument(
        "--round-duration",
        type=float,
        default=1.0,
        help="seconds of log time per served round (--source log)",
    )
    parser.add_argument(
        "--max-quiet-gap",
        type=int,
        default=None,
        help="clamp quiet-round gaps between log buckets (--source log)",
    )
    parser.add_argument(
        "--settle-rounds",
        type=int,
        default=10,
        help="quiet rounds served after the source drains, letting in-flight "
        "changes reach their subscriptions",
    )
    parser.add_argument(
        "--settle-streak",
        type=int,
        default=DEFAULT_SETTLE_STREAK,
        help="consecutive definite answers after which a touched subscription "
        "goes quiet",
    )
    parser.add_argument(
        "--bandwidth-factor", type=int, default=8, help="per-link budget = factor * ceil(log2 n) bits"
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the full serving report (including the firing log) as JSON",
    )
    parser.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="stream telemetry snapshots (ingest spans and counters, "
        "answer-latency percentiles, subscription counters) to this JSONL file",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="record trace events (ingest spans, per-evaluation answer "
        "latency) to FILE, one JSON event per line; name it *.trace.jsonl "
        "and point 'telemetry trace --store' at its directory to export a "
        "Chrome/Perfetto timeline",
    )
    _add_log_level(parser)
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``serve`` subcommand."""
    from .serve import (
        AdversaryEventSource,
        LogConversionError,
        LogEventSource,
        MonitorService,
        TraceEventSource,
    )

    args = build_serve_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        for flag, value in (("--rounds", args.rounds), ("--settle-rounds", args.settle_rounds)):
            if value < 0:
                raise ValueError(f"{flag} must be non-negative, got {value}")
        service = MonitorService(
            args.nodes,
            args.structure,
            engine_mode=args.engine,
            settle_streak=args.settle_streak,
            bandwidth_factor=args.bandwidth_factor,
        )
        if args.subscriptions is not None:
            specs = json.loads(args.subscriptions.read_text())
            if not isinstance(specs, list):
                raise ValueError(
                    f"{args.subscriptions} must hold a JSON list of subscription specs"
                )
            service.registry.register_all(specs)
        if args.source == "adversary":
            adversary = build_adversary(
                args.adversary, n=args.nodes, rounds=args.rounds, seed=args.seed
            )
            source = AdversaryEventSource(adversary, rounds=args.rounds)
        elif args.source == "trace":
            if args.trace is None:
                raise ValueError("--source trace requires --trace FILE")
            source = TraceEventSource.load(args.trace)
            source.trace.check_fits(args.nodes)
        else:
            if args.log is None:
                raise ValueError("--source log requires --log FILE")
            source = LogEventSource(
                args.log,
                n=args.nodes,
                round_duration=args.round_duration,
                max_quiet_gap=args.max_quiet_gap,
            )
            print(
                "log normalized: "
                + ", ".join(f"{k}={v}" for k, v in sorted(source.stats.items()))
            )
    except (OSError, ValueError, KeyError, TypeError, LogConversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    telemetry_on = args.telemetry_out is not None or args.trace_out is not None
    tracer = None
    if telemetry_on:
        from .obs import TELEMETRY, TelemetrySink, TraceBuffer

        sink = (
            TelemetrySink(args.telemetry_out)
            if args.telemetry_out is not None
            else None
        )
        if args.trace_out is not None:
            tracer = TraceBuffer(cell_id="serve", engine_mode=args.engine)
        TELEMETRY.enable(sink=sink, label="serve", tracer=tracer)
    try:
        report = service.run(
            source,
            settle_rounds=args.settle_rounds,
            on_notification=lambda note: print(
                f"round {note.round_index:>5}  {note.subscription_id} ({note.kind}): "
                f"{note.old} -> {note.new}"
            ),
        )
    finally:
        if telemetry_on:
            from .obs import TELEMETRY

            TELEMETRY.disable()
            if args.telemetry_out is not None:
                print(f"telemetry written to {args.telemetry_out}")
            if tracer is not None:
                from .obs import write_trace_jsonl

                written = write_trace_jsonl(args.trace_out, tracer)
                print(f"trace events written to {args.trace_out} ({written} events)")
    print(format_table(["metric", "value"], sorted(report.summary().items())))
    if args.report is not None:
        # json.dump writes chunk by chunk; json.dumps would first hold every
        # chunk of the firing log's text at once.
        with args.report.open("w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.report}")
    return 0


#: The subcommands by name; any other first argument is a single run's flag.
SUBCOMMANDS = {
    "campaign": campaign_main,
    "verify": verify_main,
    "fuzz": fuzz_main,
    "telemetry": telemetry_main,
    "serve": serve_main,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    return _run_single(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
