"""Parallel execution of an expanded experiment campaign.

:func:`run_cell` executes one :class:`~repro.experiments.spec.ExperimentSpec`
and returns its metrics plus the realized
:class:`~repro.simulator.trace.TopologyTrace`.  :class:`CampaignRunner`
expands a :class:`~repro.experiments.spec.CampaignSpec`, dispatches the
pending cells one at a time to persistent worker processes over pipes, and
streams every finished cell straight into a
:class:`~repro.experiments.store.ResultStore`.  Cells are the unit of
parallelism: each one runs the serial round loop in its worker.

The dispatch pool is *supervised*: a worker that dies mid-cell (OOM kill,
segfault, ``kill -9``) is detected the moment its pipe closes, the cell is
retried with exponential backoff (when retries are configured) and the
worker is respawned; a cell that exceeds its wall-clock timeout has its
worker killed and is treated the same way.  A cell that keeps failing is
*quarantined* -- recorded with ``status == "quarantined"`` -- so a campaign
always completes and reports every cell instead of hanging or dying with
the worker.

Because records are persisted as they land, a campaign can be interrupted at
any point and re-run: cells whose id already has an ``ok`` record are skipped
(resume), while failed and quarantined cells are retried.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import logging
import multiprocessing as mp
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..obs.sink import TelemetrySink, write_supervision_snapshot
from ..obs.report import load_final_snapshot, merge_snapshots
from ..obs.telemetry import TELEMETRY
from ..obs.tracing import DEFAULT_TRACE_CAPACITY, TraceBuffer, write_trace_jsonl
from ..simulator.trace import TopologyTrace
from .registry import build_adversary
from .spec import CampaignSpec, ExperimentSpec
from .store import ResultStore

__all__ = ["run_cell", "execute_cell", "CampaignReport", "CampaignRunner", "PROFILERS"]

logger = logging.getLogger(__name__)

#: Progress callback: ``progress(record, finished_count, total_count)``.
ProgressCallback = Callable[[Dict[str, Any], int, int], None]

#: Per-cell start callback: ``on_start(cell_id)``.
StartCallback = Callable[[str], None]

#: Supported per-cell profiler backends.
PROFILERS = ("cprofile",)


def _combined_fingerprint(fingerprints: Dict[int, str]) -> str:
    """One digest over every node's final state fingerprint."""
    payload = json.dumps(sorted((int(v), fp) for v, fp in fingerprints.items()))
    return hashlib.sha1(payload.encode()).hexdigest()


def run_cell(spec: ExperimentSpec) -> Tuple[Dict[str, float], Optional[TopologyTrace]]:
    """Execute one cell and return ``(metrics, trace)``.

    The metrics dict merges the simulator's summary (amortized complexity,
    bandwidth accounting), the final edge count, and the outputs of the
    spec's end-of-run checks.  Checks are the first-class objects of
    :mod:`repro.verification.checks`: any check with a per-round hook is
    installed as a round validator, and every check is evaluated with the
    spec in hand (so e.g. relocated flicker gadgets or parameterised clique
    sizes are graded correctly).  ``trace`` is the realized schedule when
    ``spec.record_trace`` is set (always recorded, even for randomised
    adversaries, so any cell can be replayed bit-for-bit later).
    """
    metrics, trace, _ = _run_cell_full(spec)
    return metrics, trace


def _run_cell_full(
    spec: ExperimentSpec,
) -> Tuple[Dict[str, float], Optional[TopologyTrace], str]:
    """:func:`run_cell` plus the combined final state fingerprint.

    The fingerprint digests every node's
    :meth:`~repro.simulator.node.NodeAlgorithm.state_fingerprint`; campaign
    records persist it so later differential tooling (and the resume
    validator) can compare stored runs without re-running them.
    """
    adversary = build_adversary(
        spec.adversary,
        n=spec.n,
        rounds=spec.rounds,
        seed=spec.seed,
        params=spec.adversary_params,
    )
    # Deferred import: repro.verification.differential itself imports this
    # package, so binding it at call time keeps initialization acyclic.
    from ..verification.differential import cell_summary, run_reference

    result, outcomes = run_reference(
        spec,
        engine_mode=spec.engine_mode,
        checks=spec.checks,
        record_trace=spec.record_trace,
        adversary=adversary,
    )
    metrics = cell_summary(result.metrics, result.bandwidth, result.network, result.faults)
    for outcome in outcomes.values():
        metrics.update(outcome.metrics)
    if spec.checks:
        # Campaign records are float-only; the structured failures themselves
        # are the verify subcommand's domain, but their count rides along so
        # the campaign CLI can gate on it.
        metrics["check_failures"] = float(
            sum(len(outcome.failures) for outcome in outcomes.values())
        )
    fingerprint = _combined_fingerprint(
        {v: algo.state_fingerprint() for v, algo in result.nodes.items()}
    )
    return metrics, result.trace, fingerprint


def execute_cell(
    spec: ExperimentSpec,
    *,
    telemetry_dir: Optional[str | Path] = None,
    telemetry_interval_s: float = 1.0,
    trace_events: bool = False,
    trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    profile: Optional[str] = None,
    profile_dir: Optional[str | Path] = None,
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Run one cell defensively, returning ``(record, trace_dict)``.

    Never raises: failures become ``status == "error"`` records carrying the
    traceback, so one bad cell cannot take down a whole campaign (the resume
    pass will retry it).

    With ``telemetry_dir``, the process-wide :data:`~repro.obs.telemetry.TELEMETRY`
    singleton is enabled for the duration of the cell and streams periodic
    snapshots to ``<telemetry_dir>/<cell_id>.jsonl``; the final snapshot also
    rides back on the record (``record["telemetry"]``) so campaign workers
    ship their telemetry to the coordinator over the existing result pipe.
    With ``trace_events`` additionally set, stage-level trace events are
    collected into a bounded ring and written to
    ``<telemetry_dir>/<cell_id>.trace.jsonl`` for ``telemetry trace`` export.
    Telemetry and tracing are read-only bookkeeping: the produced record,
    trace and state fingerprint are bit-identical with and without them
    (pinned by the test-suite).  With ``profile="cprofile"``, the cell
    additionally runs under :mod:`cProfile` and the pstats dump lands in
    ``<profile_dir>/<cell_id>.pstats``.
    """
    if profile is not None and profile not in PROFILERS:
        raise ValueError(f"unknown profiler {profile!r}; choose from {PROFILERS}")
    start = time.perf_counter()
    telemetry_path: Optional[Path] = None
    tracer: Optional[TraceBuffer] = None
    if telemetry_dir is not None:
        telemetry_path = Path(telemetry_dir) / f"{spec.cell_id}.jsonl"
        if trace_events:
            tracer = TraceBuffer(
                trace_capacity, cell_id=spec.cell_id, engine_mode=spec.engine_mode
            )
        TELEMETRY.enable(
            sink=TelemetrySink(telemetry_path, interval_s=telemetry_interval_s),
            label=spec.cell_id,
            tracer=tracer,
        )
    profiler = cProfile.Profile() if profile == "cprofile" else None
    if profiler is not None:
        profiler.enable()
    try:
        metrics, trace, fingerprint = _run_cell_full(spec)
        status, error = "ok", None
    except Exception:  # noqa: BLE001 - the traceback is the payload
        metrics, trace, fingerprint = {}, None, None
        status, error = "error", traceback.format_exc()
    finally:
        if profiler is not None:
            profiler.disable()
        if telemetry_path is not None:
            TELEMETRY.disable()
    record: Dict[str, Any] = {
        "cell_id": spec.cell_id,
        "spec": spec.to_dict(),
        "spec_hash": spec.spec_hash,
        "status": status,
        "metrics": metrics,
        "state_fingerprint": fingerprint,
        "error": error,
        "duration_s": round(time.perf_counter() - start, 6),
        "finished_at": time.time(),
    }
    if telemetry_path is not None:
        record["telemetry_path"] = str(telemetry_path)
        # Ship the final snapshot on the record itself: campaign workers send
        # records over the result pipe, so the coordinator gets every cell's
        # telemetry without re-reading worker-written files.  (disable()
        # already flushed the identical final line through the sink.)
        record["telemetry"] = load_final_snapshot(telemetry_path)
    if tracer is not None:
        trace_path = Path(telemetry_dir) / f"{spec.cell_id}.trace.jsonl"
        record["trace_events"] = write_trace_jsonl(trace_path, tracer)
        record["trace_events_dropped"] = tracer.dropped
        record["trace_events_path"] = str(trace_path)
    if profiler is not None:
        dest = Path(profile_dir if profile_dir is not None else ".") / f"{spec.cell_id}.pstats"
        dest.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(dest))
        record["profile_path"] = str(dest)
    return record, (trace.to_dict() if trace is not None else None)


def _heartbeat_loop(conn, lock, cell_id: str, interval_s: float, stop) -> None:
    """Worker-side liveness beacon: ``("hb", cell_id, ts)`` while a cell runs.

    Runs on a daemon thread so a cell stalled in pure-Python code still
    beats; a coordinator watching the pipe can therefore tell a *slow* cell
    (beating, let the timeout decide) from a *dead* worker (pipe closed).
    """
    while not stop.wait(interval_s):
        try:
            with lock:
                conn.send(("hb", cell_id, time.time()))
        except OSError:  # coordinator went away; the worker is about to exit
            return


def _campaign_worker(
    conn,
    obs: Optional[Mapping[str, Any]] = None,
    heartbeat_interval_s: Optional[float] = None,
) -> None:
    """Worker process: run cells streamed over the pipe, one at a time.

    The coordinator sends ``("run", spec_dict)`` messages and finally
    ``("stop",)``; the worker answers each cell with ``("start", cell_id,
    None)`` (so live progress can show what is running), optional ``("hb",
    cell_id, ts)`` heartbeats, and ``("cell", record, trace_dict)``.  ``obs``
    carries the runner's observability settings (telemetry/profiler
    directories and cadence) as a plain picklable dict.  Dispatching one
    cell per message -- instead of pre-splitting the grid into static
    slices -- is what makes supervision possible: a dead or killed worker
    takes down exactly the cell it was running, and the rest of the grid
    reflows onto the surviving (or respawned) workers.
    """
    obs = dict(obs or {})
    lock = threading.Lock()  # heartbeats and results share one pipe
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] == "stop":
                try:
                    conn.send(("done", None, None))
                except OSError:  # coordinator already hung up; that's fine
                    pass
                break
            spec = ExperimentSpec.from_dict(message[1])
            with lock:
                conn.send(("start", spec.cell_id, None))
            stop_beat = heartbeat = None
            if heartbeat_interval_s:
                stop_beat = threading.Event()
                heartbeat = threading.Thread(
                    target=_heartbeat_loop,
                    args=(conn, lock, spec.cell_id, heartbeat_interval_s, stop_beat),
                    daemon=True,
                )
                heartbeat.start()
            try:
                record, trace_dict = execute_cell(spec, **obs)
            finally:
                if stop_beat is not None:
                    stop_beat.set()
                    heartbeat.join()
            with lock:
                conn.send(("cell", record, trace_dict))
    finally:
        conn.close()


def _retry_jitter(cell_id: str, attempt: int) -> float:
    """Deterministic backoff jitter factor in ``[1.0, 2.0)``.

    Seeded from (cell id, attempt) via blake2b -- never ``random`` -- so a
    re-run of the same failing campaign reproduces the same retry timeline.
    """
    digest = hashlib.blake2b(
        f"{cell_id}\x1f{attempt}".encode(), digest_size=8
    ).digest()
    return 1.0 + int.from_bytes(digest, "big") / 2**64


@dataclass
class _Worker:
    """Coordinator-side handle for one pool process."""

    proc: Any
    conn: Any
    spec: Optional[ExperimentSpec] = None  # cell in flight, if any
    attempt: int = 0  # prior failures of that cell
    deadline: Optional[float] = None  # monotonic wall-clock cutoff
    last_heartbeat: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.spec is not None


@dataclass
class CampaignReport:
    """What a campaign run did: new records, skipped cells, failures.

    ``counters`` carries the supervision tallies of the run (retries,
    timeouts, worker deaths, quarantined cells, heartbeats observed); all
    zero for an undisturbed campaign.
    """

    campaign: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    skipped_ids: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Merged final telemetry of every cell that ran with collection on
    #: (worker-shipped snapshots folded coordinator-side); None otherwise.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def num_run(self) -> int:
        return len(self.records)

    @property
    def num_skipped(self) -> int:
        return len(self.skipped_ids)

    @property
    def failed(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("status") != "ok"]

    @property
    def quarantined(self) -> List[Dict[str, Any]]:
        """Cells that exhausted their retry budget (a subset of ``failed``)."""
        return [r for r in self.records if r.get("status") == "quarantined"]


class CampaignRunner:
    """Expands a campaign and drives its cells through a worker pool.

    Args:
        campaign: the declarative sweep description.
        store: result store (or a directory path to create one in).
        jobs: number of worker processes; ``1`` runs cells inline.
        start_method: multiprocessing start method for the workers.  When the
            requested method is unavailable on this platform the runner falls
            back to ``spawn`` (the worker target and its arguments are
            spawn-safe: a module-level function fed plain spec dicts), and
            only runs inline when no start method is available at all.
        telemetry: collect per-cell telemetry snapshots into the store's
            ``telemetry/`` directory.  ``None`` (the default) defers to the
            campaign spec's ``telemetry`` settings; ``True``/``False`` force
            it on or off for this run.
        telemetry_interval_s: snapshot cadence in seconds; ``None`` defers to
            the campaign spec (which itself defaults to 1 second).
        trace_events: additionally collect stage-level trace events per cell
            (a bounded ring written to ``<cell_id>.trace.jsonl`` next to the
            snapshots, exportable with ``telemetry trace``).  Implies
            telemetry; ``None`` defers to the spec's ``telemetry["trace"]``.
        profile: per-cell profiler backend (one of :data:`PROFILERS`); pstats
            dumps land in the store's ``profiles/`` directory.
        max_retries: how many times an *infrastructure* failure (worker
            death, per-cell timeout) is retried before the cell is recorded
            as ``quarantined``.  Deterministic in-cell exceptions are never
            retried within a run -- re-running the same spec would raise the
            same error -- but remain retryable across runs via resume.  The
            default ``0`` preserves the historical behaviour: a dead
            worker's cell is recorded as an ``error`` immediately.
        cell_timeout_s: wall-clock budget per cell attempt; a worker past
            its deadline is killed and the cell handled like a worker death.
            ``None`` (default) disables timeouts.
        retry_backoff_s: base delay before re-dispatching a failed cell;
            attempt ``k`` waits ``retry_backoff_s * 2**k`` scaled by a
            deterministic per-(cell, attempt) jitter in ``[1, 2)``.
        heartbeat_interval_s: cadence of worker liveness beacons.  ``None``
            enables 1-second heartbeats whenever supervision is active
            (retries or timeouts configured) and disables them otherwise;
            pass an explicit value to force either way.
    """

    def __init__(
        self,
        campaign: CampaignSpec,
        store: ResultStore | str | Path,
        *,
        jobs: int = 1,
        start_method: str = "fork",
        telemetry: Optional[bool] = None,
        telemetry_interval_s: Optional[float] = None,
        trace_events: Optional[bool] = None,
        profile: Optional[str] = None,
        max_retries: int = 0,
        cell_timeout_s: Optional[float] = None,
        retry_backoff_s: float = 0.0,
        heartbeat_interval_s: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if profile is not None and profile not in PROFILERS:
            raise ValueError(f"unknown profiler {profile!r}; choose from {PROFILERS}")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        self.campaign = campaign
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.jobs = jobs
        self.start_method = start_method
        self.telemetry = telemetry
        self.telemetry_interval_s = telemetry_interval_s
        self.trace_events = trace_events
        self.profile = profile
        self.max_retries = max_retries
        self.cell_timeout_s = cell_timeout_s
        self.retry_backoff_s = retry_backoff_s
        self.heartbeat_interval_s = heartbeat_interval_s

    @property
    def supervised(self) -> bool:
        """Whether this run needs the supervising pool even for one job."""
        return self.cell_timeout_s is not None or self.max_retries > 0

    def _obs_settings(self) -> Dict[str, Any]:
        """The ``execute_cell`` observability kwargs for this run.

        Runner arguments win; the campaign spec's ``telemetry`` mapping is the
        fallback, so a spec file can turn collection on for every run of the
        campaign without CLI flags.
        """
        spec_cfg = self.campaign.telemetry or {}
        enabled = self.telemetry
        if enabled is None:
            enabled = bool(spec_cfg.get("enabled", False))
        interval = self.telemetry_interval_s
        if interval is None:
            interval = float(spec_cfg.get("interval_s", 1.0))
        trace = self.trace_events
        if trace is None:
            trace = bool(spec_cfg.get("trace", False))
        # Trace events ride the telemetry registry, so asking for them
        # implies collection even when the spec left telemetry off.
        if trace:
            enabled = True
        obs: Dict[str, Any] = {}
        if enabled:
            obs["telemetry_dir"] = str(self.store.telemetry_root)
            obs["telemetry_interval_s"] = interval
            if trace:
                obs["trace_events"] = True
                obs["trace_capacity"] = int(
                    spec_cfg.get("trace_capacity", DEFAULT_TRACE_CAPACITY)
                )
        if self.profile is not None:
            obs["profile"] = self.profile
            obs["profile_dir"] = str(self.store.profiles_root)
        return obs

    def resolved_start_method(self) -> Optional[str]:
        """The start method the worker pool will actually use.

        The requested method when the platform supports it, else ``spawn``
        (available everywhere Python ships multiprocessing workers), else
        ``None`` -- the signal to run cells inline.
        """
        available = mp.get_all_start_methods()
        if self.start_method in available:
            return self.start_method
        if "spawn" in available:
            return "spawn"
        return None

    def run(
        self,
        *,
        resume: bool = True,
        progress: Optional[ProgressCallback] = None,
        on_start: Optional[StartCallback] = None,
    ) -> CampaignReport:
        """Run every pending cell; returns the :class:`CampaignReport`.

        With ``resume`` (the default), cells whose id already has an ``ok``
        record in the store are skipped -- but only after the stored record's
        full ``spec_hash`` is validated against the cell about to be skipped.
        A truncated-id collision, a tampered store, or a record predating
        spec-hash stamping fails that validation; such cells warn loudly and
        re-run instead of being silently trusted.  Pass ``resume=False`` to
        re-run the full grid regardless of stored results.

        ``on_start(cell_id)`` fires when a cell begins executing (in the
        worker-pool path, when its start event arrives) and ``progress``
        when it finishes -- together they drive live progress displays.
        """
        cells = self.campaign.expand()
        latest = self.store.latest() if resume else {}
        completed = set()
        for cell in cells:
            record = latest.get(cell.cell_id)
            if record is None or record.get("status") != "ok":
                continue
            stored_hash = record.get("spec_hash")
            if stored_hash == cell.spec_hash:
                completed.add(cell.cell_id)
            else:
                message = (
                    f"stored result for cell {cell.cell_id} has spec hash "
                    f"{stored_hash!r} but the campaign's cell hashes to "
                    f"{cell.spec_hash!r}; NOT resuming from it -- the cell "
                    "will re-run"
                )
                warnings.warn(message, RuntimeWarning, stacklevel=2)
                logger.warning(message)
        pending = [cell for cell in cells if cell.cell_id not in completed]
        report = CampaignReport(
            campaign=self.campaign.name,
            skipped_ids=[c.cell_id for c in cells if c.cell_id in completed],
        )
        if not pending:
            return report

        obs = self._obs_settings()
        start_method = self.resolved_start_method()
        # Supervision (timeouts, retry-on-death) needs the cell in a separate
        # process, so it forces the pool even for one job / one cell; without
        # it those cases run inline as before.  No start method at all always
        # degrades to inline -- an unsupervised campaign beats no campaign.
        inline = start_method is None or (
            (self.jobs == 1 or len(pending) == 1) and not self.supervised
        )
        if inline:
            for spec in pending:
                if on_start is not None:
                    on_start(spec.cell_id)
                record, trace_dict = execute_cell(spec, **obs)
                self._persist(record, trace_dict)
                report.records.append(record)
                if progress is not None:
                    progress(record, len(report.records), len(pending))
            self._attach_telemetry(report)
            return report

        self._run_pool(
            pending,
            report,
            obs=obs,
            start_method=start_method,
            progress=progress,
            on_start=on_start,
        )
        self._attach_telemetry(report)
        return report

    # ------------------------------------------------------------------ #
    # Supervised worker pool
    # ------------------------------------------------------------------ #
    def _run_pool(
        self,
        pending: List[ExperimentSpec],
        report: CampaignReport,
        *,
        obs: Dict[str, Any],
        start_method: str,
        progress: Optional[ProgressCallback],
        on_start: Optional[StartCallback],
    ) -> None:
        """Drive ``pending`` through a supervised dynamic-dispatch pool.

        Cells are handed to workers one at a time; the coordinator watches
        the pipes (a closed pipe *is* the death certificate -- no polling
        delay for ``kill -9``), enforces per-cell deadlines, re-queues
        retryable failures with backoff, respawns dead workers while work
        remains, and falls back to running leftovers inline if the pool
        collapses entirely.  Every cell therefore ends in exactly one final
        record: ``ok``, ``error`` or ``quarantined``.
        """
        started = time.monotonic()
        heartbeat = self.heartbeat_interval_s
        if heartbeat is None and self.supervised:
            heartbeat = 1.0
        counters = {
            "campaign.retries": 0,
            "campaign.timeouts": 0,
            "campaign.worker_deaths": 0,
            "campaign.quarantined": 0,
            "campaign.heartbeats": 0,
        }
        queue: deque = deque((spec, 0) for spec in pending)  # (spec, failures)
        retries: List[Tuple[float, int, ExperimentSpec]] = []  # (ready_at, failures, spec)
        outstanding = len(pending)
        total = len(pending)
        ctx = mp.get_context(start_method)
        workers: List[_Worker] = []

        def finalize(record: Dict[str, Any], trace_dict: Optional[Dict[str, Any]]) -> None:
            nonlocal outstanding
            self._persist(record, trace_dict)
            report.records.append(record)
            outstanding -= 1
            if progress is not None:
                progress(record, len(report.records), total)

        def fail_attempt(spec: ExperimentSpec, failures: int, error: str) -> None:
            """One infrastructure failure: schedule a retry or finalize."""
            failures += 1
            now = time.monotonic()
            if failures <= self.max_retries:
                counters["campaign.retries"] += 1
                delay = (
                    self.retry_backoff_s
                    * (2 ** (failures - 1))
                    * _retry_jitter(spec.cell_id, failures)
                )
                logger.warning(
                    "cell %s attempt %d failed (%s); retrying in %.2fs",
                    spec.cell_id, failures, error, delay,
                )
                # Persist the failed attempt so the store holds the full
                # history; only the final outcome lands in report.records.
                self._persist(
                    {
                        "cell_id": spec.cell_id,
                        "spec": spec.to_dict(),
                        "spec_hash": spec.spec_hash,
                        "status": "error",
                        "attempt": failures,
                        "metrics": {},
                        "state_fingerprint": None,
                        "error": error,
                        "duration_s": 0.0,
                        "finished_at": time.time(),
                    },
                    None,
                )
                retries.append((now + delay, failures, spec))
                return
            if self.max_retries > 0:
                counters["campaign.quarantined"] += 1
                status = "quarantined"
                error = (
                    f"quarantined after {failures} failed attempt(s); "
                    f"last error: {error}"
                )
            else:
                status = "error"
            finalize(
                {
                    "cell_id": spec.cell_id,
                    "spec": spec.to_dict(),
                    "spec_hash": spec.spec_hash,
                    "status": status,
                    "attempt": failures,
                    "metrics": {},
                    "state_fingerprint": None,
                    "error": error,
                    "duration_s": 0.0,
                    "finished_at": time.time(),
                },
                None,
            )

        def spawn_worker() -> Optional[_Worker]:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_campaign_worker, args=(child_conn, obs, heartbeat)
            )
            try:
                proc.start()
            except OSError as exc:  # pragma: no cover - resource exhaustion
                logger.warning("could not spawn campaign worker: %s", exc)
                parent_conn.close()
                child_conn.close()
                return None
            child_conn.close()
            return _Worker(proc=proc, conn=parent_conn)

        def retire(worker: _Worker) -> None:
            workers.remove(worker)
            worker.conn.close()
            worker.proc.join(timeout=5)
            if worker.proc.is_alive():  # pragma: no cover - defensive
                worker.proc.kill()
                worker.proc.join(timeout=5)

        def worker_died(worker: _Worker) -> None:
            counters["campaign.worker_deaths"] += 1
            spec, failures = worker.spec, worker.attempt
            worker.proc.join(timeout=5)
            exitcode = worker.proc.exitcode
            retire(worker)
            if spec is not None:
                fail_attempt(
                    spec,
                    failures,
                    "worker process died while running this cell "
                    f"(exit code {exitcode})",
                )

        try:
            while outstanding > 0:
                now = time.monotonic()
                for entry in [e for e in retries if e[0] <= now]:
                    retries.remove(entry)
                    queue.append((entry[2], entry[1]))
                # Keep the pool sized to the remaining work -- including
                # cells waiting out their retry backoff, which still need a
                # worker soon -- replacing dead workers; a failed spawn with
                # no survivors collapses to inline execution below.
                busy = sum(1 for w in workers if w.busy)
                while len(workers) < min(self.jobs, busy + len(queue) + len(retries)):
                    worker = spawn_worker()
                    if worker is None:
                        break
                    workers.append(worker)
                if not workers:
                    break  # pool collapsed; leftovers run inline below
                for worker in workers:
                    if worker.busy or not queue:
                        continue
                    spec, failures = queue.popleft()
                    try:
                        worker.conn.send(("run", spec.to_dict()))
                    except OSError:
                        queue.appendleft((spec, failures))
                        worker_died(worker)
                        break
                    worker.spec, worker.attempt = spec, failures
                    worker.deadline = (
                        now + self.cell_timeout_s
                        if self.cell_timeout_s is not None
                        else None
                    )
                    worker.last_heartbeat = now

                deadlines = [w.deadline for w in workers if w.busy and w.deadline]
                wakeups = deadlines + [ready_at for ready_at, _, _ in retries]
                timeout = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
                if not any(w.busy for w in workers) and queue:
                    continue  # dispatch the freshly queued retries first
                for conn in connection_wait([w.conn for w in workers], timeout):
                    worker = next(w for w in workers if w.conn is conn)
                    try:
                        kind, payload, extra = conn.recv()
                    except EOFError:
                        worker_died(worker)
                        continue
                    if kind == "start":
                        if on_start is not None:
                            on_start(payload)  # payload is the cell id
                    elif kind == "hb":
                        counters["campaign.heartbeats"] += 1
                        worker.last_heartbeat = time.monotonic()
                    elif kind == "cell":
                        worker.spec = None
                        worker.deadline = None
                        # In-cell exceptions are deterministic -- retrying
                        # the same spec raises the same error -- so only
                        # infrastructure failures consume the retry budget.
                        finalize(payload, extra)
                now = time.monotonic()
                for worker in [w for w in workers if w.busy and w.deadline]:
                    if now < worker.deadline:
                        continue
                    counters["campaign.timeouts"] += 1
                    spec, failures = worker.spec, worker.attempt
                    worker.spec = None  # the kill below must not double-count
                    worker.proc.kill()
                    retire(worker)
                    fail_attempt(
                        spec,
                        failures,
                        f"cell exceeded its {self.cell_timeout_s}s wall-clock "
                        "timeout; worker killed",
                    )
        finally:
            for worker in list(workers):
                try:
                    worker.conn.send(("stop",))
                except OSError:
                    pass
                retire(worker)

        if outstanding > 0:
            # Pool collapse (could not spawn a single worker): degrade to
            # inline execution so the campaign still completes and reports.
            logger.warning(
                "worker pool collapsed; running %d remaining cell(s) inline",
                outstanding,
            )
            leftovers = [spec for spec, _ in queue]
            leftovers += [spec for _, _, spec in sorted(retries, key=lambda e: e[0])]
            for spec in leftovers:
                if on_start is not None:
                    on_start(spec.cell_id)
                record, trace_dict = execute_cell(spec, **obs)
                finalize(record, trace_dict)

        report.counters = counters
        if any(counters.values()):
            # Snapshot-format supervision counters land next to the per-cell
            # telemetry files, so `telemetry report` folds them in.  Written
            # only when something happened: an undisturbed campaign leaves
            # the telemetry directory exactly as before.
            write_supervision_snapshot(
                self.store.telemetry_root / "_campaign.jsonl",
                label="_campaign",
                counters=counters,
                elapsed_s=time.monotonic() - started,
            )

    @staticmethod
    def _attach_telemetry(report: CampaignReport) -> None:
        """Fold the worker-shipped per-cell snapshots into one report-level
        telemetry dict (counters/spans sum, histograms merge, gauges
        last-wins) -- the campaign-pool half of cross-process collection."""
        snapshots = [
            r["telemetry"] for r in report.records if isinstance(r.get("telemetry"), dict)
        ]
        if snapshots:
            report.telemetry = merge_snapshots(snapshots)

    def _persist(self, record: Dict[str, Any], trace_dict: Optional[Dict[str, Any]]) -> None:
        if trace_dict is not None:
            path = self.store.save_trace(record["cell_id"], trace_dict)
            record["trace_path"] = str(path.relative_to(self.store.root))
        else:
            record["trace_path"] = None
        # The shipped telemetry snapshot stays in-memory only (merged into
        # the report): the store already holds the identical final line as
        # telemetry/<cell_id>.jsonl, so keep results.jsonl lean.
        snapshot = record.pop("telemetry", None)
        self.store.append(record)
        if snapshot is not None:
            record["telemetry"] = snapshot
