"""The round engine with its node hooks in shard worker processes.

The per-node halves of a round (react & compose, deliver & report) are
embarrassingly parallel: every node only touches its own local state and the
messages addressed to it.  :class:`ShardedRoundEngine` partitions the nodes
into contiguous shards, each owned by a persistent worker process, and runs
those hooks there -- the communicate-by-message idiom of MPI-style programs
(each worker behaves like a rank that scatters/gathers one batch per
superstep).

Everything else is the serial round.  The sharded engine is a
:class:`~repro.simulator.rounds.RoundEngine` whose two node-hook calls go
over the pipes, so the schedule (dense, or sparse with its active and
touched sets), validation, bandwidth charging, fault drops, verdicts, spans,
counters and trace slices are the serial engine's own code, and the metrics
and final state are those of the serial engine of the same mode.  A worker
runs the hooks of exactly the nodes the coordinator sends it; a shard with
no scheduled node gets no message that round.  Messages travel on the
per-envelope transport.

Whether this beats the serial engine depends on the per-node compute
against the cost of pickling each round's traffic through the coordinator;
on two cores it does not (ROADMAP, "One round pipeline").
"""

from __future__ import annotations

import multiprocessing as mp
import os
from bisect import bisect_left
from time import perf_counter
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.collect import merge_snapshot_into, record_shard_skew
from ..obs.telemetry import SIZE_BUCKETS, TELEMETRY, Telemetry
from ..obs.tracing import TraceBuffer
from .bandwidth import BandwidthPolicy
from .messages import Envelope
from .metrics import MetricsCollector
from .network import DynamicNetwork, NodeIndication
from .node import AlgorithmFactory
from .rounds import ENGINE_MODES, RoundEngine, Verdicts, report_verdicts

__all__ = ["ShardedRoundEngine", "shard_nodes"]


def shard_nodes(n: int, num_shards: int) -> List[List[int]]:
    """Partition node ids ``0..n-1`` into ``num_shards`` balanced contiguous shards."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    num_shards = min(num_shards, n)
    shards: List[List[int]] = []
    base = n // num_shards
    extra = n % num_shards
    start = 0
    for s in range(num_shards):
        size = base + (1 if s < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def _worker_loop(
    conn: Any,
    shard: Sequence[int],
    n: int,
    factory: AlgorithmFactory,
    mode: str = "dense",
    worker_index: int = 0,
    instrument: bool = False,
    trace_capacity: int = 0,
) -> None:
    """Entry point of a shard worker process: a node-hook executor.

    The worker owns the node-algorithm instances of its shard and keeps no
    schedule of its own.  It first sends the ids of its nodes that are not
    quiescent (the coordinator's sparse schedule starts from them), then
    answers ``(op, payload)`` commands on the pipe:

    * ``react`` ``(round, active, indications, resets)``: rebuild the
      amnesiac nodes in ``resets``, run ``on_topology_change`` and then
      ``compose_messages`` over exactly ``active``, and reply with the
      ``(sender, outgoing)`` pairs of the nodes that composed something;
    * ``deliver`` ``(round, touched, inboxes)``: run ``on_messages`` over
      exactly ``touched`` and reply with their
      :func:`~repro.simulator.rounds.report_verdicts`;
    * ``query``, ``fingerprint``, ``telemetry`` and ``stop``.

    When ``instrument`` is set the worker runs its own *local*
    :class:`~repro.obs.telemetry.Telemetry` registry (``engine.worker.*``
    spans/counters) and, with ``trace_capacity > 0``, its own
    :class:`~repro.obs.tracing.TraceBuffer`; the coordinator pulls both back
    over this pipe with the ``telemetry`` op at shutdown.  The module
    singleton must not be used here: under ``fork`` the child inherits the
    parent's enabled registry *and its open sink file handle*, so writing
    through it would corrupt the parent's JSONL stream.
    """
    TELEMETRY.enabled = False  # neutralize the fork-inherited singleton
    TELEMETRY.sink = None
    TELEMETRY.tracer = None
    tel = Telemetry(enabled=instrument)
    tracer: Optional[TraceBuffer] = None
    if instrument and trace_capacity > 0:
        tracer = TraceBuffer(trace_capacity, worker=worker_index)

    def stage(name: str, start: float, end: float, round_index: int) -> None:
        tel.record_span(name, end - start)
        if tracer is not None:
            tracer.add(name, start, end, round_index=round_index, mode=mode)

    sparse = mode == "sparse"
    no_change: Tuple[tuple, tuple] = ((), ())
    empty_inbox: Mapping[int, Envelope] = MappingProxyType({})
    nodes = {v: factory(v, n) for v in shard}
    conn.send([v for v, algo in nodes.items() if not algo.is_quiescent()])
    while True:
        op, payload = conn.recv()
        if op == "react":
            round_index, active, indications, resets = payload
            if instrument:
                t0 = perf_counter()
            # Amnesia recoveries: rebuild the instance before any hook runs,
            # so the fresh node sees this round's re-insertion indications --
            # the same ordering as the in-process hooks.
            for v in resets:
                nodes[v] = factory(v, n)
            for v in active:
                inserted, deleted = indications.get(v, no_change)
                nodes[v].on_topology_change(round_index, inserted, deleted)
            if instrument:
                t1 = perf_counter()
            outgoing = []
            for v in active:
                out = nodes[v].compose_messages(round_index)
                if out:
                    outgoing.append((v, out))
            if instrument:
                stage("engine.worker.indications", t0, t1, round_index)
                stage("engine.worker.compute", t1, perf_counter(), round_index)
                tel.count("engine.worker.reacts")
                tel.observe("engine.worker.active_set", len(active), SIZE_BUCKETS)
            conn.send(outgoing)
        elif op == "deliver":
            round_index, touched, inboxes = payload
            if instrument:
                t0 = perf_counter()
            for v in touched:
                nodes[v].on_messages(round_index, inboxes.get(v, empty_inbox))
            verdicts = report_verdicts(nodes, touched, sparse)
            if instrument:
                stage("engine.worker.deliver", t0, perf_counter(), round_index)
                tel.count("engine.worker.updates")
            conn.send(verdicts)
        elif op == "query":
            node_id, query = payload
            conn.send(nodes[node_id].query(query))
        elif op == "fingerprint":
            conn.send({v: algo.state_fingerprint() for v, algo in nodes.items()})
        elif op == "telemetry":
            snapshot = tel.snapshot(final=True) if instrument else None
            conn.send((snapshot, tracer.to_dict() if tracer is not None else None))
        elif op == "stop":
            conn.send(None)
            conn.close()
            return
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown op {op!r}")


class ShardedRoundEngine(RoundEngine):
    """A round engine whose node hooks run in persistent worker processes.

    Args:
        n: number of nodes.
        algorithm_factory: per-node algorithm factory (must be picklable or
            importable in the workers; with the default ``fork`` start method
            any callable works).
        num_workers: number of shard processes (defaults to one less than
            the CPU count, at least one).
        bandwidth: per-link bandwidth policy (kept in the coordinator).
        metrics: metrics collector (kept in the coordinator).
        start_method: multiprocessing start method; ``fork`` keeps closures
            usable as factories and is the default on Linux.
        mode: the scheduling policy, ``"sparse"`` (default) or ``"dense"``,
            exactly as in :func:`~repro.simulator.rounds.create_engine`.
            Both produce identical metrics and state.
    """

    #: Shard workers carry messages on the per-envelope transport.
    _port = None

    def __init__(
        self,
        n: int,
        algorithm_factory: AlgorithmFactory,
        *,
        num_workers: Optional[int] = None,
        bandwidth: Optional[BandwidthPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        start_method: str = "fork",
        mode: str = "sparse",
        faults=None,
    ) -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(f"mode must be one of {ENGINE_MODES}, got {mode!r}")
        self.mode = mode
        if faults is not None:
            faults.algorithm_factory = algorithm_factory
        workers = num_workers if num_workers is not None else max(1, (os.cpu_count() or 2) - 1)
        shards = shard_nodes(n, workers)
        self._shard_of = [idx for idx, shard in enumerate(shards) for _ in shard]
        # First node id of every shard but the first: where a sorted id list
        # is cut into per-shard runs.
        self._cuts = [shard[0] for shard in shards[1:]]
        ctx = mp.get_context(start_method)
        # Workers inherit the telemetry decision made at construction time:
        # if the coordinator's registry is live, each worker runs its own
        # local registry (and trace ring, if tracing is on) whose final state
        # is pulled back and merged at shutdown.
        self._workers_instrumented = TELEMETRY.enabled
        trace_capacity = (
            TELEMETRY.tracer.capacity
            if TELEMETRY.enabled and TELEMETRY.tracer is not None
            else 0
        )
        #: Final per-worker telemetry snapshots, populated by
        #: :meth:`collect_worker_telemetry` (empty until then / if disabled).
        self.worker_snapshots: List[Dict[str, Any]] = []
        self._conns = []
        self._procs = []
        for idx, shard in enumerate(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(
                    child_conn,
                    shard,
                    n,
                    algorithm_factory,
                    mode,
                    idx,
                    self._workers_instrumented,
                    trace_capacity,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._closed = False
        try:
            unquiet = [v for conn in self._conns for v in conn.recv()]
        except EOFError:
            # A worker died building its nodes: stop the others before raising.
            self.shutdown()
            raise
        self._init_state(DynamicNetwork(n), bandwidth, metrics, faults, unquiet)

    # ------------------------------------------------------------------ #
    # The node hooks, over the pipes
    # ------------------------------------------------------------------ #
    def _react_and_compose(
        self,
        round_index: int,
        active: Sequence[int],
        indications: Mapping[int, NodeIndication],
        resets: Sequence[int],
    ) -> List[Tuple[int, Dict[int, Envelope]]]:
        per_shard = self._scatter(
            {v: (ind.inserted, ind.deleted) for v, ind in indications.items()}
        )
        replies = self._ask(
            "react",
            [
                (round_index, part, shard_indications, shard_resets) if part else None
                for part, shard_indications, shard_resets in zip(
                    self._split(active), per_shard, self._split(sorted(resets))
                )
            ],
        )
        return [pair for reply in replies for pair in reply]

    def _deliver_and_report(
        self, round_index: int, touched: Sequence[int], routed: Mapping[int, object]
    ) -> Verdicts:
        replies = self._ask(
            "deliver",
            [
                (round_index, part, inboxes) if part else None
                for part, inboxes in zip(self._split(touched), self._scatter(routed))
            ],
        )
        consistent: List[bool] = []
        quiescent: List[bool] = []
        for shard_consistent, shard_quiescent in replies:
            consistent += shard_consistent
            quiescent += shard_quiescent
        return consistent, quiescent

    def _split(self, ids: Sequence[int]) -> List[Sequence[int]]:
        """Ascending ``ids`` cut into one run per shard."""
        bounds = [0] + [bisect_left(ids, cut) for cut in self._cuts] + [len(ids)]
        return [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def _scatter(self, by_node: Mapping[int, Any]) -> List[Dict[int, Any]]:
        """``by_node`` split into one dict per owning shard."""
        parts: List[Dict[int, Any]] = [{} for _ in self._conns]
        shard_of = self._shard_of
        for v, value in by_node.items():
            parts[shard_of[v]][v] = value
        return parts

    def _ask(self, op: str, payloads: Sequence[Any]) -> List[Any]:
        """Send ``(op, payload)`` to every shard whose payload is not ``None``.

        Returns the replies of the shards asked, in shard order.
        """
        if self._closed:
            raise RuntimeError("engine already shut down")
        asked = []
        for conn, payload in zip(self._conns, payloads):
            if payload is not None:
                conn.send((op, payload))
                asked.append(conn)
        return [conn.recv() for conn in asked]

    # ------------------------------------------------------------------ #
    # Queries and lifecycle
    # ------------------------------------------------------------------ #
    def query(self, node_id: int, query: Any) -> Any:
        """Forward a query to the worker owning ``node_id`` and return its answer."""
        payloads: List[Any] = [None] * len(self._conns)
        payloads[self._shard_of[node_id]] = (node_id, query)
        (answer,) = self._ask("query", payloads)
        return answer

    def state_fingerprints(self) -> Dict[int, str]:
        """Per-node state digests gathered from the workers.

        The differential verification harness compares these against the
        fingerprints of a serial run to prove final-state identity without
        shipping the node objects back to the coordinator.
        """
        fingerprints: Dict[int, str] = {}
        for shard_fp in self._ask("fingerprint", [()] * len(self._conns)):
            fingerprints.update(shard_fp)
        return fingerprints

    def collect_worker_telemetry(self) -> List[Dict[str, Any]]:
        """Pull each worker's final telemetry snapshot + trace buffer and
        merge them into the coordinator's registry.

        Runs automatically from :meth:`shutdown` (before the stop commands go
        out), and at most once: worker counters/spans/histograms fold into
        ``TELEMETRY`` via :func:`~repro.obs.collect.merge_snapshot_into`,
        worker trace events are absorbed into the live trace ring, and the
        per-stage ``engine.shard_skew.*`` gauges are published.  Returns the
        raw per-worker snapshots (also kept on :attr:`worker_snapshots`).
        """
        if self._closed or not self._workers_instrumented:
            return []
        self._workers_instrumented = False  # merge exactly once
        try:
            payloads = self._ask("telemetry", [()] * len(self._conns))
        except (BrokenPipeError, EOFError):  # pragma: no cover - defensive
            return []
        tel = TELEMETRY
        snapshots: List[Dict[str, Any]] = []
        for snapshot, trace in payloads:
            if snapshot is None:
                continue
            snapshots.append(snapshot)
            if tel.enabled:
                merge_snapshot_into(tel, snapshot)
            if trace is not None and tel.tracer is not None:
                tel.tracer.extend_from_dict(trace)
        if tel.enabled and snapshots:
            record_shard_skew(tel, snapshots)
        self.worker_snapshots = snapshots
        return snapshots

    def shutdown(self) -> None:
        """Terminate the worker processes (collecting their telemetry first)."""
        if self._closed:
            return
        self.collect_worker_telemetry()
        for conn in self._conns:
            try:
                conn.send(("stop", None))
                conn.recv()
                conn.close()
            except (BrokenPipeError, EOFError):  # pragma: no cover - defensive
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._closed = True

    def __enter__(self) -> "ShardedRoundEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
