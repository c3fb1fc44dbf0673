"""Process-parallel execution of the round engine for large simulations.

The per-node phases of a round (react & send, receive & update) are
embarrassingly parallel: every node only touches its own local state and the
messages addressed to it.  For simulations with many nodes the
:class:`ShardedRoundEngine` partitions the nodes into shards, each owned by a
persistent worker process, and exchanges only the per-round message batches
with the coordinator -- the same communicate-by-message idiom used in
MPI-style programs (each worker behaves like a rank that scatters/gathers one
batch per superstep).

The sharded engine is a drop-in behavioural mirror of
:class:`repro.simulator.rounds.RoundEngine`: given the same adversary schedule
it produces identical metrics, because all cross-node interaction still flows
through the coordinator's ground-truth network and bandwidth policy.  In its
default ``"sparse"`` mode it additionally mirrors the active-set scheduling of
:class:`~repro.simulator.rounds.SparseRoundEngine`: each worker only runs the
hooks of its active nodes, and the coordinator skips fully-quiescent shards
altogether (no pipe round-trip at all while a shard has nothing to do).  It is
*not* always faster -- for small ``n`` the pickling overhead dominates -- but
it lets the simulator scale past a single core for wide fan-out workloads, and
benchmark E12 measures exactly that trade-off.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from time import perf_counter
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.collect import merge_snapshot_into, record_shard_skew
from ..obs.telemetry import SIZE_BUCKETS, TELEMETRY, Telemetry
from ..obs.tracing import TraceBuffer
from .bandwidth import BandwidthPolicy
from .events import RoundChanges
from .messages import Envelope
from .metrics import MetricsCollector, RoundRecord
from .network import DynamicNetwork, NodeIndication
from .node import AlgorithmFactory
from .rounds import ENGINE_MODES, MessageTargetError

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
    """Entry point of a shard worker process.

    The worker owns the node-algorithm instances of its shard and executes the
    per-node phases on command.  Commands arrive as ``(op, payload)`` tuples on
    the pipe; results are sent back the same way.

    In ``"sparse"`` mode the worker mirrors the active-set bookkeeping of
    :class:`~repro.simulator.rounds.SparseRoundEngine` for its own shard: it
    runs the hooks only over nodes that received an indication, hold an inbox,
    sent last round, or self-report dirty state, and its ``update`` reply
    carries only the consistency verdicts of the nodes it touched plus a
    ``needs_react`` flag the coordinator uses to skip the whole shard while it
    is fully quiescent.

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
    nodes = {v: factory(v, n) for v in shard}
    # Sparse-mode activity bookkeeping (unused in dense mode).
    dirty = {v for v, algo in nodes.items() if not algo.is_quiescent()}
    sent_last: set = set()
    react_active: List[int] = []
    react_round = -1
    empty_inbox: Mapping[int, Envelope] = MappingProxyType({})
    while True:
        op, payload = conn.recv()
        if op == "stop":
            conn.send(("ok", None))
            conn.close()
            return
        if op == "react":
            round_index, indications, resets = payload
            tel_on = tel.enabled
            if tel_on:
                t0 = perf_counter()
            # Amnesia recoveries: rebuild the instance before any hook runs,
            # so the fresh node sees this round's re-insertion indications --
            # the same ordering as the serial engines.
            for v in resets:
                nodes[v] = factory(v, n)
            outgoing: Dict[int, Dict[int, Envelope]] = {}
            if mode == "sparse":
                react_active = sorted(set(indications) | dirty | sent_last | set(resets))
                react_round = round_index
            else:
                react_active = list(nodes)
            sent_now: set = set()
            for v in react_active:
                inserted, deleted = indications.get(v, ((), ()))
                nodes[v].on_topology_change(round_index, inserted, deleted)
            if tel_on:
                t1 = perf_counter()
                tel.record_span("engine.worker.indications", t1 - t0)
            for v in react_active:
                out = nodes[v].compose_messages(round_index)
                if out:
                    outgoing[v] = out
                    if any(not envelope.is_silent for envelope in out.values()):
                        sent_now.add(v)
            sent_last = sent_now
            if tel_on:
                t2 = perf_counter()
                tel.record_span("engine.worker.compute", t2 - t1)
                tel.count("engine.worker.reacts")
                tel.observe("engine.worker.active_set", len(react_active), SIZE_BUCKETS)
                if tracer is not None:
                    tracer.add(
                        "engine.worker.indications", t0, t1,
                        round_index=round_index, mode=mode,
                    )
                    tracer.add(
                        "engine.worker.compute", t1, t2,
                        round_index=round_index, mode=mode,
                    )
            conn.send(("ok", outgoing))
        elif op == "update":
            round_index, inboxes = payload
            tel_on = tel.enabled
            if tel_on:
                t0 = perf_counter()
            if mode == "sparse":
                # A skipped react leaves no active set for this round; only
                # freshly delivered inboxes can wake nodes then.
                base = react_active if react_round == round_index else []
                touched = sorted(set(base) | set(inboxes))
            else:
                touched = list(nodes)
            for v in touched:
                nodes[v].on_messages(round_index, inboxes.get(v, empty_inbox))
            consistency = {v: nodes[v].is_consistent() for v in touched}
            if mode == "sparse":
                for v in touched:
                    if nodes[v].is_quiescent():
                        dirty.discard(v)
                    else:
                        dirty.add(v)
                reply: Any = (consistency, bool(dirty or sent_last))
            else:
                reply = consistency
            if tel_on:
                t1 = perf_counter()
                tel.record_span("engine.worker.deliver", t1 - t0)
                tel.count("engine.worker.updates")
                if tracer is not None:
                    tracer.add(
                        "engine.worker.deliver", t0, t1,
                        round_index=round_index, mode=mode,
                    )
            conn.send(("ok", reply))
        elif op == "query":
            node_id, query = payload
            conn.send(("ok", nodes[node_id].query(query)))
        elif op == "state_size":
            conn.send(("ok", {v: algo.local_state_size() for v, algo in nodes.items()}))
        elif op == "fingerprint":
            conn.send(("ok", {v: algo.state_fingerprint() for v, algo in nodes.items()}))
        elif op == "telemetry":
            snapshot = tel.snapshot(final=True) if tel.enabled else None
            trace = tracer.to_dict() if tracer is not None else None
            conn.send(("ok", (snapshot, trace)))
        else:  # pragma: no cover - defensive
            conn.send(("error", f"unknown op {op!r}"))


class ShardedRoundEngine:
    """A round engine whose node phases run in persistent worker processes.

    Args:
        n: number of nodes.
        algorithm_factory: per-node algorithm factory (must be picklable or
            importable in the workers; with the default ``fork`` start method
            any callable works).
        num_workers: number of shard processes (defaults to CPU count).
        bandwidth: per-link bandwidth policy (kept in the coordinator).
        metrics: metrics collector (kept in the coordinator).
        start_method: multiprocessing start method; ``fork`` keeps closures
            usable as factories and is the default on Linux.
        mode: ``"sparse"`` (default) lets each worker run only its active
            nodes and lets the coordinator skip fully-quiescent shards
            entirely; ``"dense"`` visits every node every round.  Both modes
            produce identical metrics and state.
    """

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
        self.network = DynamicNetwork(n)
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthPolicy()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.mode = mode
        #: Optional FaultPlan; drops run in the coordinator's routing loop
        #: (the one place all cross-shard traffic flows through) and amnesia
        #: resets ship to the owning worker in the react payload.
        self.faults = faults
        if faults is not None:
            faults.algorithm_factory = algorithm_factory
        workers = num_workers if num_workers is not None else max(1, (os.cpu_count() or 2) - 1)
        self._shards = shard_nodes(n, workers)
        self._node_to_shard: Dict[int, int] = {}
        for idx, shard in enumerate(self._shards):
            for v in shard:
                self._node_to_shard[v] = idx
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
        for idx, shard in enumerate(self._shards):
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
        self._last_inconsistent: List[int] = []
        # Sparse-mode coordinator state: which shards still need a react op
        # (workers report quiescence through their update replies) and the
        # live inconsistent set maintained by delta.
        self._needs_react: List[bool] = [True] * len(self._shards)
        self._inconsistent: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Round execution
    # ------------------------------------------------------------------ #
    def execute_round(self, changes: RoundChanges) -> RoundRecord:
        """Run one round; mirrors :meth:`RoundEngine.execute_round`."""
        if self._closed:
            raise RuntimeError("engine already shut down")
        round_index = self.network.round_index + 1
        n = self.network.n
        sparse = self.mode == "sparse"
        # Coordinator spans measure the same stage boundaries as the serial
        # engines (compute = react dispatch+gather, deliver = update
        # dispatch+gather); the workers additionally time their own hook
        # loops (engine.worker.* spans), merged in at shutdown.
        tel = TELEMETRY
        tel_on = tel.enabled
        tracer = tel.tracer if tel_on else None
        if tel_on:
            t_round = t0 = perf_counter()
        indications = self.network.apply_changes(round_index, changes)
        faults = self.faults
        resets = faults.resets_for_round(round_index) if faults is not None else ()
        drops = faults is not None and faults.affects_delivery

        # React & send, per shard.  In sparse mode a shard participates only
        # if its worker reported pending activity last round, one of its
        # nodes is touched by this round's changes, or one of its nodes
        # recovers with amnesia (the fresh instance must run its hooks).
        per_shard_indications: List[Dict[int, Tuple[tuple, tuple]]] = [
            {} for _ in self._shards
        ]
        for v, ind in indications.items():
            per_shard_indications[self._node_to_shard[v]][v] = (ind.inserted, ind.deleted)
        per_shard_resets: List[List[int]] = [[] for _ in self._shards]
        for v in resets:
            per_shard_resets[self._node_to_shard[v]].append(v)
        reacting = [
            not sparse
            or self._needs_react[idx]
            or bool(per_shard_indications[idx])
            or bool(per_shard_resets[idx])
            for idx in range(len(self._shards))
        ]
        if tel_on:
            t1 = perf_counter()
            tel.record_span("engine.indications", t1 - t0)
            if tracer is not None:
                tracer.add("engine.indications", t0, t1, round_index=round_index, mode="sharded")
        for idx, (conn, shard_ind) in enumerate(zip(self._conns, per_shard_indications)):
            if reacting[idx]:
                conn.send(("react", (round_index, shard_ind, per_shard_resets[idx])))
        outgoing_all: Dict[int, Dict[int, Envelope]] = {}
        for idx, conn in enumerate(self._conns):
            if not reacting[idx]:
                continue
            status, outgoing = conn.recv()
            if status != "ok":  # pragma: no cover - defensive
                raise RuntimeError(outgoing)
            outgoing_all.update(outgoing)
        if tel_on:
            t2 = perf_counter()
            tel.record_span("engine.compute", t2 - t1)
            if tracer is not None:
                tracer.add("engine.compute", t1, t2, round_index=round_index, mode="sharded")

        # Route messages through the coordinator (validation + bandwidth).
        inboxes: Dict[int, Dict[int, Envelope]] = {}
        num_envelopes = 0
        bits_sent = 0
        for sender, out in outgoing_all.items():
            for target, envelope in out.items():
                if target == sender:
                    raise MessageTargetError(f"node {sender} attempted to message itself")
                if not self.network.has_edge(sender, target):
                    raise MessageTargetError(
                        f"round {round_index}: node {sender} addressed non-neighbor {target}"
                    )
                size = self.bandwidth.charge(round_index, sender, target, envelope, n)
                if not envelope.is_silent:
                    num_envelopes += 1
                    bits_sent += size
                    # Sent-but-lost: charged and counted like a delivered
                    # envelope (the workers already marked the sender as
                    # having sent), it just never reaches the target's inbox.
                    if drops and faults.message_dropped(round_index, sender, target):
                        continue
                    inboxes.setdefault(target, {})[sender] = envelope

        if tel_on:
            t3 = perf_counter()
            tel.record_span("engine.route", t3 - t2)
            if tracer is not None:
                tracer.add("engine.route", t2, t3, round_index=round_index, mode="sharded")

        # Receive & update, per shard.  A shard that reacted must also update
        # (to drain its activity bookkeeping); one that only received messages
        # is woken by its inboxes.
        per_shard_inboxes: List[Dict[int, Dict[int, Envelope]]] = [{} for _ in self._shards]
        for v, inbox in inboxes.items():
            per_shard_inboxes[self._node_to_shard[v]][v] = inbox
        updating = [
            reacting[idx] or bool(per_shard_inboxes[idx])
            for idx in range(len(self._shards))
        ]
        for idx, (conn, shard_in) in enumerate(zip(self._conns, per_shard_inboxes)):
            if updating[idx]:
                conn.send(("update", (round_index, shard_in)))
        became_inconsistent: List[int] = []
        became_consistent: List[int] = []
        for idx, conn in enumerate(self._conns):
            if not updating[idx]:
                continue
            status, reply = conn.recv()
            if status != "ok":  # pragma: no cover - defensive
                raise RuntimeError(reply)
            if sparse:
                consistency, needs_react = reply
                self._needs_react[idx] = needs_react
            else:
                consistency = reply
            for v, ok in consistency.items():
                if ok:
                    if v in self._inconsistent:
                        self._inconsistent.discard(v)
                        became_consistent.append(v)
                elif v not in self._inconsistent:
                    self._inconsistent.add(v)
                    became_inconsistent.append(v)

        self._last_inconsistent = sorted(self._inconsistent)
        record = self.metrics.record_round_delta(
            round_index=round_index,
            num_changes=len(changes),
            became_inconsistent=became_inconsistent,
            became_consistent=became_consistent,
            num_envelopes=num_envelopes,
            bits_sent=bits_sent,
        )
        if tel_on:
            t4 = perf_counter()
            tel.record_span("engine.deliver", t4 - t3)
            tel.record_span("engine.round", t4 - t_round)
            if tracer is not None:
                tracer.add("engine.deliver", t3, t4, round_index=round_index, mode="sharded")
                tracer.add("engine.round", t_round, t4, round_index=round_index, mode="sharded")
            tel.count("engine.rounds")
            tel.count("engine.envelopes", num_envelopes)
            tel.count("engine.shards_reacting", sum(reacting))
            tel.count("engine.quiescent_shard_skips", len(reacting) - sum(reacting))
            tel.observe("engine.active_set", len(outgoing_all), SIZE_BUCKETS)
            for inbox in inboxes.values():
                tel.observe("engine.inbox_fanout", len(inbox), SIZE_BUCKETS)
            tel.tick()
        return record

    def execute_quiet_round(self) -> RoundRecord:
        """Run one round with no topology changes."""
        return self.execute_round(RoundChanges.empty())

    # ------------------------------------------------------------------ #
    # Queries and lifecycle
    # ------------------------------------------------------------------ #
    @property
    def all_consistent(self) -> bool:
        return not self._last_inconsistent

    @property
    def inconsistent_nodes(self) -> List[int]:
        return list(self._last_inconsistent)

    @property
    def drain_fixpoint(self) -> bool:
        """Mirrors :attr:`RoundEngine.drain_fixpoint` for the sharded scheduler.

        In sparse mode every worker's update reply carries whether its shard
        still has pending activity (dirty nodes or senders); when no shard
        needs a react, a quiet round dispatches no worker ops at all, so no
        node state can change -- the same quiet-round fixpoint the serial
        sparse engine proves, and the drain loops fast-forward on it.  Dense
        mode runs every hook every round and never proves one.
        """
        return self.mode == "sparse" and not any(self._needs_react)

    def query(self, node_id: int, query: Any) -> Any:
        """Forward a query to the worker owning ``node_id`` and return its answer."""
        conn = self._conns[self._node_to_shard[node_id]]
        conn.send(("query", (node_id, query)))
        status, answer = conn.recv()
        if status != "ok":  # pragma: no cover - defensive
            raise RuntimeError(answer)
        return answer

    def state_fingerprints(self) -> Dict[int, str]:
        """Per-node state digests gathered from the workers.

        The differential verification harness compares these against the
        fingerprints of a serial run to prove final-state identity without
        shipping the node objects back to the coordinator.
        """
        for conn in self._conns:
            conn.send(("fingerprint", None))
        fingerprints: Dict[int, str] = {}
        for conn in self._conns:
            status, shard_fp = conn.recv()
            if status != "ok":  # pragma: no cover - defensive
                raise RuntimeError(shard_fp)
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
        payloads = []
        try:
            for conn in self._conns:
                conn.send(("telemetry", None))
            for conn in self._conns:
                status, payload = conn.recv()
                if status != "ok":  # pragma: no cover - defensive
                    raise RuntimeError(payload)
                payloads.append(payload)
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
