"""Spans recorded around the program's public calls, from outside the program.

The traced run replaces a fixed list of the program's functions and methods
with wrappers that time each call into a :class:`Tracer`.  Nothing in the
program changes; the untraced run installs none of these wrappers.

Coarse calls (a round, an oracle observation, a store write) become one
:class:`Span` each.  Calls that happen hundreds of thousands of times per run
(node hooks, subscription evaluations, per-node fingerprints) are rolled up:
one :class:`Span` per ``(parent span, name)`` carries their call count and
summed time, so memory stays bounded and the wrapper stays cheap.

A layer's self time is its spans' time minus the time of their child spans
(:func:`self_times`); whatever the root spans do not cover is the
unattributed residual (:func:`residual`).
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    """One timed call, or the roll-up of many calls under one parent."""

    __slots__ = ("name", "parent", "key", "start", "end", "calls", "seconds")

    def __init__(self, name: str, parent: Optional[int], key, start: Optional[float] = None) -> None:
        self.name = name
        self.parent = parent  # index of the enclosing span in Tracer.spans
        self.key = key  # the cell id or batch index the span belongs to
        self.start = start
        self.end: Optional[float] = None
        self.calls = 0
        self.seconds = 0.0

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder; spans are written out only by :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.key = None
        self._stack: List[int] = []
        self._rollups: Dict[str, Dict[Optional[int], int]] = {}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        stack = self._stack
        span = Span(name, stack[-1] if stack else None, self.key, perf_counter())
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            span.seconds = span.end - span.start
            span.calls = 1
            stack.pop()

    def rollup_index(self, name: str, parent: Optional[int]) -> int:
        """Index of the roll-up span for ``name`` calls under ``parent``."""
        by_parent = self._rollups.setdefault(name, {})
        index = by_parent.get(parent)
        if index is None:
            index = by_parent[parent] = len(self.spans)
            self.spans.append(Span(name, parent, self.key))
        return index

    def calls(self, name: str) -> int:
        return sum(span.calls for span in self.spans if span.name == name)

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: summed span time minus the time of direct child spans."""
    spans = list(spans)
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    out: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        out[span.name] += span.seconds - child[index]
    return dict(out)


def residual(total: float, spans: Iterable[Span], accounted: float = 0.0) -> float:
    """Time of ``total`` outside every root span and outside ``accounted``.

    Self times telescope, so this equals ``total - accounted - sum(self times)``.
    """
    return total - accounted - sum(s.seconds for s in spans if s.parent is None)


# --------------------------------------------------------------------- #
# Wrapping the program's calls
# --------------------------------------------------------------------- #
def _wrap(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def span(tracer: Tracer, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
    """Record every call of ``owner.attr`` as a span; ``after(args, result)`` counts."""

    def make(original):
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    _wrap(owner, attr, make)


def rolled_up(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Roll every call of ``owner.attr`` up under its parent span.

    The wrapper is inlined rather than calling into the tracer: these calls
    number in the hundreds of thousands, and time spent outside the timer
    lands in the parent span.
    """
    spans, stack = tracer.spans, tracer._stack
    by_parent = tracer._rollups.setdefault(name, {})

    def make(original):
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = by_parent.get(parent)
            if index is None:
                index = tracer.rollup_index(name, parent)
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span = spans[index]
                span.seconds += perf_counter() - start
                span.calls += 1
                stack.pop()

        return wrapper

    _wrap(owner, attr, make)


#: Node methods timed as ``core.hooks``: the round hooks the engine calls and
#: the local queries checks and subscriptions ask.  ``is_consistent`` and
#: ``is_quiescent`` only read a flag; wrapping them would time the wrapper, so
#: their time stays with the caller.
NODE_HOOKS = (
    "on_topology_change",
    "compose_messages",
    "on_messages",
    "query",
    "knows_edge",
    "known_triangles",
)


def instrument_engine(tracer: Tracer, counts: Dict[str, float], node_class: type) -> None:
    """Spans shared by both workload kinds: engine, topology, oracle, nodes."""
    from repro.oracle import GroundTruthOracle
    from repro.simulator.network import DynamicNetwork
    from repro.simulator.rounds import SparseRoundEngine

    def after_round(args, _record) -> None:
        counts["simulator.active_node_rounds"] += len(args[0].last_active_nodes)

    def after_ball(_args, ball) -> None:
        counts["oracle.ball_nodes"] += len(ball)

    span(tracer, SparseRoundEngine, "execute_round", "simulator.round", after_round)
    span(tracer, DynamicNetwork, "apply_changes", "simulator.topology")
    span(tracer, GroundTruthOracle, "observe", "oracle.observe")
    span(tracer, GroundTruthOracle, "last_changed_ball", "oracle.ball", after_ball)
    for hook in NODE_HOOKS:
        if hasattr(node_class, hook):
            rolled_up(tracer, node_class, hook, "core.hooks")
    rolled_up(tracer, node_class, "state_fingerprint", "simulator.fingerprint")


def _counting_factory(factory: Callable, counts: Dict[str, float]) -> Callable:
    @functools.wraps(factory)
    def build(*args, **kwargs):
        counts["simulator.nodes_built"] += 1
        return factory(*args, **kwargs)

    return build


def instrument_cells(tracer: Tracer, counts: Dict[str, float], algorithm: str, checks) -> None:
    """Wrap the campaign path: adversary, runner, checks, result store."""
    from repro.experiments import campaign, registry
    from repro.experiments.store import ResultStore
    from repro.simulator.runner import SimulationRunner
    from repro.simulator.trace import TraceRecordingAdversary
    from repro.verification.checks import CHECKS, CheckSession

    node_class = registry.ALGORITHMS[algorithm]
    instrument_engine(tracer, counts, node_class)
    registry.ALGORITHMS[algorithm] = _counting_factory(node_class, counts)
    schedules = set()

    def after_build(_args, adversary) -> None:
        cls = type(adversary)
        if cls not in schedules:
            schedules.add(cls)
            span(tracer, cls, "changes_for_round", "adversary.schedule")

    span(tracer, campaign, "build_adversary", "adversary.build", after_build)
    span(tracer, TraceRecordingAdversary, "changes_for_round", "adversary.schedule")
    span(tracer, SimulationRunner, "__init__", "simulator.setup")
    for check in {type(CHECKS[name]) for name in checks}:
        if check.has_round_hook:
            span(tracer, check, "check_round", "verification.round_hook")
    span(tracer, CheckSession, "finish", "verification.finish")
    span(tracer, ResultStore, "append", "experiments.persist")
    span(tracer, ResultStore, "save_trace", "experiments.persist")


def instrument_serving(tracer: Tracer, counts: Dict[str, float], structure: str) -> None:
    """Wrap the serving path: monitor, sweep, subscriptions, log source.

    ``LogEventSource`` construction, ``MonitorService.__init__`` and
    ``register_all`` are called by the benchmark itself through
    :meth:`Tracer.call`.
    """
    from repro.serve import core, ingest, subscriptions

    node_class = core.STRUCTURES[structure]
    instrument_engine(tracer, counts, node_class)
    core.STRUCTURES[structure] = _counting_factory(node_class, counts)
    span(tracer, core.ServingMonitor, "__init__", "simulator.setup")
    span(tracer, core.ServingMonitor, "state_fingerprint", "simulator.fingerprint")
    span(tracer, ingest.LogEventSource, "next_batch", "serve.next_batch")
    span(tracer, subscriptions.SubscriptionRegistry, "evaluate_round", "serve.sweep")
    rolled_up(tracer, subscriptions.Subscription, "evaluate", "serve.evaluate")
