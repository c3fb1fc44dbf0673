"""Standing queries over the serving monitor, evaluated incrementally.

A *subscription* is a registered query -- robust-2-hop edge membership, a
triangle / clique alert, a collective cycle alert -- that the service
re-answers after every ingested batch and that fires a typed
:class:`AnswerChanged` notification whenever its answer moves.

Re-evaluating every subscription every round would defeat the paper's whole
point (answers are maintained *incrementally* under churn), so the registry
piggybacks on the oracle's dirty-region versioning
(:meth:`repro.oracle.GroundTruthOracle.last_changed_ball`): after a batch,
only subscriptions with a watched node inside the r-hop ball of that batch's
changes are marked dirty, and only dirty subscriptions are evaluated.  A
dirty subscription stays under evaluation until it has produced
``settle_streak`` consecutive *definite* answers -- covering both the
propagation window of the distributed structures and the robustness window
in which an untouched edge's robust-set membership can still change -- and
then goes quiet until the next touch.

Finding the touched subscriptions never scans the registry.  ``register`` and
``unregister`` maintain an index, per radius, from each watched node to the
subscriptions watching it, plus the set of subscriptions that are still
dirty.  A round looks up the nodes of each radius's dirty ball (or the
index's keys, when there are fewer of those), marks what it finds dirty, and
evaluates the dirty set in registration order.  So the per-round sweep costs
time in proportion to the dirty ball plus the dirty subscriptions, not to
the number registered: a settled subscription outside the ball costs nothing.

Everything here is derived from engine-independent state (the ground-truth
graph via the oracle, node answers via the monitor), so the full
notification stream is bit-identical across the dense and sparse engines;
the serving CI gate asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.telemetry import TELEMETRY
from .core import MonitorAnswer, ServingMonitor

__all__ = [
    "AnswerChanged",
    "Subscription",
    "SubscriptionRegistry",
    "SUBSCRIPTION_KINDS",
    "DEFAULT_SETTLE_STREAK",
]

#: The supported standing-query kinds.
SUBSCRIPTION_KINDS = ("edge", "triangle", "clique", "cycle")

#: How deep a topology change can reach each kind's answer.  Conservative
#: (within the oracle's tracked ``R_MAX``): edge subscriptions ask about the
#: robust 2/3-hop sets (edges within <= 2 hops of the asking node, 3 for
#: robust3hop), triangle/clique answers depend on the pattern sets built from
#: <= 2-hop information, and 4/5-cycle listing sees up to 3 hops.
_KIND_RADIUS = {"edge": 3, "triangle": 2, "clique": 2, "cycle": 3}

#: Consecutive definite answers after which a touched subscription stops
#: being re-evaluated.  Two rounds cover the robust-promotion window (an
#: edge untouched for 2 rounds enters the robust sets) and one more covers
#: the query-window boundary.
DEFAULT_SETTLE_STREAK = 3


@dataclass(frozen=True)
class AnswerChanged:
    """A standing query's answer moved.

    Attributes:
        subscription_id: the registered id.
        kind: the subscription kind (``edge``/``triangle``/``clique``/``cycle``).
        round_index: the served round after which the new answer was observed.
        old: the previous answer (``None`` for the registration-time answer).
        new: the current answer.
    """

    subscription_id: str
    kind: str
    round_index: int
    old: Optional[MonitorAnswer]
    new: MonitorAnswer

    def to_dict(self) -> dict:
        """JSON-ready, engine-comparable rendering (no wall-clock fields)."""
        return {
            "subscription_id": self.subscription_id,
            "kind": self.kind,
            "round_index": self.round_index,
            "old": None if self.old is None else [self.old.value, self.old.definite],
            "new": [self.new.value, self.new.definite],
        }


class Subscription:
    """One standing query: watched nodes, dirty-region radius, evaluator."""

    __slots__ = (
        "subscription_id",
        "kind",
        "params",
        "watched",
        "radius",
        "order",
        "_evaluate",
        "answer",
        "dirty",
        "definite_streak",
        "evaluations",
    )

    def __init__(
        self,
        subscription_id: str,
        kind: str,
        params: dict,
        watched: Tuple[int, ...],
        evaluate: Callable[[ServingMonitor], MonitorAnswer],
    ) -> None:
        self.subscription_id = subscription_id
        self.kind = kind
        self.params = params
        self.watched = watched
        self.radius = _KIND_RADIUS[kind]
        self.order = 0  # registration sequence number, set by the registry
        self._evaluate = evaluate
        self.answer: Optional[MonitorAnswer] = None
        self.dirty = True  # evaluated at the next opportunity
        self.definite_streak = 0
        self.evaluations = 0

    def evaluate(self, monitor: ServingMonitor) -> MonitorAnswer:
        self.evaluations += 1
        return self._evaluate(monitor)

    def to_dict(self) -> dict:
        return {"id": self.subscription_id, "kind": self.kind, **self.params}


def _build_evaluator(
    monitor: ServingMonitor, kind: str, params: dict
) -> Tuple[dict, Tuple[int, ...], Callable[[ServingMonitor], MonitorAnswer]]:
    """Validate one subscription's parameters and bind its query closure.

    Returns the canonicalized params (what :meth:`Subscription.to_dict`
    reports), the watched nodes and the evaluator.
    """
    n = monitor.n

    def check_node(x, label="node"):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
            raise ValueError(f"{label} must be an integer in [0, {n}), got {x!r}")
        return x

    def required(field):
        if field not in params:
            article = "an" if kind == "edge" else "a"
            raise ValueError(f"{article} {kind} subscription needs {field!r}")
        return params.pop(field)

    if kind == "edge":
        node = check_node(required("node"))
        u = check_node(required("u"), "u")
        w = check_node(required("w"), "w")
        if params:
            raise ValueError(f"unexpected edge-subscription params: {sorted(params)}")
        return (
            {"node": node, "u": u, "w": w},
            (node,),
            lambda m: m.knows_edge(node, u, w),
        )
    if kind in ("triangle", "clique", "cycle"):
        members = required("members")
        members = tuple(check_node(x, "member") for x in members)
        member_set = frozenset(members)
        if kind == "triangle" and len(member_set) != 3:
            raise ValueError(f"a triangle subscription needs 3 distinct members, got {members}")
        if len(member_set) < 3:
            raise ValueError(f"a {kind} subscription needs >= 3 distinct members, got {members}")
        ask = params.pop("ask", None)
        if kind == "cycle":
            if ask is not None:
                raise ValueError("cycle subscriptions ask every member collectively")
            if params:
                raise ValueError(f"unexpected cycle-subscription params: {sorted(params)}")
            watched = tuple(sorted(member_set))
            return (
                {"members": list(watched)},
                watched,
                lambda m: m.list_cycle(member_set),
            )
        ask = min(member_set) if ask is None else check_node(ask, "ask")
        if params:
            raise ValueError(f"unexpected {kind}-subscription params: {sorted(params)}")
        if kind == "triangle":
            a, b, c = sorted(member_set)
            return (
                {"members": [a, b, c], "ask": ask},
                (ask,),
                lambda m: m.is_triangle(a, b, c, ask=ask),
            )
        return (
            {"members": sorted(member_set), "ask": ask},
            (ask,),
            lambda m: m.is_clique(member_set, ask=ask),
        )
    raise ValueError(f"unknown subscription kind {kind!r}; choose from {SUBSCRIPTION_KINDS}")


class SubscriptionRegistry:
    """The standing queries of one serving monitor, keyed by id.

    Evaluation order is registration order, so the notification stream is
    deterministic.  The registry keeps plain always-on counters
    (:attr:`evaluated` / :attr:`skipped` / :attr:`fired`) for service
    reports; per-answer latency additionally lands in the
    ``serve.answer_latency_s`` telemetry histogram when telemetry is enabled.
    """

    def __init__(
        self, monitor: ServingMonitor, *, settle_streak: int = DEFAULT_SETTLE_STREAK
    ) -> None:
        if settle_streak < 1:
            raise ValueError("settle_streak must be >= 1")
        self.monitor = monitor
        self.settle_streak = settle_streak
        self._subscriptions: Dict[str, Subscription] = {}
        #: radius -> watched node -> the subscriptions watching it.
        self._index: Dict[int, Dict[int, Tuple[Subscription, ...]]] = {}
        #: The still-dirty subscriptions, keyed by registration order.
        self._dirty: Dict[int, Subscription] = {}
        self._order = count()
        self._auto_id = 0
        self.evaluated = 0
        self.skipped = 0
        self.fired = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, kind: str, *, subscription_id: Optional[str] = None, **params) -> str:
        """Register one standing query; returns its id.

        The query is probed once immediately: incompatible structure/kind
        pairs (e.g. a ``triangle`` alert on the ``robust2hop`` structure)
        are rejected here with a clear error instead of failing on the first
        served batch.  The registration-time answer seeds the change
        detection -- the first notification fires only when the answer
        *moves* from it.
        """
        if subscription_id is not None and subscription_id in self._subscriptions:
            raise ValueError(f"subscription id {subscription_id!r} already registered")
        canonical, watched, evaluate = _build_evaluator(self.monitor, kind, dict(params))
        subscription = Subscription("", kind, canonical, watched, evaluate)
        try:
            subscription.answer = subscription.evaluate(self.monitor)
        except TypeError as exc:
            raise ValueError(
                f"the {self.monitor.structure_name!r} structure cannot answer "
                f"{kind!r} subscriptions: {exc}"
            ) from exc
        if subscription_id is None:
            subscription_id = self._next_auto_id()
        subscription.subscription_id = subscription_id
        subscription.order = next(self._order)
        self._subscriptions[subscription_id] = subscription
        watchers = self._index.setdefault(subscription.radius, {})
        for node in watched:
            watchers[node] = watchers.get(node, ()) + (subscription,)
        self._dirty[subscription.order] = subscription
        return subscription_id

    def _next_auto_id(self) -> str:
        """The next ``sub-NNNN`` id that no registration holds yet."""
        while True:
            self._auto_id += 1
            candidate = f"sub-{self._auto_id:04d}"
            if candidate not in self._subscriptions:
                return candidate

    def register_all(self, specs: Iterable[dict]) -> List[str]:
        """Register a batch of ``{"id": ..., "kind": ..., ...params}`` dicts."""
        ids = []
        for spec in specs:
            spec = dict(spec)
            kind = spec.pop("kind", None)
            if kind is None:
                raise ValueError(f"subscription spec needs a 'kind': {spec}")
            ids.append(self.register(kind, subscription_id=spec.pop("id", None), **spec))
        return ids

    def unregister(self, subscription_id: str) -> None:
        subscription = self._subscriptions.pop(subscription_id)
        watchers = self._index[subscription.radius]
        for node in subscription.watched:
            rest = tuple(other for other in watchers[node] if other is not subscription)
            if rest:
                watchers[node] = rest
            else:
                del watchers[node]
        if not watchers:
            # No ball of this radius is requested while nobody watches it.
            del self._index[subscription.radius]
        self._dirty.pop(subscription.order, None)

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: str) -> bool:
        return subscription_id in self._subscriptions

    def get(self, subscription_id: str) -> Subscription:
        return self._subscriptions[subscription_id]

    def answers(self) -> Dict[str, Optional[MonitorAnswer]]:
        """The current answer of every subscription (id -> answer)."""
        return {sid: sub.answer for sid, sub in self._subscriptions.items()}

    # ------------------------------------------------------------------ #
    # Incremental evaluation
    # ------------------------------------------------------------------ #
    def evaluate_round(
        self, ball: Callable[[int], Set[int]], round_index: int
    ) -> List[AnswerChanged]:
        """Re-evaluate the subscriptions this round's changes could affect.

        Args:
            ball: ``ball(depth)`` -> nodes within ``depth`` hops of the
                round's topology changes (the oracle's dirty region; empty
                for a quiet round).  Called once per radius that some
                registered subscription watches at.
            round_index: the just-served round.

        Returns the notifications fired this round, in registration order.
        """
        dirty = self._dirty
        for radius, watchers in self._index.items():
            # The keys view intersects by walking the smaller of the two.
            for node in watchers.keys() & ball(radius):
                for subscription in watchers[node]:
                    subscription.dirty = True
                    subscription.definite_streak = 0
                    dirty[subscription.order] = subscription
        notifications: List[AnswerChanged] = []
        monitor = self.monitor
        telemetry_on = TELEMETRY.enabled
        tracer = TELEMETRY.tracer if telemetry_on else None
        pending = sorted(dirty)
        for order in pending:
            subscription = dirty[order]
            if telemetry_on:
                start = perf_counter()
                answer = subscription.evaluate(monitor)
                end = perf_counter()
                TELEMETRY.observe("serve.answer_latency_s", end - start)
                if tracer is not None:
                    tracer.add("serve.evaluate", start, end, round_index=round_index)
            else:
                answer = subscription.evaluate(monitor)
            if answer != subscription.answer:
                notifications.append(
                    AnswerChanged(
                        subscription_id=subscription.subscription_id,
                        kind=subscription.kind,
                        round_index=round_index,
                        old=subscription.answer,
                        new=answer,
                    )
                )
                subscription.answer = answer
            if answer.definite:
                subscription.definite_streak += 1
                if subscription.definite_streak >= self.settle_streak:
                    subscription.dirty = False
                    del dirty[order]
            else:
                subscription.definite_streak = 0
        self.evaluated += len(pending)
        self.skipped += len(self._subscriptions) - len(pending)
        self.fired += len(notifications)
        if telemetry_on:
            TELEMETRY.count("serve.subscriptions_evaluated", len(pending))
            TELEMETRY.count("serve.notifications", len(notifications))
        return notifications
