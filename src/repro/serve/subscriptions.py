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

Evaluating one costs one local lookup.  ``register`` compiles each
subscription once: it validates the spec and builds its query object (an
``EdgeQuery``, ``TriangleQuery`` or ``CliqueQuery`` bound to the asked node
id, or the sorted member tuple of a collective ``cycle`` query).
Re-answering is then one :meth:`ServingMonitor.answer` call, which looks the
node up afresh and returns one of three shared :class:`MonitorAnswer`
values, so an evaluation builds no query or answer object and the sweep
tells a moved answer by identity.

Everything here is derived from engine-independent state (the ground-truth
graph via the oracle, node answers via the monitor), so the full
notification stream is bit-identical across the dense and sparse engines;
the serving CI gate asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..core import CliqueQuery, EdgeQuery, TriangleQuery
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


@dataclass(frozen=True, slots=True)
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
    """One standing query, compiled at registration.

    ``query`` is the query object asked of node ``ask`` (an
    :class:`~repro.core.EdgeQuery`, :class:`~repro.core.TriangleQuery` or
    :class:`~repro.core.CliqueQuery`), built and validated once; a ``cycle``
    subscription has no single asked node (``ask`` is ``None``) and keeps
    its sorted member tuple, asked of every member collectively.
    """

    __slots__ = (
        "subscription_id",
        "kind",
        "params",
        "watched",
        "radius",
        "order",
        "ask",
        "query",
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
        ask: Optional[int],
        query: object,
    ) -> None:
        self.subscription_id = subscription_id
        self.kind = kind
        self.params = params
        self.watched = watched
        self.radius = _KIND_RADIUS[kind]
        self.order = 0  # registration sequence number, set by the registry
        self.ask = ask
        self.query = query
        self.answer: Optional[MonitorAnswer] = None
        self.dirty = True  # evaluated at the next opportunity
        self.definite_streak = 0
        self.evaluations = 0

    def evaluate(self, monitor: ServingMonitor) -> MonitorAnswer:
        """Re-answer from the current local state of the asked node (of every
        member, for a cycle)."""
        self.evaluations += 1
        if self.ask is None:
            return monitor.list_cycle(self.query)
        return monitor.answer(self.ask, self.query)

    def to_dict(self) -> dict:
        return {"id": self.subscription_id, "kind": self.kind, **self.params}


def _compile(
    monitor: ServingMonitor, kind: str, params: dict
) -> Tuple[dict, Tuple[int, ...], Optional[int], object]:
    """Validate one subscription's parameters and build its query object.

    Returns the canonicalized params (what :meth:`Subscription.to_dict`
    reports), the watched nodes, the asked node (``None`` for ``cycle``) and
    the query.
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
        if u == w:
            raise ValueError(f"an edge subscription needs u != w, got u = w = {u}")
        if params:
            raise ValueError(f"unexpected edge-subscription params: {sorted(params)}")
        return {"node": node, "u": u, "w": w}, (node,), node, EdgeQuery(u, w)
    if kind in ("triangle", "clique", "cycle"):
        members = required("members")
        if not isinstance(members, Iterable):
            raise ValueError(f"'members' must be a list of node ids, got {members!r}")
        members = tuple(check_node(x, "member") for x in members)
        member_set = frozenset(members)
        if kind == "triangle" and len(member_set) != 3:
            raise ValueError(f"a triangle subscription needs 3 distinct members, got {members}")
        if len(member_set) < 3:
            raise ValueError(f"a {kind} subscription needs >= 3 distinct members, got {members}")
        ordered = sorted(member_set)
        ask = params.pop("ask", None)
        if kind == "cycle":
            if ask is not None:
                raise ValueError("cycle subscriptions ask every member collectively")
            if params:
                raise ValueError(f"unexpected cycle-subscription params: {sorted(params)}")
            watched = tuple(ordered)
            return {"members": ordered}, watched, None, watched
        if ask is None:
            ask = ordered[0]
        elif check_node(ask, "ask") not in member_set:
            raise ValueError(f"'ask' must be one of the members {ordered}, got {ask}")
        if params:
            raise ValueError(f"unexpected {kind}-subscription params: {sorted(params)}")
        query = TriangleQuery(member_set) if kind == "triangle" else CliqueQuery(member_set)
        return {"members": ordered, "ask": ask}, (ask,), ask, query
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
        if subscription_id is not None:
            if not isinstance(subscription_id, str):
                raise ValueError(f"'id' must be a string, got {subscription_id!r}")
            if subscription_id in self._subscriptions:
                raise ValueError(f"subscription id {subscription_id!r} already registered")
        canonical, watched, ask, query = _compile(self.monitor, kind, dict(params))
        subscription = Subscription("", kind, canonical, watched, ask, query)
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
        """Register a batch of ``{"id": ..., "kind": ..., ...params}`` objects.

        A bad spec raises ``ValueError`` naming its position,
        ``(at subscriptions[i])``; the specs before it stay registered.
        """
        ids = []
        for position, spec in enumerate(specs):
            try:
                if not isinstance(spec, Mapping):
                    raise ValueError(f"a subscription spec must be an object, got {spec!r}")
                spec = dict(spec)
                kind = spec.pop("kind", None)
                if kind is None:
                    raise ValueError(f"a subscription spec needs a 'kind': {spec}")
                ids.append(self.register(kind, subscription_id=spec.pop("id", None), **spec))
            except ValueError as exc:
                raise ValueError(f"{exc} (at subscriptions[{position}])") from exc
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
        settle_streak = self.settle_streak
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
            # Answers are the monitor's three shared values, so identity
            # settles the common case without the dataclass ``__eq__``.
            if answer is not subscription.answer and answer != subscription.answer:
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
                if subscription.definite_streak >= settle_streak:
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
