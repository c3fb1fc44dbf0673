"""The registry's watched-node index against the linear sweep it replaced.

``SubscriptionRegistry.evaluate_round`` finds the subscriptions a round
touched by looking the dirty ball up in an index from watched node to
subscribers.  :func:`linear_sweep` is the loop it replaced, which visited every
registered subscription every round; it survives here only as the reference
the index must match bit for bit.
"""

from typing import Callable, List, Set

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RoundChanges
from repro.serve import MonitorService
from repro.serve.subscriptions import AnswerChanged, SubscriptionRegistry


def linear_sweep(
    registry: SubscriptionRegistry, ball: Callable[[int], Set[int]], round_index: int
) -> List[AnswerChanged]:
    """Evaluate one round by scanning every registered subscription."""
    notifications: List[AnswerChanged] = []
    for subscription_id in registry.answers():
        subscription = registry.get(subscription_id)
        if not ball(subscription.radius).isdisjoint(subscription.watched):
            subscription.dirty = True
            subscription.definite_streak = 0
        if not subscription.dirty:
            registry.skipped += 1
            continue
        answer = subscription.evaluate(registry.monitor)
        registry.evaluated += 1
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
            if subscription.definite_streak >= registry.settle_streak:
                subscription.dirty = False
        else:
            subscription.definite_streak = 0
    registry.fired += len(notifications)
    return notifications


# --------------------------------------------------------------------------- #
# Random registries and streams
# --------------------------------------------------------------------------- #
N = 8
#: Explicit ids come from a small pool so that ids get freed and taken again;
#: ``sub-0002`` also collides with an auto id.
ID_POOL = ("a", "b", "sub-0002", None, None)


def _members(draw, low, high):
    return draw(st.lists(st.integers(0, N - 1), min_size=low, max_size=high, unique=True))


@st.composite
def subscription_specs(draw, structure):
    if structure == "cycles":
        spec = {"kind": "cycle", "members": _members(draw, 4, 5)}
    else:
        kind = draw(st.sampled_from(("edge", "triangle", "clique")))
        if kind == "edge":
            u, w = _members(draw, 2, 2)
            spec = {"kind": "edge", "node": draw(st.integers(0, N - 1)), "u": u, "w": w}
        else:
            members = _members(draw, 3, 3 if kind == "triangle" else 5)
            spec = {"kind": kind, "members": members}
            ask = draw(st.sampled_from(members + [None]))
            if ask is not None:
                spec["ask"] = ask
    subscription_id = draw(st.sampled_from(ID_POOL))
    if subscription_id is not None:
        spec["id"] = subscription_id
    return spec


@st.composite
def streams(draw, structure, max_steps=30):
    """Registrations, then batches mixed with (un/re)registrations.

    Batches are legal: each inserts absent edges and deletes present ones;
    an empty batch is a quiet round.
    """
    initial = draw(st.lists(subscription_specs(structure), min_size=1, max_size=8))
    present: Set[tuple] = set()
    pairs = [(u, w) for u in range(N) for w in range(u + 1, N)]
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        op = draw(st.sampled_from(("batch",) * 4 + ("register", "unregister", "reregister")))
        if op == "register":
            steps.append(("register", draw(subscription_specs(structure))))
        elif op in ("unregister", "reregister"):
            steps.append((op, draw(st.integers(0, 63))))
        else:
            inserts, deletes = [], []
            for pair in draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)):
                if pair in present:
                    deletes.append(pair)
                    present.discard(pair)
                else:
                    inserts.append(pair)
                    present.add(pair)
            steps.append(("batch", RoundChanges.of(inserts, deletes)))
    settle_streak = draw(st.integers(1, 3))
    return initial, steps, settle_streak


def _register(registry: SubscriptionRegistry, spec: dict) -> None:
    spec = dict(spec)
    registry.register(spec.pop("kind"), subscription_id=spec.pop("id", None), **spec)


def _state(registry: SubscriptionRegistry) -> dict:
    subs = {sid: registry.get(sid) for sid in registry.answers()}
    return {
        "counters": (registry.evaluated, registry.skipped, registry.fired),
        "subscriptions": [
            (sid, sub.answer, sub.dirty, sub.definite_streak, sub.evaluations)
            for sid, sub in subs.items()
        ],
    }


def run_against_reference(structure, initial, steps, settle_streak) -> SubscriptionRegistry:
    """Drive the indexed registry and the reference in lockstep; returns the former."""
    service = MonitorService(N, structure, settle_streak=settle_streak)
    indexed = service.registry
    reference = SubscriptionRegistry(service.monitor, settle_streak=settle_streak)

    def register_both(spec):
        if spec.get("id") in indexed:
            return
        _register(indexed, spec)
        _register(reference, spec)

    for spec in initial:
        register_both(spec)
    for op, arg in steps:
        if op == "register":
            register_both(arg)
        elif op in ("unregister", "reregister"):
            ids = list(indexed.answers())
            if not ids:
                continue
            victim = ids[arg % len(ids)]
            spec = indexed.get(victim).to_dict()
            indexed.unregister(victim)
            reference.unregister(victim)
            if op == "reregister":
                register_both(spec)
        else:
            service.monitor.ingest(arg)
            service.oracle.observe(service.monitor.network)
            depths = {"indexed": set(), "reference": set()}

            def recording(side):
                def ball(depth):
                    depths[side].add(depth)
                    return service.oracle.last_changed_ball(depth)

                return ball

            round_index = service.monitor.round_index
            evaluated_before = indexed.evaluated
            skipped_before = indexed.skipped
            fired = indexed.evaluate_round(recording("indexed"), round_index)
            expected = linear_sweep(reference, recording("reference"), round_index)
            assert fired == expected
            assert depths["indexed"] == depths["reference"]
            assert _state(indexed) == _state(reference)
            assert (indexed.evaluated - evaluated_before) + (
                indexed.skipped - skipped_before
            ) == len(indexed)
    return indexed


HYP = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestIndexMatchesLinearSweep:
    @settings(**HYP)
    @given(case=streams("clique"))
    def test_clique_edge_triangle_and_clique_subscriptions(self, case):
        run_against_reference("clique", *case)

    @settings(**HYP)
    @given(case=streams("cycles"))
    def test_cycle_subscriptions_watching_several_nodes(self, case):
        run_against_reference("cycles", *case)

    def test_fixed_stream_with_every_kind_of_step(self):
        specs = [
            {"kind": "edge", "node": 0, "u": 1, "w": 2},
            {"kind": "triangle", "members": [0, 1, 2]},
            {"kind": "clique", "members": [4, 5, 6, 7], "ask": 7},
        ]
        steps = [
            ("batch", RoundChanges.inserts([(0, 1), (1, 2), (0, 2)])),
            ("reregister", 1),
            ("batch", RoundChanges.empty()),
            ("register", {"kind": "triangle", "members": [5, 6, 7], "id": "a"}),
            ("batch", RoundChanges.inserts([(4, 5), (5, 6), (6, 7), (4, 6), (4, 7), (5, 7)])),
            ("unregister", 0),
            ("batch", RoundChanges.deletes([(0, 1)])),
        ] + [("batch", RoundChanges.empty())] * 8
        registry = run_against_reference("clique", specs, steps, 3)
        # Re-registering moves a subscription to the end of the order.
        assert list(registry.answers()) == ["sub-0003", "sub-0002", "a"]
        assert registry.fired > 0


# --------------------------------------------------------------------------- #
# Index maintenance
# --------------------------------------------------------------------------- #
def settled_service(*triangles):
    service = MonitorService(12, "triangle")
    ids = [service.subscribe("triangle", members=members) for members in triangles]
    for _ in range(4):
        service.tick()
    return service, ids


class TestIndexMaintenance:
    def test_unregistered_subscription_is_never_evaluated_again(self):
        service, (gone, kept) = settled_service([0, 1, 2], [0, 2, 3])
        service.ingest(RoundChanges.inserts([(0, 1)]))
        removed, other = service.registry.get(gone), service.registry.get(kept)
        assert removed.dirty and other.dirty
        evaluations = (removed.evaluations, other.evaluations)
        service.unsubscribe(gone)
        service.tick()
        service.ingest(RoundChanges.inserts([(1, 2), (0, 2)]))
        for _ in range(4):
            service.tick()
        assert removed.evaluations == evaluations[0]
        assert other.evaluations > evaluations[1]

    def test_unregistered_id_can_be_registered_again(self):
        service, _ = settled_service()
        service.subscribe("triangle", members=[0, 1, 2], subscription_id="x")
        old = service.registry.get("x")
        service.unsubscribe("x")
        assert service.subscribe("triangle", members=[5, 6, 7], subscription_id="x") == "x"
        new = service.registry.get("x")
        assert new is not old and new.params["members"] == [5, 6, 7]
        service.ingest(RoundChanges.inserts([(0, 1), (5, 6)]))
        assert old.evaluations == 1  # only the registration probe
        assert new.evaluations == 2

    def test_every_round_accounts_for_every_subscription(self):
        service, _ = settled_service([0, 1, 2], [3, 4, 5], [6, 7, 8], [1, 2, 3])
        batches = [
            RoundChanges.inserts([(0, 1), (1, 2)]),
            RoundChanges.empty(),
            RoundChanges.inserts([(6, 7)]),
            RoundChanges.deletes([(0, 1)]),
        ] + [RoundChanges.empty()] * 5
        registry = service.registry
        for i, batch in enumerate(batches):
            if i == 2:
                service.subscribe("triangle", members=[9, 10, 11])
            if i == 3:
                service.unsubscribe("sub-0002")
            before = registry.evaluated + registry.skipped
            service.ingest(batch)
            assert registry.evaluated + registry.skipped - before == len(registry)

    def test_quiet_round_evaluates_only_still_dirty_subscriptions(self):
        service, ids = settled_service([0, 1, 2], [3, 4, 5], [8, 9, 10])
        registry = service.registry
        service.ingest(RoundChanges.inserts([(0, 1)]))
        dirty = {sid for sid in ids if registry.get(sid).dirty}
        assert dirty == {ids[0]}
        evaluations = {sid: registry.get(sid).evaluations for sid in ids}
        evaluated = registry.evaluated
        service.tick()
        assert registry.evaluated - evaluated == len(dirty)
        moved = {sid for sid in ids if registry.get(sid).evaluations != evaluations[sid]}
        assert moved == dirty
