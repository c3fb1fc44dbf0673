"""Tests for the standing-subscription layer."""

import random
from itertools import combinations

import pytest

from repro import RoundChanges
from repro.core import QueryResult
from repro.obs import TELEMETRY
from repro.serve import MonitorService
from repro.serve.subscriptions import (
    SUBSCRIPTION_KINDS,
    AnswerChanged,
    SubscriptionRegistry,
)
from repro.serve.core import MonitorAnswer, ServingMonitor


def triangle_service(n=12, **kwargs):
    return MonitorService(n, "triangle", **kwargs)


class TestRegistration:
    def test_auto_ids_are_sequential(self):
        service = triangle_service()
        assert service.subscribe("triangle", members=[0, 1, 2]) == "sub-0001"
        assert service.subscribe("triangle", members=[1, 2, 3]) == "sub-0002"
        assert len(service.registry) == 2

    def test_auto_ids_skip_explicitly_taken_ids(self):
        service = triangle_service()
        service.subscribe("triangle", members=[0, 1, 2], subscription_id="sub-0001")
        assert service.subscribe("triangle", members=[1, 2, 3]) == "sub-0002"
        assert len(service.registry) == 2
        assert service.registry.get("sub-0001").params["members"] == [0, 1, 2]

    def test_failed_registration_does_not_burn_an_id(self):
        service = MonitorService(12, "robust2hop")
        with pytest.raises(ValueError, match="cannot answer 'triangle'"):
            service.subscribe("triangle", members=[0, 1, 2])
        assert service.subscribe("edge", node=0, u=0, w=1) == "sub-0001"

    def test_explicit_id_and_duplicates(self):
        service = triangle_service()
        service.subscribe("triangle", members=[0, 1, 2], subscription_id="mine")
        assert "mine" in service.registry
        with pytest.raises(ValueError, match="already registered"):
            service.subscribe("triangle", members=[3, 4, 5], subscription_id="mine")

    def test_unregister(self):
        service = triangle_service()
        sid = service.subscribe("triangle", members=[0, 1, 2])
        service.unsubscribe(sid)
        assert sid not in service.registry
        with pytest.raises(KeyError):
            service.unsubscribe(sid)

    def test_unknown_kind(self):
        service = triangle_service()
        with pytest.raises(ValueError, match="unknown subscription kind"):
            service.subscribe("square", members=[0, 1, 2, 3])
        assert set(SUBSCRIPTION_KINDS) == {"edge", "triangle", "clique", "cycle"}

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("triangle", {"members": [0, 1]}, "3 distinct members"),
            ("triangle", {"members": [0, 1, 1]}, "3 distinct members"),
            ("triangle", {"members": [0, 1, 99]}, "member"),
            ("triangle", {"members": [0, 1, 2], "extra": 1}, "unexpected"),
            ("edge", {"node": 0, "u": 0, "w": True}, "integer"),
            ("edge", {"node": 0, "u": 0, "w": 1, "x": 2}, "unexpected"),
            ("clique", {"members": [0, 1]}, "distinct members"),
            ("cycle", {"members": [0, 1, 2, 3], "ask": 0}, "collectively"),
            ("triangle", {"ask": 1}, "a triangle subscription needs 'members'"),
            ("edge", {"node": 0, "u": 1}, "an edge subscription needs 'w'"),
            ("cycle", {}, "a cycle subscription needs 'members'"),
            ("edge", {"node": 0, "u": 1, "w": 1}, "an edge subscription needs u != w"),
            ("triangle", {"members": 5}, "'members' must be a list of node ids, got 5"),
            ("triangle", {"members": [0, 1, 2], "ask": 1.0}, "ask must be an integer"),
        ],
    )
    def test_bad_params(self, kind, params, message):
        service = MonitorService(12, "cycles" if kind == "cycle" else "clique")
        with pytest.raises(ValueError, match=message):
            service.subscribe(kind, **params)

    def test_register_all_specs(self):
        service = triangle_service()
        ids = service.registry.register_all(
            [
                {"id": "a", "kind": "triangle", "members": [0, 1, 2]},
                {"kind": "triangle", "members": [1, 2, 3]},
            ]
        )
        assert ids == ["a", "sub-0001"]
        with pytest.raises(ValueError, match="'kind'"):
            service.registry.register_all([{"members": [0, 1, 2]}])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (5, "a subscription spec must be an object, got 5 (at subscriptions[1])"),
            ("abc", "a subscription spec must be an object, got 'abc' (at subscriptions[1])"),
            (
                {"id": ["x"], "kind": "edge", "node": 0, "u": 0, "w": 1},
                "'id' must be a string, got ['x'] (at subscriptions[1])",
            ),
            (
                {"kind": "clique", "members": [0, 1, 2, 3], "ask": 7},
                "'ask' must be one of the members [0, 1, 2, 3], got 7 (at subscriptions[1])",
            ),
        ],
    )
    def test_malformed_specs_name_their_position_and_field(self, bad, message):
        registry = MonitorService(12, "clique").registry
        good = {"id": "ok", "kind": "triangle", "members": [0, 1, 2]}
        with pytest.raises(ValueError) as exc:
            registry.register_all([good, bad])
        assert message in str(exc.value)

    def test_register_rejects_a_non_string_id(self):
        with pytest.raises(ValueError, match="'id' must be a string, got 3"):
            triangle_service().subscribe("triangle", members=[0, 1, 2], subscription_id=3)

    def test_registry_validates_settle_streak(self):
        monitor = ServingMonitor(6, "triangle")
        with pytest.raises(ValueError):
            SubscriptionRegistry(monitor, settle_streak=0)


class TestIncrementalEvaluation:
    def test_notifications_fire_on_answer_changes(self):
        service = triangle_service()
        sid = service.subscribe("triangle", members=[0, 1, 2])
        fired = []
        for batch in ([(0, 1), (1, 2)], [(0, 2)]):
            fired += service.ingest(RoundChanges.inserts(batch))
        for _ in range(10):
            fired += service.tick()
        values = [(note.new.value, note.new.definite) for note in fired]
        assert values[-1] == (True, True)
        assert all(isinstance(note, AnswerChanged) for note in fired)
        assert fired[-1].subscription_id == sid
        assert fired[-1].kind == "triangle"

    def test_untouched_subscriptions_are_skipped(self):
        service = triangle_service(n=20)
        near = service.subscribe("triangle", members=[0, 1, 2])
        far = service.subscribe("triangle", members=[15, 16, 17])
        # Let both settle from their registration-dirty state.
        for _ in range(6):
            service.tick()
        skipped_before = service.registry.skipped
        far_evals = service.registry.get(far).evaluations
        service.ingest(RoundChanges.inserts([(0, 1)]))
        # The far subscription was not in the 2-hop ball of the change.
        assert service.registry.get(far).evaluations == far_evals
        assert service.registry.skipped > skipped_before
        assert service.registry.get(near).dirty

    def test_dirty_clears_after_settle_streak(self):
        service = triangle_service(settle_streak=2)
        sid = service.subscribe("triangle", members=[0, 1, 2])
        service.ingest(RoundChanges.inserts([(0, 1), (1, 2), (0, 2)]))
        sub = service.registry.get(sid)
        assert sub.dirty
        for _ in range(20):
            service.tick()
        assert not sub.dirty
        evals = sub.evaluations
        service.tick()
        assert sub.evaluations == evals  # settled -> skipped

    def test_answers_snapshot(self):
        service = triangle_service()
        sid = service.subscribe("triangle", members=[0, 1, 2])
        answers = service.registry.answers()
        assert answers[sid] == MonitorAnswer(value=False, definite=True)

    def test_notification_to_dict_is_engine_comparable(self):
        note = AnswerChanged(
            subscription_id="s",
            kind="edge",
            round_index=3,
            old=None,
            new=MonitorAnswer(value=True, definite=True),
        )
        assert note.to_dict() == {
            "subscription_id": "s",
            "kind": "edge",
            "round_index": 3,
            "old": None,
            "new": [True, True],
        }


class TestKinds:
    def test_edge_subscription(self):
        service = MonitorService(8, "robust2hop")
        sid = service.subscribe("edge", node=0, u=1, w=2)
        fired = list(service.ingest(RoundChanges.inserts([(0, 1), (1, 2)])))
        for _ in range(8):
            fired += service.tick()
        assert fired and fired[-1].new.value is True
        assert service.registry.get(sid).params == {"node": 0, "u": 1, "w": 2}

    def test_clique_subscription(self):
        service = MonitorService(8, "clique")
        sid = service.subscribe("clique", members=[0, 1, 2, 3])
        fired = []
        for a in range(4):
            for b in range(a + 1, 4):
                fired += service.ingest(RoundChanges.inserts([(a, b)]))
        for _ in range(12):
            fired += service.tick()
        assert fired[-1].new.value is True

    def test_cycle_subscription(self):
        service = MonitorService(8, "cycles")
        service.subscribe("cycle", members=[0, 1, 2, 3])
        fired = []
        for edge in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            fired += service.ingest(RoundChanges.inserts([edge]))
        for _ in range(12):
            fired += service.tick()
        assert fired[-1].new.value is True


# --------------------------------------------------------------------------- #
# The compiled query path against the public helpers
# --------------------------------------------------------------------------- #
N = 9
#: Each structure with the subscription kinds it answers.
ANSWERS = {
    "robust2hop": ("edge",),
    "triangle": ("edge", "triangle"),
    "clique": ("edge", "triangle", "clique"),
    "robust3hop": ("edge",),
    "cycles": ("edge", "cycle"),
    "twohop": ("edge", "triangle"),
}


def _specs(kind):
    """A spread of subscriptions of one kind over ``range(N)``."""
    if kind == "edge":
        return [{"kind": "edge", "node": v, "u": a, "w": b}
                for v in (0, 4) for a, b in combinations(range(6), 2)]
    if kind == "triangle":
        return [{"kind": "triangle", "members": list(t), "ask": t[i % 3]}
                for i, t in enumerate(combinations(range(6), 3))]
    if kind == "clique":
        return [{"kind": "clique", "members": list(c), "ask": c[i % 4]}
                for i, c in enumerate(combinations(range(6), 4))]
    return [{"kind": "cycle", "members": list(c)}
            for size in (4, 5) for c in combinations(range(6), size)]


def _helper_answer(monitor, sub):
    """The same question asked through the monitor's public helpers."""
    params = sub.params
    if sub.kind == "edge":
        return monitor.knows_edge(params["node"], params["u"], params["w"])
    if sub.kind == "triangle":
        return monitor.is_triangle(*params["members"], ask=params["ask"])
    if sub.kind == "clique":
        return monitor.is_clique(params["members"], ask=params["ask"])
    return monitor.list_cycle(params["members"])


def _churn(seed, rounds=40, quiet=12):
    """Seeded legal batches, mostly among nodes 0-5 and some reaching 6-8, then quiet rounds."""
    rng = random.Random(seed)
    pairs = list(combinations(range(6), 2)) + [(5, 7), (6, 7), (7, 8)]
    present = set()
    batches = []
    for _ in range(rounds):
        inserts, deletes = [], []
        for pair in rng.sample(pairs, rng.randint(0, 4)):
            (deletes if pair in present else inserts).append(pair)
            present.symmetric_difference_update({pair})
        batches.append(RoundChanges.of(inserts, deletes))
    return batches + [RoundChanges.empty()] * quiet


class TestCompiledQueries:
    @pytest.fixture(params=[False, True], ids=["telemetry-off", "telemetry-on"])
    def telemetry(self, request):
        if request.param:
            TELEMETRY.enable()
        yield request.param
        TELEMETRY.disable()

    @pytest.mark.parametrize(
        "structure, kind",
        [(structure, kind) for structure, kinds in ANSWERS.items() for kind in kinds],
    )
    def test_every_evaluation_equals_the_public_helper(self, structure, kind, telemetry):
        service = MonitorService(N, structure)
        registry = service.registry
        registry.register_all(_specs(kind))
        subs = [registry.get(sid) for sid in registry.answers()]
        seen = set()
        for batch in _churn(seed=11):
            before = [sub.evaluations for sub in subs]
            service.ingest(batch)
            for sub, evaluations in zip(subs, before):
                if sub.evaluations > evaluations:
                    expected = _helper_answer(service.monitor, sub)
                    assert sub.answer == expected, sub.to_dict()
                    assert sub.answer is expected
                    seen.add(sub.answer)
        assert registry.evaluated > 0
        # Every kind saw a definite answer; the schedule is not vacuous.
        assert {answer.definite for answer in seen} >= {True}

    def test_schedule_reaches_all_three_answers(self):
        service = MonitorService(N, "clique")
        service.registry.register_all(_specs("triangle") + _specs("clique"))
        seen = set()
        for batch in _churn(seed=11):
            service.ingest(batch)
            seen.update(service.registry.answers().values())
        assert seen == {
            MonitorAnswer(True, True), MonitorAnswer(False, True), MonitorAnswer(None, False)
        }

    def test_answers_are_three_shared_values(self):
        shared = {result: MonitorAnswer.from_result(result) for result in QueryResult}
        for result in QueryResult:
            assert MonitorAnswer.from_result(result) is shared[result]
        assert shared[QueryResult.TRUE] == MonitorAnswer(True, True)
        assert shared[QueryResult.FALSE] == MonitorAnswer(False, True)
        assert shared[QueryResult.INCONSISTENT] == MonitorAnswer(None, False)
        monitor = ServingMonitor(6, "cycles")
        assert monitor.list_cycle([0, 1, 2, 3]) is shared[QueryResult.FALSE]
        assert monitor.knows_edge(0, 1, 2) is shared[QueryResult.FALSE]
        monitor.update(insert=[(0, 1), (1, 2), (2, 3), (0, 3)])
        assert monitor.list_cycle([0, 1, 2, 3]) is shared[QueryResult.INCONSISTENT]
        monitor.settle()
        assert monitor.list_cycle([0, 1, 2, 3]) is shared[QueryResult.TRUE]

    def test_telemetry_counts_one_answer_per_evaluation(self):
        service = MonitorService(N, "clique")
        registry = service.registry
        registry.register_all(_specs("edge") + _specs("triangle") + _specs("clique"))
        TELEMETRY.enable()
        try:
            for batch in _churn(seed=5):
                service.ingest(batch)
            histograms, counters = TELEMETRY.histograms, TELEMETRY.counters
            evaluations = registry.evaluated
            assert evaluations > 0
            assert histograms["monitor.query_latency_s"].count == evaluations
            assert histograms["serve.answer_latency_s"].count == evaluations
            assert (
                counters["monitor.queries_definite"] + counters["monitor.queries_indefinite"]
                == evaluations
            )
            assert counters["serve.subscriptions_evaluated"] == evaluations
        finally:
            TELEMETRY.disable()
