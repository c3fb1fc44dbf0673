"""Tests for the standing-subscription layer."""

import pytest

from repro import RoundChanges
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
