"""Shrinker invariants: reproduction, idempotence, legality, determinism.

The contracts pinned here (see ISSUE satellite "shrinker invariants"):

* every accepted ddmin step -- and therefore the final minimized schedule --
  still reproduces the original failure class;
* shrinking is idempotent (re-shrinking a minimized schedule is a no-op);
* every candidate handed to the harness is legal (``legalize`` invariants);
* minimized schedules replay deterministically across engines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec
from repro.fuzz.injected import inject_bug
from repro.fuzz.shrink import Shrinker, legalize, materialize_trace, shrink_failure
from repro.fuzz.signature import FailureSignature, evaluate_spec, trace_fingerprint
from repro.simulator.network import DynamicNetwork

from strategies import churn_schedules
from test_fuzz_generators import replay_through_network


@pytest.fixture
def ghost_bug():
    restore = inject_bug("triangle_ghost_deletes")
    yield
    restore()


@pytest.fixture
def latch_bug():
    restore = inject_bug("robust2hop_quiescence_latch")
    yield
    restore()


def failing_fuzz_spec(algorithm: str, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm=algorithm, adversary="fuzz", n=8, rounds=30, seed=seed,
        adversary_params={"profile": "mixed", "max_events_per_round": 3},
    )


def first_failing_spec(algorithm: str, base_seed: int, limit: int = 12):
    """The first fuzz cell (from ``base_seed``) that fails on this build.

    The injected bugs fail on most schedules but not every one, and the
    schedule stream may legitimately change as generator phases evolve --
    probing keeps these tests pinned to behavior, not to one frozen seed.
    """
    for i in range(limit):
        spec = failing_fuzz_spec(algorithm, base_seed + i)
        signature, _ = evaluate_spec(spec)
        if signature.is_failure:
            return spec, signature
    raise AssertionError(f"no failing schedule within {limit} seeds of {base_seed}")


class TestLegalize:
    @settings(max_examples=30, deadline=None)
    @given(rounds=churn_schedules(n=7, max_rounds=12))
    def test_legal_schedules_pass_through_unchanged(self, rounds):
        canonical = [
            (sorted(map(tuple, ins)), sorted(map(tuple, dels))) for ins, dels in rounds
        ]
        assert legalize(canonical) == canonical

    def test_orphaned_events_are_dropped(self):
        rounds = [
            ([(0, 1)], [(2, 3)]),        # delete of a never-inserted edge
            ([(0, 1)], []),              # duplicate insert
            ([], [(0, 1)]),              # fine
            ([], [(0, 1)]),              # edge already gone
        ]
        assert legalize(rounds) == [
            ([(0, 1)], []),
            ([], []),
            ([], [(0, 1)]),
            ([], []),
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4),
                st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4),
            ),
            max_size=8,
        )
    )
    def test_output_is_always_legal(self, data):
        rounds = [
            (
                [tuple(sorted(e)) for e in ins if e[0] != e[1]],
                [tuple(sorted(e)) for e in dels if e[0] != e[1]],
            )
            for ins, dels in data
        ]
        legal = legalize(rounds)
        network = DynamicNetwork(6)
        from repro.simulator.events import RoundChanges

        for i, (ins, dels) in enumerate(legal):
            network.apply_changes(i + 1, RoundChanges.of(insert=ins, delete=dels))


class TestFailureSignature:
    def test_matching_is_intersection_on_classes(self):
        a = FailureSignature(checks=(("triangle_oracle", "known_triangles"),))
        b = FailureSignature(
            checks=(("triangle_oracle", "known_triangles"), ("consistent", "is_consistent"))
        )
        c = FailureSignature(divergences=(("final_state", "state_fingerprint"),))
        assert a.matches(b) and b.matches(a)
        assert not a.matches(c)
        assert not FailureSignature().matches(a)

    def test_round_trip(self):
        sig = FailureSignature(
            divergences=(("trace", "realized_schedule"),),
            checks=(("no_ghost_triangles", "known_triangles"),),
            errors=("RuntimeError",),
        )
        assert FailureSignature.from_dict(sig.to_dict()) == sig

    def test_fingerprint_is_content_addressed(self):
        rounds = [([(0, 1)], []), ([], [(0, 1)])]
        assert trace_fingerprint("triangle", 4, rounds) == trace_fingerprint(
            "triangle", 4, [(list(ins), list(dels)) for ins, dels in rounds]
        )
        assert trace_fingerprint("triangle", 4, rounds) != trace_fingerprint(
            "clique", 4, rounds
        )
        assert trace_fingerprint("triangle", 4, rounds) != trace_fingerprint(
            "triangle", 5, rounds
        )


class TestMaterializeTrace:
    def test_scripted_inline(self):
        trace = {"n": 4, "rounds": [{"insert": [[0, 1]], "delete": []}]}
        spec = ExperimentSpec(
            algorithm="triangle", adversary="scripted", n=4, adversary_params={"trace": trace}
        )
        assert materialize_trace(spec).rounds == [([(0, 1)], [])]

    def test_fuzz_regenerates_the_exact_schedule(self):
        spec = failing_fuzz_spec("triangle", seed=123)
        a = materialize_trace(spec)
        b = materialize_trace(spec)
        assert a.rounds == b.rounds and a.num_rounds == 30

    def test_open_loop_adversaries_are_re_driven(self):
        spec = ExperimentSpec(
            algorithm="triangle", adversary="churn", n=6, rounds=10, seed=3,
            adversary_params={"inserts_per_round": 2, "deletes_per_round": 1},
        )
        trace = materialize_trace(spec)
        assert trace.num_rounds == 10
        replay_through_network(trace)


class TestDdmin:
    def test_ddmin_reaches_a_minimal_core(self):
        core = {3, 7}
        tried = []

        def reproduces(items):
            tried.append(list(items))
            return core <= set(items)

        result = Shrinker._ddmin(list(range(10)), reproduces)
        assert set(result) == core
        # every *accepted* step reproduced: re-check the accepted chain
        assert all(reproduces(result) for _ in [0])

    def test_ddmin_single_item(self):
        assert Shrinker._ddmin([1], lambda items: 1 in items) == [1]
        assert Shrinker._ddmin([1], lambda items: True) == []


class TestShrinkerEndToEnd:
    def test_ghost_bug_shrinks_to_single_digit_rounds(self, ghost_bug):
        spec, signature = first_failing_spec("triangle", base_seed=7_000_021)

        accepted = []
        shrinker = Shrinker(
            progress=lambda event, detail: accepted.append((event, detail)),
        )
        result = shrinker.shrink(
            _scripted(spec), signature
        )
        # the acceptance bar: a one-screen reproducer
        assert result.rounds_after <= 10
        assert result.events_after <= 10
        assert result.rounds_after < result.rounds_before
        # the minimized spec still reproduces the original failure class
        observed, _ = evaluate_spec(result.minimized)
        assert observed.matches(signature)
        # the verdict cache did real work
        assert result.cache_hits > 0
        assert result.candidates_tried > 0

    def test_shrinking_is_idempotent_and_deterministic(self, ghost_bug):
        spec = _scripted(first_failing_spec("triangle", base_seed=7_000_021)[0])
        first = shrink_failure(spec)
        again = shrink_failure(spec)
        assert first.minimized.to_dict() == again.minimized.to_dict()
        second = shrink_failure(first.minimized, first.signature)
        assert second.minimized.adversary_params["trace"] == first.minimized.adversary_params["trace"]
        assert second.rounds_after == first.rounds_after
        assert second.accepted_steps == 0

    def test_minimized_schedule_is_legal_and_strict(self, ghost_bug):
        result = shrink_failure(_scripted(first_failing_spec("triangle", base_seed=7_000_021)[0]))
        trace = materialize_trace(result.minimized)
        replay_through_network(trace)
        assert trace.max_node_id() < result.minimized.n

    def test_divergence_class_shrinks_and_renames_nodes(self, latch_bug):
        spec = _scripted(first_failing_spec("robust2hop", base_seed=1_000_003)[0])
        result = shrink_failure(spec)
        assert result.signature.divergences or result.signature.errors
        assert result.rounds_after <= 10
        # the latch bug is node-id independent, so the renaming pass lands
        assert result.n_after < result.n_before
        observed, _ = evaluate_spec(result.minimized)
        assert observed.matches(result.signature)

    def test_refuses_to_shrink_a_passing_cell(self):
        spec = _scripted(failing_fuzz_spec("triangle", seed=1))
        with pytest.raises(ValueError, match="does not fail"):
            shrink_failure(spec)


def _scripted(spec: ExperimentSpec) -> ExperimentSpec:
    data = spec.to_dict()
    data.update(
        adversary="scripted",
        rounds=None,
        adversary_params={"trace": materialize_trace(spec).to_dict()},
    )
    return ExperimentSpec.from_dict(data)
