"""Property-based tests (hypothesis): random schedules against the oracle.

These tests generate arbitrary legal insertion/deletion schedules (and whole
random experiment cells, via :mod:`strategies`) and check the paper's
invariants on every one of them:

* Theorem 7 -- the robust 2-hop structure equals ``R^{v,2}`` once drained;
* Theorem 1 -- the triangle structure equals ``T^{v,2}`` once drained, and
  never believes in a triangle that does not exist while it claims consistency;
* Theorem 6 -- the robust 3-hop structure satisfies its sandwich once drained;
* the simulator's amortized accounting never exceeds the number of rounds;
* the dense and sparse engines produce bit-identical round records,
  traces, metrics and final node state on arbitrary cells -- with and without
  fault models and telemetry (the differential harness of
  :mod:`repro.verification`), and so does the sparse policy's columnar batch
  transport on the algorithms ported to it.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import ScriptedAdversary
from repro.core import RobustThreeHopNode, RobustTwoHopNode, TriangleMembershipNode
from repro.oracle import (
    khop_edges,
    robust_three_hop,
    robust_two_hop,
    triangle_pattern_set,
    triangles_containing,
)
from repro.simulator import RoundChanges, SimulationRunner
from repro.verification import run_differential

from strategies import PORTED_ALGORITHMS, churn_schedules, experiment_specs

N_NODES = 8


def schedules(max_rounds: int = 14, max_events_per_round: int = 3):
    """The shared schedule strategy, pinned to this module's network size."""
    return churn_schedules(
        n=N_NODES, max_rounds=max_rounds, max_events_per_round=max_events_per_round
    )


def run_to_quiescence(factory, rounds):
    runner = SimulationRunner(
        n=N_NODES,
        algorithm_factory=factory,
        adversary=ScriptedAdversary(rounds),
    )
    return runner.run()


HYP_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRobustTwoHopProperties:
    @settings(**HYP_SETTINGS)
    @given(rounds=schedules())
    def test_equals_robust_set_after_drain(self, rounds):
        result = run_to_quiescence(RobustTwoHopNode, rounds)
        times = result.network.insertion_times()
        for v, node in result.nodes.items():
            assert node.known_edges() == robust_two_hop(result.network.edges, times, v)

    @settings(**HYP_SETTINGS)
    @given(rounds=schedules())
    def test_amortized_bound(self, rounds):
        result = run_to_quiescence(RobustTwoHopNode, rounds)
        if result.metrics.total_changes:
            assert result.metrics.max_running_amortized_complexity() <= 1.0 + 1e-9


class TestTriangleProperties:
    @settings(**HYP_SETTINGS)
    @given(rounds=schedules())
    def test_equals_pattern_set_and_triangles_after_drain(self, rounds):
        result = run_to_quiescence(TriangleMembershipNode, rounds)
        network = result.network
        times = network.insertion_times()
        for v, node in result.nodes.items():
            assert node.known_edges() == triangle_pattern_set(network.edges, times, v)
            assert node.known_triangles() == triangles_containing(network.edges, v)

    @settings(**HYP_SETTINGS)
    @given(rounds=schedules(max_rounds=10))
    def test_consistent_nodes_never_invent_triangles_mid_run(self, rounds):
        """Checked at every round: TRUE answers from consistent nodes are real."""
        violations = []

        def validator(round_index, network, nodes):
            for v, node in nodes.items():
                if not node.is_consistent():
                    continue
                for tri in node.known_triangles():
                    a, b, c = sorted(tri)
                    if not (
                        network.has_edge(a, b)
                        and network.has_edge(a, c)
                        and network.has_edge(b, c)
                    ):
                        violations.append((round_index, v, (a, b, c)))

        runner = SimulationRunner(
            n=N_NODES,
            algorithm_factory=TriangleMembershipNode,
            adversary=ScriptedAdversary(rounds),
            validators=[validator],
        )
        runner.run()
        assert not violations


class TestRobustThreeHopProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(rounds=schedules(max_rounds=10))
    def test_sandwich_after_drain(self, rounds):
        result = run_to_quiescence(RobustThreeHopNode, rounds)
        network = result.network
        times = network.insertion_times()
        for v, node in result.nodes.items():
            known = node.known_edges()
            assert robust_three_hop(network.edges, times, v) <= known
            assert known <= khop_edges(network.edges, v, 3)


class TestMetricsProperties:
    @settings(**HYP_SETTINGS)
    @given(rounds=schedules())
    def test_inconsistent_rounds_never_exceed_rounds_executed(self, rounds):
        result = run_to_quiescence(RobustTwoHopNode, rounds)
        assert result.metrics.inconsistent_rounds <= result.metrics.rounds_executed
        assert result.metrics.total_changes == sum(len(i) + len(d) for i, d in rounds)


class TestEngineDifferentialProperties:
    """Random cells through the differential harness: all engines must agree."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(spec=experiment_specs())
    def test_dense_sparse_identical(self, spec):
        report = run_differential(spec, auto_checks=True)
        assert report.ok, report.describe()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(spec=experiment_specs(algorithms=PORTED_ALGORITHMS))
    def test_dense_sparse_columnar_identical(self, spec):
        """Ported algorithms only, so the sparse leg rides the columnar transport."""
        report = run_differential(spec, auto_checks=True)
        assert report.ok, report.describe()

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(spec=experiment_specs(with_faults=True), telemetry=st.booleans())
    def test_all_modes_faults_telemetry_identical(self, spec, telemetry):
        """The full matrix: every engine x (maybe) a fault model x telemetry.

        Fingerprint identity must hold with the telemetry singleton enabled
        exactly as with it off.
        """
        from repro.obs import TELEMETRY

        if telemetry:
            TELEMETRY.enable()
        try:
            report = run_differential(spec)
        finally:
            if telemetry:
                TELEMETRY.disable()
        assert report.ok, report.describe()
