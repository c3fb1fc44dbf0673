"""Tests for the application-facing ServingMonitor API."""

import pytest

from repro import MonitorAnswer, ServingMonitor
from repro.core import QueryResult, TriangleMembershipNode
from repro.oracle import triangles_containing


class TestMonitorAnswer:
    def test_from_result(self):
        assert MonitorAnswer.from_result(QueryResult.TRUE) == MonitorAnswer(True, True)
        assert MonitorAnswer.from_result(QueryResult.FALSE) == MonitorAnswer(False, True)
        indefinite = MonitorAnswer.from_result(QueryResult.INCONSISTENT)
        assert indefinite.value is None and not indefinite.definite

    def test_truthiness(self):
        assert MonitorAnswer(True, True)
        assert not MonitorAnswer(False, True)
        assert not MonitorAnswer(None, False)


class TestConstruction:
    def test_named_structures(self):
        for name in ("robust2hop", "triangle", "clique", "robust3hop", "cycles", "twohop"):
            monitor = ServingMonitor(6, structure=name)
            assert monitor.structure_name == name

    def test_custom_factory(self):
        monitor = ServingMonitor(6, structure=TriangleMembershipNode)
        assert monitor.structure_name == "TriangleMembershipNode"

    def test_unknown_structure_rejected(self):
        with pytest.raises(ValueError):
            ServingMonitor(6, structure="magic")

    def test_serial_engine_modes_accepted(self):
        for mode in ("dense", "sparse"):
            monitor = ServingMonitor(6, engine_mode=mode)
            assert monitor.engine_mode == mode

    def test_sharded_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="sharded"):
            ServingMonitor(6, engine_mode="sharded")

    def test_is_a_serving_monitor(self):
        """The package root exports the serving monitor, not the old alias."""
        import repro
        from repro.serve import ServingMonitor as served

        assert repro.ServingMonitor is served
        assert not hasattr(repro, "DynamicGraphMonitor")


class TestTriangleAndCliqueQueries:
    def test_triangle_lifecycle(self):
        monitor = ServingMonitor(8, structure="clique")
        monitor.update(insert=[(0, 1), (1, 2)])
        monitor.update(insert=[(0, 2)])
        monitor.settle()
        assert monitor.all_consistent
        assert monitor.is_triangle(0, 1, 2).value is True
        assert monitor.is_triangle(0, 1, 3).value is False
        monitor.update(delete=[(1, 2)])
        monitor.settle()
        assert monitor.is_triangle(0, 1, 2).value is False

    def test_answers_can_be_indefinite_mid_propagation(self):
        monitor = ServingMonitor(8, structure="clique")
        monitor.update(insert=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)])
        # Right after a burst some node is still propagating.
        answers = [monitor.is_triangle(0, 1, 2, ask=v) for v in (0, 1, 2)]
        assert any(not a.definite for a in answers)
        monitor.settle()
        assert monitor.is_triangle(0, 1, 2).definite

    def test_clique_queries(self):
        monitor = ServingMonitor(8, structure="clique")
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        for edge in edges:
            monitor.update(insert=[edge])
        monitor.settle()
        assert monitor.is_clique([0, 1, 2, 3]).value is True
        assert monitor.cliques_of(0, 4) == {frozenset({0, 1, 2, 3})}

    def test_enumeration_matches_oracle(self):
        monitor = ServingMonitor(10, structure="triangle")
        import numpy as np

        rng = np.random.default_rng(5)
        present = set()
        for _ in range(60):
            u, w = rng.integers(0, 10, size=2)
            if u == w:
                continue
            edge = (min(int(u), int(w)), max(int(u), int(w)))
            if edge in present:
                monitor.update(delete=[edge])
                present.discard(edge)
            else:
                monitor.update(insert=[edge])
                present.add(edge)
        monitor.settle()
        for v in range(10):
            assert monitor.triangles_of(v) == triangles_containing(monitor.edges, v)

    def test_enumeration_requires_capable_structure(self):
        monitor = ServingMonitor(6, structure="robust2hop")
        with pytest.raises(TypeError):
            monitor.triangles_of(0)
        with pytest.raises(TypeError):
            monitor.cliques_of(0, 3)


class TestCycleQueries:
    def test_collective_cycle_listing(self):
        monitor = ServingMonitor(8, structure="cycles")
        for edge in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            monitor.update(insert=[edge])
        monitor.settle()
        assert monitor.list_cycle([0, 1, 2, 3]).value is True
        assert monitor.list_cycle([0, 1, 2, 4]).value is False
        assert monitor.is_cycle((0, 1, 2, 3)).definite

    def test_list_cycle_requires_capable_structure(self):
        # Regression: this used to surface as a bare AttributeError from
        # getattr(node, "knows_cycle_set") instead of the clear TypeError the
        # other capability-gated helpers raise.
        monitor = ServingMonitor(8, structure="robust2hop")
        with pytest.raises(TypeError, match="cycle-listing"):
            monitor.list_cycle([0, 1, 2, 3])

    def test_cycles_of_enumeration(self):
        monitor = ServingMonitor(8, structure="cycles")
        for edge in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            monitor.update(insert=[edge])
        monitor.settle()
        found = set()
        for v in range(4):
            found |= monitor.cycles_of(v, 4)
        assert frozenset({0, 1, 2, 3}) in found


class TestBookkeeping:
    def test_edges_and_metrics(self):
        monitor = ServingMonitor(6, structure="robust2hop")
        monitor.update(insert=[(0, 1)])
        monitor.update(insert=[(1, 2)], delete=[(0, 1)])
        monitor.settle()
        assert monitor.edges == frozenset({(1, 2)})
        assert monitor.has_edge(1, 2) and not monitor.has_edge(0, 1)
        summary = monitor.metrics_summary()
        assert summary["total_changes"] == 3
        assert 0 <= monitor.amortized_round_complexity <= 1.0

    def test_fresh_monitor_is_consistent(self):
        monitor = ServingMonitor(4)
        assert monitor.all_consistent
        assert monitor.is_node_consistent(0)

    def test_knows_edge_query(self):
        monitor = ServingMonitor(6, structure="robust2hop")
        monitor.update(insert=[(0, 1)])
        monitor.update(insert=[(1, 2)])
        monitor.settle()
        assert monitor.knows_edge(0, 1, 2).value is True
        assert monitor.knows_edge(0, 2, 3).value is False


class TestEngineIdentity:
    """The same update stream must be bit-identical across serial engines."""

    STREAM = [
        {"insert": [(0, 1), (1, 2), (0, 2), (3, 4)]},
        {"insert": [(2, 3)], "delete": [(3, 4)]},
        {},
        {"insert": [(4, 5), (3, 5), (3, 4)]},
        {"delete": [(0, 2)]},
        {},
        {"insert": [(0, 2)]},
    ]

    def _drive(self, mode):
        monitor = ServingMonitor(8, structure="triangle", engine_mode=mode)
        # Sparse carries the triangle structure on the columnar batch
        # transport; dense always sends one envelope per link.
        assert (monitor.engine._port is not None) == (mode == "sparse")
        answers = []
        for batch in self.STREAM:
            monitor.update(**batch)
            answers.append(
                [monitor.is_triangle(0, 1, 2, ask=v) for v in range(3)]
            )
        monitor.settle()
        answers.append([monitor.is_triangle(3, 4, 5, ask=v) for v in (3, 4, 5)])
        return answers, monitor.metrics_summary(), monitor.state_fingerprint()

    def test_dense_sparse_columnar_identical(self):
        """Dense (per-envelope) and sparse (columnar transport) agree."""
        assert self._drive("sparse") == self._drive("dense")
