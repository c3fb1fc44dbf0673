"""Unit tests for the ground-truth dynamic graph."""

import pytest

from repro.simulator.events import RoundChanges
from repro.simulator.network import DynamicNetwork, TopologyError


class TestConstruction:
    def test_starts_empty(self):
        net = DynamicNetwork(5)
        assert net.num_edges == 0
        assert net.round_index == 0
        assert list(net.nodes) == [0, 1, 2, 3, 4]
        assert net.total_changes == 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DynamicNetwork(0)


class TestApplyChanges:
    def test_insert_and_indications(self):
        net = DynamicNetwork(4)
        indications = net.apply_changes(1, RoundChanges.inserts([(0, 1), (2, 3)]))
        assert net.has_edge(0, 1) and net.has_edge(3, 2)
        assert net.num_edges == 2
        assert indications[0].inserted == (1,)
        assert indications[1].inserted == (0,)
        assert indications[2].inserted == (3,)
        assert 0 not in indications[2].inserted
        assert net.total_changes == 2

    def test_delete_and_indications(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        indications = net.apply_changes(2, RoundChanges.deletes([(1, 0)]))
        assert not net.has_edge(0, 1)
        assert indications[0].deleted == (1,)
        assert indications[1].deleted == (0,)

    def test_insertion_time_tracks_latest(self):
        net = DynamicNetwork(3)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        assert net.insertion_time(0, 1) == 1
        net.apply_changes(2, RoundChanges.deletes([(0, 1)]))
        assert net.insertion_time(0, 1) == 1
        assert net.deletion_time(0, 1) == 2
        net.apply_changes(5, RoundChanges.inserts([(0, 1)]))
        assert net.insertion_time(0, 1) == 5

    def test_never_inserted_edge_has_time_minus_one(self):
        net = DynamicNetwork(3)
        assert net.insertion_time(0, 2) == -1
        assert net.deletion_time(0, 2) == -1

    def test_rejects_double_insert(self):
        net = DynamicNetwork(3)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        with pytest.raises(TopologyError):
            net.apply_changes(2, RoundChanges.inserts([(1, 0)]))

    def test_rejects_deleting_missing_edge(self):
        net = DynamicNetwork(3)
        with pytest.raises(TopologyError):
            net.apply_changes(1, RoundChanges.deletes([(0, 1)]))

    def test_rejects_out_of_range_node(self):
        net = DynamicNetwork(3)
        with pytest.raises(TopologyError):
            net.apply_changes(1, RoundChanges.inserts([(0, 3)]))

    def test_rejects_non_increasing_round(self):
        net = DynamicNetwork(3)
        net.apply_changes(2, RoundChanges.inserts([(0, 1)]))
        with pytest.raises(TopologyError):
            net.apply_changes(2, RoundChanges.inserts([(0, 2)]))
        with pytest.raises(TopologyError):
            net.apply_changes(1, RoundChanges.inserts([(0, 2)]))

    def test_failed_batch_leaves_graph_untouched(self):
        net = DynamicNetwork(4)
        first = RoundChanges.inserts([(0, 1), (2, 3)])
        net.apply_changes(1, first)
        with pytest.raises(TopologyError, match="cannot delete missing edge"):
            net.apply_changes(2, RoundChanges.of(insert=[(0, 2)], delete=[(1, 2)]))
        # The valid insert in the failed batch must not have been applied.
        assert not net.has_edge(0, 2)
        assert net.round_index == 1
        # The mirror case: a valid deletion, then an illegal insertion.
        for illegal in ((3, 2), (3, 4)):
            with pytest.raises(TopologyError):
                net.apply_changes(2, RoundChanges.of(insert=[illegal], delete=[(1, 0)]))
            assert net.edges == frozenset({(0, 1), (2, 3)})
            assert net.neighbors(0) == frozenset({1})
            assert net.total_changes == 2
            assert net.last_changes is first
            assert net.round_index == 1


class TestAccessors:
    def test_neighbors_and_degree(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1), (0, 2)]))
        assert net.neighbors(0) == frozenset({1, 2})
        assert net.degree(0) == 2
        assert net.degree(3) == 0

    def test_has_edge_reads_the_adjacency(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1), (2, 1)]))
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert net.has_edge(1, 2) and net.has_edge(2, 1)
        assert not net.has_edge(0, 2)  # absent
        assert not net.has_edge(1, 1)  # self loop
        assert not net.has_edge(1, 4) and not net.has_edge(4, 1)  # out of range
        assert not net.has_edge(-1, 0)
        net.apply_changes(2, RoundChanges.deletes([(0, 1)]))
        assert not net.has_edge(0, 1) and not net.has_edge(1, 0)

    def test_insertion_times_mapping_only_current_edges(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1), (2, 3)]))
        net.apply_changes(2, RoundChanges.deletes([(2, 3)]))
        assert net.insertion_times() == {(0, 1): 1}

    def test_copy_is_independent(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        clone = net.copy()
        net.apply_changes(2, RoundChanges.inserts([(2, 3)]))
        assert not clone.has_edge(2, 3)
        assert clone.has_edge(0, 1)
        assert clone.total_changes == 1


class TestSnapshotCaching:
    def test_edges_snapshot_identity_across_calls(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1), (1, 2)]))
        first = net.edges
        # No per-call copy: the exact same frozenset object is returned until
        # the graph changes.
        assert net.edges is first
        assert net.snapshot() is first

    def test_neighbors_snapshot_identity_across_calls(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1), (1, 2)]))
        first = net.neighbors(1)
        assert net.neighbors(1) is first

    def test_apply_changes_invalidates_snapshots(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        edges_before = net.edges
        neigh0_before = net.neighbors(0)
        neigh3_before = net.neighbors(3)
        net.apply_changes(2, RoundChanges.inserts([(0, 2)]))
        assert net.edges is not edges_before
        assert net.edges == frozenset({(0, 1), (0, 2)})
        assert net.neighbors(0) is not neigh0_before
        assert net.neighbors(0) == frozenset({1, 2})
        # Untouched nodes keep their cached snapshot (delta invalidation).
        assert net.neighbors(3) is neigh3_before

    def test_empty_batch_keeps_snapshots(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        edges_before = net.edges
        net.apply_changes(2, RoundChanges.empty())
        assert net.edges is edges_before

    def test_copy_does_not_share_snapshots(self):
        net = DynamicNetwork(4)
        net.apply_changes(1, RoundChanges.inserts([(0, 1)]))
        _ = net.edges, net.neighbors(0)
        clone = net.copy()
        clone.apply_changes(2, RoundChanges.inserts([(2, 3)]))
        assert net.edges == frozenset({(0, 1)})
        assert clone.edges == frozenset({(0, 1), (2, 3)})
        assert clone.neighbors(0) == net.neighbors(0)
