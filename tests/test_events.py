"""Unit tests for canonical edges and round batches."""

import json
import re

import pytest

from repro.simulator.events import RoundChanges, canonical_edge


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            canonical_edge(3, 3)

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValueError):
            canonical_edge(-1, 2)
        with pytest.raises(ValueError):
            canonical_edge(2, -7)

    @pytest.mark.parametrize("bad", [1.9, 2.0, "3", True, False, None])
    def test_rejects_non_integer_ids_naming_the_value(self, bad):
        message = re.escape(f"node identifiers must be integers, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            canonical_edge(bad, 4)
        with pytest.raises(ValueError, match=message):
            canonical_edge(4, bad)


class TestRoundChanges:
    def test_empty(self):
        rc = RoundChanges.empty()
        assert len(rc) == 0
        assert not rc
        assert rc.insertions == [] and rc.deletions == []

    def test_builders_canonicalize(self):
        rc = RoundChanges.of(insert=[(2, 1), (3, 4)], delete=[(6, 5)])
        assert rc.insertions == [(1, 2), (3, 4)]
        assert rc.deletions == [(5, 6)]
        assert RoundChanges.inserts([(2, 1)]).insertions == [(1, 2)]
        assert RoundChanges.inserts([(2, 1)]).deletions == []
        assert RoundChanges.deletes([[2, 1]]).deletions == [(1, 2)]
        assert RoundChanges.deletes([(2, 1)]).insertions == []

    def test_builders_take_any_iterable(self):
        rc = RoundChanges.of(insert=((u, u + 1) for u in range(3)), delete=iter([(9, 8)]))
        assert rc.insertions == [(0, 1), (1, 2), (2, 3)]
        assert rc.deletions == [(8, 9)]

    def test_len_and_bool(self):
        rc = RoundChanges.of(insert=[(1, 2), (3, 4)], delete=[(5, 6)])
        assert len(rc) == 3 and rc
        assert len(RoundChanges.inserts([(0, 1)])) == 1 and RoundChanges.inserts([(0, 1)])
        assert len(RoundChanges.deletes([(0, 1)])) == 1 and RoundChanges.deletes([(0, 1)])

    def test_edge_repeated_in_one_list_rejected(self):
        with pytest.raises(ValueError, match=r"touches edge \(1, 2\) more than once"):
            RoundChanges.inserts([(1, 2), (2, 1)])
        with pytest.raises(ValueError, match=r"touches edge \(1, 2\) more than once"):
            RoundChanges.deletes([(1, 2), (3, 4), (1, 2)])

    def test_edge_in_both_lists_rejected(self):
        with pytest.raises(ValueError, match=r"touches edge \(1, 2\) more than once"):
            RoundChanges.of(insert=[(1, 2)], delete=[(2, 1)])

    def test_self_loops_and_negative_ids_rejected_when_built(self):
        with pytest.raises(ValueError, match="self loops"):
            RoundChanges.inserts([(0, 1), (3, 3)])
        with pytest.raises(ValueError, match="self loops"):
            RoundChanges.deletes([(4, 4)])
        with pytest.raises(ValueError, match="non-negative"):
            RoundChanges.of(delete=[(-1, 2)])
        with pytest.raises(ValueError, match="non-negative"):
            RoundChanges.inserts([(2, -7)])

    def test_malformed_edges_rejected_when_built(self):
        for edge in ([3], (1, 2, 3), 5):
            with pytest.raises(ValueError, match="an edge is a pair of node ids"):
                RoundChanges.inserts([edge])


class TestNumpyCoercion:
    """Numpy integers entering a batch become builtin ints, so numpy-backed
    adversaries cannot leak ``np.int64`` endpoints into traces, where they
    break JSON serialization and fingerprints."""

    def test_canonical_edge_coerces_numpy_ints(self):
        np = pytest.importorskip("numpy")
        edge = canonical_edge(np.int64(5), np.int32(2))
        assert edge == (2, 5)
        assert type(edge[0]) is int and type(edge[1]) is int
        with pytest.raises(ValueError, match="node identifiers must be integers"):
            canonical_edge(np.float64(2.0), 5)

    def test_batches_built_from_numpy_ints_serialize(self):
        np = pytest.importorskip("numpy")
        rc = RoundChanges.of(
            insert=[(np.int64(1), np.int64(2))], delete=[(np.int32(4), np.int32(3))]
        )
        payload = {
            "insert": [list(e) for e in rc.insertions],
            "delete": [list(e) for e in rc.deletions],
        }
        assert json.loads(json.dumps(payload)) == {
            "insert": [[1, 2]],
            "delete": [[3, 4]],
        }
        for edge in rc.insertions + rc.deletions:
            assert all(type(x) is int for x in edge)
