"""Memory that follows activity: a node nothing has touched costs little.

A serving graph is built on ``n`` nodes, but a round touches only the
endpoints of its changed edges.  These tests bound, under ``tracemalloc``,
what a freshly built monitor and network retain per node, so per-node
containers that only activity fills (queues, adjacency sets) stay cheap or
are made on first use.
"""

import gc
import tracemalloc

import pytest

from repro.serve.core import STRUCTURES, ServingMonitor
from repro.simulator import DynamicNetwork

N = 10_000


def retained_per_node(build) -> float:
    """Bytes per node that ``build()`` leaves allocated while its result lives."""
    build()  # warm up: imports and class-level caches are not per-node costs
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del built
    return (after - before) / N


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_fresh_monitor_node_costs_at_most_700_bytes(structure):
    # A fresh node holds an empty queue (a list, 56 B) and no adjacency set.
    assert retained_per_node(lambda: ServingMonitor(N, structure)) <= 700


def test_fresh_network_node_costs_at_most_16_bytes():
    # Adjacency sets are made at a node's first edge.
    assert retained_per_node(lambda: DynamicNetwork(N)) <= 16
