"""Centralized ground-truth oracle for checking the distributed algorithms.

Both oracles answer for the latest observed round only; the paper's graded
quantities are all defined on the current graph and the true insertion
times ``t_e``, which the oracles keep live.

* :class:`GroundTruthOracle` -- the incremental oracle (default): a live,
  incrementally-maintained adjacency and insertion-time map, and
  dirty-region-invalidated query caching, so per-round checks pay per
  *change* instead of per graph, and memory stays O(|E|) however long the
  run.
* :class:`NaiveGroundTruthOracle` -- the from-scratch reference
  implementation (one full snapshot of the latest round, no caching), kept
  as the differential baseline.
* :mod:`repro.oracle.robust_sets` -- pure functions computing ``E^{v,r}_i``,
  ``R^{v,2}_i``, ``T^{v,2}_i`` and ``R^{v,3}_i`` from an edge set and true
  insertion times (plus ``*_adj`` variants over a prebuilt adjacency).
* :mod:`repro.oracle.subgraphs` -- centralized triangle / clique / cycle
  enumeration.  networkx loads only inside :func:`build_graph`, on the first
  query that builds a graph: the reference oracle's triangle and clique
  queries, ``cycles_of_length`` or ``set_is_cycle``.  The triangle and
  clique queries of :class:`GroundTruthOracle` use the ``*_adj`` variants
  and never load it.
"""

from .ground_truth import GroundTruthOracle, NaiveGroundTruthOracle, RoundDelta, RoundSnapshot
from .robust_sets import (
    adjacency,
    khop_edges,
    khop_edges_adj,
    robust_three_hop,
    robust_three_hop_adj,
    robust_two_hop,
    robust_two_hop_adj,
    triangle_pattern_set,
    triangle_pattern_set_adj,
)
from .subgraphs import (
    all_triangles,
    build_graph,
    cliques_containing,
    cliques_containing_adj,
    cycles_containing,
    cycles_of_length,
    is_clique,
    is_clique_adj,
    is_cycle_ordering,
    set_is_cycle,
    triangles_containing,
    triangles_containing_adj,
)

__all__ = [
    "GroundTruthOracle",
    "NaiveGroundTruthOracle",
    "RoundDelta",
    "RoundSnapshot",
    "adjacency",
    "all_triangles",
    "build_graph",
    "cliques_containing",
    "cliques_containing_adj",
    "cycles_containing",
    "cycles_of_length",
    "is_clique",
    "is_clique_adj",
    "is_cycle_ordering",
    "khop_edges",
    "khop_edges_adj",
    "robust_three_hop",
    "robust_three_hop_adj",
    "robust_two_hop",
    "robust_two_hop_adj",
    "set_is_cycle",
    "triangle_pattern_set",
    "triangle_pattern_set_adj",
    "triangles_containing",
    "triangles_containing_adj",
]
