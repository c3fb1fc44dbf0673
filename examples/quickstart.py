"""Quickstart: triangle membership listing in a highly dynamic network.

This example builds a 30-node network subjected to random churn (a few edge
insertions and deletions every round), runs the Theorem 1 data structure on
every node, and then:

1. reports the amortized round complexity (the paper's measure -- it stays a
   small constant no matter how long the run is);
2. queries a few nodes for the triangles they belong to and cross-checks the
   answers against a centralized view of the final graph.

The centralized view is the *incremental* ground-truth oracle: observing
every round costs it O(changes), not O(|E|), and it keeps no history -- only
the live graph of the latest round, which is all the queries below need.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import RandomChurnAdversary, SimulationRunner, TriangleMembershipNode
from repro.core import QueryResult, TriangleQuery
from repro.oracle import GroundTruthOracle


def main() -> None:
    n = 30
    adversary = RandomChurnAdversary(
        n,
        num_rounds=400,
        inserts_per_round=3,
        deletes_per_round=2,
        seed=42,
    )
    oracle = GroundTruthOracle(n)

    runner = SimulationRunner(
        n=n,
        algorithm_factory=TriangleMembershipNode,
        adversary=adversary,
    )
    runner.add_validator(oracle.validator())

    print("running 400 rounds of churn on", n, "nodes ...")
    result = runner.run()

    metrics = result.metrics
    print(f"  topology changes applied : {metrics.total_changes}")
    print(f"  rounds executed          : {metrics.rounds_executed}")
    print(f"  inconsistent rounds      : {metrics.inconsistent_rounds}")
    print(f"  amortized round complexity (paper: O(1)) : "
          f"{metrics.amortized_round_complexity():.3f}")
    print(f"  worst prefix of that ratio               : "
          f"{metrics.max_running_amortized_complexity():.3f}")
    print(f"  bandwidth: max message = {result.bandwidth.max_observed_bits} bits, "
          f"budget = {result.bandwidth.budget_bits(n)} bits")
    snapshot = oracle.snapshot()
    print(f"  oracle view              : round {snapshot.round_index}, "
          f"{len(snapshot.edges)} live edges")

    # Query a few nodes about the triangles they belong to.
    print("\ntriangle membership queries (node vs. centralized ground truth):")
    shown = 0
    for v in range(n):
        node = result.nodes[v]
        truth = oracle.triangles_containing(v)
        if not truth:
            continue
        triangle = sorted(next(iter(truth)))
        answer = node.query(TriangleQuery(triangle))
        print(f"  node {v:2d}: is {triangle} a triangle?  ->  {answer.value}"
              f"   (knows {len(node.known_triangles())} triangles, "
              f"oracle says {len(truth)})")
        assert answer is QueryResult.TRUE
        assert node.known_triangles() == truth
        shown += 1
        if shown >= 5:
            break
    print("\nall queried answers match the ground truth.")


if __name__ == "__main__":
    main()
