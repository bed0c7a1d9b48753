"""Objects that several test modules build."""

from itertools import combinations

from rtlab.hypergraph import PartitionedHypergraph


def complete_uniform(n: int, r: int) -> PartitionedHypergraph:
    """K_n^(r): every r-subset of n vertices is an edge, no parts."""
    return PartitionedHypergraph(n, r, frozenset(combinations(range(n), r)))
