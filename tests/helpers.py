"""Objects that several test modules build."""

from itertools import combinations

import numpy as np

from rtlab.hypergraph import PartitionedHypergraph
from rtlab.sphere import SpherePartition


def complete_uniform(n: int, r: int) -> PartitionedHypergraph:
    """K_n^(r): every r-subset of n vertices is an edge, no parts."""
    return PartitionedHypergraph(n, r, frozenset(combinations(range(n), r)))


def nearest_rep(part: SpherePartition, points) -> np.ndarray:
    """Index of the Voronoi cell owning each point (max inner product)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.argmax(pts @ part.reps.T, axis=1)
