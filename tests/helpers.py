"""Objects that several test modules build."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from rtlab.hypergraph import PartitionedHypergraph
from rtlab.sphere import SpherePartition

SRC = Path(__file__).resolve().parents[1] / "src"


def complete_uniform(n: int, r: int) -> PartitionedHypergraph:
    """K_n^(r): every r-subset of n vertices is an edge, no parts."""
    return PartitionedHypergraph(n, r, frozenset(combinations(range(n), r)))


def nearest_rep(part: SpherePartition, points) -> np.ndarray:
    """Index of the Voronoi cell owning each point (max inner product)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.argmax(pts @ part.reps.T, axis=1)


def run_fresh(code: str, *args: str, cwd=None, timeout=120,
              input=None) -> subprocess.CompletedProcess:
    """`python -c code *args` in a fresh interpreter that imports rtlab
    from this checkout's src, killed after `timeout` seconds; `input`,
    when given, is written to its stdin through a pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, input=input)
