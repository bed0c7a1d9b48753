"""Builders for the extremal constructions.

The two-sided sphere graph (antipodal inside rule, near-orthogonal cross
rule), the r-part tuple-vertex hypergraph, the probabilistic blowup with
sparse-pattern deletion, the fully assembled blown-up construction, shadow
graphs restricted to leading parts and the corollary graph, a shadow
joined to a complete multipartite graph and built as one complete
q-partite frame.  Each of the four constructions (`bollobas_erdos`,
`sphere_hypergraph`, `full_construction`, `corollary_construction`) is
one call `builder(params, partition)` on a `ConstructionParams` and its
sphere partition; theta = epsilon/sqrt(k) and u = ceil(r/2) are
properties of the params, which every builder reads.  The exact rational
bound and mixing optimization live in `rtlab.bounds`, which needs no
numpy; the corollary reads its default mixing fraction from
`optimize_a` there.
"""

import math
from dataclasses import dataclass, fields
from itertools import accumulate, combinations

import numpy as np

from . import CapExceeded, check_bytes
from .bounds import optimize_a
from .hypergraph import (PartitionedHypergraph, SimpleGraph, as_graph,
                         blowup, shadow)
from .rng import substream
from .sphere import SQRT2, SpherePartition, build_partition
from .verifiers import (_cliques, _Counter, blowup_deletion_condition,
                        find_clique, sparse_pattern_doomed_edges)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ConstructionParams:
    """Knobs of the construction family.

    theta = epsilon/sqrt(k) and u = ceil(r/2) are properties worked out
    from the fields, not fields themselves.  pattern_cap defaults to
    r^3.  All randomness flows from the single seed.  The field types
    are not checked here: the CLI's params reader checks each value
    against its field's annotation before it builds one.  ell, q and
    mix_a are read by `corollary_construction` alone and stay unset
    (None) unless given; a given one must satisfy 1 <= ell <= r, q >= 2
    and 0 < mix_a < 1, and ell = 1 needs mix_a (the default a* of
    `optimize_a` needs ell >= 2).
    """

    r: int
    z: int
    alpha: float
    beta: float
    epsilon: float
    k: int
    blowup_t: int = 2
    gamma: float = 0.3
    pattern_cap: int | None = None
    seed: int = 0
    ell: int | None = None
    q: int | None = None
    mix_a: float | None = None

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("uniformity r must be >= 2")
        if self.z < 1:
            raise ValueError("partition size z must be >= 1")
        if self.k < 1:
            raise ValueError("sphere dimension k must be >= 1")
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.beta < 1.0:
            raise ValueError("alpha and beta must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.blowup_t < 1:
            raise ValueError("blowup factor must be >= 1")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be a positive finite number")
        if self.pattern_cap is None:
            self.pattern_cap = self.r ** 3
        if self.pattern_cap < self.r:
            raise ValueError("pattern cap must be >= r")
        if self.ell is not None and not 1 <= self.ell <= self.r:
            raise ValueError(f"ell must be in [1, {self.r}], got {self.ell}")
        if self.q is not None and self.q < 2:
            raise ValueError("need q >= 2")
        if self.mix_a is not None and not 0.0 < self.mix_a < 1.0:
            raise ValueError("mixing fraction must lie in (0, 1)")
        if self.ell == 1 and self.mix_a is None:
            raise ValueError("ell = 1 needs mix_a: the default a* of "
                             "optimize_a needs ell >= 2")

    @property
    def theta(self) -> float:
        """The working scale epsilon/sqrt(k)."""
        return self.epsilon / math.sqrt(self.k)

    @property
    def u(self) -> int:
        """The tuple length ceil(r/2)."""
        return (self.r + 1) // 2

    def to_json(self) -> dict:
        """The set fields in declaration order (an unset ell, q or mix_a
        is left out)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    def build_partition(self) -> SpherePartition:
        return build_partition(self.k, self.z, self.theta, self.seed)


# ---------------------------------------------------------------------------
# the two-sided sphere graph


def bollobas_erdos(params: ConstructionParams,
                   partition: SpherePartition) -> SimpleGraph:
    """Two copies of the partition's point set; inside a side an edge
    joins near-antipodal points (d >= 2 - theta), across the sides an
    edge joins near-orthogonal points (d <= sqrt(2) - theta), where
    theta = params.theta.  This is the r = 2, u = 1 tuple hypergraph of
    `sphere_hypergraph` whatever params.r, caps included: CapExceeded
    when its matrices or listings would pass the byte cap: the distance
    matrices alone do over 10,362 points per side."""
    return as_graph(_tuple_hypergraph(partition, 2, 1, params.theta))


# ---------------------------------------------------------------------------
# tuple vertices and the r-part hypergraph


def tuple_vertices(partition: SpherePartition, u: int, theta: float) -> list:
    """All ordered u-tuples of rep indices with pairwise distances
    <= sqrt(2) - theta (repeats allowed, d(p,p)=0), in lexicographic
    order, by `_sequences` over the close matrix."""
    if u < 1:
        raise ValueError("tuple length must be >= 1")
    close = partition.distance_matrix() <= SQRT2 - theta
    return list(map(tuple, _sequences(close, u).tolist()))


def _sequences(rel: np.ndarray, length: int) -> np.ndarray:
    """The sequences of `length` indices whose every entry is related by
    the boolean matrix `rel` to every later one, as lexicographic rows.
    They grow one entry per level, in blocks of prefixes reading about
    2^20 entries of `rel`.  After each block, CapExceeded
    (`check_bytes`) once the level before and the rows listed so far,
    counted twice (the blocks and the array they are joined into), would
    pass the byte cap."""
    block = max(1, (1 << 20) // max(len(rel), 1))
    seqs = np.zeros((1, 0), dtype=np.intp)
    for width in range(1, length + 1):
        grown, listed = [], 0
        # one block even with no prefix, so the array keeps its shape
        for start in range(0, max(len(seqs), 1), block):
            prefix = seqs[start:start + block]
            rows, nxt = np.nonzero(rel[prefix].all(axis=1))
            listed += len(rows)
            check_bytes(seqs.nbytes + 2 * seqs.itemsize * width * listed,
                        f"a listing of {listed} sequences of length {width}")
            grown.append(np.column_stack([prefix[rows], nxt]))
        seqs = np.concatenate(grown)
    return seqs


def sphere_hypergraph(params: ConstructionParams,
                      partition: SpherePartition) -> PartitionedHypergraph:
    """r parts, each a copy of the tuple vertices.  An r-set inside a part
    is an edge when every pair of its tuples is far in some shared
    coordinate position (d >= 2 - theta); a transversal r-set is an edge
    when every coordinate pair across the tuples is close
    (d <= sqrt(2) - theta).  Both families are listed exhaustively by
    `_sequences`.  The package's byte cap (`check_bytes`, 1 GiB) is the
    one size rule: CapExceeded, before they are built, when the z x z
    distance, close and far matrices (10 bytes a cell) or the nv x nv
    tuple matrices (3 bytes a cell: tuple-close, tuple-far and its upper
    triangle) would pass it, and in the tuple, inside and cross listings
    as `_sequences` counts them.
    """
    return _tuple_hypergraph(partition, params.r, params.u, params.theta)


def _tuple_hypergraph(partition: SpherePartition, r: int, u: int,
                      theta: float) -> PartitionedHypergraph:
    z = partition.z
    check_bytes(10 * z * z, f"the distance matrices of {z} points")
    dm = partition.distance_matrix()
    closeM = dm <= SQRT2 - theta
    # the tuple rows: the (nv, u) array of what `tuple_vertices` lists
    T = _sequences(closeM, u)
    nv = len(T)
    check_bytes(3 * nv * nv, f"the tuple matrices of {nv} tuple vertices")
    n = r * nv
    part_of = np.repeat(np.arange(r), nv)
    meta = {"tuple_count": nv, "z": z, "theta": theta, "r": r, "u": u}

    # tuple-close: all u^2 coordinate pairs within sqrt(2) - theta
    tclose = np.ones((nv, nv), dtype=bool)
    for j in range(u):
        for m in range(u):
            tclose &= closeM[np.ix_(T[:, j], T[:, m])]

    # tuple-far: some shared coordinate position at distance >= 2 - theta
    farM = dm >= 2.0 - theta
    tfar = np.zeros((nv, nv), dtype=bool)
    for j in range(u):
        tfar |= farM[np.ix_(T[:, j], T[:, j])]
    # part p holds the tuples p*nv .. p*nv + nv - 1
    shift = nv * np.arange(r)

    # inside edges: increasing r-cliques of the far graph, one copy per part
    inside = _sequences(np.triu(tfar, 1), r)
    meta["base_inside_per_part"] = len(inside)
    meta["base_inside"] = len(inside) * r

    # cross edges: ordered assignments (a_1..a_r), pairwise tuple-close
    cross = _sequences(tclose, r) + shift
    meta["base_cross"] = len(cross)

    edges = np.concatenate([(inside + shift[:, None, None]).reshape(-1, r),
                            cross])
    return PartitionedHypergraph(n, r, edges, part_of, meta=meta)


# ---------------------------------------------------------------------------
# probabilistic blowup with sparse-pattern deletion


def random_blowup(h: PartitionedHypergraph, t: int, gamma: float,
                  ell: int, seed: int, budget=None) -> PartitionedHypergraph:
    """t-blowup of every edge of h, each copy keeping its edge's part
    labels.  Every copy of a cross edge is kept, every other copy with
    probability p = t^(1+gamma-r).  One pass of the sparse-pattern scan
    then deletes from the sampled copies the last edge of each connected
    sub-collection with v <= ell vertices and v + (1+gamma-r)(m-1) < r,
    going on over the survivors; the completed pass certifies them.
    meta adds keep_probability, kept_edges (the sampled copies) and
    deleted_patterns_edges to `blowup`'s."""
    if t < 1:
        raise ValueError("blowup factor must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if ell < h.r:
        raise ValueError("pattern cap must be >= r")
    r = h.r
    p = float(t) ** (1.0 + gamma - r)
    blown = blowup(h, t)
    keep = blown.cross_mask()
    rng = substream(seed, "blowup-keep")
    # rng.random(m) gives the draws of m rng.random() calls, one per
    # non-cross copy in row order
    sampled_rows = np.flatnonzero(~keep)
    sampled_rows = sampled_rows[rng.random(len(sampled_rows)) < p]
    sampled = PartitionedHypergraph(blown.n, r, blown.edge_array[sampled_rows],
                                    blown.part_of)
    doomed = sparse_pattern_doomed_edges(
        sampled, ell, blowup_deletion_condition(r, gamma), budget)
    keep[np.delete(sampled_rows, doomed)] = True
    meta = dict(blown.meta, keep_probability=p,
                kept_edges=len(sampled_rows),
                deleted_patterns_edges=len(doomed))
    return PartitionedHypergraph(blown.n, r, blown.edge_array[keep],
                                 blown.part_of, meta=meta)


# ---------------------------------------------------------------------------
# the full construction


def full_construction(params: ConstructionParams,
                      partition: SpherePartition | None = None,
                      budget=None) -> PartitionedHypergraph:
    """`random_blowup` of the sphere hypergraph by params.blowup_t: every
    cross edge keeps all t^r transversal copies, the inside copies are
    sampled and cleared of sparse patterns.  Parts become
    W_i = V_i x [t], of `part_size_m` vertices each."""
    if partition is None:
        partition = params.build_partition()
    base = sphere_hypergraph(params, partition)
    h = random_blowup(base, params.blowup_t, params.gamma,
                      params.pattern_cap, params.seed, budget)
    h.meta["part_size_m"] = base.meta["tuple_count"] * params.blowup_t
    return h


def shadow_first_parts(h: PartitionedHypergraph, ell: int) -> SimpleGraph:
    """Shadow graph of the whole hypergraph, induced on the vertices of
    the first ell parts (pairs covered by any hyperedge survive when both
    endpoints are in the leading parts)."""
    if not 1 <= ell <= h.parts:
        raise ValueError(f"ell must be in [1, {h.parts}], got {ell}")
    return shadow(h).induced(np.flatnonzero(np.isin(h.part_of, range(ell))))


# ---------------------------------------------------------------------------
# corollary graph


def maximal_ktfree_graph(n: int, t: int, seed: int = 0) -> SimpleGraph:
    """Random maximal K_{t+1}-free graph: candidate edges in random order,
    inserted whenever no K_{t+1} appears: the clique walk finds no
    K_{t-1} among the common neighbours of the two ends.  The walks of
    the whole build count on one node counter (the budget of env
    RTLAB_BUDGET, else DEFAULT_BUDGET), so a build past it raises
    BudgetExceeded.  CapExceeded, before anything is allocated, when the
    shuffled list of the C(n, 2) pairs, 64 bytes a pair (its slot and a
    2-tuple), would pass the byte cap."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    check_bytes(64 * (n * (n - 1) // 2), f"the pair list of {n} vertices")
    rng = substream(seed, "ktfree-greedy")
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    counter = _Counter()
    adj = [0] * n
    edges = set()
    for a, b in pairs:
        if next(_cliques(adj, t - 1, adj[a] & adj[b], counter),
                None) is not None:
            continue
        edges.add((a, b))
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return SimpleGraph(n, edges)


def corollary_graph(g: SimpleGraph, q: int, t: int, seed: int,
                    mix_a: float) -> SimpleGraph:
    """g joined to a complete (q-1)-partite graph with near-equal classes
    sized from the mixing fraction, built as one complete q-partite
    frame: g's vertices form class 0, every pair across classes is an
    edge, g's edges lie in class 0 and a `maximal_ktfree_graph` of the
    seed, rechecked K_{t+1}-free, in each other class.  CapExceeded,
    before anything is allocated, when g.n / mix_a overflows a float, or
    when the frame's class matrix and the int64 rows of its pairs across
    classes would pass the byte cap."""
    if q < 2:
        raise ValueError("need q >= 2")
    if not 0.0 < mix_a < 1.0:
        raise ValueError("mixing fraction must lie in (0, 1)")
    share = g.n / mix_a
    if share == math.inf:
        raise CapExceeded(f"a class matrix of {g.n} / {mix_a} vertices "
                          f"overflows a float")
    total = max(g.n + q - 1, round(share))
    # class 0 is g; e of the q - 1 classes after it hold b + 1 vertices,
    # the others b, so `across` pairs lie in distinct classes
    b, e = divmod(total - g.n, q - 1)
    across = (total * total - g.n * g.n - (q - 1) * b * b
              - e * (2 * b + 1)) // 2
    check_bytes(total * total + 16 * across,
                f"a class matrix of {total} x {total} vertices")
    sizes = [g.n] + [b + 1] * e + [b] * (q - 1 - e)
    labels = np.repeat(np.arange(q), sizes)
    edges = [np.argwhere(labels[:, None] < labels), g.edge_array]
    for start, size in zip(accumulate(sizes), sizes[1:]):
        inner = maximal_ktfree_graph(size, t, seed)
        if find_clique(inner, t + 1) is not None:
            raise ValueError("inner graph is not K_{t+1}-free")
        edges.append(inner.edge_array + start)
    return SimpleGraph(total, np.concatenate(edges))


def corollary_construction(params: ConstructionParams,
                           partition: SpherePartition) -> SimpleGraph:
    """`corollary_graph` on the shadow of the first params.ell parts of
    `full_construction`, with t = params.r.  ell and q default to 2,
    mix_a to the a* of `optimize_a(r, ell, q)`, which the params define
    for every ell they accept without mix_a (2 <= ell <= r)."""
    ell = 2 if params.ell is None else params.ell
    q = 2 if params.q is None else params.q
    mix_a = params.mix_a
    if mix_a is None:
        mix_a = float(optimize_a(params.r, ell, q)[0])
    base = shadow_first_parts(full_construction(params, partition), ell)
    return corollary_graph(base, q, params.r, params.seed, mix_a)
