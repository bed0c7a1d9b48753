"""Builders for the extremal constructions.

The two-sided sphere graph (antipodal inside rule, near-orthogonal cross
rule), the r-part tuple-vertex hypergraph, the probabilistic blowup with
sparse-pattern deletion, the fully assembled blown-up construction, shadow
graphs restricted to leading parts, the complete-join corollary graph, and
the exact rational bound/mixing optimization.
"""

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations

import numpy as np

from .hypergraph import (PartitionedHypergraph, SimpleGraph, as_graph,
                         blowup, complete_join, shadow)
from .rng import substream
from .sphere import SQRT2, SpherePartition, build_partition
from .verifiers import (_cliques, blowup_deletion_condition, find_clique,
                        sparse_pattern_doomed_edges)


# ---------------------------------------------------------------------------
# parameters


# the keys `construct --type corollary` reads beside the fields
COROLLARY_KEYS = ("ell", "q", "mix_a")


@dataclass
class ConstructionParams:
    """Knobs of the construction family.

    theta = epsilon/sqrt(k) and u = ceil(r/2) are derived; a stored theta
    must agree with epsilon/sqrt(k) to 1e-12.  pattern_cap defaults to
    r^3.  All randomness flows from the single seed.  The int fields
    refuse a float, a bool or a string with ValueError.
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
    theta: float | None = None
    u: int | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("r", "z", "k", "blowup_t", "pattern_cap", "seed", "u"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        derived = self.epsilon / math.sqrt(self.k)
        if self.theta is None:
            self.theta = derived
        elif not abs(self.theta - derived) <= 1e-12:
            raise ValueError("theta must equal epsilon/sqrt(k)")
        derived_u = (self.r + 1) // 2
        if self.u is None:
            self.u = derived_u
        elif self.u != derived_u:
            raise ValueError("u must equal ceil(r/2)")
        if self.pattern_cap is None:
            self.pattern_cap = self.r ** 3
        if self.pattern_cap < self.r:
            raise ValueError("pattern cap must be >= r")

    def to_json(self) -> dict:
        """The fields in declaration order, then the extras."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "extras"}
        out.update(self.extras)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ConstructionParams":
        """The params of a JSON object, the corollary's keys (ell, q and
        mix_a) as extras; ValueError names any other key that is not a
        field."""
        known = {f.name for f in fields(cls)} - {"extras"}
        unknown = sorted(set(data) - known - set(COROLLARY_KEYS))
        if unknown:
            raise ValueError("unknown construction params: "
                             + ", ".join(unknown))
        kwargs = {k: v for k, v in data.items() if k in known}
        extras = {k: v for k, v in data.items() if k not in known}
        return cls(extras=extras, **kwargs)

    def build_partition(self) -> SpherePartition:
        return build_partition(self.k, self.z, self.theta, self.seed)


# ---------------------------------------------------------------------------
# the two-sided sphere graph


def bollobas_erdos(partition: SpherePartition, epsilon: float) -> SimpleGraph:
    """Two copies of the partition's point set; inside a side an edge
    joins near-antipodal points (d >= 2 - theta), across the sides an
    edge joins near-orthogonal points (d <= sqrt(2) - theta), where
    theta = epsilon/sqrt(k) on the partition's sphere S^k.  This is the
    r = 2, u = 1 tuple hypergraph of `sphere_hypergraph`, caps included:
    PartTooLarge over 5,000 points per side or about 5 M close pairs."""
    theta = epsilon / math.sqrt(partition.k)
    return as_graph(_tuple_hypergraph(partition, 2, 1, theta))


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


class PartTooLarge(RuntimeError):
    """Exhaustive listing refused: a part or the cross prefixes over a cap."""


# tuple vertices a part may hold
MAX_PART_SIZE = 5000
# cross-edge prefixes (1 .. r tuples) listed before the listing gives up
MAX_CROSS_ASSIGNMENTS = 5_000_000


def _sequences(rel: np.ndarray, length: int, cap=math.inf) -> np.ndarray:
    """The sequences of `length` indices whose every entry is related by
    the boolean matrix `rel` to every later one, as lexicographic rows.
    They grow one entry per level, in blocks of prefixes reading about
    2^20 entries of `rel`; PartTooLarge once over `cap` prefixes, of all
    lengths 1 .. length, are listed."""
    block = max(1, (1 << 20) // max(len(rel), 1))
    seqs, listed = np.zeros((1, 0), dtype=np.intp), 0
    for _ in range(length):
        grown = []
        # one block even with no prefix, so the array keeps its shape
        for start in range(0, max(len(seqs), 1), block):
            prefix = seqs[start:start + block]
            rows, nxt = np.nonzero(rel[prefix].all(axis=1))
            listed += len(rows)
            if listed > cap:
                raise PartTooLarge(f"over {cap} prefixes listed")
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
    `_sequences`.  Raises PartTooLarge over MAX_PART_SIZE (5,000) tuples
    per part, or when the cross listing reaches over
    MAX_CROSS_ASSIGNMENTS (5,000,000) prefixes of 1 .. r tuples.
    """
    return _tuple_hypergraph(partition, params.r, params.u, params.theta)


def _tuple_hypergraph(partition: SpherePartition, r: int, u: int,
                      theta: float) -> PartitionedHypergraph:
    V = tuple_vertices(partition, u, theta)
    nv = len(V)
    if nv > MAX_PART_SIZE:
        raise PartTooLarge(f"{nv} tuple vertices exceed the cap {MAX_PART_SIZE}")
    n = r * nv
    part_of = tuple(p for p in range(r) for _ in range(nv))
    meta = {"tuple_count": nv, "z": partition.z, "theta": theta,
            "r": r, "u": u}

    dm = partition.distance_matrix()
    T = np.array(V, dtype=int).reshape(nv, u)

    # tuple-close: all u^2 coordinate pairs within sqrt(2) - theta
    closeM = dm <= SQRT2 - theta
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
    cross = _sequences(tclose, r, MAX_CROSS_ASSIGNMENTS) + shift
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
    meta adds blowup_t, keep_probability, kept_edges (the sampled copies)
    and deleted_patterns_edges to h's."""
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
    meta = dict(h.meta, blowup_t=t, keep_probability=p,
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
    parts = h.parts
    if not 1 <= ell <= parts:
        raise ValueError(f"ell must be in [1, {parts}], got {ell}")
    sh = shadow(h)
    keep = [v for v in range(h.n) if 0 <= h.part_of[v] < ell]
    return sh.induced(keep)


# ---------------------------------------------------------------------------
# corollary graph


def maximal_ktfree_graph(n: int, t: int, seed: int = 0) -> SimpleGraph:
    """Random maximal K_{t+1}-free graph: candidate edges in random order,
    inserted whenever no K_{t+1} appears: the clique walk finds no
    K_{t-1} among the common neighbours of the two ends."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    rng = substream(seed, "ktfree-greedy")
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    adj = [0] * n
    edges = set()
    for a, b in pairs:
        if next(_cliques(adj, t - 1, adj[a] & adj[b]), None) is not None:
            continue
        edges.add((a, b))
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return SimpleGraph(n, edges)


def corollary_graph(g: SimpleGraph, q: int, t: int, inner_provider,
                    mix_a: float = 0.5) -> SimpleGraph:
    """Complete (q-1)-partite graph T with near-equal classes sized from
    the mixing fraction, a checked K_{t+1}-free graph inserted in every
    class, completely joined to g."""
    if q < 2:
        raise ValueError("need q >= 2")
    if not 0.0 < mix_a < 1.0:
        raise ValueError("mixing fraction must lie in (0, 1)")
    total = max(g.n + q - 1, round(g.n / mix_a))
    rest = total - g.n
    # near-equal classes 0 .. q-2, in vertex order; distinct classes join
    labels = np.array(sorted(v % (q - 1) for v in range(rest)))
    t_edges = [np.argwhere(labels[:, None] < labels)]
    for ci in range(q - 1):
        start, end = np.searchsorted(labels, [ci, ci + 1]).tolist()
        inner = inner_provider(end - start)
        if inner.n != end - start:
            raise ValueError("inner provider returned a wrong-size graph")
        if find_clique(inner, t + 1) is not None:
            raise ValueError("inner graph is not K_{t+1}-free")
        t_edges.append(inner.edge_array + start)
    t_graph = SimpleGraph(rest, np.concatenate(t_edges))
    return complete_join(g, t_graph)


# ---------------------------------------------------------------------------
# exact rational bounds


def theta_lower_bound(t: int, ell: int) -> Fraction:
    """Edge-density floor (1/2)(1 - 1/ell) 2^(-u^2) with u = ceil(t/2)."""
    if not 2 <= ell <= t:
        raise ValueError(f"need 2 <= ell <= t, got ell={ell}, t={t}")
    u = (t + 1) // 2
    return Fraction(1, 2) * (1 - Fraction(1, ell)) / Fraction(2 ** (u * u))


def optimize_a(t: int, ell: int, q: int) -> tuple[Fraction, Fraction]:
    """Exact maximizer over a in (0,1) of
    B a^2 + C(q-1,2) ((1-a)/(q-1))^2 + (1-a) a with B the density floor.

    Returns (a*, value) as exact rationals, a* the vertex of the
    quadratic.  With c = C(q-1,2)/(q-1)^2 < 1/2 and B <= 1/8 the a^2
    coefficient B + c - 1 is negative, and the vertex
    (1 - 2c) / (2 (1 - B - c)) lies in (0,1) because B < 1/2."""
    if q < 2:
        raise ValueError("need q >= 2")
    b = theta_lower_bound(t, ell)
    # expand: f(a) = A2 a^2 + A1 a + A0
    c_t = Fraction(q - 2, 2 * (q - 1))  # C(q-1,2)/(q-1)^2
    a2 = b + c_t - 1
    a1 = 1 - 2 * c_t
    a0 = c_t
    a_star = -a1 / (2 * a2)
    value = a2 * a_star * a_star + a1 * a_star + a0
    return a_star, value
