"""Dependent random choice procedures and witness pipelines.

The graph-form feasibility test is evaluated in exact rational
arithmetic; the set-finding procedures are Las Vegas with bounded
retries, so anything returned has already passed an exhaustive recheck.
The nine-vertex triple-system witness (three part edges plus all 27
cross triples) is assembled by chaining the hypergraph form, the graph
form, and codegree-based freshness arguments.  Every TK extension comes
from `verifiers.subdivision` and passes `recheck_cores` when returned.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_

import numpy as np

from .hypergraph import (UNPARTITIONED, PairCoverIndex, PartitionedHypergraph,
                         SimpleGraph, as_graph, clean_low_codegree)
from .rng import substream
from .verifiers import (BudgetExceeded, Embedding, _core_embedding, _Counter,
                        contained_edge, recheck_cores, recheck_tkf_core,
                        resolve_budget, subdivision)

DEFAULT_RETRIES = 64


class PipelineFailure(RuntimeError):
    """A witness pipeline stage failed after all retries."""

    def __init__(self, stage: str, detail: str = ""):
        super().__init__(f"stage '{stage}' failed{': ' + detail if detail else ''}")
        self.stage = stage
        self.detail = detail


@dataclass
class DrcParams:
    """Parameters of the two dependent-random-choice forms.

    Graph form: a, m, n, r, t.  Hypergraph form: s samples.  epsilon is
    the codegree fraction `find-tkf5` asks of its pair; `find_tkf5_tk4`
    refuses one outside (0, 1], NaN included.  retries bounds
    the Las Vegas loops; codegree_threshold drives the cleaning pass (16
    in the asymptotic statements, lower it for desk-scale hosts whose
    codegrees cannot reach 16).  a, m, r, t, s and retries are >= 1, a
    given n > 0 and codegree_threshold >= 0, all ints, else ValueError.
    """

    a: int = 4
    m: int = 4
    n: int | None = None
    r: int = 2
    t: int = 2
    s: int = 2
    epsilon: float = 0.5
    retries: int = DEFAULT_RETRIES
    codegree_threshold: int = 16

    def __post_init__(self):
        for name in ("a", "m", "n", "r", "t", "s", "retries",
                     "codegree_threshold"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("a", "m", "r", "t", "s", "retries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n is not None and self.n <= 0:
            raise ValueError("n must be positive when given")
        if self.codegree_threshold < 0:
            raise ValueError("codegree_threshold must be >= 0")

    @classmethod
    def from_json(cls, data: dict) -> "DrcParams":
        """The params of a JSON object; ValueError names any key that is
        not a field."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown drc params: {', '.join(unknown)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# graph form


def drc_feasible(p: DrcParams, d) -> bool:
    """Exact test of d^t/n^(t-1) - C(n,r) (m/n)^t >= a."""
    if p.n is None:
        raise ValueError("the graph-form test needs n")
    d = Fraction(d)
    n, t, r, m, a = p.n, p.t, p.r, p.m, p.a
    lhs = d ** t / Fraction(n) ** (t - 1) - math.comb(n, r) * Fraction(m, n) ** t
    return lhs >= a


def average_degree(g: SimpleGraph) -> Fraction:
    """2|E|/n; ValueError for a graph without vertices."""
    if g.n == 0:
        raise ValueError("average degree of a graph with no vertices "
                         "is undefined")
    return Fraction(2 * len(g.edge_array), g.n)


def _common(rows: list, vertices) -> int:
    """Bitmask of the common neighbours of the vertices: their rows ANDed."""
    return reduce(and_, (rows[v] for v in vertices))


def drc_recheck(g: SimpleGraph, u_set, r: int, m: int) -> bool:
    """Exhaustive check: every r-subset of U has >= m common neighbors,
    counted on the graph's bitmask rows."""
    rows = g.adjacency_masks()
    return all(_common(rows, sub).bit_count() >= m
               for sub in combinations(sorted(u_set), r))


def drc_find_set(g: SimpleGraph, p: DrcParams, seed: int = 0,
                 require_feasible: bool = True) -> set | None:
    """Find U with |U| >= a whose every r-subset has >= m common neighbors.

    Repeats up to p.retries times: sample t vertices with repetition,
    take their common neighborhood U, strip it, and return U only after
    the exhaustive recheck passes.  None when the retry budget runs out.

    The strip is one lexicographic pass over the r-subsets of the first
    U that deletes the largest vertex of each with under m common
    neighbours, skips those that lost a vertex, and stops once |U| < a.
    Counts are taken in the whole graph, so a deletion changes no other
    subset's, and a rescan after each deletion would delete the same.

    The feasibility inequality guards the existence guarantee; with
    require_feasible=False the Las Vegas search still runs (its output is
    verification-gated either way), only availability is at risk.
    """
    if require_feasible:
        d = average_degree(g)  # refuses a graph without vertices first
        if not drc_feasible(replace(p, n=g.n), d):
            raise ValueError("dependent-random-choice inequality fails for "
                             "these parameters; the guarantee does not apply")
    rows = g.adjacency_masks()
    for trial in range(p.retries):
        rng = substream(seed, "drc-find-set", trial)
        picks = [int(rng.integers(g.n)) for _ in range(p.t)]
        common = _common(rows, picks)
        first = [v for v in range(g.n) if common >> v & 1]
        u_set = set(first)
        for sub in combinations(first, p.r):
            if len(u_set) < p.a:
                break
            if u_set.issuperset(sub) and _common(rows, sub).bit_count() < p.m:
                u_set.discard(sub[-1])
        if len(u_set) >= p.a and drc_recheck(g, u_set, p.r, p.m):
            return set(sorted(u_set))
    return None


# ---------------------------------------------------------------------------
# hypergraph form


def hyper_drc(g_r: PartitionedHypergraph, s: int, seed: int = 0) -> PartitionedHypergraph:
    """Sample s vertices (with repetition) from the first part; keep every
    transversal (r-1)-set over the remaining parts whose union with each
    sample is an edge.  Output is (r-1)-uniform on the same vertex ids,
    with the samples in meta; the parts may differ in size."""
    if s < 1:
        raise ValueError("need at least one sampled vertex")
    r = g_r.r
    if r < 3:
        raise ValueError("hypergraph form needs r >= 3")
    if g_r.parts != r:
        raise ValueError(f"need an {r}-partite input, found {g_r.parts} parts")
    part0 = g_r.part_vertices(0)
    if not part0:
        raise ValueError("the first part is empty")
    rng = substream(seed, "hyper-drc", 0)
    samples = [part0[int(rng.integers(len(part0)))] for _ in range(s)]

    labels = np.asarray(g_r.part_of, dtype=np.int64)
    links = []
    for w in samples:
        through = g_r.edge_array[(g_r.edge_array == w).any(axis=1)]
        rest = through[through != w].reshape(-1, r - 1)
        rest = rest[(labels[rest] != 0).all(axis=1)]
        links.append(set(map(tuple, rest.tolist())))
    return PartitionedHypergraph(g_r.n, r - 1, set.intersection(*links),
                                 g_r.part_of, meta={"samples": samples})


def _extensions(g_r: PartitionedHypergraph, pairs) -> list:
    """The first-part vertices v, ascending, with (v, y, z) an edge of the
    3-uniform g_r for every pair (y, z): the third vertices common to the
    pairs' covering edges."""
    cover = g_r.pair_cover_index()
    thirds = [{v for e in cover.covering(y, z) for v in e if v not in (y, z)}
              for y, z in pairs]
    return sorted(v for v in set.intersection(*thirds) if g_r.part_of[v] == 0)


# ---------------------------------------------------------------------------
# the nine-vertex witness


@dataclass
class FWitness:
    """Three disjoint part edges xs, ys, zs plus all 27 cross triples."""

    xs: tuple
    ys: tuple
    zs: tuple
    edges_used: list = field(default_factory=list)
    tk: Embedding | None = None

    def as_json(self) -> dict:
        return {
            "xs": list(self.xs), "ys": list(self.ys), "zs": list(self.zs),
            "edges_used": [list(e) for e in self.edges_used],
            "tk": self.tk.as_json() if self.tk else None,
        }


def _f_edges(xs, ys, zs) -> list:
    """The 30 edges of the nine-vertex witness: the three part edges,
    then the x, y, z product, each sorted."""
    return [tuple(sorted(e)) for e in (xs, ys, zs)] + [
        tuple(sorted((x, y, z))) for x in xs for y in ys for z in zs]


def recheck_f_witness(h: PartitionedHypergraph, w: FWitness) -> bool:
    """The nine vertices are distinct and all 30 edges are in h; a
    non-empty `edges_used` must list exactly those edges, in order."""
    vs = list(w.xs) + list(w.ys) + list(w.zs)
    if len(set(vs)) != 9:
        return False
    needed = _f_edges(w.xs, w.ys, w.zs)
    if w.edges_used and [tuple(e) for e in w.edges_used] != needed:
        return False
    return all(e in h.edges for e in needed)


def _balanced_partition(n: int, parts: int, rng) -> tuple:
    order = list(range(n))
    rng.shuffle(order)
    labels = [0] * n
    for i, v in enumerate(order):
        labels[v] = i % parts
    return tuple(labels)


def _trials(h: PartitionedHypergraph, stream: str, seed: int, tries: int,
            threshold: int, attempt):
    """The retry loop of the witness pipelines: the first result of
    `attempt(cleaned, trial)` over trials 0 .. tries-1, else the last
    PipelineFailure raised.

    The trial's labels are the hypergraph's own three parts when it has
    them, otherwise a balanced partition drawn from substream(seed,
    stream, trial); `cleaned.part_of` holds them.  `cleaned` keeps the
    edges meeting all three classes, after `clean_low_codegree` at the
    threshold; a trial where none survives fails at "cleaning".  Own
    parts are the same in every trial, so they are cleaned once, before
    the loop."""
    if h.r != 3:
        raise ValueError("witness pipelines are for 3-uniform hypergraphs")

    def clean(labels):
        cross = PartitionedHypergraph(h.n, 3, h.edge_array, labels).cross_edges()
        return clean_low_codegree(PartitionedHypergraph(h.n, 3, cross, labels),
                                  threshold)

    own = clean(h.part_of) if _has_three_parts(h) else None
    failure = PipelineFailure("init")
    for trial in range(tries):
        cleaned = own if own is not None else clean(_balanced_partition(
            h.n, 3, substream(seed, stream, trial)))
        try:
            if not len(cleaned.edge_array):
                raise PipelineFailure("cleaning",
                                      "no edges survive the codegree sweep")
            return attempt(cleaned, trial)
        except PipelineFailure as exc:
            failure = exc
    raise failure


def _has_three_parts(h: PartitionedHypergraph) -> bool:
    return h.parts == 3 and all(p != UNPARTITIONED for p in h.part_of)


def find_f_witness(h: PartitionedHypergraph, params: DrcParams,
                   seed: int = 0) -> FWitness:
    """Best-effort pipeline for the nine-vertex witness and its core
    subdivision extension.

    Partition into three classes, keep the cross edges, clean low
    codegrees, run the hypergraph form to get an auxiliary graph on the
    last two classes, run the graph form for a well-connected set U, pick
    the larger side, then locate the three part edges by nested common
    neighborhoods.  Raises PipelineFailure tagged with the first stage
    that failed on the final retry."""
    return _trials(h, "f-partition", seed, params.retries,
                   params.codegree_threshold,
                   lambda cleaned, trial: _f_witness_once(
                       h, cleaned, params, seed, trial))


def _f_witness_once(h, cleaned, params, seed, trial):
    try:
        aux = hyper_drc(cleaned, params.s, seed=seed * 1000003 + trial)
    except ValueError as exc:
        raise PipelineFailure("hyper-drc", str(exc))
    if not len(aux.edge_array):
        raise PipelineFailure("hyper-drc", "empty auxiliary graph")

    labels = cleaned.part_of
    verts23 = [v for v in range(h.n) if labels[v] in (1, 2)]
    g = as_graph(aux).induced(verts23)
    # the asymptotic feasibility inequality is vacuous at desk scale, so
    # the pipeline runs the verification-gated search unconditionally
    gp = replace(params, n=g.n, r=3)
    u_idx = drc_find_set(g, gp, seed=seed * 7 + trial, require_feasible=False)
    if u_idx is None:
        raise PipelineFailure("drc-set", "no verified set within retries")
    u_host = {verts23[i] for i in u_idx}

    side3 = {v for v in u_host if labels[v] == 2}
    side2 = {v for v in u_host if labels[v] == 1}
    if len(side3) >= len(side2):
        u_prime, e2_label = side3, 1
    else:
        u_prime, e2_label = side2, 2

    e3 = contained_edge(h, u_prime)
    if e3 is None:
        raise PipelineFailure("edge-in-set", "no hyperedge inside the chosen side")

    common = _common(g.adjacency_masks(), np.searchsorted(verts23, e3).tolist())
    common_host = {verts23[i] for i in range(g.n)
                   if common >> i & 1 and labels[verts23[i]] == e2_label}
    e2 = contained_edge(h, common_host)
    if e2 is None:
        raise PipelineFailure("edge-in-neighborhood",
                              "no hyperedge among the common neighbors")

    # cleaned carries the trial's labels, so its first part is label 0
    e1 = contained_edge(h, _extensions(cleaned, list(product(e2, e3))))
    if e1 is None:
        raise PipelineFailure("edge-in-extensions",
                              "no hyperedge among the full extensions")

    witness = FWitness(xs=e1, ys=e2, zs=e3, edges_used=_f_edges(e1, e2, e3))
    if not recheck_f_witness(h, witness):
        raise PipelineFailure("verification", "assembled witness failed recheck")
    # core subdivision on x1,x2,y1,y2,z1,z2 with a fresh third vertex per pair
    witness.tk = _tk_extension(h, h.pair_cover_index(),
                               [*e1[:2], *e2[:2], *e3[:2]])
    return witness


def _tk_extension(h: PartitionedHypergraph, cover: PairCoverIndex, cores,
                  fixed=None) -> Embedding | None:
    """The `subdivision` of h on the cores, rechecked.  The extension is
    optional, so None also stands for a search that ran out of its node
    budget; an extension that fails `recheck_cores` raises
    PipelineFailure at "verification"."""
    try:
        emb = subdivision(cover, cores, _Counter(resolve_budget()), fixed)
    except BudgetExceeded:
        return None
    if emb is not None and not recheck_cores(h, emb, len(cores), fresh=True):
        raise PipelineFailure("verification",
                              "subdivision extension failed recheck")
    return emb


# ---------------------------------------------------------------------------
# the five-core and four-core witnesses


def find_tkf5_tk4(h: PartitionedHypergraph, eps: float,
                  codegree_threshold: int = 16,
                  seed: int = 0, retries: int = DEFAULT_RETRIES):
    """Witness extraction by codegree cleaning: find a maximum-codegree
    cross pair (x, y), collect its link Z in the third class, take a
    hyperedge E inside Z; x, y and E give a five-core cover witness, and
    fresh third vertices extend x, y and two of E to a four-core
    subdivision.  Returns (five_core, four_core_or_None); raises
    PipelineFailure when no qualifying pair or no edge in Z exists, and
    ValueError for an eps outside (0, 1]."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    tries = 1 if _has_three_parts(h) else retries
    return _trials(h, "tkf5-partition", seed, tries, codegree_threshold,
                   lambda cleaned, trial: _tkf5_once(h, cleaned, eps))


def _tkf5_once(h, cleaned, eps):
    # every pair of a three-partite edge is a cross pair
    cleaned_cover = cleaned.pair_cover_index()
    need = eps * h.n
    # the first maximum: pairs are in lexicographic order
    i = int(np.argmax(cleaned_cover.codegrees))
    top = int(cleaned_cover.codegrees[i])
    best = tuple(cleaned_cover.pairs[i].tolist())
    if top < need:
        raise PipelineFailure("no-qualifying-pair",
                              f"max codegree {top} below eps*n = {need:.1f}")
    x, y = best
    z_set = sorted(v for e in cleaned_cover.covering(x, y) for v in e
                   if v not in best)
    e_in_z = contained_edge(h, z_set)
    if e_in_z is None:
        raise PipelineFailure("no-edge-in-link", "link set spans no hyperedge")

    cover = h.pair_cover_index()
    # x y and each vertex of Z share a cleaned edge, E covers its own pairs
    tkf5 = _core_embedding(sorted([x, y, *e_in_z]), lambda a, b: (
        cleaned_cover.covering(a, b) or cover.covering(a, b)))
    if not recheck_tkf_core(h, tkf5):
        raise PipelineFailure("verification", "five-core witness failed recheck")

    # x, y and two vertices of E; the third vertex of E is the fresh one
    tk4 = _tk_extension(h, cover, [x, y, *e_in_z[:2]], {e_in_z[:2]: e_in_z})
    return tkf5, tk4


def recheck_tk4(h: PartitionedHypergraph, emb: Embedding) -> bool:
    return recheck_cores(h, emb, 4, fresh=True)
