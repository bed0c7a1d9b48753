"""Exhaustive and heuristic checkers for construction properties.

Exact clique search that branches only on candidates whose greedy color
can still complete K_s, the exact hypergraph independence number
(K_t-independence is that of the t-clique hypergraph), subdivision (TK)
and core-cover (TKF) pattern finders, the two-parts split-core scan, the
sparse connected-pattern scan, and density reports.  The searches hold
vertex sets as int bitmasks: the clique, TK and split-core searches read
the graph's or the shadow's adjacency rows, and the sparse scan one
vertex mask per edge, each made by one numpy pass.

Every search honours a node budget (env RTLAB_BUDGET or per-call
argument) and raises BudgetExceeded, carrying whatever certified bound
was reached.  Returned witnesses always re-validate through the separate
recheck_* code paths.  The core-pattern witnesses (K_s, TKF, split-core
and TK) share one builder, `_core_embedding`, and one recheck,
`recheck_cores`, which reads the witness's own edge for each core pair.
"""

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .hypergraph import (UNPARTITIONED, PairCoverIndex, PartitionedHypergraph,
                         SimpleGraph, _bit_rows, _runs)
from .sphere import min_domains

DEFAULT_BUDGET = 20_000_000


def resolve_budget(budget=None) -> int:
    """The node budget: the argument, else env RTLAB_BUDGET, else
    DEFAULT_BUDGET.  A negative budget raises ValueError; 0 is legal."""
    if budget is None:
        budget = os.environ.get("RTLAB_BUDGET", DEFAULT_BUDGET)
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    return budget


class BudgetExceeded(RuntimeError):
    """Search ran out of nodes; `certified` holds the best bound so far."""

    def __init__(self, message, certified=None, nodes=0):
        super().__init__(message)
        self.certified = certified
        self.nodes = nodes


@dataclass
class Embedding:
    """Injective pattern -> host vertex map with role tags and the host
    edges realizing each pattern edge."""

    vertex_map: dict
    roles: dict = field(default_factory=dict)
    edges_used: list = field(default_factory=list)

    def as_json(self) -> dict:
        return {
            "vertex_map": {str(k): int(v) for k, v in self.vertex_map.items()},
            "roles": {str(k): v for k, v in self.roles.items()},
            "edges_used": [list(map(int, e)) for e in self.edges_used],
        }


@dataclass
class VerificationReport:
    property_name: str
    verdict: str  # "holds" | "violated" | "unchecked" (nothing asserted)
    rows: list = field(default_factory=list)


class _Counter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget):
        self.nodes = 0
        self.budget = budget

    def tick(self, certified=None):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded("node budget exceeded", certified, self.nodes)


# ---------------------------------------------------------------------------
# exact clique search


def _color_sort(cand: int, nonadj: list, kmin: int) -> list:
    """Greedy coloring of the candidate bitmask in vertex order; the
    vertices of color >= kmin, in nondecreasing color order.

    `nonadj[v]` is ~(adj[v] | 1 << v) within the vertex bitmask: a color
    class takes the lowest vertex left and keeps the candidates outside
    its neighbourhood.  The classes below kmin are only cleared from the
    candidates, with no output built for them."""
    out = []
    rest = cand
    color = 1
    while rest and color < kmin:
        q = rest
        while q:
            low = q & -q
            q &= nonadj[low.bit_length() - 1]
            rest ^= low
        color += 1
    while rest:
        q = rest
        while q:
            low = q & -q
            v = low.bit_length() - 1
            q &= nonadj[v]
            rest ^= low
            out.append(v)
    return out


def find_clique(g: SimpleGraph, s: int, budget=None) -> Embedding | None:
    """Exact K_s search (branch and bound on a greedy coloring).

    Each level colors its candidates greedily in vertex order and
    branches, highest color first, only on those of color at least s
    minus the clique size there: a vertex of color c leaves open only
    candidates of its c color classes, each an independent set.  The
    vertex sets are int bitmasks, and the coloring reads each vertex's
    non-neighbour mask, made once per search.
    Returns an embedding of K_s or None if the graph is K_s-free.
    """
    if s < 1:
        raise ValueError(f"clique size must be >= 1, got {s}")
    if s == 1:
        return _core_embedding([0], lambda a, b: [(a, b)]) if g.n else None
    adj = g.adjacency_masks()
    counter = _Counter(resolve_budget(budget))
    full = (1 << g.n) - 1
    nonadj = [full ^ (a | 1 << v) for v, a in enumerate(adj)]
    # an explicit stack, so the depth is not bounded by the recursion
    # limit: clique[i] was placed from the branching list orders[i], and
    # pools[i] holds that level's candidates not yet searched through
    clique: list = []
    orders = [_color_sort(full, nonadj, s)]
    pools = [full]
    while orders:
        order = orders[-1]
        if not order:
            orders.pop()
            pools.pop()
            if clique:
                pools[-1] &= ~(1 << clique.pop())
            continue
        v = order.pop()
        counter.tick()
        clique.append(v)
        if len(clique) == s:
            break
        cand = pools[-1] & adj[v]
        orders.append(_color_sort(cand, nonadj, s - len(clique)))
        pools.append(cand)
    else:
        return None
    return _core_embedding(sorted(clique), lambda a, b: [(a, b)])


def recheck_clique(g: SimpleGraph, emb: Embedding) -> bool:
    return recheck_cores(g, emb, len(emb.vertex_map))


def _cliques(rows: list, size: int, cand: int, counter: _Counter | None = None):
    """Every strictly increasing sequence of `size` vertices from the
    bitmask `cand` in which each vertex is adjacent in the bitmask rows
    to all earlier ones, in lexicographic order: each clique once.

    Depth-first over an explicit stack of untried-vertex bitmasks, one
    `counter` tick for each vertex placed; a sequence is yielded as soon
    as it is complete.  No frame is pushed with fewer candidates than the
    vertices still to place (the root frame included), since no sequence
    can complete below it; the vertex placed is still ticked.
    """
    if size == 0:
        yield ()
        return
    if cand.bit_count() < size:
        return
    stack = [cand]
    seq: list = []
    while stack:
        untried = stack[-1]
        if not untried:
            stack.pop()
            if seq:
                seq.pop()
            continue
        low = untried & -untried
        v = low.bit_length() - 1
        stack[-1] = untried ^ low
        if counter is not None:
            counter.tick()
        if len(stack) == size:
            yield (*seq, v)
            continue
        # increasing: the next vertex comes from the untried ones above v
        nxt = stack[-1] & rows[v]
        if nxt.bit_count() < size - len(stack):
            continue
        seq.append(v)
        stack.append(nxt)


# ---------------------------------------------------------------------------
# independence numbers


def contained_edge(h: PartitionedHypergraph, vertices) -> tuple | None:
    """Lexicographically first hyperedge fully inside the vertex set."""
    inside = np.zeros(h.n, dtype=bool)
    inside[list(vertices)] = True
    hit = inside[h.edge_array].all(axis=1)
    return tuple(h.edge_array[hit.argmax()].tolist()) if hit.any() else None


def hyper_independence(h: PartitionedHypergraph, budget=None) -> int:
    """Exact maximum size of a vertex set containing no full hyperedge.

    Depth-first over an explicit stack of (live edges, forced mask, size)
    nodes.  The current set is every vertex not yet dropped, `live` holds
    the edges wholly inside it, and forced vertices may not be dropped.
    The edges are numbered in the order of their vertex bitmasks, and
    `live` is an int bitmask over those numbers.  Each live edge needs a
    removed vertex of its own, so a greedy packing of pairwise-disjoint
    live edges bounds the set by size - packing, and the node is pruned
    when that is <= best.  The packing takes the lowest live edge and
    clears every edge meeting it, by one mask per picked edge, made on
    the edge's first pick and kept.  A node with live edges branches on
    the free vertices f1 < f2 < ... of the lowest: branch i drops f_i,
    keeping the live edges without it (one incidence mask per vertex),
    and forces f_1 .. f_(i-1), so the branches are disjoint and cover
    every case.  No live edge is ever all forced: its largest vertex was
    forced beside a larger dropped vertex of an ancestor's lowest edge,
    which would then have had the larger mask.  One budget node per
    expanded node.
    """
    counter = _Counter(resolve_budget(budget))
    # ascending vertex bitmasks: the rows by last vertex, then the ones before
    rows = h.edge_array[np.lexsort(h.edge_array.T)]
    m, r = rows.shape
    full = (1 << m) - 1
    inc = _bit_rows(h.n, m, rows.ravel(), np.repeat(np.arange(m), r))
    without = [full ^ e for e in inc]  # the edges missing each vertex
    rows = rows.tolist()
    apart = [None] * m  # the edges disjoint from each picked edge
    best = 0
    stack = [(full, 0, h.n)]
    while stack:
        live, forced, size = stack.pop()
        room = size - best  # a packing this large prunes the node
        rest = live
        packed = 0
        while rest and packed < room:
            i = (rest & -rest).bit_length() - 1
            keep = apart[i]
            if keep is None:
                keep = full
                for v in rows[i]:
                    keep &= without[v]
                apart[i] = keep
            rest &= keep
            packed += 1
        if packed >= room:
            continue
        counter.tick(certified=best)
        if not live:
            best = size
            continue
        children = []
        for v in rows[(live & -live).bit_length() - 1]:
            bit = 1 << v
            if not forced & bit:
                children.append((live & without[v], forced, size - 1))
                forced |= bit
        # reversed, so that the branch dropping f1 pops first
        stack.extend(reversed(children))
    return best


def alpha_t(g: SimpleGraph, t: int, budget=None) -> int:
    """Exact maximum size of a vertex set inducing a K_t-free subgraph.

    alpha_2 is the usual independence number.  A vertex set is K_t-free
    exactly when it holds no t-clique of g, so this is the independence
    number of the t-uniform hypergraph of g's t-cliques: the clique walk
    lists them and `hyper_independence` searches it.  The listing and the
    search each run under the node budget; a listing that runs out raises
    BudgetExceeded with the certified lower bound 0.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    counter = _Counter(resolve_budget(budget))
    try:
        cliques = list(_cliques(g.adjacency_masks(), t, (1 << g.n) - 1,
                                counter))
    except BudgetExceeded as exc:
        exc.certified = 0
        raise
    return hyper_independence(PartitionedHypergraph(g.n, t, cliques), budget)


# ---------------------------------------------------------------------------
# TK and TKF pattern search


def find_tkf_core(h: PartitionedHypergraph, s: int, budget=None) -> Embedding | None:
    """s vertices with every pair covered by some hyperedge (core set of a
    TKF pattern); equivalently an s-clique of the shadow graph."""
    if s < 2:
        raise ValueError(f"core count must be >= 2, got {s}")
    cover = h.pair_cover_index()
    emb = find_clique(SimpleGraph(h.n, cover.pairs), s, budget)
    if emb is None:
        return None
    return _core_embedding(sorted(emb.vertex_map.values()), cover.covering)


def _core_embedding(cores, covering, subdivided=False) -> Embedding:
    """The cores, in the given order, as a core-pattern embedding: each
    pair realised by the first edge `covering(a, b)` lists for it.  With
    `subdivided`, each edge's vertices outside the cores follow the cores
    in the vertex map, in edge order, as subdivision vertices."""
    vm = dict(enumerate(cores))
    roles = {i: "core" for i in vm}
    edges = [covering(a, b)[0] for a, b in combinations(cores, 2)]
    if subdivided:
        for v in [v for e in edges for v in e if v not in cores]:
            roles[len(vm)] = "subdivision"
            vm[len(vm)] = v
    return Embedding(vm, roles, edges)


def recheck_cores(h: PartitionedHypergraph, emb: Embedding, s: int,
                  fresh: bool = False) -> bool:
    """s distinct cores, in vertex-map order, and one `edges_used` entry
    per core pair, in `combinations` order, each an edge of h containing
    its pair.  With `fresh` (a subdivision), each entry's other vertices
    are used nowhere else and follow the cores in the vertex map, in entry
    order; without it the vertex map holds the cores alone."""
    got = [(v, emb.roles.get(k)) for k, v in emb.vertex_map.items()]
    cores = [v for v, _ in got[:s]]
    want = [(v, "core") for v in cores]
    pairs = list(combinations(cores, 2))
    if len(set(cores)) != s or len(emb.edges_used) != len(pairs):
        return False
    for (a, b), e in zip(pairs, emb.edges_used):
        if tuple(sorted(e)) not in h.edges or a not in e or b not in e:
            return False
        if fresh:
            want += [(v, "subdivision") for v in e if v != a and v != b]
    return got == want and len({v for v, _ in want}) == len(want)


def recheck_tkf_core(h: PartitionedHypergraph, emb: Embedding) -> bool:
    return recheck_cores(h, emb, len(emb.vertex_map))


def private_edges(cover: PairCoverIndex, pairs: list, used: set,
                  counter: _Counter) -> list | None:
    """One covering edge per core pair, each edge's vertices outside its
    pair fresh: not in `used` and not in any other chosen edge.

    Depth-first over first-fit choices in the index order, one budget
    node per tentative choice; returns the edges in pair order, or None
    when no such choice exists.  An explicit stack keeps each pair's next
    position in its cover list, looked up when the pair is first reached.
    """
    used = set(used)
    chosen: list = []
    covers: list = []  # covers[i]: the covering edges of pair i
    nxt = [0]  # nxt[i]: the position in pair i's cover list to try next
    while len(nxt) <= len(pairs):
        i = len(nxt) - 1
        a, b = pairs[i]
        if i == len(covers):
            covers.append(cover.covering(a, b))
        es = covers[i]
        for j in range(nxt[i], len(es)):
            extras = [v for v in es[j] if v != a and v != b]
            if not any(v in used for v in extras):
                break
        else:
            # pair i has no choice left: take back the choice of pair i-1
            nxt.pop()
            if not chosen:
                return None
            a, b = pairs[i - 1]
            used.difference_update(v for v in chosen.pop() if v != a and v != b)
            continue
        counter.tick()
        nxt[i] = j + 1
        used.update(extras)
        chosen.append(es[j])
        nxt.append(0)
    return chosen


def subdivision(cover: PairCoverIndex, cores, counter: _Counter,
                fixed=None) -> Embedding | None:
    """Subdivision embedding on the sorted cores: each core pair outside
    `fixed` (pair -> edge) gets its `private_edges` edge, fresh also of the
    fixed edges' vertices.  None when no such choice of edges exists."""
    fixed = fixed or {}
    cores = sorted(cores)
    pairs = list(combinations(cores, 2))
    free = [p for p in pairs if p not in fixed]
    chosen = private_edges(cover, free, set(cores).union(*fixed.values()),
                           counter)
    if chosen is None:
        return None
    edges = {**fixed, **dict(zip(free, chosen))}
    return _core_embedding(cores, lambda a, b: [edges[a, b]], subdivided=True)


def find_tk(h: PartitionedHypergraph, s: int, budget=None) -> Embedding | None:
    """Embedding of the r-uniform K_s subdivision: s core vertices plus,
    for every core pair, a hyperedge through the pair whose other r-2
    vertices are fresh across the whole embedding."""
    if s < 2:
        raise ValueError(f"need at least 2 core vertices, got {s}")
    counter = _Counter(resolve_budget(budget))
    cover = h.pair_cover_index()
    shadow_rows = SimpleGraph(h.n, cover.pairs).adjacency_masks()
    # the cores are the s-cliques of the shadow, tried in lexicographic order
    for cores in _cliques(shadow_rows, s, (1 << h.n) - 1, counter):
        emb = subdivision(cover, cores, counter)
        if emb is not None:
            return emb
    return None


def recheck_tk(h: PartitionedHypergraph, emb: Embedding, s: int) -> bool:
    return recheck_cores(h, emb, s, fresh=True)


# ---------------------------------------------------------------------------
# split-core scan (two cores in each of two parts)


def scan_split_core(h: PartitionedHypergraph, budget=None) -> Embedding | None:
    """Four vertices, two in part i and two in part j != i, with all six
    pairs covered by hyperedges.  Returns the first witness in
    lexicographic order, or None.

    The scan reads the shadow's bitmask rows and one bitmask per part.
    For each covered pair a < b of part i and each later part j, the
    pairs c < d of a and b's common neighbours in part j are tried low
    bit first, one budget node each, by bit d of c's row."""
    counter = _Counter(resolve_budget(budget))
    cover = h.pair_cover_index()
    adj = SimpleGraph(h.n, cover.pairs).adjacency_masks()
    part_of = np.asarray(h.part_of, dtype=np.int64)
    pa, pb = part_of[cover.pairs].T
    same = (pa == pb) & (pa != UNPARTITIONED)
    inside, labels = cover.pairs[same], pa[same]
    parts = sorted(set(labels.tolist()))  # the parts with a covered inside pair
    vs = np.flatnonzero(np.isin(part_of, parts))
    part_masks = _bit_rows(len(parts), h.n,
                           np.searchsorted(parts, part_of[vs]), vs)
    for i, pi in enumerate(parts):
        pairs_i = inside[labels == pi].tolist()
        for part_j in part_masks[i + 1:]:
            for a, b in pairs_i:
                common = adj[a] & adj[b] & part_j
                while common:
                    c = (common & -common).bit_length() - 1
                    common ^= 1 << c
                    rest = common
                    while rest:
                        d = (rest & -rest).bit_length() - 1
                        rest ^= 1 << d
                        counter.tick()
                        if adj[c] >> d & 1:
                            return _core_embedding((a, b, c, d), cover.covering)
    return None


def recheck_split_core(h: PartitionedHypergraph, emb: Embedding) -> bool:
    """Four cores that pass `recheck_cores`, the first two in one part
    and the last two in another; unlabelled vertices are in no part."""
    if not recheck_cores(h, emb, 4):
        return False
    a, b, c, d = (h.part_of[v] for v in emb.vertex_map.values())
    return a == b != c == d and UNPARTITIONED not in (a, c)


# ---------------------------------------------------------------------------
# sparse connected patterns


def sparsity_condition(r: int):
    """Forbidden when v < r + (r-1)(m-1): the deletion condition at
    gamma = 0, so in cycle-rank form c = (r-1)m + 1 - v > 0."""
    return blowup_deletion_condition(r, 0)


def blowup_deletion_condition(r: int, gamma: float):
    """Forbidden when v + (1+gamma-r)(m-1) < r, i.e. when
    c = (r-1)m + 1 - v > gamma (m-1), where c, exact, is the cycle rank
    of a connected collection's vertex-edge incidence graph (v + m nodes,
    rm edges)."""
    return lambda v, m: gamma * (m - 1) < (r - 1) * m + 1 - v


def connected_edge_subsets(h: PartitionedHypergraph, max_vertices: int,
                           counter: _Counter, stop_at, dead=frozenset()):
    """Yield (edge-index tuple, vertex count) for every connected
    sub-collection of two or more edges with at most max_vertices
    vertices and no edge whose index (a row of h.edge_array) is in `dead`.

    Exact-once enumeration (ESU, Wernicke 2006: grow from the minimum
    edge index with an exclusive extension list).  When `stop_at(v, m)`
    is true for a yielded subset it is not extended further; every subset
    all of whose proper connected prefixes fail stop_at is still reached,
    so in particular every minimal satisfying subset is yielded.  Vertex
    sets are int bitmasks, and each edge's neighbours (the edges sharing
    a vertex with it) come from one sort of the rows' vertex incidences.

    `dead` is read at every step, so the caller may add to it between
    yields.  Deleting edges changes no adjacency among the others, so the
    walk over the surviving edges is this walk with every node that holds
    a dead edge cut off, in the same order: after an addition the walk
    goes on exactly as a fresh walk of the survivors would after the
    subset just yielded.
    """
    rows = h.edge_array
    m, r = rows.shape
    if r > max_vertices:
        return
    masks = _bit_rows(m, h.n, np.repeat(np.arange(m), r), rows.ravel())
    live = np.ones(m, dtype=bool)  # edges dead already have no neighbours
    live[list(dead)] = False
    kept = np.flatnonzero(live)
    order, _, start = _runs(rows[kept].ravel())
    incident = kept[order // r].tolist()  # each vertex's edges, ascending
    bounds = [*start.tolist(), len(incident)]
    nbrs = [set() for _ in range(m)]
    for lo, hi in zip(bounds, bounds[1:]):
        run = incident[lo:hi]
        for i in run:
            nbrs[i].update(run)
    nbr_lists = [sorted(nb - {i}) for i, nb in enumerate(nbrs)]

    for seed in range(m):
        if seed in dead:
            continue
        base_ext = [u for u in nbr_lists[seed] if u > seed and u not in dead]
        stack = [((seed,), masks[seed], base_ext, set(base_ext) | {seed})]
        while stack:
            subset, verts, ext, closed = stack.pop()
            if not dead.isdisjoint(subset):
                continue
            if len(subset) >= 2:
                v = verts.bit_count()
                yield tuple(sorted(subset)), v
                if stop_at(v, len(subset)):
                    continue
            # each candidate is excluded from its later siblings' subtrees
            # (exclusive extension lists keep the enumeration exact-once)
            for i, w in enumerate(ext):
                if w in dead:
                    continue
                ws = masks[w]
                nv = verts | ws
                if nv.bit_count() > max_vertices:
                    continue
                counter.tick()
                fresh = [u for u in nbr_lists[w]
                         if u > seed and u not in closed and u not in dead]
                stack.append((subset + (w,), nv, ext[i + 1:] + fresh,
                              closed | set(fresh)))


def _pattern_embedding(edges_used: list) -> Embedding:
    vs = sorted({v for e in edges_used for v in e})
    return Embedding(dict(enumerate(vs)), {i: "pattern" for i in range(len(vs))},
                     list(edges_used))


def _sparse_witnesses(h: PartitionedHypergraph, ell: int, condition,
                      counter: _Counter, dead):
    """Sorted edge-index tuples (rows of h.edge_array) of the connected
    sub-collections with at most ell vertices that satisfy the condition
    and hold no edge of `dead`, in scan order; the caller may add to
    `dead` between yields.

    Pairs first: every pair of edges sharing two or more vertices within
    ell vertices, in lexicographic order, then the `connected_edge_subsets`
    walk over the survivors.  The pair phase sets the deletion order and
    leaves one edge of each such pair dead before the walk starts (a scan
    stops at its first witness), so the walk meets only linear
    sub-collections.  As every overlapping pair is a witness, a condition
    that fails at (2r-2, 2), and an ell below r, raise ValueError.
    """
    r = h.r
    if ell < r:
        raise ValueError(f"pattern vertex cap {ell} is below r={r}")
    if not condition(2 * r - 2, 2):
        raise ValueError("the condition must hold for two edges sharing "
                         f"two vertices (v={2 * r - 2}, m=2)")
    m = len(h.edge_array)
    masks = _bit_rows(m, h.n, np.repeat(np.arange(m), r),
                      h.edge_array.ravel())
    cover = h.pair_cover_index()
    pairs = set()
    # only a pair covered twice or more joins two edges
    for i in np.flatnonzero(cover.codegrees >= 2).tolist():
        for e, f in combinations(cover.edge_indices(i), 2):
            if (masks[e] | masks[f]).bit_count() <= ell:
                pairs.add((e, f))
    for pair in sorted(pairs):
        if dead.isdisjoint(pair):
            yield pair
    for subset, v in connected_edge_subsets(h, ell, counter, condition, dead):
        if condition(v, len(subset)):
            yield subset


def scan_sparse_patterns(h_part: PartitionedHypergraph, r: int, ell: int,
                         budget=None, condition=None) -> Embedding | None:
    """First connected sub-collection with m >= 2 edges, at most ell
    vertices, and v below the sparsity threshold; None if there is none.

    Two phases: pairs of edges sharing two or more vertices are checked
    directly, after which only linear sub-collections remain to be grown.
    The condition must hold for such a pair, (v, m) = (2r-2, 2), as both
    conditions in use do, ell must be at least r, and r must be h_part.r;
    otherwise ValueError.  None is returned only after the walk has
    reached every candidate.
    """
    if r != h_part.r:
        raise ValueError(f"r={r} does not match the hypergraph's r={h_part.r}")
    if condition is None:
        condition = sparsity_condition(r)
    witness = next(_sparse_witnesses(h_part, ell, condition,
                                     _Counter(resolve_budget(budget)),
                                     frozenset()), None)
    if witness is None:
        return None
    rows = h_part.edge_array[list(witness)].tolist()
    return _pattern_embedding([tuple(e) for e in rows])


def recheck_sparse_pattern(h: PartitionedHypergraph, emb: Embedding,
                           ell: int) -> bool:
    condition = sparsity_condition(h.r)
    es = [tuple(sorted(e)) for e in emb.edges_used]
    if not es or len(set(es)) != len(es) or any(e not in h.edges for e in es):
        return False
    verts = set()
    for e in es:
        verts.update(e)
    if len(verts) > ell or not condition(len(verts), len(es)):
        return False
    # connectivity over shared vertices
    remaining = set(range(1, len(es)))
    frontier = {0}
    reached_verts = set(es[0])
    while frontier:
        frontier = {i for i in remaining if reached_verts & set(es[i])}
        for i in frontier:
            reached_verts.update(es[i])
        remaining -= frontier
    return not remaining


def sparse_pattern_doomed_edges(h: PartitionedHypergraph, ell: int,
                                condition, budget=None) -> list:
    """The ascending indices, into the rows of `h.edge_array`, of the
    edges whose deletion leaves no connected sub-collection with at most
    ell vertices that satisfies the condition.

    One pass of the sparse-pattern scan: each witness it finds has its
    lexicographically last edge deleted, and the scan goes on over the
    survivors from just after that witness.  The deleted set is the one
    a restart of the scan after every deletion would produce, since the
    scan of the survivors revisits only nodes already found clean.  The
    completed pass is therefore the exhaustive scan of the final edge
    set, which certifies it.  `budget` bounds the whole pass.
    """
    dead = set()
    for witness in _sparse_witnesses(h, ell, condition,
                                     _Counter(resolve_budget(budget)), dead):
        dead.add(witness[-1])
    return sorted(dead)


# ---------------------------------------------------------------------------
# density reports


def density_report(obj, params=None) -> VerificationReport:
    """Tabulate measured sizes against the closed-form reference terms.

    Only assumption-free identities are asserted (cross-count blowup
    identity, per-part vertex counts); a graph's per-block edge counts,
    the alpha-slack reference terms and the partition's volume bound on
    z (ok `no` when z is below it) are reported for inspection, never
    asserted.  The verdict is read off the asserted rows at the end:
    `unchecked` when none is asserted, else `violated` when one fails and
    `holds` when all pass.  A graph's blocks are its labelled parts;
    vertices labelled UNPARTITIONED are in none.
    """
    rows = []
    m = len(obj.edge_array)
    rows.append(_row("vertices", obj.n))
    rows.append(_row("edges", m))
    if isinstance(obj, SimpleGraph):
        if obj.n > 1:
            rows.append(_row("edge_density", 2 * m / (obj.n * (obj.n - 1))))
        if obj.parts:
            labels = sorted(set(obj.part_of) - {UNPARTITIONED})
            ends = np.sort(np.asarray(obj.part_of)[obj.edge_array], axis=1)
            blocks = Counter(map(tuple, ends.tolist()))
            for pi in labels:
                rows.append(_row(f"edges_within_part_{pi}",
                                 blocks.get((pi, pi), 0)))
            for i, pi in enumerate(labels):
                for pj in labels[i + 1:]:
                    rows.append(_row(f"edges_between_parts_{pi}_{pj}",
                                     blocks.get((pi, pj), 0)))
    else:
        h = obj
        cross = len(h.cross_edges())
        if h.parts:
            rows.append(_row("cross_edges", cross))
            rows.append(_row("inside_edges", len(h.inside_edges())))
            for p in range(h.parts):
                rows.append(_row(f"part_{p}_size", len(h.part_vertices(p))))
        meta = h.meta or {}
        if "base_cross" in meta and "blowup_t" in meta:
            t = meta["blowup_t"]
            expect = meta["base_cross"] * t ** h.r
            rows.append(_row("cross_blowup_identity", cross, reference=expect,
                             asserted=True, ok=cross == expect))
        if "tuple_count" in meta:
            cap = meta["tuple_count"]
            for p in range(h.parts):
                size = len(h.part_vertices(p))
                base = size // meta.get("blowup_t", 1)
                rows.append(_row(f"part_{p}_vertex_cap", base, reference=cap,
                                 asserted=True, ok=base <= cap))
        if params is not None:
            r, u, z = params.r, params.u, params.z
            rows.append(_row("vertex_bound_reference",
                             r * 2.0 ** (-math.comb(u, 2)) * z ** u))
            rows.append(_row("cross_bound_main_term",
                             2.0 ** (-math.comb(r * u, 2)) * z ** (r * u)))
            rows.append(_row("cross_bound_alpha_slack",
                             params.alpha * z ** (r * u)))
    if params is not None:
        min_z = min_domains(params.k, params.theta / 4.0)
        rows.append(_row("partition_z_volume_bound", params.z, reference=min_z,
                         ok=False if params.z < min_z else None))
    asserted = [row["ok"] for row in rows if row["asserted"]]
    verdict = ("unchecked" if not asserted
               else "holds" if all(asserted) else "violated")
    return VerificationReport("density", verdict, rows)


def _row(name, value, reference=None, asserted=False, ok=None):
    return {"quantity": name, "value": value, "reference": reference,
            "asserted": asserted, "ok": ok}
