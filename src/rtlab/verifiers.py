"""Exhaustive and heuristic checkers for construction properties.

Exact clique search that branches only on candidates whose greedy color
can still complete K_s, the exact hypergraph independence number
(K_t-independence is that of the t-clique hypergraph), subdivision (TK)
and core-cover (TKF) pattern finders, the two-parts split-core scan, the
sparse connected-pattern scan, and density reports.  The searches hold
vertex sets as int bitmasks: the clique, TK and split-core searches read
the graph's or the shadow's adjacency rows, and the sparse scan one
vertex mask per edge, each made by one numpy pass.  The two exact
solvers, the clique search (and TKF through it) and the hypergraph
independence search (and alpha_t through it), first number the
vertices by non-increasing degree (`_degree_order`, the initial order
of Tomita and Seki's colouring bound), which keeps their search trees
smaller; a clique witness is mapped back to the input's labels.  Both
number their bits mirrored, so that each step reads the vertex or edge
it takes next as the highest bit, by one `bit_length()`: the clique
search gives the vertex numbered i of the h with a neighbour bit
h - 1 - i, and the independence search numbers the edges in descending
vertex-mask order.  Each step still takes the vertex or edge that the
degree order names, so the trees, node counts and witnesses are those
of that order.  `_cliques` walks from the lowest bit, since its
lexicographic order fixes its callers' witnesses.

Every search counts its nodes on one `_Counter`, which resolves the
budget (per-call argument, else env RTLAB_BUDGET, else DEFAULT_BUDGET),
and raises BudgetExceeded, carrying whatever certified bound was
reached.  The alpha_t, TK and split-core searches and the greedy
K_{t+1}-free graph of `constructions` list cliques by one walk,
`_cliques`, which takes the caller's counter.  No search recurses:
each walks an explicit stack and keeps no state it can work out from
it.  The searches return their witnesses unchecked;
`rtlab verify` and the drc pipelines pass each through the separate
recheck_* code paths before it leaves.  The core-pattern witnesses (K_s,
TKF, split-core and TK) share one builder, `_core_embedding`, and one
recheck, `recheck_cores`, which reads the witness's own edge for each
core pair.
"""

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from . import CapExceeded
from .hypergraph import (UNPARTITIONED, PairCoverIndex, PartitionedHypergraph,
                         SimpleGraph, _bit_rows, _runs)

DEFAULT_BUDGET = 20_000_000


class BudgetExceeded(CapExceeded):
    """A search ran out of its node budget after `nodes` nodes;
    `certified` holds the best bound it had proved, None for none."""

    def __init__(self, certified=None, nodes=0):
        super().__init__(certified, nodes)
        self.certified = certified
        self.nodes = nodes

    def __str__(self):
        return (f"budget exceeded after {self.nodes} nodes "
                f"(certified: {self.certified})")


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
    """The nodes one search has spent, against its budget: the argument,
    else env RTLAB_BUDGET, else DEFAULT_BUDGET.  A negative budget raises
    ValueError; 0 is legal."""

    __slots__ = ("nodes", "budget")

    def __init__(self, budget=None):
        if budget is None:
            budget = os.environ.get("RTLAB_BUDGET", DEFAULT_BUDGET)
        self.budget = int(budget)
        if self.budget < 0:
            raise ValueError(f"node budget must be >= 0, got {self.budget}")
        self.nodes = 0

    def tick(self, certified=None):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(certified, self.nodes)


# ---------------------------------------------------------------------------
# exact clique search


def _color_sort(cand: int, nonadj: list, bits: list, kmin: int) -> list:
    """Greedy coloring of the candidate bitmask, highest bit first; the
    classes of color >= kmin, as bitmasks, in color order.

    Indexed by a bit's `bit_length()`, v + 1 for bit v, `bits` holds the
    bit and `nonadj` ~(adj[v] | 1 << v) within a bitmask holding every
    candidate, for each vertex v that can be one (index 0 holds 0): a
    color class takes the highest vertex left and keeps the candidates
    outside its neighbourhood.  The classes below kmin are only cleared
    from the candidates.  `find_clique` numbers its bits mirrored, so the
    highest bit is the first vertex of its order."""
    classes = []
    color = 1
    while cand:
        q = cand
        cls = 0
        while q:
            b = q.bit_length()
            q &= nonadj[b]
            cls |= bits[b]
        cand ^= cls
        if color >= kmin:
            classes.append(cls)
        color += 1
    return classes


def _degree_order(n: int, edges: np.ndarray):
    """The vertices numbered by non-increasing degree in the edge rows,
    ties in vertex order, so the vertices in no row come last: (order,
    rank, held), where order[i] is the vertex numbered i, rank[v] the
    number of vertex v, and held the count of vertices in some row."""
    degree = np.bincount(edges.ravel(), minlength=n)
    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return order, rank, int(np.count_nonzero(degree))


def find_clique(g: SimpleGraph, s: int, budget=None) -> Embedding | None:
    """Exact K_s search (branch and bound on a greedy coloring).

    The search numbers the vertices by non-increasing degree
    (`_degree_order`) and maps its witness back to g's labels.  Each
    level colors its candidates greedily in that order and branches,
    highest color first, only on those of color at least s minus the
    clique size there: a vertex of color c leaves open only candidates
    of its c color classes, each an independent set.  The vertex sets
    are int bitmasks, and the coloring reads each vertex's non-neighbour
    mask, made once per search.  One explicit stack holds a frame per
    level, its untried candidates and the classes left to branch on; the
    search places the last vertex, in the order, of the last class and
    clears it from both, so backtracking only pops the frame.

    The bits are the order mirrored: of the h vertices with a neighbour,
    the one numbered i holds bit h - 1 - i, so the coloring takes each
    class's next vertex as the highest bit left and the branch places
    the lowest bit of the last class.  Those are the vertices that the
    order names, so the search tree, its node count and the witness are
    those of the degree order.

    The vertices without a neighbour are numbered last and left out: the
    masks span only the vertices with a neighbour, which are the root
    candidates.  Leaving the others out changes no branch: each would
    fall in color class 1, which bounds no other class and, as s >= 2,
    is not branched on at the root; deeper candidates lie in
    neighbourhoods.
    Returns an embedding of K_s or None if the graph is K_s-free.
    """
    if s < 1:
        raise ValueError(f"clique size must be >= 1, got {s}")
    if s == 1:
        return _core_embedding([0], lambda a, b: [(a, b)]) if g.n else None
    order, rank, held = _degree_order(g.n, g.edge_array)
    a, b = (held - 1 - rank[g.edge_array]).T
    adj = _bit_rows(held, held, np.concatenate((a, b)), np.concatenate((b, a)))
    counter = _Counter(budget)
    root = (1 << held) - 1
    # indexed by bit_length: entry v + 1 belongs to bit v
    bits = [0, *(1 << v for v in range(held))]
    nonadj = [0, *(root ^ (a | bits[v + 1]) for v, a in enumerate(adj))]
    # an explicit stack, so the depth is not bounded by the recursion
    # limit: clique[i] was placed from stack[i], a frame [untried
    # candidates, class, ..., class] of the classes left to branch on
    clique: list = []
    stack = [[root, *_color_sort(root, nonadj, bits, s)]]
    while stack:
        frame = stack[-1]
        if len(frame) == 1:
            stack.pop()
            if clique:
                clique.pop()
            continue
        # the lowest bit of the last class, cleared from the frame
        bit = frame[-1] & -frame[-1]
        frame[-1] ^= bit
        if not frame[-1]:
            frame.pop()
        frame[0] ^= bit
        counter.tick()
        v = bit.bit_length() - 1
        clique.append(v)
        if len(clique) == s:
            break
        cand = frame[0] & adj[v]
        stack.append([cand, *_color_sort(cand, nonadj, bits,
                                         s - len(clique))])
    else:
        return None
    return _core_embedding(sorted(order[held - 1 - np.array(clique)].tolist()),
                           lambda a, b: [(a, b)])


def recheck_clique(g: SimpleGraph, emb: Embedding) -> bool:
    """`recheck_cores` of a clique; perfbench/wl_search.py calls it."""
    return recheck_cores(g, emb, len(emb.vertex_map))


def _cliques(rows: list, size: int, cand: int, counter: _Counter):
    """Every strictly increasing sequence of `size` vertices from the
    bitmask `cand` in which each vertex is adjacent in the bitmask rows
    to all earlier ones, in lexicographic order: each clique once.

    Depth-first over an explicit stack of untried-vertex bitmasks, one
    tick of the (required) `counter` for each vertex placed, so every
    caller runs under a node budget; a sequence is yielded as soon
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
    """Exact maximum size of a vertex set containing no full hyperedge,
    by `_independence` under one node budget."""
    return _independence(h.n, h.edge_array, _Counter(budget))


def _independence(n: int, edges: np.ndarray, counter: _Counter) -> int:
    """Exact maximum size of a set of the n vertices containing no row of
    the int64 (m, r) array `edges` whole; the rows are distinct sets.

    Depth-first over an explicit stack of (live edges, forced mask, size)
    nodes.  The current set is every vertex not yet dropped, `live` holds
    the edges wholly inside it, and forced vertices may not be dropped.
    The vertices are numbered by non-increasing degree (`_degree_order`)
    and `live` is an int bitmask over the edge numbers.  An edge's mask
    is its vertex bitmask in that numbering; the edges are numbered in
    descending mask order, so the live edge of lowest mask is the
    highest bit of `live`, read by one `bit_length()`.  Each live edge
    needs a removed vertex of its own, so a greedy packing of
    pairwise-disjoint live edges bounds the set by size - packing, and
    the node is pruned when that is <= best.  The packing takes the
    live edge of lowest mask and clears every edge meeting it, by one
    mask per picked edge, made on the edge's first pick and kept.  A
    node with live edges branches on the free vertices f1 < f2 < ... of
    the one of lowest mask: branch i drops f_i, keeping the live edges
    without it (one incidence mask per vertex), and forces f_1 ..
    f_(i-1), so the branches are disjoint and cover every case.  No
    live edge is ever all forced: its largest vertex was forced beside
    a larger dropped vertex of an ancestor's lowest-mask edge, which
    would then have had the larger mask.  One tick of `counter` per
    expanded node, which raises BudgetExceeded with the best size found
    so far as its certified bound.
    """
    _, rank, held = _degree_order(n, edges)
    # each row renumbered and ascending, the rows in descending vertex
    # bitmasks: by last vertex, then the ones before
    rows = np.sort(rank[edges], axis=1)
    rows = rows[np.lexsort(rows.T)[::-1]]
    m, r = rows.shape
    full = (1 << m) - 1
    inc = _bit_rows(held, m, rows.ravel(), np.repeat(np.arange(m), r))
    without = [full ^ e for e in inc]  # the edges missing each vertex
    rows = rows.tolist()
    apart = [None] * m  # the edges disjoint from each picked edge
    best = 0
    stack = [(full, 0, n)]
    while stack:
        live, forced, size = stack.pop()
        room = size - best  # a packing this large prunes the node
        rest = live
        packed = 0
        while rest and packed < room:
            i = rest.bit_length() - 1
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
        for v in rows[live.bit_length() - 1]:
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
    lists them and `_independence` searches their rows.  The walk starts
    only from the vertices with a neighbour, since no other vertex lies
    in a t-clique, so an isolated vertex costs it nothing.  The listing
    and the search share one node budget, so the search gets what the
    listing left; a listing that runs out raises BudgetExceeded with the
    certified lower bound 0.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    counter = _Counter(budget)
    rows = g.adjacency_masks()
    try:
        cliques = list(_cliques(rows, t, reduce(or_, rows, 0), counter))
    except BudgetExceeded as exc:
        exc.certified = 0
        raise
    # int64 even when empty, as `rank[...]` indexes by it
    edges = np.array(cliques, dtype=np.int64).reshape(len(cliques), t)
    return _independence(g.n, edges, counter)


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
    if (len(set(cores)) != s or len(emb.edges_used) != len(pairs)
            or not all(h.contains(emb.edges_used))):
        return False
    for (a, b), e in zip(pairs, emb.edges_used):
        if a not in e or b not in e:
            return False
        if fresh:
            want += [(v, "subdivision") for v in e if v != a and v != b]
    return got == want and len({v for v, _ in want}) == len(want)


def recheck_tkf_core(h: PartitionedHypergraph, emb: Embedding) -> bool:
    """`recheck_cores` of a core cover; perfbench/wl_search.py calls it."""
    return recheck_cores(h, emb, len(emb.vertex_map))


def private_edges(cover: PairCoverIndex, pairs: list, used: set,
                  counter: _Counter) -> list | None:
    """One covering edge per core pair, each edge's vertices outside its
    pair fresh: not in `used` and not in any other chosen edge.

    Depth-first over first-fit choices in the index order, one budget
    node per tentative choice; returns the edges in pair order, or None
    when no such choice exists.  An explicit stack keeps each pair's next
    position in its cover list, looked up when the pair is first reached;
    the edge chosen for pair i is the one just before that position.
    """
    used = set(used)
    covers: list = []  # covers[i]: the covering edges of pair i
    nxt = [0]  # nxt[i]: the position in pair i's cover list to try next
    while len(nxt) <= len(pairs):
        i = len(nxt) - 1
        a, b = pairs[i]
        if i == len(covers):
            covers.append(cover.covering(a, b))
        es = covers[i]
        for j in range(nxt[i], len(es)):
            outside = [v for v in es[j] if v != a and v != b]
            if not any(v in used for v in outside):
                break
        else:
            # pair i has no choice left: take back the choice of pair i-1
            nxt.pop()
            if i == 0:
                return None
            a, b = pairs[i - 1]
            taken = covers[i - 1][nxt[i - 1] - 1]
            used.difference_update(v for v in taken if v != a and v != b)
            continue
        counter.tick()
        nxt[i] = j + 1
        used.update(outside)
        nxt.append(0)
    return [edges[k - 1] for edges, k in zip(covers, nxt)]


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
    vertices are fresh across the whole embedding.  The cores are tried
    as the s-cliques of the shadow graph in lexicographic order, the walk
    starting only from the vertices that some hyperedge covers."""
    if s < 2:
        raise ValueError(f"need at least 2 core vertices, got {s}")
    counter = _Counter(budget)
    cover = h.pair_cover_index()
    shadow_rows = SimpleGraph(h.n, cover.pairs).adjacency_masks()
    for cores in _cliques(shadow_rows, s, reduce(or_, shadow_rows, 0),
                          counter):
        emb = subdivision(cover, cores, counter)
        if emb is not None:
            return emb
    return None


def recheck_tk(h: PartitionedHypergraph, emb: Embedding, s: int) -> bool:
    """`recheck_cores` of a TK_s; perfbench/wl_search.py calls it."""
    return recheck_cores(h, emb, s, fresh=True)


# ---------------------------------------------------------------------------
# split-core scan (two cores in each of two parts)


def scan_split_core(h: PartitionedHypergraph, budget=None) -> Embedding | None:
    """Four vertices, two in part i and two in part j != i, with all six
    pairs covered by hyperedges.  Returns the first witness in
    lexicographic order, or None.

    The scan reads the shadow's bitmask rows and one bitmask per part.
    For each covered pair a < b of part i and each later part j, the
    second pair is the first edge c < d that the clique walk `_cliques`
    lists among a and b's common neighbours in part j: one budget node
    per c tried, and one for the d that completes a witness."""
    counter = _Counter(budget)
    # no witness without two parts: answered before the pair-cover index,
    # which a few very wide edges can make larger than memory (min and
    # max, as np.unique would import numpy.ma)
    labelled = h.part_of[h.part_of != UNPARTITIONED]
    if not labelled.size or labelled.min() == labelled.max():
        return None
    cover = h.pair_cover_index()
    adj = SimpleGraph(h.n, cover.pairs).adjacency_masks()
    pa, pb = h.part_of[cover.pairs].T
    same = (pa == pb) & (pa != UNPARTITIONED)
    inside, labels = cover.pairs[same], pa[same]
    parts = sorted(set(labels.tolist()))  # the parts with a covered inside pair
    vs = np.flatnonzero(np.isin(h.part_of, parts))
    part_masks = _bit_rows(len(parts), h.n,
                           np.searchsorted(parts, h.part_of[vs]), vs)
    for i, pi in enumerate(parts):
        pairs_i = inside[labels == pi].tolist()
        for part_j in part_masks[i + 1:]:
            for a, b in pairs_i:
                for c, d in _cliques(adj, 2, adj[a] & adj[b] & part_j,
                                     counter):
                    return _core_embedding((a, b, c, d), cover.covering)
    return None


def recheck_split_core(h: PartitionedHypergraph, emb: Embedding) -> bool:
    """Four cores that pass `recheck_cores`, the first two in one part
    and the last two in another; unlabelled vertices are in no part."""
    if not recheck_cores(h, emb, 4):
        return False
    a, b, c, d = h.part_of[list(emb.vertex_map.values())].tolist()
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


def connected_edge_subsets(h: PartitionedHypergraph, masks: list,
                           max_vertices: int, counter: _Counter, stop_at,
                           dead=frozenset()):
    """Yield (edge-index tuple, vertex count) for every connected
    sub-collection of two or more edges with at most max_vertices
    vertices and no edge whose index (a row of h.edge_array) is in `dead`;
    `masks` holds each row's vertex set as an int bitmask.

    Exact-once enumeration (ESU, Wernicke 2006: grow from the minimum
    edge index with an exclusive extension list).  When `stop_at(v, m)`
    is true for a yielded subset it is not extended further; every subset
    all of whose proper connected prefixes fail stop_at is still reached,
    so in particular every minimal satisfying subset is yielded.  Each
    edge's neighbours (the edges sharing a vertex with it) come from one
    sort of the rows' vertex incidences.  A neighbour u of the edge just
    added joins the extension list when it is above the seed, not dead,
    and meets none of the parent subset's vertices (`masks[u] & verts`
    is 0): otherwise it neighbours an earlier edge of the subset, so it
    already sits in an extension list on this path, or is dead.

    `dead` is read at every step, so its owner (`_sparse_witnesses`) may
    add to it between yields; the walk itself never changes it.
    Deleting edges changes no adjacency among the others, so the walk
    over the surviving edges is this walk with every node that holds a
    dead edge cut off, in the same order: after an addition the walk
    goes on exactly as a fresh walk of the survivors would after the
    subset just yielded.
    """
    rows = h.edge_array
    m, r = rows.shape
    kept = np.delete(np.arange(m), list(dead))  # the dead have no neighbours
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
        stack = [((seed,), masks[seed], base_ext)]
        while stack:
            subset, verts, ext = stack.pop()
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
                fresh = [u for u in nbr_lists[w] if u > seed
                         and not masks[u] & verts and u not in dead]
                stack.append((subset + (w,), nv, ext[i + 1:] + fresh))


def _pattern_embedding(edges_used: list) -> Embedding:
    vs = sorted({v for e in edges_used for v in e})
    return Embedding(dict(enumerate(vs)), {i: "pattern" for i in range(len(vs))},
                     list(edges_used))


def _sparse_witnesses(h: PartitionedHypergraph, ell: int, condition,
                      counter: _Counter):
    """Sorted edge-index tuples (rows of h.edge_array) of the connected
    sub-collections with at most ell vertices that satisfy the condition,
    in scan order, each with its last edge deleted once the consumer
    resumes the scan: the scan goes on over the survivors and never
    yields a collection holding a deleted edge.  A consumer that stops
    at the first witness deletes nothing.

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
    if m < 2:  # no pair, no walk: skip the pair-cover index
        return
    masks = _bit_rows(m, h.n, np.repeat(np.arange(m), r),
                      h.edge_array.ravel())
    cover = h.pair_cover_index()
    pairs = set()
    # only a pair covered twice or more joins two edges
    for i in np.flatnonzero(cover.codegrees >= 2).tolist():
        for e, f in combinations(cover.edge_indices(i), 2):
            if (masks[e] | masks[f]).bit_count() <= ell:
                pairs.add((e, f))
    dead = set()  # the last edge of each witness yielded
    for pair in sorted(pairs):
        if dead.isdisjoint(pair):
            yield pair
            dead.add(pair[-1])
    for subset, v in connected_edge_subsets(h, masks, ell, counter, condition,
                                            dead):
        if condition(v, len(subset)):
            yield subset
            dead.add(subset[-1])


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
    witness = next(_sparse_witnesses(h_part, ell, condition, _Counter(budget)),
                   None)
    if witness is None:
        return None
    rows = h_part.edge_array[list(witness)].tolist()
    return _pattern_embedding([tuple(e) for e in rows])


def recheck_sparse_pattern(h: PartitionedHypergraph, emb: Embedding,
                           ell: int) -> bool:
    condition = sparsity_condition(h.r)
    es = [tuple(sorted(e)) for e in emb.edges_used]
    if not es or len(set(es)) != len(es) or not all(h.contains(es)):
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
    set, which certifies it.  `budget` bounds the whole pass.  The scan
    deletes each witness's last edge itself, so the deleted set is the
    last edges of the witnesses it yields.
    """
    return sorted(w[-1] for w in _sparse_witnesses(h, ell, condition,
                                                   _Counter(budget)))


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
    `holds` when all pass.  The per-part rows (sizes, vertex caps and a
    graph's within-part counts) cover the labels present, in ascending
    order, so a label skipped by the numbering gets no row; a graph's
    between-part rows cover the label pairs an edge joins, in ascending
    order, so their number is at most the edge count.  Vertices labelled
    UNPARTITIONED are in no part.
    """
    rows = []
    m = len(obj.edge_array)
    rows.append(_row("vertices", obj.n))
    rows.append(_row("edges", m))
    # the labels present and their sizes, by one sort; a label may be far
    # above the number of parts, so nothing is sized by the largest label
    labels, sizes = (a.tolist() for a in np.unique(
        obj.part_of[obj.part_of != UNPARTITIONED], return_counts=True))
    if isinstance(obj, SimpleGraph):
        if obj.n > 1:
            rows.append(_row("edge_density", 2 * m / (obj.n * (obj.n - 1))))
        if obj.parts:
            blocks = Counter(map(tuple, obj._edge_labels().tolist()))
            for pi in labels:
                rows.append(_row(f"edges_within_part_{pi}",
                                 blocks.get((pi, pi), 0)))
            for (pi, pj), count in sorted(blocks.items()):
                if UNPARTITIONED < pi < pj:
                    rows.append(_row(f"edges_between_parts_{pi}_{pj}",
                                     count))
    else:
        h = obj
        cross = len(h.cross_edges())
        if h.parts:
            rows.append(_row("cross_edges", cross))
            rows.append(_row("inside_edges", len(h.inside_edges())))
            for p, size in zip(labels, sizes):
                rows.append(_row(f"part_{p}_size", size))
        meta = h.meta or {}
        if "base_cross" in meta and "blowup_t" in meta:
            t = meta["blowup_t"]
            expect = meta["base_cross"] * t ** h.r
            rows.append(_row("cross_blowup_identity", cross, reference=expect,
                             asserted=True, ok=cross == expect))
        if "tuple_count" in meta:
            cap = meta["tuple_count"]
            for p, size in zip(labels, sizes):
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
        # the one use of the cap measures here; imported on the call so
        # that the searches run without it
        from .capmeasure import min_domains
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
