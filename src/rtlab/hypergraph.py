"""Graph and r-uniform hypergraph data model.

Undirected simple graphs, partition-labelled r-uniform hypergraphs,
blowups, shadow graphs, complete joins, Turán hypergraphs, codegree
utilities, and the shared text file format.

Edges are stored as sorted vertex tuples and always iterated in
lexicographic order, so every pipeline built on these types is
reproducible.
"""

from dataclasses import dataclass, field
from itertools import combinations, product

UNPARTITIONED = -1


# ---------------------------------------------------------------------------
# simple graphs


@dataclass
class SimpleGraph:
    """Undirected graph on vertices 0..n-1 with optional part labels."""

    n: int
    edges: frozenset
    part_of: tuple | None = None

    def __post_init__(self):
        self.edges = frozenset(tuple(sorted(e)) for e in self.edges)
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
        if self.part_of is not None:
            self.part_of = tuple(self.part_of)
            if len(self.part_of) != self.n:
                raise ValueError("part_of must label every vertex")

    def adjacency_masks(self) -> list:
        """Neighbour bitmasks (int per vertex), for the exact solvers."""
        adj = [0] * self.n
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    def induced(self, vertices) -> "SimpleGraph":
        """Induced subgraph, vertices renumbered by sorted order."""
        vs = sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        edges = frozenset((index[a], index[b]) for a, b in self.edges
                          if a in index and b in index)
        parts = tuple(self.part_of[v] for v in vs) if self.part_of else None
        return SimpleGraph(len(vs), edges, parts)


def complete_join(g: SimpleGraph, t_graph: SimpleGraph) -> SimpleGraph:
    """Disjoint union of the two graphs plus all edges between them."""
    shift = g.n
    edges = set(g.edges)
    edges.update((a + shift, b + shift) for a, b in t_graph.edges)
    edges.update((a, b + shift) for a in range(g.n) for b in range(t_graph.n))
    return SimpleGraph(g.n + t_graph.n, frozenset(edges))


# ---------------------------------------------------------------------------
# partitioned hypergraphs


@dataclass
class PartitionedHypergraph:
    """r-uniform hypergraph on 0..n-1 with optional part labels per vertex.

    `part_of[v]` is a part index or UNPARTITIONED.  When parts are
    assigned, an edge meeting every part exactly once is a cross edge and
    an edge inside a single part is an inside edge.
    """

    n: int
    r: int
    edges: frozenset
    part_of: tuple = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.part_of is None:
            self.part_of = tuple([UNPARTITIONED] * self.n)
        else:
            self.part_of = tuple(self.part_of)
        if len(self.part_of) != self.n:
            raise ValueError("part_of must label every vertex")
        if self.part_of and min(self.part_of) < UNPARTITIONED:
            raise ValueError(f"part label {min(self.part_of)} is below "
                             f"{UNPARTITIONED}")
        edges = set()
        for e in self.edges:
            e = tuple(sorted(e))
            if len(e) != self.r or len(set(e)) != self.r:
                raise ValueError(f"edge {e} is not a set of {self.r} distinct vertices")
            if e and not (0 <= e[0] and e[-1] < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            edges.add(e)
        self.edges = frozenset(edges)

    @property
    def parts(self) -> int:
        labels = {p for p in self.part_of if p != UNPARTITIONED}
        return (max(labels) + 1) if labels else 0

    def part_vertices(self, p: int) -> list:
        return [v for v in range(self.n) if self.part_of[v] == p]

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def cross_edges(self) -> list:
        """Edges with their r vertices in r distinct labelled parts."""
        part_of = self.part_of
        return sorted(e for e in self.edges if len(
            {part_of[v] for v in e} - {UNPARTITIONED}) == self.r)

    def inside_edges(self) -> list:
        """Edges with every vertex in one labelled part."""
        part_of = self.part_of
        return sorted(e for e in self.edges
                      if len(ps := {part_of[v] for v in e}) == 1
                      and UNPARTITIONED not in ps)

    def induced(self, vertices) -> "PartitionedHypergraph":
        vs = sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        edges = frozenset(tuple(index[v] for v in e) for e in self.edges
                          if all(v in index for v in e))
        parts = tuple(self.part_of[v] for v in vs)
        return PartitionedHypergraph(len(vs), self.r, edges, parts)

    def pair_cover_index(self) -> dict:
        """pair (a, b) with a < b -> sorted list of covering edges."""
        cover: dict = {}
        for e in self.sorted_edges():
            for a, b in combinations(e, 2):
                cover.setdefault((a, b), []).append(e)
        return cover


# ---------------------------------------------------------------------------
# operations


def shadow(h: PartitionedHypergraph) -> SimpleGraph:
    """Graph on the same vertices; a pair is adjacent iff co-contained in
    some hyperedge."""
    edges = set()
    for e in h.edges:
        edges.update(combinations(e, 2))
    return SimpleGraph(h.n, frozenset(edges), _graph_labels(h))


def as_graph(h: PartitionedHypergraph) -> SimpleGraph:
    """The r=2 hypergraph as a SimpleGraph."""
    if h.r != 2:
        raise ValueError(f"expected a graph (r=2), found r={h.r}")
    return SimpleGraph(h.n, h.edges, _graph_labels(h))


def _graph_labels(h: PartitionedHypergraph) -> tuple | None:
    # SimpleGraph spells "no parts" as None, not as all-UNPARTITIONED labels
    return h.part_of if any(p != UNPARTITIONED for p in h.part_of) else None


def blowup(h: PartitionedHypergraph, t: int) -> PartitionedHypergraph:
    """t-blowup: vertex v becomes clones v*t .. v*t+t-1; every edge is
    replaced by all t^r transversal copies.  Part labels are inherited."""
    if t < 1:
        raise ValueError(f"blowup factor must be >= 1, got {t}")
    edges = set()
    for e in h.edges:
        choices = [[v * t + i for i in range(t)] for v in e]
        edges.update(tuple(sorted(c)) for c in product(*choices))
    parts = tuple(h.part_of[v] for v in range(h.n) for _ in range(t))
    return PartitionedHypergraph(h.n * t, h.r, frozenset(edges), parts,
                                 meta=dict(h.meta, blowup_t=t))


def turan_hypergraph(n: int, s: int, r: int) -> PartitionedHypergraph:
    """Complete s-partite r-uniform hypergraph with near-equal parts:
    every r-set meeting r distinct parts is an edge."""
    if s < r:
        raise ValueError(f"need at least r={r} parts, got s={s}")
    base, extra = divmod(n, s)
    sizes = [base + (1 if i < extra else 0) for i in range(s)]
    part_of = []
    for p, size in enumerate(sizes):
        part_of.extend([p] * size)
    groups = []
    start = 0
    for size in sizes:
        groups.append(list(range(start, start + size)))
        start += size
    edges = set()
    for chosen in combinations(range(s), r):
        edges.update(tuple(sorted(e))
                     for e in product(*(groups[p] for p in chosen)))
    return PartitionedHypergraph(n, r, frozenset(edges), tuple(part_of))


def codegree(h: PartitionedHypergraph, x: int, y: int) -> int:
    """Number of hyperedges containing both x and y."""
    if x == y:
        raise ValueError("codegree needs two distinct vertices")
    return sum(1 for e in h.edges if x in e and y in e)


def clean_low_codegree(h: PartitionedHypergraph,
                       threshold: int) -> PartitionedHypergraph:
    """Delete all edges of every cross-part pair whose codegree is in
    [1, threshold], repeated until every surviving cross pair has
    codegree 0 or > threshold.  The number of removed edges is recorded
    in meta."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    edges = set(h.edges)
    removed = 0
    while True:
        cover: dict = {}
        for e in edges:
            for a, b in combinations(e, 2):
                pa, pb = h.part_of[a], h.part_of[b]
                if pa != pb and pa != UNPARTITIONED and pb != UNPARTITIONED:
                    cover.setdefault((a, b), []).append(e)
        doomed = {e for es in cover.values() if len(es) <= threshold
                  for e in es}
        if not doomed:
            break
        edges -= doomed
        removed += len(doomed)
    return PartitionedHypergraph(h.n, h.r, frozenset(edges), h.part_of,
                                 meta=dict(h.meta, cleaned_edges=removed))


# ---------------------------------------------------------------------------
# file format
#
# line 1: `HG r n m parts`; then n part-label lines (-1 for none); then m
# lines of r sorted 0-based vertex indices.  Graphs use the same format
# with r=2.


def write_hypergraph(h: PartitionedHypergraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"HG {h.r} {h.n} {len(h.edges)} {h.parts}\n")
        for v in range(h.n):
            fh.write(f"{h.part_of[v]}\n")
        for e in h.sorted_edges():
            fh.write(" ".join(map(str, e)) + "\n")


def read_hypergraph(path: str) -> PartitionedHypergraph:
    """Parse the format above.  ValueError on a bad header or label line,
    a label below -1, a header part count other than the labels give, an
    edge line without r vertices, an edge listed twice, fewer than m edge
    lines, or a non-blank line after the m-th."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "HG":
            raise ValueError(f"not a hypergraph file: {path}")
        r, n, m, parts = map(int, header[1:])
        part_of = tuple(int(fh.readline()) for _ in range(n))
        edges = set()
        for i in range(m):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: header gives {m} edges, "
                                 f"file ends after {i}")
            e = tuple(sorted(int(x) for x in line.split()))
            if len(e) != r:
                raise ValueError(f"edge {e} does not have {r} vertices")
            if e in edges:
                raise ValueError(f"{path}: edge {e} listed twice")
            edges.add(e)
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: lines after the header's {m} edges")
    h = PartitionedHypergraph(n, r, frozenset(edges), part_of)
    if h.parts != parts:
        raise ValueError(f"{path}: header gives {parts} parts, "
                         f"the labels give {h.parts}")
    return h


def write_graph(g: SimpleGraph, path: str) -> None:
    parts = g.part_of if g.part_of is not None else [UNPARTITIONED] * g.n
    h = PartitionedHypergraph(g.n, 2, g.edges, tuple(parts))
    write_hypergraph(h, path)


def read_graph(path: str) -> SimpleGraph:
    return as_graph(read_hypergraph(path))
