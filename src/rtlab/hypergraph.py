"""Graph and r-uniform hypergraph data model.

Undirected simple graphs, partition-labelled r-uniform hypergraphs,
blowups, shadow graphs, complete joins, Turán hypergraphs, codegree
cleaning, and the shared text file format.

`PartitionedHypergraph` is the one edge store; `SimpleGraph` is its
r = 2 subclass, with neighbour bitmasks added.  The edges are stored
once, validated at construction, as `edge_array`: a read-only (m, r)
int32 array (int64 past 2^31 vertices) whose rows are the edges, each
row sorted, the rows distinct and in lexicographic order.  It is the
only store, and the searches read it: `edges`, the frozenset of the
same sorted tuples for the membership rechecks, is built from the array
on first read and then kept, so a graph whose edges nobody looks up
never makes a Python tuple per edge.  Every other view (the pair-cover
index, cross and inside rows, induced subgraphs, blowups, the file
writer and neighbour bitmasks) is a numpy pass over the array, made
afresh on each call.  Edges pass between functions as arrays or as row
indices into them; tuples are made only for `edges` and for the
covering edges of a looked-up pair.
`pair_cover_index` returns a `PairCoverIndex`: the covered pairs (a, b),
a < b, their codegrees, and the rows of the array covering each, in row
order.  It is the only sort of pair keys: the shadow is its pairs and
codegree cleaning reads its codegrees and covering rows.  Edges are
always iterated in lexicographic order, so every pipeline built on
these types is reproducible.
"""

from functools import cached_property
from itertools import combinations, product

import numpy as np

UNPARTITIONED = -1


def _sorted_rows(edges, n: int, r: int) -> np.ndarray:
    """The edges as an int64 array, one sorted row per edge in input
    order, every row a set of r distinct vertices in 0..n-1.  ValueError
    names the first edge without r distinct vertices (also when the
    edges have different lengths) or with a vertex out of range; an
    edge of the wrong length is found before any out-of-range one."""
    def not_a_set(e):
        return ValueError(f"edge {e} is not a set of {r} distinct vertices")

    def out_of_range(e):
        return ValueError(f"edge {e} out of range for n={n}")

    if isinstance(edges, np.ndarray):
        rows = edges.astype(np.int64, copy=False)
    else:
        edges = list(edges)
        try:
            rows = np.array(edges, dtype=np.int64)
        except (ValueError, TypeError, OverflowError):
            rows = None  # ragged, edges not sequences, or a vertex too large
    if rows is None or rows.shape != (len(edges), r):
        if isinstance(edges, np.ndarray):
            edges = edges.tolist()
        edges = [tuple(sorted(e)) for e in edges]
        for e in edges:
            if len(e) != r:
                raise not_a_set(e)
        try:
            rows = np.array(edges, dtype=np.int64).reshape(len(edges), r)
        except OverflowError:
            raise out_of_range(next(
                e for e in edges
                if not all(-2 ** 63 <= v < 2 ** 63 for v in e))) from None
    rows = np.sort(rows, axis=1)
    repeat = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    bad = repeat | (rows[:, 0] < 0) | (rows[:, -1] >= n)
    if bad.any():
        i = int(bad.argmax())
        e = tuple(rows[i].tolist())
        raise not_a_set(e) if repeat[i] else out_of_range(e)
    return rows


def _store(rows: np.ndarray, n: int) -> np.ndarray:
    """The validated sorted rows of vertices below n as a read-only
    array, distinct, in lexicographic order and int32 unless n needs
    more.  Rows already strictly increasing, such as the pair-cover
    index's pairs or an `edge_array`, skip the sort and the repeat scan."""
    if len(rows) > 1 and not _strictly_increasing(rows):
        rows = rows[np.lexsort(rows.T[::-1])]
        repeat = (rows[1:] == rows[:-1]).all(axis=1)
        if repeat.any():
            rows = rows[np.concatenate(([True], ~repeat))]
    rows = rows.astype(np.int32 if n <= 2 ** 31 else np.int64)
    rows.flags.writeable = False
    return rows


def _strictly_increasing(rows: np.ndarray) -> bool:
    """Whether each row is lexicographically above the one before: the
    first nonzero entry of every row difference is positive."""
    step = np.diff(rows, axis=0)
    first = (step != 0).argmax(axis=1)
    return bool((step[np.arange(len(step)), first] > 0).all())


def _bit_rows(n: int, width: int, row: np.ndarray, bit: np.ndarray) -> list:
    """n int bitmasks of `width` bits, bit bit[i] set in mask row[i]: the
    rows of a packed 0/1 matrix, made by one numpy pass."""
    packed = np.zeros((n, (width + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, (row, bit >> 3),
                     np.left_shift(1, bit & 7).astype(np.uint8))
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def _tuples(rows: np.ndarray):
    """The rows as tuples of Python ints, one by one (column lists
    zipped, so no list per row is made on the way)."""
    return zip(*rows.T.tolist())


def _runs(keys: np.ndarray):
    """A stable sort of the non-negative keys and where its runs of equal
    keys start: (order, sorted keys, run starts)."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return order, keys, np.flatnonzero(np.diff(keys, prepend=-1))


def _induced_rows(n: int, rows: np.ndarray, vs: list) -> np.ndarray:
    """The rows with every vertex in the sorted list vs, each vertex
    renumbered by its position there; the order stays lexicographic."""
    index = np.full(n, -1, dtype=np.int64)
    index[vs] = np.arange(len(vs))
    renumbered = index[rows]
    return renumbered[(renumbered >= 0).all(axis=1)]


# ---------------------------------------------------------------------------
# partitioned hypergraphs


class PartitionedHypergraph:
    """r-uniform hypergraph on 0..n-1, r >= 2, with optional part labels
    per vertex.

    `part_of[v]` is a part index or UNPARTITIONED.  When parts are
    assigned, an edge meeting every part exactly once is a cross edge and
    an edge inside a single part is an inside edge.  `edges` may be any
    collection of r-sets of vertices, as tuples in any order, or an
    (m, r) int array; it is stored as `edge_array` (see the module
    docstring).
    """

    def __init__(self, n: int, r: int, edges, part_of: tuple | None = None,
                 meta: dict | None = None):
        if r < 2:
            raise ValueError(f"edges need at least 2 vertices, got r={r}")
        self.n, self.r = n, r
        self.part_of = tuple([UNPARTITIONED] * n if part_of is None
                             else part_of)
        self.meta = {} if meta is None else meta
        if len(self.part_of) != n:
            raise ValueError("part_of must label every vertex")
        if self.part_of and min(self.part_of) < UNPARTITIONED:
            raise ValueError(f"part label {min(self.part_of)} is below "
                             f"{UNPARTITIONED}")

        self.edge_array = _store(_sorted_rows(edges, n, r), n)

    @cached_property
    def edges(self) -> frozenset:
        """The edges as a frozenset of sorted tuples, for membership
        tests: built from `edge_array` on first read, then kept."""
        return frozenset(_tuples(self.edge_array))

    def __eq__(self, other):
        """Same type and attributes, the edges compared by their array."""
        def state(h):
            return dict(vars(h), edges=None, edge_array=h.edge_array.tobytes())
        return type(other) is type(self) and state(self) == state(other)

    @property
    def parts(self) -> int:
        labels = {p for p in self.part_of if p != UNPARTITIONED}
        return (max(labels) + 1) if labels else 0

    def part_vertices(self, p: int) -> list:
        return [v for v in range(self.n) if self.part_of[v] == p]

    def _edge_labels(self) -> np.ndarray:
        """The part labels of the edges' vertices, row by row, each row
        sorted."""
        labels = np.asarray(self.part_of, dtype=np.int64)
        return np.sort(labels[self.edge_array], axis=1)

    def cross_mask(self) -> np.ndarray:
        """Per row of `edge_array`, whether its r vertices lie in r
        distinct labelled parts: a boolean array of length m."""
        lab = self._edge_labels()
        return ((lab[:, 0] != UNPARTITIONED)
                & (lab[:, 1:] != lab[:, :-1]).all(axis=1))

    def cross_edges(self) -> np.ndarray:
        """The rows `cross_mask` marks, in lexicographic order."""
        return self.edge_array[self.cross_mask()]

    def inside_edges(self) -> np.ndarray:
        """The rows of `edge_array` with every vertex in one labelled
        part, a (k, r) array in lexicographic order."""
        lab = self._edge_labels()
        inside = (lab[:, 0] != UNPARTITIONED) & (lab[:, 0] == lab[:, -1])
        return self.edge_array[inside]

    def induced(self, vertices) -> "PartitionedHypergraph":
        vs = sorted(vertices)
        return PartitionedHypergraph(len(vs), self.r,
                                     _induced_rows(self.n, self.edge_array, vs),
                                     tuple(self.part_of[v] for v in vs))

    def pair_cover_index(self) -> "PairCoverIndex":
        """The covered pairs and the rows covering each; see
        PairCoverIndex."""
        return PairCoverIndex(self.edge_array, self.n)


class PairCoverIndex:
    """The covered pairs of a hypergraph and the rows of its
    `edge_array` that cover each.

    Built by one stable sort of the pair keys a*n + b: the C(r, 2) key
    columns of the rows side by side, raveled, so flat key i belongs to
    row i // C(r, 2) and the sort keeps each pair's rows in row order.
    `pairs` is the (k, 2) array of the covered pairs (a, b), a < b, in
    lexicographic order and `codegrees` the number of rows covering
    each; `covering_rows` lists the covering rows pair after pair, the
    codegrees[i] rows of pairs[i] in ascending order.  `edge_indices(i)`
    are the covering rows of pairs[i] and `covering(a, b)` the covering
    edges of one pair.
    """

    def __init__(self, edges: np.ndarray, n: int):
        self._edges = edges
        self._n = n
        cols = list(combinations(range(edges.shape[1]), 2))
        first, second = np.array(cols).T
        keys = edges[:, first].astype(np.int64, copy=False)
        keys *= n
        keys += edges[:, second]
        order, keys, start = _runs(keys.ravel())
        self._keys = keys[start]
        self._start = np.append(start, len(keys))
        self.codegrees = np.diff(self._start)
        self.pairs = np.stack(np.divmod(self._keys, n), axis=1)
        self.covering_rows = order // len(cols)

    def edge_indices(self, i: int) -> list:
        """The covering edges of pairs[i], as ascending indices into the
        rows of `edge_array`."""
        return self.covering_rows[self._start[i]:self._start[i + 1]].tolist()

    def covering(self, a: int, b: int) -> list:
        """The edges covering the pair, given in either order, as sorted
        tuples in row order; [] when no edge covers it."""
        a, b = min(a, b), max(a, b)
        key = a * self._n + b
        i = int(np.searchsorted(self._keys, key))
        if not (0 <= a < b < self._n and i < len(self._keys)
                and self._keys[i] == key):
            return []
        return list(_tuples(self._edges[self.edge_indices(i)]))


# ---------------------------------------------------------------------------
# simple graphs


class SimpleGraph(PartitionedHypergraph):
    """Undirected graph on vertices 0..n-1: the r = 2 hypergraph, with
    neighbour bitmasks for the exact solvers."""

    def __init__(self, n: int, edges, part_of: tuple | None = None):
        super().__init__(n, 2, edges, part_of)

    def adjacency_masks(self) -> list:
        """Neighbour bitmasks (int per vertex), for the exact solvers: the
        rows of the packed adjacency matrix, bit b of row a set for each
        edge (a, b) and (b, a)."""
        a, b = self.edge_array.T
        return _bit_rows(self.n, self.n, np.concatenate((a, b)),
                         np.concatenate((b, a)))

    def induced(self, vertices) -> "SimpleGraph":
        """Induced subgraph, vertices renumbered by sorted order."""
        vs = sorted(vertices)
        return SimpleGraph(len(vs), _induced_rows(self.n, self.edge_array, vs),
                           tuple(self.part_of[v] for v in vs))


def complete_join(g: SimpleGraph, t_graph: SimpleGraph) -> SimpleGraph:
    """Disjoint union of the two graphs plus all edges between them."""
    join = np.argwhere(np.ones((g.n, t_graph.n), dtype=bool)) + (0, g.n)
    edges = [g.edge_array, t_graph.edge_array + g.n, join]
    return SimpleGraph(g.n + t_graph.n, np.concatenate(edges))


# ---------------------------------------------------------------------------
# operations


def shadow(h: PartitionedHypergraph) -> SimpleGraph:
    """Graph on the same vertices; a pair is adjacent iff co-contained in
    some hyperedge."""
    return SimpleGraph(h.n, h.pair_cover_index().pairs, h.part_of)


def as_graph(h: PartitionedHypergraph) -> SimpleGraph:
    """The r=2 hypergraph as a SimpleGraph."""
    if h.r != 2:
        raise ValueError(f"expected a graph (r=2), found r={h.r}")
    return SimpleGraph(h.n, h.edge_array, h.part_of)


def blowup(h: PartitionedHypergraph, t: int) -> PartitionedHypergraph:
    """t-blowup: vertex v becomes clones v*t .. v*t+t-1; every edge is
    replaced by all t^r transversal copies.  Part labels are inherited."""
    if t < 1:
        raise ValueError(f"blowup factor must be >= 1, got {t}")
    offsets = np.array(list(product(range(t), repeat=h.r)), dtype=np.int64)
    edges = (h.edge_array[:, None, :].astype(np.int64) * t
             + offsets).reshape(-1, h.r)
    parts = tuple(h.part_of[v] for v in range(h.n) for _ in range(t))
    return PartitionedHypergraph(h.n * t, h.r, edges, parts,
                                 meta=dict(h.meta, blowup_t=t))


def turan_hypergraph(n: int, s: int, r: int) -> PartitionedHypergraph:
    """Complete s-partite r-uniform hypergraph with near-equal parts:
    every r-set meeting r distinct parts is an edge.  The edges of each
    r-set of parts are the product of its parts' vertex ranges."""
    if s < r:
        raise ValueError(f"need at least r={r} parts, got s={s}")
    part_of = sorted(v % s for v in range(n))
    starts = np.searchsorted(part_of, range(s + 1))
    grids = [np.stack(np.meshgrid(*(np.arange(starts[p], starts[p + 1])
                                    for p in chosen), indexing="ij"),
                      axis=-1).reshape(-1, r)
             for chosen in combinations(range(s), r)]
    return PartitionedHypergraph(n, r, np.concatenate(grids), tuple(part_of))


def clean_low_codegree(h: PartitionedHypergraph,
                       threshold: int) -> PartitionedHypergraph:
    """Delete all edges of every cross-part pair whose codegree is in
    [1, threshold], repeated until every surviving cross pair has
    codegree 0 or > threshold.  The number of removed edges is recorded
    in meta.

    Each sweep reads the pair-cover index of the surviving edges and
    drops at once every row covering a cross pair of codegree at most
    threshold."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    labels = np.asarray(h.part_of, dtype=np.int64)
    edges = h.edge_array
    removed = 0
    while True:
        cover = PairCoverIndex(edges, h.n)
        pa, pb = labels[cover.pairs].T
        low = ((pa != pb) & (pa != UNPARTITIONED) & (pb != UNPARTITIONED)
               & (cover.codegrees <= threshold))
        doomed = np.zeros(len(edges), dtype=bool)
        doomed[cover.covering_rows[np.repeat(low, cover.codegrees)]] = True
        if not doomed.any():
            break
        edges = edges[~doomed]
        removed += int(doomed.sum())
    return PartitionedHypergraph(h.n, h.r, edges, h.part_of,
                                 meta=dict(h.meta, cleaned_edges=removed))


# ---------------------------------------------------------------------------
# file format
#
# line 1: `HG r n m parts`; then n part-label lines (-1 for none); then m
# lines of r sorted 0-based vertex indices.  Graphs use the same format
# with r=2.


def write_hypergraph(h: PartitionedHypergraph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"HG {h.r} {h.n} {len(h.edge_array)} {h.parts}\n")
        for v in range(h.n):
            fh.write(f"{h.part_of[v]}\n")
        # one "%d ... %d" line per edge, filled from the flattened rows
        line = " ".join(["%d"] * h.r) + "\n"
        rows = h.edge_array
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def read_hypergraph(path: str) -> PartitionedHypergraph:
    """Parse the format above.  ValueError on a bad header or label line,
    a header vertex or edge count below 0, fewer than n label lines, a
    label below -1, a header part count other than the labels give, an
    edge line without r distinct vertices, an edge listed twice, fewer
    than m edge lines, or a non-blank line after the m-th."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "HG":
            raise ValueError(f"not a hypergraph file: {path}")
        r, n, m, parts = map(int, header[1:])
        if n < 0 or m < 0:
            raise ValueError(f"{path}: header '{' '.join(header)}' gives a "
                             f"negative vertex or edge count")
        labels = [fh.readline() for _ in range(n)]
        if "" in labels:
            raise ValueError(f"{path}: header gives {n} part labels, "
                             f"file ends after {labels.index('')}")
        part_of = tuple(map(int, labels))
        edges = []
        for i in range(m):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: header gives {m} edges, "
                                 f"file ends after {i}")
            edges.append([int(x) for x in line.split()])
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: lines after the header's {m} edges")
    h = PartitionedHypergraph(n, r, edges, part_of)
    # the store keeps each edge once
    if len(h.edge_array) < m:
        raise ValueError(f"{path}: an edge is listed twice ({m} edge lines, "
                         f"{len(h.edge_array)} distinct edges)")
    if h.parts != parts:
        raise ValueError(f"{path}: header gives {parts} parts, "
                         f"the labels give {h.parts}")
    return h


def write_graph(g: SimpleGraph, path: str) -> None:
    write_hypergraph(g, path)


def read_graph(path: str) -> SimpleGraph:
    return as_graph(read_hypergraph(path))
