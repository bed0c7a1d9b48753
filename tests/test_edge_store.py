"""The edge array of `SimpleGraph` and `PartitionedHypergraph` against
frozenset references kept here: every view derived from the array must
equal what a direct computation over the sorted edge tuples gives, with
Python ints in every tuple it returns.  The `edges` frozenset is a view
too, built on first read: the graphs the operations and the full
construction return must not have built it yet."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtlab.constructions import (ConstructionParams, full_construction,
                                shadow_first_parts)
from rtlab.drc import FWitness, recheck_f_witness
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph, blowup,
                              clean_low_codegree, read_hypergraph, shadow,
                              write_hypergraph)
from rtlab.verifiers import (contained_edge, find_tkf_core, recheck_cores,
                             recheck_sparse_pattern, scan_sparse_patterns)

from helpers import complete_uniform

# ---------------------------------------------------------------------------
# references over frozensets of sorted tuples


def ref_edges(edges) -> frozenset:
    return frozenset(tuple(sorted(e)) for e in edges)


def ref_pair_cover(edges) -> dict:
    cover: dict = {}
    for e in sorted(edges):
        for pair in combinations(e, 2):
            cover.setdefault(pair, []).append(e)
    return cover


def ref_shadow(edges) -> frozenset:
    return frozenset(p for e in edges for p in combinations(e, 2))


def ref_induced(edges, vertices) -> frozenset:
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return frozenset(tuple(index[v] for v in e) for e in edges
                     if all(v in index for v in e))


def ref_blowup(edges, t) -> frozenset:
    return frozenset(tuple(sorted(c)) for e in edges
                     for c in product(*[[v * t + i for i in range(t)]
                                        for v in e]))


def ref_clean(edges, part_of, threshold):
    edges = set(edges)
    removed = 0
    while True:
        cover: dict = {}
        for e in edges:
            for a, b in combinations(e, 2):
                pa, pb = part_of[a], part_of[b]
                if pa != pb and pa != -1 and pb != -1:
                    cover.setdefault((a, b), []).append(e)
        doomed = {e for es in cover.values() if len(es) <= threshold
                  for e in es}
        if not doomed:
            return frozenset(edges), removed
        edges -= doomed
        removed += len(doomed)


def ref_cross(edges, labels) -> list:
    return sorted(e for e in edges if -1 not in (labels[v] for v in e)
                  and len({labels[v] for v in e}) == len(e))


def ref_inside(edges, labels) -> list:
    return sorted(e for e in edges if len({labels[v] for v in e}) == 1
                  and labels[e[0]] != -1)


def ref_contained(edges, vertices):
    return next((e for e in sorted(edges) if set(e) <= set(vertices)), None)


def ref_masks(n, pairs) -> list:
    adj = [0] * n
    for a, b in pairs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def python_ints(tuples) -> bool:
    return all(type(v) is int for e in tuples for v in e)


def unviewed(g) -> bool:
    """Whether g has not yet built its `edges` view (a cached property)."""
    return "edges" not in vars(g)


# ---------------------------------------------------------------------------
# inputs: unsorted tuples, tuples that coincide once sorted, no edges,
# n = 0 and r = 2, given as a list, a frozenset or an array; or already
# sorted: a graph's edge array fed back, or sorted rows with a repeat


@st.composite
def hypergraph_inputs(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 9))
    edges = []
    if n >= r:
        edge = st.permutations(range(n)).map(lambda p: tuple(p[:r]))
        edges = draw(st.lists(edge, max_size=25))
        again = draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
        edges += [tuple(reversed(e)) for e in again]
    labels = tuple(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["list", "frozenset", "array", "edge_array",
                                 "sorted"]))
    if kind == "list":
        given_edges = edges
    elif kind == "frozenset":
        given_edges = frozenset(edges)
    elif kind == "array":
        given_edges = np.array(edges, dtype=np.int64).reshape(-1, r)
    elif kind == "edge_array":
        given_edges = PartitionedHypergraph(n, r, edges).edge_array
    else:
        # sorted rows, the first edge twice
        rows = sorted(tuple(sorted(e)) for e in edges + edges[:1])
        given_edges = np.array(rows, dtype=np.int64).reshape(-1, r)
    vertices = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return n, r, edges, given_edges, labels, vertices


@settings(max_examples=300, deadline=None)
@given(hypergraph_inputs(), st.integers(1, 3), st.integers(0, 3))
def test_views_match_frozenset_references(inputs, t, threshold):
    n, r, edges, given_edges, labels, vertices = inputs
    h = PartitionedHypergraph(n, r, given_edges, labels)
    assert unviewed(h)
    want = ref_edges(edges)
    assert h.edges == want
    assert h.edge_array.tolist() == [list(e) for e in sorted(want)]
    assert h.edge_array.shape == (len(want), r)
    assert h.edge_array.dtype == np.int32

    for rows, ref in [(h.cross_edges(), ref_cross(want, labels)),
                      (h.inside_edges(), ref_inside(want, labels))]:
        assert rows.shape == (len(ref), r) and rows.tolist() == \
            [list(e) for e in ref]

    cover = h.pair_cover_index()
    want_cover = ref_pair_cover(want)
    assert cover.pairs.shape == (len(want_cover), 2)
    assert cover.pairs.tolist() == [list(p) for p in sorted(want_cover)]
    assert cover.codegrees.tolist() == [len(want_cover[p])
                                        for p in sorted(want_cover)]
    in_order = sorted(want)
    for i, pair in enumerate(sorted(want_cover)):
        assert [in_order[j] for j in cover.edge_indices(i)] == want_cover[pair]
    assert [in_order[j] for j in cover.covering_rows] == \
        [e for pair in sorted(want_cover) for e in want_cover[pair]]
    # every pair, in both orders: lists compare in order, [] if uncovered
    for a, b in combinations(range(n), 2):
        found = cover.covering(a, b)
        assert found == cover.covering(b, a) == want_cover.get((a, b), [])
        assert python_ints(found)

    sh = shadow(h)
    assert unviewed(sh) and sh.edges == ref_shadow(want)
    assert np.array_equal(sh.part_of, h.part_of)
    assert sh.adjacency_masks() == ref_masks(n, ref_shadow(want))

    sub = h.induced(vertices)
    assert unviewed(sub) and sub.edges == ref_induced(want, vertices)
    assert sub.part_of.tolist() == [labels[v] for v in sorted(vertices)]

    blown = blowup(h, t)
    assert unviewed(blown) and blown.n == n * t
    assert blown.edges == ref_blowup(want, t)

    cleaned = clean_low_codegree(h, threshold)
    want_clean, removed = ref_clean(want, labels, threshold)
    assert unviewed(cleaned) and cleaned.edges == want_clean
    assert cleaned.meta["cleaned_edges"] == removed

    found = contained_edge(h, vertices)
    assert found == ref_contained(want, vertices)
    assert found is None or python_ints([found])


@settings(max_examples=200, deadline=None)
@given(hypergraph_inputs())
def test_graph_views_match_frozenset_references(inputs):
    n, r, edges, given_edges, labels, vertices = inputs
    if r != 2:
        return
    g = SimpleGraph(n, given_edges, labels)
    assert unviewed(g)
    want = ref_edges(edges)
    assert g.edges == want
    assert g.edge_array.tolist() == [list(e) for e in sorted(want)]
    assert g.adjacency_masks() == ref_masks(n, want)
    sub = g.induced(vertices)
    assert unviewed(sub) and sub.edges == ref_induced(want, vertices)
    assert sub.adjacency_masks() == ref_masks(sub.n, sub.edges)


@settings(max_examples=150, deadline=None)
@given(hypergraph_inputs(), st.data())
def test_contains_matches_the_edges_view(inputs, data):
    # rows of r-1 to r+1 vertices, repeats and vertices outside 0..n-1
    # (beyond int64 too) allowed, then every edge in a shuffled order
    n, r, edges, given_edges, labels, _ = inputs
    h = PartitionedHypergraph(n, r, given_edges, labels)
    vertex = st.one_of(st.integers(-2, n + 1),
                       st.sampled_from([-2 ** 70, 2 ** 31, 2 ** 70]))
    rows = data.draw(st.lists(st.lists(vertex, min_size=r - 1,
                                       max_size=r + 1), max_size=20))
    rows += [data.draw(st.permutations(e)) for e in edges]
    found = h.contains(rows)
    assert unviewed(h)
    assert found == [tuple(sorted(row)) in h.edges for row in rows]


def _without(h, e):
    # h less the edge e
    return PartitionedHypergraph(h.n, h.r, [f for f in h.edge_array.tolist()
                                            if f != sorted(e)])


def test_rechecks_build_no_view():
    # each membership recheck passes its witness and refuses it on the
    # hypergraph less one of its edges, and builds no `edges` view
    h = complete_uniform(7, 3)
    cores = find_tkf_core(h, 4)
    assert recheck_cores(h, cores, 4) and unviewed(h)
    assert not recheck_cores(_without(h, cores.edges_used[-1]), cores, 4)

    pattern = scan_sparse_patterns(h, 3, 27)
    assert recheck_sparse_pattern(h, pattern, 27) and unviewed(h)
    assert not recheck_sparse_pattern(_without(h, pattern.edges_used[0]),
                                      pattern, 27)

    xs, ys, zs = (0, 1, 2), (3, 4, 5), (6, 7, 8)
    f = PartitionedHypergraph(9, 3, [xs, ys, zs, *product(xs, ys, zs)])
    w = FWitness(xs, ys, zs)
    assert recheck_f_witness(f, w) and unviewed(f)
    assert not recheck_f_witness(_without(f, (2, 5, 8)), w)


def test_full_construction_builds_no_view(tmp_path):
    # README parameters, z=14, seed 3: neither the construction nor its
    # file round trip reads `edges`; the view then equals the edge lines
    # of the file, parsed here
    h = full_construction(ConstructionParams(
        r=3, z=14, alpha=0.3, beta=0.3, epsilon=0.5, k=5, blowup_t=3,
        gamma=0.3, pattern_cap=10, seed=3))
    path = tmp_path / "full.hg"
    write_hypergraph(h, str(path))
    back = read_hypergraph(str(path))
    assert unviewed(h) and unviewed(back)
    lines = path.read_text().splitlines()[1 + h.n:]
    want = frozenset(tuple(map(int, line.split())) for line in lines)
    assert len(want) == len(h.edge_array) > 0
    assert h.edges == want and back.edges == want and python_ints(h.edges)


def test_edge_array_is_read_only():
    h = PartitionedHypergraph(4, 3, [(2, 1, 0)])
    with pytest.raises(ValueError):
        h.edge_array[0, 0] = 3


def test_part_labels_are_read_only():
    # the store is a copy: the caller's array stays writeable, and writing
    # to it leaves the hypergraph's labels as they were
    given = np.array([0, 1, 2, 2], dtype=np.int32)
    h = PartitionedHypergraph(4, 3, [(2, 1, 0)], given)
    assert h.part_of.dtype == np.int64 and not h.part_of.flags.writeable
    with pytest.raises(ValueError):
        h.part_of[0] = 1
    given[0] = 1
    assert given.flags.writeable and h.part_of.tolist() == [0, 1, 2, 2]


def test_equality_reads_labels_and_edges():
    h = PartitionedHypergraph(4, 3, [(0, 1, 2)], (0, 1, 2, 2))
    assert h == PartitionedHypergraph(4, 3, np.array([[2, 1, 0]]),
                                      np.array([0, 1, 2, 2]))
    assert h != PartitionedHypergraph(4, 3, [(0, 1, 2)], (0, 1, 2, 1))
    assert h != PartitionedHypergraph(4, 3, [(0, 1, 3)], (0, 1, 2, 2))
    assert SimpleGraph(3, [(0, 1)], (0, 0, 1)) != \
        SimpleGraph(3, [(0, 1)], (0, 0, -1))


# ---------------------------------------------------------------------------
# part labels against references over tuples: unlabelled vertices, labels
# that skip a part, and labels given as a tuple, a list or an int array of
# any width


@st.composite
def labelled_inputs(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 10))
    edges = []
    if n >= r:
        edge = st.permutations(range(n)).map(lambda p: tuple(sorted(p[:r])))
        edges = draw(st.lists(edge, max_size=20, unique=True))
    labels = tuple(draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["tuple", "list", "int8", "int32", "int64"]))
    given_labels = (labels if kind == "tuple" else list(labels)
                    if kind == "list" else np.array(labels, dtype=kind))
    vertices = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return n, r, edges, labels, given_labels, vertices


def ref_parts(labels) -> int:
    return max((p + 1 for p in labels), default=0)


def ref_part_vertices(labels, p) -> list:
    return [v for v, q in enumerate(labels) if q == p]


@settings(max_examples=300, deadline=None)
@given(labelled_inputs(), st.integers(1, 3))
def test_label_views_match_tuple_references(tmp_path_factory, inputs, t):
    n, r, edges, labels, given_labels, vertices = inputs
    h = PartitionedHypergraph(n, r, edges, given_labels)
    want = ref_edges(edges)
    assert h.part_of.dtype == np.int64 and h.part_of.tolist() == list(labels)
    assert h.parts == ref_parts(labels)
    for p in range(-1, h.parts + 1):
        found = h.part_vertices(p)
        assert found == ref_part_vertices(labels, p) and python_ints([found])

    cross = ref_cross(want, labels)
    assert h.cross_mask().tolist() == [e in cross for e in sorted(want)]
    assert h.inside_edges().tolist() == [list(e)
                                         for e in ref_inside(want, labels)]

    sub = h.induced(vertices)
    assert sub.part_of.tolist() == [labels[v] for v in sorted(vertices)]
    assert sub.edges == ref_induced(want, vertices)
    blown = blowup(h, t)
    assert blown.part_of.tolist() == [p for p in labels for _ in range(t)]
    sh = shadow(h)
    assert sh.part_of.tolist() == list(labels)
    assert sh.edges == ref_shadow(want)

    for ell in range(h.parts + 2):
        if not 1 <= ell <= h.parts:
            with pytest.raises(ValueError, match="ell must be in"):
                shadow_first_parts(h, ell)
            continue
        keep = [v for v in range(n) if 0 <= labels[v] < ell]
        first = shadow_first_parts(h, ell)
        assert first.part_of.tolist() == [labels[v] for v in keep]
        assert first.edges == ref_induced(ref_shadow(want), keep)

    path = tmp_path_factory.mktemp("labels") / "h.hg"
    write_hypergraph(h, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split()[-1] == str(ref_parts(labels))
    assert lines[1:1 + n] == [str(p) for p in labels]
    back = read_hypergraph(str(path))
    assert back == h and back.part_of.tolist() == list(labels)


# ---------------------------------------------------------------------------
# validation messages


@pytest.mark.parametrize("edges,message", [
    ([(0, 1)], r"edge \(0, 1\) is not a set of 3 distinct vertices"),
    ([(0, 1, 2, 3)], r"edge \(0, 1, 2, 3\) is not a set of 3 distinct"),
    ([(0, 1, 2), (1, 0)], r"edge \(0, 1\) is not a set of 3 distinct"),
    ([(3, 1, 2), (1, 2, 3, 0)], r"edge \(0, 1, 2, 3\) is not a set of 3"),
    (np.array([[0, 1]]), r"edge \(0, 1\) is not a set of 3 distinct"),
    ([(2, 0, 2)], r"edge \(0, 2, 2\) is not a set of 3 distinct vertices"),
    ([(0, 1, 4)], r"edge \(0, 1, 4\) out of range for n=4"),
    ([(1, -1, 0)], r"edge \(-1, 0, 1\) out of range for n=4"),
    # rows that already rise skip the sort and the repeat scan, and name
    # the same first bad edge as rows that are sorted first
    ([(0, 1, 2), (1, 2, 4), (0, 1, 9)],
     r"^edge \(1, 2, 4\) out of range for n=4$"),
    (np.array([[0, 1, 2], [1, 2, 4]]),
     r"^edge \(1, 2, 4\) out of range for n=4$"),
    ([(-1, 0, 2)], r"^edge \(-1, 0, 2\) out of range for n=4$"),
    ([(2, 1, 0), (3, 0, 3), (4, 0, 9)],
     r"^edge \(0, 3, 3\) is not a set of 3 distinct vertices$"),
    ([(9, 1, 0), (3, 0, 3)], r"^edge \(0, 1, 9\) out of range for n=4$"),
    ([(0, 1, 9), (3, 0, 3)], r"^edge \(0, 1, 9\) out of range for n=4$"),
    ([(1, 1, 2)], r"^edge \(1, 1, 2\) is not a set of 3 distinct vertices$"),
    ([(0, 1, 9), (1, 2)],
     r"^edge \(1, 2\) is not a set of 3 distinct vertices$"),
], ids=["short", "long", "ragged", "ragged-long-last", "array-width",
        "repeated-vertex", "above-range", "negative", "rising-above-range",
        "rising-array-above-range", "rising-negative", "repeat-before-range",
        "unsorted-range-first", "rising-range-first", "rising-repeat",
        "ragged-before-range"])
def test_hypergraph_validation_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        PartitionedHypergraph(4, 3, edges)


@pytest.mark.parametrize("r,edges,message", [
    (2, [(0.5, 1.7)], r"edge \(0\.5, 1\.7\) has a vertex that is not an"),
    (2, np.array([[0.5, 1.7]]), r"edge \(0\.5, 1\.7\) has a vertex"),
    (3, [(0, 1, 2), (3, 1.0, 2)], r"edge \(1\.0, 2, 3\) has a vertex"),
    (3, np.array([[0.0, 1.0, 2.0]]), r"edge \(0\.0, 1\.0, 2\.0\) has a"),
], ids=["list", "array", "integral-float", "integral-array"])
def test_float_vertices_are_refused(r, edges, message):
    # a float vertex is not cast to an integer, even when it is integral
    with pytest.raises(ValueError, match=message):
        PartitionedHypergraph(4, r, edges)


@pytest.mark.parametrize("edges", [
    [(np.int32(2), 0, 1)], np.array([[2, 0, 1]], dtype=np.uint8),
    np.array([[2, 0, 1]], dtype=object)])
def test_integer_vertices_of_any_kind_are_kept(edges):
    assert PartitionedHypergraph(4, 3, edges).edge_array.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("part_of,message", [
    ((0, -2, 1, 1), "part label -2 is below -1"),
    ((0, 1, 2), "part_of must label every vertex"),
    ((0, 0.5, 1, 1), "part label 0.5 is not an integer within int64"),
    ((0, 0, 10 ** 21, 1), f"part label {10 ** 21} is not an integer within"),
])
def test_hypergraph_label_messages(part_of, message):
    with pytest.raises(ValueError, match=message):
        PartitionedHypergraph(4, 3, [(0, 1, 2)], part_of)


# a graph is the r = 2 hypergraph, so it gives the hypergraph messages
@pytest.mark.parametrize("edges,message", [
    ([(1, 1)], r"edge \(1, 1\) is not a set of 2 distinct vertices"),
    ([(3, 0)], r"edge \(0, 3\) out of range for n=3"),
    ([(0, 1), (2,)], r"edge \(2,\) is not a set of 2 distinct vertices"),
    ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a set of 2 distinct vertices"),
], ids=["self-loop", "out-of-range", "ragged", "triple"])
def test_graph_validation_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(3, edges)
