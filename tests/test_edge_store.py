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

from rtlab.constructions import ConstructionParams, full_construction
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph, blowup,
                              clean_low_codegree, read_hypergraph, shadow,
                              write_hypergraph)
from rtlab.verifiers import contained_edge

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
    assert sh.part_of == h.part_of
    assert sh.adjacency_masks() == ref_masks(n, ref_shadow(want))

    sub = h.induced(vertices)
    assert unviewed(sub) and sub.edges == ref_induced(want, vertices)
    assert sub.part_of == tuple(labels[v] for v in sorted(vertices))

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
], ids=["short", "long", "ragged", "ragged-long-last", "array-width",
        "repeated-vertex", "above-range", "negative"])
def test_hypergraph_validation_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        PartitionedHypergraph(4, 3, edges)


@pytest.mark.parametrize("part_of,message", [
    ((0, -2, 1, 1), "part label -2 is below -1"),
    ((0, 1, 2), "part_of must label every vertex"),
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
