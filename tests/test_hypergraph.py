from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_uniform
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph, _bit_rows,
                              blowup, clean_low_codegree, complete_join, read_graph, read_hypergraph,
                              shadow, turan_hypergraph, write_graph,
                              write_hypergraph)
from rtlab.rng import substream


def random_hypergraph(n, r, m, seed):
    rng = substream(seed, "rand-h")
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.choice(n, r, replace=False).tolist())))
    return PartitionedHypergraph(n, r, frozenset(edges))


# ---------------------------------------------------------------------------
# types


def test_graph_is_the_two_uniform_hypergraph():
    assert issubclass(SimpleGraph, PartitionedHypergraph)
    g = SimpleGraph(3, [(2, 0)])
    assert g.r == 2 and g.part_of == (-1, -1, -1) and g.parts == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.integers(1, 6), st.integers(0, 200),
       st.randoms(use_true_random=False))
def test_bit_rows_match_per_row_masks(m, r, spare, rnd):
    # one numpy pass gives each row's vertex bitmask, at any width
    n = r + spare
    rows = np.array([rnd.sample(range(n), r) for _ in range(m)],
                    dtype=np.int64).reshape(m, r)
    masks = _bit_rows(m, n, np.repeat(np.arange(m), r), rows.ravel())
    assert masks == [sum(1 << v for v in e) for e in rows.tolist()]


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset([(1, 1)]))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset([(0, 3)]))


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        PartitionedHypergraph(4, 3, frozenset([(0, 1)]))
    with pytest.raises(ValueError):
        PartitionedHypergraph(4, 3, frozenset([(0, 1, 4)]))


def test_cross_inside_split():
    h = PartitionedHypergraph(6, 3, frozenset([(0, 2, 4), (0, 1, 2)]),
                              (0, 0, 1, 1, 2, 2))
    assert h.cross_edges().tolist() == [[0, 2, 4]]
    assert h.inside_edges().shape == (0, 3)
    # rows of the edge array: a cross, an inside, a mixed edge and one
    # with an unlabelled vertex
    h = PartitionedHypergraph(7, 3, [(5, 3, 0), (2, 1, 0), (0, 1, 3),
                                     (1, 4, 6)], (0, 0, 0, 1, 1, 2, -1))
    cross, inside = h.cross_edges(), h.inside_edges()
    assert cross.tolist() == [[0, 3, 5]] and inside.tolist() == [[0, 1, 2]]
    assert cross.dtype == inside.dtype == h.edge_array.dtype


# ---------------------------------------------------------------------------
# shadow


def test_shadow_empty():
    h = PartitionedHypergraph(5, 3, frozenset())
    assert shadow(h).edges == frozenset()


def test_shadow_single_edge_is_triangle():
    h = PartitionedHypergraph(3, 3, frozenset([(0, 1, 2)]))
    assert shadow(h).edges == frozenset([(0, 1), (0, 2), (1, 2)])


def test_shadow_complete_3uniform_is_k4():
    # enumerate-pairs oracle
    h = complete_uniform(4, 3)
    want = frozenset(combinations(range(4), 2))
    assert shadow(h).edges == want


# ---------------------------------------------------------------------------
# blowup


def test_blowup_identity():
    h = random_hypergraph(6, 3, 4, seed=1)
    b = blowup(h, 1)
    assert len(b.edges) == len(h.edges)
    assert b.n == h.n


def test_blowup_single_edge_t2():
    h = PartitionedHypergraph(3, 3, frozenset([(0, 1, 2)]))
    assert len(blowup(h, 2).edges) == 8


def test_blowup_preserves_parts():
    h = PartitionedHypergraph(3, 3, frozenset([(0, 1, 2)]), (0, 1, 2))
    b = blowup(h, 3)
    for v in range(b.n):
        assert b.part_of[v] == h.part_of[v // 3]


def test_blowup_rejects_t0():
    h = PartitionedHypergraph(3, 3, frozenset([(0, 1, 2)]))
    with pytest.raises(ValueError):
        blowup(h, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]), st.integers(1, 4))
def test_blowup_edge_count_identity(seed, r, t):
    h = random_hypergraph(r + 4, r, 5, seed)
    assert len(blowup(h, t).edges) == t ** r * len(h.edges)


def test_shadow_of_blowup_restriction_isomorphic():
    h = random_hypergraph(7, 3, 6, seed=3)
    t = 3
    b = blowup(h, t)
    sh_b = shadow(b)
    # one copy per original vertex: clone 0, i.e. vertex v*t
    restricted = frozenset((a // t, b_ // t) for a, b_ in sh_b.edges
                           if a % t == 0 and b_ % t == 0)
    assert restricted == shadow(h).edges


# ---------------------------------------------------------------------------
# Turán hypergraphs


def test_turan_counts_by_oracle():
    h = turan_hypergraph(6, 3, 3)
    assert len(h.edges) == 8  # 2*2*2 direct count
    # independent product-formula count from part sizes
    sizes = [len(h.part_vertices(p)) for p in range(3)]
    want = 0
    for chosen in combinations(range(3), 3):
        prod = 1
        for p in chosen:
            prod *= sizes[p]
        want += prod
    assert len(h.edges) == want


def test_turan_one_vertex_per_part():
    import math
    h = turan_hypergraph(5, 5, 3)
    assert len(h.edges) == math.comb(5, 3)


def test_turan_part_sizes_balanced():
    h = turan_hypergraph(5, 3, 3)
    sizes = sorted(len(h.part_vertices(p)) for p in range(3))
    assert sizes == [1, 2, 2]


def former_turan(n, s, r):
    """The set-and-loop builder turan_hypergraph replaced: part sizes by
    divmod, then every transversal product of the chosen parts."""
    base, extra = divmod(n, s)
    sizes = [base + (1 if i < extra else 0) for i in range(s)]
    part_of, groups = [], []
    for p, size in enumerate(sizes):
        groups.append(list(range(len(part_of), len(part_of) + size)))
        part_of.extend([p] * size)
    edges = set()
    for chosen in combinations(range(s), r):
        edges.update(tuple(sorted(e))
                     for e in product(*(groups[p] for p in chosen)))
    return PartitionedHypergraph(n, r, edges, tuple(part_of))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_turan_matches_former_builder(r):
    for s in range(r, r + 4):
        for n in range(0, 3 * s + 2):
            assert turan_hypergraph(n, s, r) == former_turan(n, s, r), (n, s)


def test_turan_rejects_s_below_r():
    with pytest.raises(ValueError):
        turan_hypergraph(6, 2, 3)


# ---------------------------------------------------------------------------
# joins


def test_join_with_empty():
    g = SimpleGraph(3, frozenset([(0, 1)]))
    j = complete_join(g, SimpleGraph(0, frozenset()))
    assert j.edges == g.edges


def test_join_two_singletons():
    j = complete_join(SimpleGraph(1, frozenset()), SimpleGraph(1, frozenset()))
    assert j.edges == frozenset([(0, 1)])


def test_join_k2_k2_is_k4():
    k2 = SimpleGraph(2, frozenset([(0, 1)]))
    j = complete_join(k2, k2)
    assert j.edges == frozenset(combinations(range(4), 2))


def test_join_edge_count_identity():
    g = SimpleGraph(4, frozenset([(0, 1), (2, 3)]))
    t = SimpleGraph(3, frozenset([(0, 2)]))
    j = complete_join(g, t)
    assert len(j.edges) == len(g.edges) + len(t.edges) + g.n * t.n


# ---------------------------------------------------------------------------
# codegree cleaning


def _parts3(n):
    return tuple(i % 3 for i in range(n))


def test_clean_threshold_zero_unchanged():
    h = PartitionedHypergraph(6, 3, frozenset([(0, 1, 2), (1, 2, 3)]), _parts3(6))
    out = clean_low_codegree(h, 0)
    assert out.edges == h.edges


def test_clean_single_edge_wiped():
    h = PartitionedHypergraph(3, 3, frozenset([(0, 1, 2)]), (0, 1, 2))
    assert clean_low_codegree(h, 16).edges == frozenset()


def test_clean_recount_oracle_and_idempotent():
    g = random_hypergraph(12, 3, 30, seed=9)
    # three parts, then four parts beside unlabelled (-1) vertices
    for labels in (_parts3(12), tuple(i % 5 - 1 for i in range(12))):
        h = PartitionedHypergraph(g.n, g.r, g.edges, labels)
        out = clean_low_codegree(h, 2)
        assert out.meta["cleaned_edges"] == len(h.edges) - len(out.edges)
        # full recount: no surviving cross pair has codegree in [1, 2]
        for a, b in combinations(range(out.n), 2):
            pa, pb = out.part_of[a], out.part_of[b]
            if pa != pb and min(pa, pb) >= 0:
                c = sum(a in e and b in e for e in out.edges)
                assert c == 0 or c > 2
        again = clean_low_codegree(out, 2)
        assert again.edges == out.edges


# ---------------------------------------------------------------------------
# files


def test_hypergraph_file_roundtrip(tmp_path):
    h = random_hypergraph(9, 3, 11, seed=4)
    h = PartitionedHypergraph(h.n, h.r, h.edges, _parts3(9))
    path = tmp_path / "h.hg"
    write_hypergraph(h, str(path))
    back = read_hypergraph(str(path))
    assert back.n == h.n and back.r == h.r
    assert back.edges == h.edges and back.part_of == h.part_of


@pytest.mark.parametrize("parts", [(0, 0, 1, 1, 1), None],
                         ids=["labelled", "unlabelled"])
def test_graph_file_roundtrip(tmp_path, parts):
    g = SimpleGraph(5, frozenset([(0, 1), (2, 4)]), parts)
    path = tmp_path / "g.hg"
    write_graph(g, str(path))
    back = read_graph(str(path))
    assert back == g
    assert back.edges == g.edges and back.part_of == g.part_of


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.hg"
    # a bad header, edges of r = 0 (one empty line) or r = 1 vertex, and
    # a negative edge or vertex count
    for text in ["NOT A HEADER\n", "HG 0 2 1 0\n-1\n-1\n\n",
                 "HG 1 2 1 0\n-1\n-1\n0\n", "HG 3 4 -1 0\n" + "-1\n" * 4,
                 "HG 3 -1 0 0\n"]:
        path.write_text(text)
        with pytest.raises(ValueError):
            read_hypergraph(str(path))


@pytest.mark.parametrize("edge_lines,problem", [
    ("0 1 2\n2 1 0\n", "listed twice"),
    ("0 1 2\n", "file ends after 1"),
    ("0 1 2\n1 2 3\n0 2 3\n", "lines after"),
])
def test_read_rejects_edge_count_mismatch(tmp_path, edge_lines, problem):
    path = tmp_path / "bad.hg"
    path.write_text("HG 3 4 2 0\n" + "-1\n" * 4 + edge_lines)
    with pytest.raises(ValueError, match=problem):
        read_hypergraph(str(path))


def test_read_rejects_file_ending_inside_label_lines(tmp_path):
    path = tmp_path / "bad.hg"
    path.write_text("HG 3 4 1 0\n" + "-1\n" * 3)
    with pytest.raises(ValueError, match="header gives 4 part labels, "
                                         "file ends after 3"):
        read_hypergraph(str(path))


def test_read_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "h.hg"
    path.write_text("HG 3 4 2 0\n" + "-1\n" * 4 + "0 1 2\n1 2 3\n\n  \n")
    assert read_hypergraph(str(path)).edges == {(0, 1, 2), (1, 2, 3)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 4]),
       st.integers(1, 12), st.booleans())
def test_file_roundtrip_property(tmp_path_factory, seed, r, m, with_parts):
    n = r + 5
    h = random_hypergraph(n, r, min(m, 10), seed)
    if with_parts:
        h = PartitionedHypergraph(h.n, h.r, h.edges,
                                  tuple(v % 3 for v in range(n)))
    path = tmp_path_factory.mktemp("rt") / "h.hg"
    write_hypergraph(h, str(path))
    back = read_hypergraph(str(path))
    assert (back.n, back.r, back.edges, back.part_of) == \
        (h.n, h.r, h.edges, h.part_of)
    # the bytes of the former writer, one " ".join line per sorted edge
    former = f"HG {h.r} {h.n} {len(h.edges)} {h.parts}\n"
    former += "".join(f"{p}\n" for p in h.part_of)
    former += "".join(" ".join(map(str, e)) + "\n" for e in sorted(h.edges))
    assert path.read_text() == former
