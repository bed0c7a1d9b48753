import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_uniform
import rtlab
from rtlab import CapExceeded, hypergraph
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph, _bit_rows,
                              _runs, _sorted_rows, blowup, clean_low_codegree,
                              read_graph, read_hypergraph, shadow,
                              turan_hypergraph, write_graph, write_hypergraph)
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
    assert g.r == 2 and g.part_of.tolist() == [-1, -1, -1] and g.parts == 0


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


def _python_masks(n, row, bit):
    masks = [0] * n
    for v, b in zip(row, bit):
        masks[v] |= 1 << b
    return masks


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 30).filter(lambda w: w % 8),
       st.randoms(use_true_random=False))
def test_bit_rows_with_empty_masks_and_ragged_width(n, width, rnd):
    # fewer masks hold a bit than there are masks, at a width whose last
    # byte is part-filled
    pairs = sorted({(rnd.randrange(n), rnd.randrange(width))
                    for _ in range(rnd.randrange(2 * n))})
    row = np.array([v for v, _ in pairs], dtype=np.int64)
    bit = np.array([b for _, b in pairs], dtype=np.int64)
    assert _bit_rows(n, width, row, bit) == _python_masks(n, row.tolist(),
                                                          bit.tolist())


@pytest.mark.parametrize("n,width", [(0, 0), (5, 0), (5, 9), (3, 64)])
def test_bit_rows_of_no_pairs(n, width):
    none = np.empty(0, dtype=np.int64)
    assert _bit_rows(n, width, none, none) == [0] * n


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 141), st.floats(0, 1), st.integers(0, 2 ** 32 - 1))
def test_adjacency_masks_match_per_vertex_reference(n, p, seed):
    # G(n, p): the masks' bits are each edge in both directions
    rng = np.random.default_rng(seed)
    edges = {e for e in combinations(range(n), 2) if rng.random() < p}
    want = [sum(1 << u for u in range(n) if (min(u, v), max(u, v)) in edges)
            for v in range(n)]
    assert SimpleGraph(n, edges).adjacency_masks() == want


# keys that take one, two, three and four radix passes, with repeats
_KEYS = st.one_of(st.just(7), st.integers(0, 2 ** 8 - 1),
                  st.integers(2 ** 16 - 20, 2 ** 16 + 20),
                  st.integers(2 ** 32 - 20, 2 ** 32 + 20),
                  st.sampled_from([0, 3, 2 ** 16, 2 ** 32 + 1, 2 ** 62]),
                  st.integers(0, 2 ** 62))


@settings(max_examples=300, deadline=None)
@given(st.lists(_KEYS, max_size=200))
def test_runs_match_stable_argsort(keys):
    keys = np.array(keys, dtype=np.int64)
    order, sorted_keys, starts = _runs(keys)
    want = np.argsort(keys, kind="stable")
    assert order.dtype == want.dtype and order.tolist() == want.tolist()
    assert sorted_keys.tolist() == keys[want].tolist()
    assert starts.tolist() == np.flatnonzero(
        np.diff(keys[want], prepend=-1)).tolist()


@pytest.mark.parametrize("keys", [[], [5], [2 ** 40], [9] * 20,
                                  [2 ** 62, 0, 2 ** 62, 0]],
                         ids=["empty", "one", "one-wide", "all-equal",
                              "widest"])
def test_runs_of_small_inputs(keys):
    keys = np.array(keys, dtype=np.int64)
    order, sorted_keys, starts = _runs(keys)
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()
    assert sorted_keys.tolist() == sorted(keys.tolist())
    assert starts.tolist() == [i for i, k in enumerate(sorted_keys.tolist())
                               if i == 0 or k != sorted_keys[i - 1]]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20), st.integers(2, 5), st.booleans(),
       st.randoms(use_true_random=False))
def test_sorted_rows_match_np_sort(m, r, rising, rnd):
    # rows that already rise skip the sort; others are sorted, and both
    # give np.sort's rows
    rows = np.array([rnd.sample(range(3 * r), r) for _ in range(m)],
                    dtype=np.int32).reshape(m, r)
    if rising:
        rows.sort(axis=1)
    got = _sorted_rows(rows, 3 * r, r)
    assert got.dtype == np.int64
    assert got.tolist() == np.sort(rows, axis=1).tolist()


def test_rising_rows_are_not_sorted_again(monkeypatch):
    rows = np.array([[0, 2, 3], [1, 2, 4]])
    monkeypatch.setattr(np, "sort", lambda *a, **k: pytest.fail())
    assert _sorted_rows(rows, 5, 3).tolist() == rows.tolist()


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


def test_pair_cover_index_refused_over_its_cap(monkeypatch):
    # 16 bytes per covered pair of each row: a cap at exactly that builds,
    # a byte less refuses before any array is made
    h = random_hypergraph(12, 4, 30, 1)
    need = 16 * 6 * 30
    monkeypatch.setattr(rtlab, "MAX_BYTES", need)
    assert h.pair_cover_index().covering_rows.size == 6 * 30
    monkeypatch.setattr(rtlab, "MAX_BYTES", need - 1)
    monkeypatch.setattr(hypergraph, "_runs", lambda keys: pytest.fail())
    with pytest.raises(CapExceeded, match=f"hold {need} bytes"):
        h.pair_cover_index()


def test_pair_cover_index_of_one_wide_edge_is_refused_at_once():
    # one edge over 20,000 vertices: 3.2 GB of keys and order at the
    # default cap, refused with under 1 MB traced
    h = PartitionedHypergraph(20_000, 20_000, np.arange(20_000)[None])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            h.pair_cover_index()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


# ---------------------------------------------------------------------------
# blowup


def test_blowup_refused_over_its_cap(monkeypatch):
    # the t^r offsets and the int64 rows of the m t^r copies, 8 r t^r
    # (m + 1) bytes: a cap at exactly that builds, a byte less refuses
    # before the offsets are listed
    h = random_hypergraph(12, 3, 30, 2)
    need = 8 * 3 * 4 ** 3 * 31
    monkeypatch.setattr(rtlab, "MAX_BYTES", need)
    assert len(blowup(h, 4).edge_array) == 30 * 4 ** 3
    monkeypatch.setattr(rtlab, "MAX_BYTES", need - 1)
    monkeypatch.setattr(hypergraph, "product", lambda *a, **kw: pytest.fail())
    with pytest.raises(CapExceeded, match=f"hold {need} bytes"):
        blowup(h, 4)


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
    assert back.edges == h.edges and np.array_equal(back.part_of, h.part_of)


@pytest.mark.parametrize("parts", [(0, 0, 1, 1, 1), None],
                         ids=["labelled", "unlabelled"])
def test_graph_file_roundtrip(tmp_path, parts):
    g = SimpleGraph(5, frozenset([(0, 1), (2, 4)]), parts)
    path = tmp_path / "g.hg"
    write_graph(g, str(path))
    back = read_graph(str(path))
    assert back == g
    assert back.edges == g.edges and np.array_equal(back.part_of, g.part_of)


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


def former_read_hypergraph(path):
    """The reader before the edge block was parsed by one numpy call: a
    line scan, kept as the reference the reader is tested against."""
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
    if len(h.edge_array) < m:
        raise ValueError(f"{path}: an edge is listed twice ({m} edge lines, "
                         f"{len(h.edge_array)} distinct edges)")
    if h.parts != parts:
        raise ValueError(f"{path}: header gives {parts} parts, "
                         f"the labels give {h.parts}")
    return h


def _read_outcome(read, path):
    """The hypergraph read, or the ValueError's message."""
    try:
        return read(path)
    except ValueError as exc:
        return f"ValueError: {exc}"


# what a mutation may put into an edge block: the characters of the
# format, and characters int() or numpy read differently (numpy 2.4's
# loadtxt reads U+01FF inside an integer as a digit)
MUTATION_CHARS = "0123456789 -\n\n.#+_\t\r\x0cx\u0661\u01ff"


@st.composite
def edge_block_files(draw):
    """A well-formed file's text, with up to four characters inserted,
    deleted or replaced in its edge block, and its header edge count
    moved by up to one."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 7))
    edges = sorted(draw(st.sets(st.sampled_from(list(combinations(range(n),
                                                                     r))),
                                max_size=8)))
    labels = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    block = list("".join(" ".join(map(str, e)) + "\n" for e in edges))
    for op, at, char in draw(st.lists(
            st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                      st.integers(0, 10 ** 6),
                      st.sampled_from(MUTATION_CHARS)), max_size=4)):
        at %= len(block) + 1
        if op == "insert":
            block.insert(at, char)
        elif at < len(block):
            block[at:at + 1] = [char] if op == "replace" else []
    m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    parts = max(labels) + 1
    return (f"HG {r} {n} {m} {parts}\n" + "".join(f"{p}\n" for p in labels)
            + "".join(block))


@settings(max_examples=300, deadline=None)
@given(edge_block_files())
def test_read_matches_former_line_reader(tmp_path_factory, text):
    # the same hypergraph from both readers, or the same ValueError
    path = tmp_path_factory.mktemp("mut") / "h.hg"
    path.write_text(text)
    assert (_read_outcome(read_hypergraph, str(path))
            == _read_outcome(former_read_hypergraph, str(path)))


@pytest.mark.parametrize("m,edge_lines,problem", [
    (2, "0 1 2 # x\n1 2 3\n", "invalid literal for int() with base 10: '#'"),
    (2, "0 1 2\n\n1 2 3\n", "lines after the header's 2 edges"),
    # a blank line counted among the m edge lines
    (3, "0 1 2\n\n1 2 3\n", "edge () is not a set of 3 distinct"),
    (2, "0 1 2.0\n1 2 3\n", "invalid literal for int() with base 10: '2.0'"),
    (2, "0 1 2 3\n1 2 3\n", "edge (0, 1, 2, 3) is not a set of 3 distinct"),
    (2, "0 1 2 3\n0 1 2 3\n", "edge (0, 1, 2, 3) is not a set of 3 distinct"),
    (2, "0 1 2\n1 2 \u01ff\n",
     "invalid literal for int() with base 10: '\u01ff'"),
])
def test_read_refuses_what_the_line_reader_refuses(tmp_path, m, edge_lines,
                                                   problem):
    path = tmp_path / "bad.hg"
    path.write_text(f"HG 3 4 {m} 0\n" + "-1\n" * 4 + edge_lines)
    with pytest.raises(ValueError) as exc:
        read_hypergraph(str(path))
    assert problem in str(exc.value)


def test_read_empty_edge_block_quietly(tmp_path, capfd):
    # no edges: nothing for numpy to parse, and nothing on stderr (a
    # warning would fail the test too)
    path = tmp_path / "h.hg"
    path.write_text("HG 3 4 0 1\n" + "0\n" * 4 + "\n")
    h = read_hypergraph(str(path))
    assert (h.n, h.r, h.edge_array.shape, h.parts) == (4, 3, (0, 3), 1)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("m", [0, 1, 11])
def test_read_parses_written_files_in_one_call(tmp_path, monkeypatch, m):
    # the writer's output never needs the line scan
    def refuse(*args):
        raise AssertionError("line scan used")
    monkeypatch.setattr(hypergraph, "_scan_edges", refuse)
    h = random_hypergraph(9, 3, m, seed=4)
    h = PartitionedHypergraph(h.n, h.r, h.edge_array, _parts3(9))
    path = tmp_path / "h.hg"
    write_hypergraph(h, str(path))
    assert read_hypergraph(str(path)) == h


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
    assert (back.n, back.r, back.edges) == (h.n, h.r, h.edges)
    assert np.array_equal(back.part_of, h.part_of)
    # the bytes of the former writer, one " ".join line per sorted edge
    former = f"HG {h.r} {h.n} {len(h.edges)} {h.parts}\n"
    former += "".join(f"{p}\n" for p in h.part_of)
    former += "".join(" ".join(map(str, e)) + "\n" for e in sorted(h.edges))
    assert path.read_text() == former
