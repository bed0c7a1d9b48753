import math
from collections import defaultdict
from itertools import combinations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtlab import CapExceeded
from rtlab.constructions import (ConstructionParams, _sequences,
                                 bollobas_erdos)
from helpers import complete_uniform
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph,
                              turan_hypergraph)
from rtlab.rng import substream
from rtlab.sphere import build_partition
from rtlab.verifiers import (BudgetExceeded, Embedding, _cliques,
                             _color_sort, _core_embedding, _Counter, alpha_t,
                             blowup_deletion_condition, find_clique, find_tk,
                             find_tkf_core, hyper_independence,
                             private_edges, recheck_clique, recheck_cores,
                             recheck_sparse_pattern, recheck_split_core,
                             recheck_tk, recheck_tkf_core,
                             scan_sparse_patterns, scan_split_core,
                             sparse_pattern_doomed_edges, sparsity_condition)


def random_graph(n, p, seed):
    rng = substream(seed, "gnp")
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < p)
    return SimpleGraph(n, edges)


def random_3uniform(n, p, seed):
    rng = substream(seed, "h3")
    edges = frozenset(e for e in combinations(range(n), 3) if rng.random() < p)
    return PartitionedHypergraph(n, 3, edges)


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_has_clique(g, s):
    return any(all((a, b) in g.edges for a, b in combinations(sub, 2))
               for sub in combinations(range(g.n), s))


def brute_alpha_t(g, t):
    adj = g.adjacency_masks()
    best = 0
    for mask in range(1 << g.n):
        sub = [v for v in range(g.n) if mask >> v & 1]
        if len(sub) <= best:
            continue
        ok = True
        for cl in combinations(sub, t):
            if all(adj[a] >> b & 1 for a, b in combinations(cl, 2)):
                ok = False
                break
        if ok:
            best = len(sub)
    return best


def brute_hyper_independence(h):
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    best = 0
    for mask in range(1 << h.n):
        if bin(mask).count("1") <= best:
            continue
        if all(mask & m != m for m in edge_masks):
            best = bin(mask).count("1")
    return best


def recursive_private_edges(cover, pairs, used, counter):
    """The recursive form of private_edges: the reference for its choice
    and its node count."""
    used = set(used)
    chosen = []

    def extend(i):
        if i == len(pairs):
            return True
        a, b = pairs[i]
        for e in cover.covering(a, b):
            extras = [v for v in e if v != a and v != b]
            if any(v in used for v in extras):
                continue
            counter.tick()
            used.update(extras)
            chosen.append(e)
            if extend(i + 1):
                return True
            chosen.pop()
            used.difference_update(extras)
        return False

    return chosen if extend(0) else None


def brute_sequences(rows, size, cand, ordered):
    """Every valid sequence by itertools, lexicographic: each vertex in
    `cand` and in the row of every earlier one."""
    verts = [v for v in range(len(rows)) if cand >> v & 1]
    pool = (product(verts, repeat=size) if ordered
            else combinations(verts, size))
    return [seq for seq in pool
            if all(rows[a] >> b & 1 for a, b in combinations(seq, 2))]


def degree_relabelled(h):
    """h with its vertices renamed by non-increasing degree, ties in
    vertex order, and that order: vertex order[i] of h is vertex i of the
    copy.  The exact solvers search this copy, so their references run
    on it."""
    degree = np.bincount(h.edge_array.ravel(), minlength=h.n).tolist()
    order = sorted(range(h.n), key=lambda v: -degree[v])
    rank = {v: i for i, v in enumerate(order)}
    edges = frozenset(tuple(sorted(rank[v] for v in e))
                      for e in h.edge_array.tolist())
    if isinstance(h, SimpleGraph):
        return SimpleGraph(h.n, edges), order
    return PartitionedHypergraph(h.n, h.r, edges), order


# ---------------------------------------------------------------------------
# clique search


def test_clique_finds_itself():
    g = SimpleGraph(5, frozenset(combinations(range(5), 2)))
    emb = find_clique(g, 5)
    assert emb is not None and recheck_clique(g, emb)


def test_clique_absent_in_turan_graph():
    # complete (s-1)-partite graph is K_s-free
    s = 4
    parts = [0, 0, 1, 1, 2, 2]
    edges = frozenset((a, b) for a in range(6) for b in range(a + 1, 6)
                      if parts[a] != parts[b])
    assert find_clique(SimpleGraph(6, edges), s) is None


def test_clique_agrees_with_brute_force():
    for seed in range(25):
        g = random_graph(5 + seed % 8, 0.5, seed)
        for s in (3, 4):
            emb = find_clique(g, s)
            assert (emb is not None) == brute_has_clique(g, s), (seed, s)
            if emb is not None:
                assert recheck_clique(g, emb)


def test_clique_budget_exceeded():
    g = random_graph(30, 0.8, 1)
    with pytest.raises(BudgetExceeded):
        find_clique(g, 10, budget=3)


def test_clique_search_deeper_than_recursion_limit():
    # one search level per clique vertex: K_1100 needs 1,100 levels, past
    # Python's default recursion limit of 1,000
    n = 1100
    g = SimpleGraph(n, frozenset(combinations(range(n), 2)))
    emb = find_clique(g, n)
    assert emb is not None
    assert sorted(emb.vertex_map.values()) == list(range(n))
    assert find_clique(g, n + 1) is None


def _colour_tuple_find_clique(g, s, counter):
    # the search that carried a colour with every candidate and ended a
    # level when the top colour could not complete K_s, the reference for
    # branching on the candidates of high enough colour alone
    if s == 1:
        return Embedding({0: 0}, {0: "core"}) if g.n else None
    adj = g.adjacency_masks()

    def colour_sort(cand):
        out = []
        rest = cand
        colour = 0
        while rest:
            colour += 1
            q = rest
            while q:
                v = (q & -q).bit_length() - 1
                q &= ~(1 << v)
                q &= ~adj[v]
                rest &= ~(1 << v)
                out.append((v, colour))
        return out

    full = (1 << g.n) - 1
    clique = []
    orders = [colour_sort(full)]
    pools = [full]
    while orders:
        order = orders[-1]
        if not order or len(clique) + order[-1][1] < s:
            orders.pop()
            pools.pop()
            if clique:
                pools[-1] &= ~(1 << clique.pop())
            continue
        v = order.pop()[0]
        counter.tick()
        clique.append(v)
        if len(clique) == s:
            break
        cand = pools[-1] & adj[v]
        orders.append(colour_sort(cand))
        pools.append(cand)
    else:
        return None
    vm = {i: v for i, v in enumerate(sorted(clique))}
    return Embedding(vm, {i: "core" for i in vm},
                     [tuple(sorted(p)) for p in combinations(sorted(clique), 2)])


def test_clique_search_matches_colour_tuple_reference():
    # the same witness, mapped back from the degree-relabelled copy the
    # reference searches, from the same number of nodes, for
    # s = 2 .. omega + 2; s = 1 is no search, vertex 0 in both
    for p, n, seed in product((0.3, 0.5, 0.8, 0.9),
                              (0, 1, 2, 3, 5, 8, 12, 17, 23, 30, 35, 40),
                              range(3)):
        g = random_graph(n, p, seed)
        assert find_clique(g, 1, budget=0) == \
            _colour_tuple_find_clique(g, 1, _Counter(0))
        relabelled, order = degree_relabelled(g)
        s, misses = 2, 0
        while misses < 2:
            counter = _Counter(10 ** 9)
            want = _colour_tuple_find_clique(relabelled, s, counter)
            if want is not None:
                want = _core_embedding(
                    sorted(order[v] for v in want.vertex_map.values()),
                    lambda a, b: [(a, b)])
            assert find_clique(g, s, budget=counter.nodes) == want, (p, n, seed, s)
            if counter.nodes:
                with pytest.raises(BudgetExceeded) as info:
                    find_clique(g, s, budget=counter.nodes - 1)
                assert info.value.nodes == counter.nodes, (p, n, seed, s)
            misses += want is None
            s += 1


def _lowest_bit_color_sort(cand, nonadj, kmin):
    # the colouring that took each class's lowest bit, nonadj indexed by
    # the vertex: the reference for the kernel's mirrored numbering
    classes = []
    color = 1
    while cand:
        q = cand
        cls = 0
        while q:
            low = q & -q
            q &= nonadj[low.bit_length() - 1]
            cls |= low
        cand ^= cls
        if color >= kmin:
            classes.append(cls)
        color += 1
    return classes


def test_color_sort_matches_lowest_bit_reference():
    # vertex v of the reference is bit n - 1 - v of the kernel: each
    # class, mapped back, is the reference's, in the same order, for the
    # root and random candidate sets
    def mirrored(mask, n):
        return sum(1 << (n - 1 - v) for v in range(n) if mask >> v & 1)

    for p, n, seed in product((0.3, 0.5, 0.9), (0, 1, 2, 5, 9, 17, 28, 40),
                              range(3)):
        g = random_graph(n, p, seed)
        adj = g.adjacency_masks()
        root = (1 << n) - 1
        nonadj = [root ^ (a | 1 << v) for v, a in enumerate(adj)]
        bits = [0, *(1 << u for u in range(n))]
        high = [0, *(root ^ (mirrored(adj[n - 1 - u], n) | 1 << u)
                     for u in range(n))]
        rng = substream(seed, "colour-sort")
        cands = [root, *(int(rng.integers(0, 1 << n)) if n else 0
                         for _ in range(4))]
        for cand, kmin in product(cands, range(1, 6)):
            want = _lowest_bit_color_sort(cand, nonadj, kmin)
            got = _color_sort(mirrored(cand, n), high, bits, kmin)
            assert [mirrored(c, n) for c in got] == want, (p, n, seed, kmin)


def test_clique_pinned_node_counts():
    # G(140, 1/2) at seed 3 has clique number 10: a K_10 is found in 389
    # nodes, and no K_11 is certified in 1,263
    g = random_graph(140, 0.5, 3)
    for s, nodes, want in (
            (10, 389, [16, 18, 23, 54, 61, 72, 75, 84, 119, 137]),
            (11, 1263, None)):
        emb = find_clique(g, s, budget=nodes)
        assert (emb and sorted(emb.vertex_map.values())) == want
        with pytest.raises(BudgetExceeded) as info:
            find_clique(g, s, budget=nodes - 1)
        assert info.value.nodes == nodes


def test_clique_search_ignores_interleaved_isolated_vertices(monkeypatch):
    # isolated vertices put between the others change neither the witness,
    # relabelled, nor the node count: the search never reaches them.  So
    # for alpha_t's clique listing, where each inserted vertex adds one to
    # the value, and for find_tk's walk over the shadow's cliques
    from rtlab import verifiers
    counters = []

    class Recording(_Counter):
        def __init__(self, budget):
            super().__init__(budget)
            counters.append(self)

    monkeypatch.setattr(verifiers, "_Counter", Recording)
    rng = substream(42, "isolated-interleave")
    for p, n, seed in product((0.3, 0.6, 0.9), (2, 6, 15, 30), range(3)):
        g = random_graph(n, p, seed)
        # vertex v of g becomes f[v], after 0..2 new isolated vertices
        f = np.cumsum(rng.integers(1, 4, n)).tolist()
        wide = SimpleGraph(f[-1] + 1 + int(rng.integers(0, 3)),
                           frozenset((f[a], f[b]) for a, b in g.edge_array.tolist()))
        s, misses = 2, 0
        while misses < 2:
            emb = find_clique(g, s)
            got = find_clique(wide, s)
            assert counters[-1].nodes == counters[-2].nodes, (p, n, seed, s)
            assert (got and got.vertex_map) == (
                emb and {i: f[v] for i, v in emb.vertex_map.items()}), \
                (p, n, seed, s)
            misses += emb is None
            s += 1
        for t in (2, 3):
            start = len(counters)
            value = alpha_t(g, t)
            middle = len(counters)
            assert alpha_t(wide, t) == value + wide.n - g.n, (p, n, seed, t)
            # the first counter of each call is the listing's
            assert counters[start].nodes == counters[middle].nodes, \
                (p, n, seed, t)
        for s in (3, 4):
            emb = find_tk(g, s)
            got = find_tk(wide, s)
            assert counters[-1].nodes == counters[-2].nodes, (p, n, seed, s)
            assert (got and (got.vertex_map, got.edges_used)) == (
                emb and ({i: f[v] for i, v in emb.vertex_map.items()},
                         [tuple(f[v] for v in e) for e in emb.edges_used])), \
                (p, n, seed, s)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 3), st.floats(0, 1),
       st.randoms(use_true_random=False))
def test_exact_solvers_ignore_vertex_labels(n, isolated, p, rnd):
    # a random graph and 3-graph on n vertices, `isolated` vertices added
    # and all renamed by a random permutation, which interleaves the
    # isolated ones: the clique verdicts, alpha_t and hyper_independence
    # match the unrenamed inputs and brute force, and every clique witness
    # rechecks in the labels of the graph it was found in
    total = n + isolated
    perm = list(range(total))
    rnd.shuffle(perm)
    pairs = [e for e in combinations(range(n), 2) if rnd.random() < p]
    triples = [e for e in combinations(range(n), 3) if rnd.random() < p]

    def renamed(edges):
        return frozenset(tuple(sorted(perm[v] for v in e)) for e in edges)

    g = SimpleGraph(total, frozenset(pairs))
    moved = SimpleGraph(total, renamed(pairs))
    for s in (2, 3, 4, 5):
        want = brute_has_clique(g, s)
        for graph in (g, moved):
            emb = find_clique(graph, s)
            assert (emb is not None) == want, s
            assert emb is None or recheck_cores(graph, emb, s)
    for t in (2, 3):
        assert alpha_t(g, t) == alpha_t(moved, t) == brute_alpha_t(g, t), t
    h = PartitionedHypergraph(total, 3, frozenset(triples))
    assert hyper_independence(h) == brute_hyper_independence(h) == \
        hyper_independence(PartitionedHypergraph(total, 3, renamed(triples)))


@pytest.mark.parametrize("solve", [
    lambda: find_clique(SimpleGraph(5, frozenset(combinations(range(5), 2))), 3,
                        budget=1),
    lambda: alpha_t(SimpleGraph(5, frozenset(combinations(range(5), 2))), 2,
                    budget=1),
    lambda: hyper_independence(complete_uniform(5, 3), budget=1),
], ids=["find_clique", "alpha_t", "hyper_independence"])
def test_budget_contract(solve):
    # each input needs more than one node, and no bound or shortcut may
    # spend a second without ticking: the tick that passes the budget
    # raises at once
    with pytest.raises(BudgetExceeded) as info:
        solve()
    assert info.value.nodes == 2


def test_budget_env_var_honored(monkeypatch):
    g = random_graph(30, 0.8, 1)
    monkeypatch.setenv("RTLAB_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        find_clique(g, 10)
    monkeypatch.setenv("RTLAB_BUDGET", "10000000")
    find_clique(g, 10)


def test_negative_budget_is_an_input_error(monkeypatch):
    g = random_graph(8, 0.8, 1)
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        find_clique(g, 3, budget=-5)
    monkeypatch.setenv("RTLAB_BUDGET", "-1")
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        find_clique(g, 3)
    # a budget of 0 stays legal: the first node runs it out
    with pytest.raises(BudgetExceeded):
        find_clique(g, 3, budget=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.booleans(),
       st.randoms(use_true_random=False))
def test_clique_walk_matches_brute_force(n, size, reflexive, rnd):
    rows = [0] * n
    for a, b in combinations(range(n), 2):
        if rnd.random() < 0.6:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    for v in range(n):
        if reflexive and rnd.random() < 0.7:
            rows[v] |= 1 << v
    cand = rnd.getrandbits(n)
    counter = _Counter(10 ** 9)
    got = list(_cliques(rows, size, cand, counter))
    assert got == brute_sequences(rows, size, cand, False)
    # one tick per vertex placed: a prefix of length k is placed only
    # below a parent prefix with at least size - k + 1 candidates
    placed = 0
    for k in range(1, size + 1):
        for seq in brute_sequences(rows, k, cand, False):
            parent = cand
            for v in seq[:-1]:
                parent &= rows[v] & ~((2 << v) - 1)
            placed += parent.bit_count() >= size - k + 1
    assert counter.nodes == placed


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.randoms(use_true_random=False))
def test_sequences_match_brute_force(n, size, rnd):
    # a directed relation, self-pairs included: each entry of a sequence
    # is related to every later one, so entries may repeat
    rel = np.array([[rnd.random() < 0.6 for _ in range(n)] for _ in range(n)])
    rows = [sum(1 << b for b in range(n) if rel[a, b]) for a in range(n)]
    full = (1 << n) - 1
    want = brute_sequences(rows, size, full, True)
    got = _sequences(rel, size)
    assert got.shape == (len(want), size)
    assert got.tolist() == [list(seq) for seq in want]
    # the cap counts the listed prefixes of every length 1 .. size
    prefixes = sum(len(brute_sequences(rows, k, full, True))
                   for k in range(1, size + 1))
    assert _sequences(rel, size, prefixes).tolist() == got.tolist()
    if size:
        with pytest.raises(CapExceeded):
            _sequences(rel, size, prefixes - 1)


def test_sequences_in_blocks_match_the_walk():
    # 3,000 indices: a level of prefixes spans several blocks of 2^20
    # relation entries; the increasing sequences of the upper triangle
    # are the walk's cliques
    n = 3000
    rng = np.random.default_rng(5)
    rel = rng.random((n, n)) < 0.004
    rel |= rel.T
    np.fill_diagonal(rel, False)
    rows = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                           "little") for row in rel]
    got = _sequences(np.triu(rel, 1), 3)
    assert len(got) > 0
    assert list(map(tuple, got.tolist())) == list(
        _cliques(rows, 3, (1 << n) - 1, _Counter()))


def test_clique_walk_skips_hopeless_frames():
    # K_200 at size 200: a frame is pushed only where the rest of the
    # clique still fits, so the walk places sum(1..200) = 20,100
    # vertices, not one per subset
    n = 200
    rows = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    counter = _Counter(50_000)
    assert list(_cliques(rows, n, (1 << n) - 1, counter)) == [tuple(range(n))]
    assert counter.nodes == 20_100


def test_clique_walk_is_lazy():
    # the walk places no vertex beyond the sequence it has just yielded
    rows = [0b110, 0b101, 0b011]
    counter = _Counter(100)
    walk = _cliques(rows, 2, 0b111, counter)
    assert next(walk) == (0, 1)
    assert counter.nodes == 2
    assert list(walk) == [(0, 2), (1, 2)]
    # vertex 2 is placed first too, although no sequence starts with it
    assert counter.nodes == 6


# ---------------------------------------------------------------------------
# K_t-independence


def test_alpha_t_complete_graph():
    g = SimpleGraph(6, frozenset(combinations(range(6), 2)))
    for t in (2, 3, 4):
        assert alpha_t(g, t) == t - 1


def test_alpha_t_edgeless():
    g = SimpleGraph(7, frozenset())
    assert alpha_t(g, 2) == 7
    assert alpha_t(g, 3) == 7
    # deeper than the interpreter's recursion limit, one node per vertex
    assert alpha_t(SimpleGraph(1500, frozenset()), 3, budget=1500) == 1500


def test_alpha_t_agrees_with_brute_force():
    for seed in range(20):
        g = random_graph(5 + seed % 6, 0.5, seed + 100)
        for t in (2, 3):
            assert alpha_t(g, t) == brute_alpha_t(g, t), (seed, t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.sampled_from([2, 3, 4, 5]), st.floats(0, 1),
       st.integers(0, 10 ** 6))
def test_alpha_t_matches_brute_force_any_t(n, t, p, seed):
    g = random_graph(n, p, seed)
    assert alpha_t(g, t) == brute_alpha_t(g, t)


def test_alpha_t_deeper_than_recursion_limit():
    # one K_1200, listed by a clique walk 1,200 frames deep, past
    # Python's default recursion limit of 1,000
    n = 1200
    g = SimpleGraph(n, frozenset(combinations(range(n), 2)))
    assert alpha_t(g, n) == n - 1


def test_alpha_t_readme_two_sided_graph_z24():
    # 48 vertices, 186 edges and 14 triangles: a small triangle
    # hypergraph, solved in far fewer than 10,000 nodes
    p = ConstructionParams(r=3, z=24, alpha=0.3, beta=0.3, epsilon=0.5, k=5,
                           blowup_t=3, gamma=0.3, pattern_cap=10, seed=3)
    g = bollobas_erdos(p, p.build_partition())
    assert (g.n, len(g.edges)) == (48, 186)
    assert alpha_t(g, 3, budget=10_000) == 40


def test_alpha_t_budget_carries_bound():
    g = random_graph(24, 0.2, 2)
    with pytest.raises(BudgetExceeded) as exc:
        alpha_t(g, 2, budget=5)
    assert exc.value.certified is not None


# ---------------------------------------------------------------------------
# hypergraph independence


def test_hyper_independence_edgeless():
    h = PartitionedHypergraph(6, 3, frozenset())
    assert hyper_independence(h) == 6


def test_hyper_independence_complete():
    assert hyper_independence(complete_uniform(7, 3)) == 2


def test_hyper_independence_agrees_with_brute_force():
    for seed in range(20):
        h = random_3uniform(5 + seed % 6, 0.4, seed)
        assert hyper_independence(h) == brute_hyper_independence(h), seed


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.sampled_from([2, 3, 4]),
       st.randoms(use_true_random=False))
def test_hyper_independence_matches_brute_force_any_rank(n, r, rnd):
    p = rnd.random()
    h = PartitionedHypergraph(n, r, frozenset(
        e for e in combinations(range(n), r) if rnd.random() < p))
    assert hyper_independence(h) == brute_hyper_independence(h)


def _list_hyper_independence(h, counter):
    # the search that held each node's live edges as a list of vertex
    # bitmasks, filtered per child and packed by a scan of the whole
    # list: the reference for the bitmask search's value and its tree
    best = 0
    masks = sorted(sum(1 << v for v in e) for e in h.edge_array.tolist())
    stack = [(masks, 0, h.n)]
    while stack:
        live, forced, size = stack.pop()
        packed = used = 0
        for e in live:
            if not e & used:
                used |= e
                packed += 1
        if size - packed <= best:
            continue
        counter.tick(certified=best)
        if not live:
            best = size
            continue
        free = live[0] & ~forced
        children = []
        while free:
            bit = free & -free
            children.append(([e for e in live if not e & bit], forced, size - 1))
            forced |= bit
            free ^= bit
        stack.extend(reversed(children))
    return best


def test_hyper_independence_matches_list_reference():
    # the same value from the same number of nodes as the reference on the
    # degree-relabelled copy, on seeded random hypergraphs of rank 2-4
    # from sparse to dense
    for r, n, p, seed in product((2, 3, 4), (0, 4, 9, 14, 18), (0.1, 0.4, 0.8),
                                 range(2)):
        rng = np.random.default_rng([r, n, seed])
        tuples = list(combinations(range(n), r))
        h = PartitionedHypergraph(n, r, np.array(
            [e for e, x in zip(tuples, rng.random(len(tuples))) if x < p],
            dtype=np.int64).reshape(-1, r))
        counter = _Counter(10 ** 9)
        want = _list_hyper_independence(degree_relabelled(h)[0], counter)
        assert hyper_independence(h, budget=counter.nodes) == want, (r, n, p, seed)
        if counter.nodes:
            with pytest.raises(BudgetExceeded) as info:
                hyper_independence(h, budget=counter.nodes - 1)
            assert info.value.nodes == counter.nodes, (r, n, p, seed)


def dense_gnp(n, p, seed):
    """Pair i of np.triu_indices(n, 1) is an edge when the i-th draw of
    default_rng(seed).random(n(n-1)/2) is below p."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    return SimpleGraph(n, pairs[np.random.default_rng(seed).random(len(pairs)) < p])


def test_hyper_independence_pinned_node_count():
    triples = list(combinations(range(15), 3))
    picks = sorted(np.random.default_rng(11).choice(455, 114, replace=False))
    sparse = PartitionedHypergraph(15, 3, frozenset(triples[i] for i in picks))
    # the triangles of the dense G(40, 0.8) at seed 1
    g = dense_gnp(40, 0.8, 1)
    dense = PartitionedHypergraph(40, 3, list(
        _cliques(g.adjacency_masks(), 3, (1 << 40) - 1, _Counter())))
    for h, nodes, alpha in ((sparse, 155, 6), (dense, 16_273, 8)):
        assert hyper_independence(h, budget=nodes) == alpha
        with pytest.raises(BudgetExceeded) as info:
            hyper_independence(h, budget=nodes - 1)
        assert info.value.nodes == nodes
        assert info.value.certified is not None and info.value.certified <= alpha


@pytest.mark.parametrize("triples", [300, 1100])
def test_hyper_independence_deep_search(triples):
    # the first dive drops one vertex of each triple, a path 1,100 deep;
    # the packing bound then prunes every other branch unexpanded
    h = PartitionedHypergraph(3 * triples, 3, frozenset(
        (3 * i, 3 * i + 1, 3 * i + 2) for i in range(triples)))
    assert hyper_independence(h, budget=triples + 1) == 2 * triples


# ---------------------------------------------------------------------------
# TK / TKF search


def test_tk_in_complete_3uniform():
    # 3 cores + 3 subdivision edges need 3 + 2*3 = 9 vertices
    h = complete_uniform(9, 3)
    emb = find_tk(h, 3)
    assert emb is not None and recheck_tk(h, emb, 3)


def test_tk_absent_in_empty():
    h = PartitionedHypergraph(8, 3, frozenset())
    assert find_tk(h, 3) is None


def test_tk_planted_in_sphere_hypergraph():
    from rtlab.constructions import ConstructionParams, sphere_hypergraph
    p = ConstructionParams(r=3, z=10, alpha=0.3, beta=0.3,
                           epsilon=0.5 * math.sqrt(5), k=5, seed=2)
    part = build_partition(p.k, p.z, p.theta, p.seed, balance_iters=4,
                           diag_samples=2000)
    h = sphere_hypergraph(p, part)
    assert find_tk(h, 4) is None
    # plant a 4-core subdivision on fresh vertex indices via edge insertion
    rng = substream(5, "plant-tk")
    verts = rng.choice(h.n, 10, replace=False).tolist()
    cores, fresh = verts[:4], verts[4:]
    planted = set()
    for i, (a, b) in enumerate(combinations(cores, 2)):
        planted.add(tuple(sorted((a, b, fresh[i]))))
    h2 = PartitionedHypergraph(h.n, 3, frozenset(h.edges | planted), h.part_of)
    emb = find_tk(h2, 4)
    assert emb is not None and recheck_tk(h2, emb, 4)
    # pinned output: the search order and the embedding layout are stable
    assert emb.as_json() == {
        "vertex_map": {"0": 8, "1": 9, "2": 14, "3": 15, "4": 2, "5": 5,
                       "6": 17, "7": 25, "8": 16, "9": 7},
        "roles": {str(i): "core" if i < 4 else "subdivision"
                  for i in range(10)},
        "edges_used": [[2, 8, 9], [5, 8, 14], [8, 15, 17], [9, 14, 25],
                       [9, 15, 16], [7, 14, 15]],
    }


def test_private_edges_backtracks_past_first_fit():
    # first fit gives pair (0, 1) the edge through 5, the only fresh vertex
    # pair (1, 3) has; the search must go back and take the edge through 6
    cover = PartitionedHypergraph(8, 3, [(0, 1, 5), (0, 1, 6), (0, 2, 7),
                                         (1, 3, 5)]).pair_cover_index()
    pairs = [(0, 1), (0, 2), (1, 3)]
    counter = _Counter(100)
    got = private_edges(cover, pairs, {0, 1, 2, 3}, counter)
    assert got == [(0, 1, 6), (0, 2, 7), (1, 3, 5)]
    assert counter.nodes == 5
    assert private_edges(cover, pairs, {0, 1, 2, 3, 6}, _Counter(100)) is None
    with pytest.raises(BudgetExceeded):
        private_edges(cover, pairs, {0, 1, 2, 3}, _Counter(2))


def test_private_edges_matches_recursive_node_count():
    for seed in range(40):
        h = random_3uniform(9 + seed % 6, 0.5, seed)
        cover = h.pair_cover_index()
        cores = sorted(substream(seed, "cores").choice(h.n, 4, replace=False)
                       .tolist())
        pairs = list(combinations(cores, 2))
        counter = _Counter(10 ** 9)
        want = recursive_private_edges(cover, pairs, set(cores), counter)
        got_counter = _Counter(10 ** 9)
        assert private_edges(cover, pairs, set(cores), got_counter) == want
        assert got_counter.nodes == counter.nodes, seed


def test_tk_pinned_node_count():
    rng = np.random.default_rng(1)
    keep = rng.random(4060) < 0.06
    h = PartitionedHypergraph(30, 3, frozenset(
        e for e, k in zip(combinations(range(30), 3), keep) if k))
    assert len(h.edges) == 253
    with pytest.raises(BudgetExceeded):
        find_tk(h, 5, budget=278)
    emb = find_tk(h, 5, budget=279)
    assert emb is not None and recheck_tk(h, emb, 5)
    cores = [v for k, v in emb.vertex_map.items() if emb.roles[k] == "core"]
    assert cores == [0, 1, 3, 8, 15]


def test_tk_planted_with_46_cores():
    # one edge (a, b, 46+i) per core pair i: private_edges goes 1,035 deep
    s = 46
    pairs = list(combinations(range(s), 2))
    h = PartitionedHypergraph(s + len(pairs), 3, frozenset(
        (a, b, s + i) for i, (a, b) in enumerate(pairs)))
    assert h.n == 1081
    emb = find_tk(h, s)
    assert emb is not None and recheck_tk(h, emb, s)


def test_tkf_core_single_edge():
    h = PartitionedHypergraph(3, 3, frozenset([(0, 1, 2)]))
    emb = find_tkf_core(h, 2)
    assert emb is not None and recheck_tkf_core(h, emb)


def test_tkf_core_in_turan():
    h = turan_hypergraph(12, 4, 3)
    emb = find_tkf_core(h, 4)
    assert emb is not None and recheck_tkf_core(h, emb)
    parts = {h.part_of[v] for v in emb.vertex_map.values()}
    assert len(parts) == 4  # cores must sit in distinct parts


def test_tkf_core_absent_edgeless():
    h = PartitionedHypergraph(4, 3, frozenset())
    assert find_tkf_core(h, 2) is None


def test_recheck_cores_refuses_an_edge_missing_its_pair():
    # every entry is an edge of h, but the one for the pair (1, 2) is
    # 013, which does not contain 2
    h = PartitionedHypergraph(4, 3, frozenset([(0, 1, 2), (0, 1, 3)]))
    emb = Embedding({0: 0, 1: 1, 2: 2}, {0: "core", 1: "core", 2: "core"},
                    [(0, 1, 2), (0, 1, 2), (0, 1, 3)])
    assert not recheck_cores(h, emb, 3)
    emb.edges_used[2] = (0, 1, 2)
    assert recheck_cores(h, emb, 3)


# ---------------------------------------------------------------------------
# split-core scan


def test_split_core_hand_built_violation():
    # 4 vertices 2+2 across two parts, all six pairs covered
    parts = (0, 0, 1, 1, 2, 2, 2)
    edges = frozenset([
        (0, 1, 4),   # covers the part-0 pair
        (2, 3, 5),   # covers the part-1 pair
        (0, 2, 6), (0, 3, 6), (1, 2, 6), (1, 3, 6),
    ])
    h = PartitionedHypergraph(7, 3, edges, parts)
    emb = scan_split_core(h)
    assert emb is not None and recheck_split_core(h, emb)
    # an unlabelled pair is in no part: neither the scan nor the recheck
    # takes it for one
    unlabelled = PartitionedHypergraph(7, 3, edges, (-1, -1) + parts[2:])
    assert scan_split_core(unlabelled) is None
    assert not recheck_split_core(unlabelled, emb)


def test_split_core_many_common_partners_few_within_pairs():
    # part 0 = {0, 1}, part 1 = {2..7}, part 2 = {8, 9}: 0 and 1 share all
    # six part-1 vertices as cross partners (15 candidate pairs), and only
    # (3, 5) and (4, 6) are covered inside part 1; the first is the witness
    parts = (0, 0) + (1,) * 6 + (2, 2)
    edges = {(0, 1, 8), (3, 5, 9), (4, 6, 9)}
    edges |= {(a, c, 8) for a in (0, 1) for c in range(2, 8)}
    h = PartitionedHypergraph(10, 3, frozenset(edges), parts)
    emb = scan_split_core(h)
    assert emb.vertex_map == {0: 0, 1: 1, 2: 3, 3: 5}
    assert emb.edges_used == [(0, 1, 8), (0, 3, 8), (0, 5, 8), (1, 3, 8),
                              (1, 5, 8), (3, 5, 9)]
    assert recheck_split_core(h, emb)
    # cores 0, 1 and 2, 3 out of their parts; a repeated core; (3, 4)
    # uncovered.  Each covered pair carries its own edge, so only the
    # named fault is left for the recheck to find
    cover = h.pair_cover_index()
    for cores in ((0, 3, 1, 5), (0, 0, 3, 5), (0, 1, 3, 4)):
        forged = _core_embedding(
            cores, lambda a, b: cover.covering(a, b) or [(a, b)])
        assert not recheck_split_core(h, forged)


def _dict_scan_split_core(h, counter):
    # the scan that held the covered pairs as a dict of inside-pair lists
    # per part, a dict of cross-partner sets and a set per part: the
    # reference for the bitmask scan's witness and its node count
    cover = h.pair_cover_index()
    pa, pb = np.asarray(h.part_of, dtype=np.int64)[cover.pairs].T
    labelled = (pa != -1) & (pb != -1)
    same = labelled & (pa == pb)
    within = defaultdict(list)
    for p, a, b in zip(pa[same].tolist(), *cover.pairs[same].T.tolist()):
        within[p].append((a, b))
    cross_adj = defaultdict(set)
    for a, b in cover.pairs[labelled & (pa != pb)].tolist():
        cross_adj[a].add(b)
        cross_adj[b].add(a)
    parts = sorted(within)
    for pi_idx, pi in enumerate(parts):
        for pj in parts[pi_idx + 1:]:
            within_j = set(within[pj])
            for a, b in within[pi]:
                common = sorted(x for x in cross_adj[a] & cross_adj[b]
                                if h.part_of[x] == pj)
                if len(common) < 2:
                    continue
                # the clique walk's count: one node per c tried, one more
                # for the d that completes a witness
                for i, c in enumerate(common):
                    counter.tick()
                    for d in common[i + 1:]:
                        if (c, d) in within_j:
                            counter.tick()
                            return _core_embedding((a, b, c, d),
                                                   cover.covering)
    return None


def _outcome(run):
    # the witness, or the node count at which the budget ran out
    try:
        return run()
    except BudgetExceeded as exc:
        return ("budget", exc.nodes)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 18), st.integers(0, 40),
       st.randoms(use_true_random=False))
def test_split_core_matches_dict_reference(n, m, rnd):
    # the same witness from the same nodes, unlabelled vertices included
    parts = tuple(rnd.choice((-1, 0, 1, 2)) for _ in range(n))
    edges = frozenset(tuple(sorted(rnd.sample(range(n), 3)))
                      for _ in range(m))
    h = PartitionedHypergraph(n, 3, edges, parts)
    counter = _Counter(10 ** 9)
    assert scan_split_core(h) == _dict_scan_split_core(h, counter)
    for budget in {0, 1, 3, 10, max(counter.nodes - 1, 0)}:
        want = _outcome(lambda: _dict_scan_split_core(h, _Counter(budget)))
        assert _outcome(lambda: scan_split_core(h, budget)) == want, budget


def test_split_core_none_on_single_part():
    h = PartitionedHypergraph(5, 3, frozenset([(0, 1, 2), (1, 2, 3)]),
                              (0,) * 5)
    assert scan_split_core(h) is None


def test_split_core_none_on_sphere_instance():
    from rtlab.constructions import ConstructionParams, sphere_hypergraph
    p = ConstructionParams(r=3, z=14, alpha=0.3, beta=0.3,
                           epsilon=0.5 * math.sqrt(6), k=6, seed=4)
    part = build_partition(p.k, p.z, p.theta, p.seed, balance_iters=4,
                           diag_samples=2000)
    assert scan_split_core(sphere_hypergraph(p, part)) is None


# ---------------------------------------------------------------------------
# sparse patterns


def test_sparse_two_edges_sharing_two_vertices():
    h = PartitionedHypergraph(4, 3, frozenset([(0, 1, 2), (0, 1, 3)]))
    emb = scan_sparse_patterns(h, 3, 9)
    assert emb is not None
    assert recheck_sparse_pattern(h, emb, 9)


def test_sparse_recheck_refuses_a_witness_over_ell_vertices():
    # the two edges span four vertices
    h = PartitionedHypergraph(4, 3, frozenset([(0, 1, 2), (0, 1, 3)]))
    emb = scan_sparse_patterns(h, 3, 4)
    assert recheck_sparse_pattern(h, emb, 4)
    assert not recheck_sparse_pattern(h, emb, 3)


def test_sparse_recheck_refuses_an_empty_embedding():
    h = PartitionedHypergraph(4, 3, [(0, 1, 2)])
    assert not recheck_sparse_pattern(h, Embedding({}, {}, []), 9)


def test_sparse_linear_path_clean():
    # loose path: consecutive edges share one vertex; v = 3 + 2(m-1) exactly
    edges = [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)]
    h = PartitionedHypergraph(9, 3, frozenset(edges))
    assert scan_sparse_patterns(h, 3, 9) is None


def test_sparse_finds_tk33():
    # 3-core subdivision: v=6, m=3; 6 < 3 + 2*2 = 7
    edges = [(0, 1, 3), (0, 2, 4), (1, 2, 5)]
    h = PartitionedHypergraph(6, 3, frozenset(edges))
    emb = scan_sparse_patterns(h, 3, 9)
    assert emb is not None
    assert len(emb.edges_used) == 3


def test_sparse_r_must_match_the_hypergraph():
    # a loose triangle (v=6, m=3): at the wrong r the default condition
    # would be the sparsity bound of another uniformity
    h = PartitionedHypergraph(6, 3, frozenset([(0, 1, 2), (2, 3, 4),
                                               (4, 5, 0)]))
    emb = scan_sparse_patterns(h, 3, 9)
    assert emb is not None and recheck_sparse_pattern(h, emb, 9)
    for r in (2, 4):
        with pytest.raises(ValueError, match=f"r={r} does not match"):
            scan_sparse_patterns(h, r, 9)


@pytest.mark.parametrize("scan", [
    lambda h, ell, cond: scan_sparse_patterns(h, 3, ell, condition=cond),
    lambda h, ell, cond: sparse_pattern_doomed_edges(h, ell, cond),
])
def test_sparse_scan_rejects_what_the_pair_phase_cannot_cover(scan):
    # the walk after the pair phase is linear, so a condition that two
    # edges sharing two vertices (v=4, m=2 at r=3) fail is refused, and
    # so is a vertex cap below r
    h = PartitionedHypergraph(5, 3, frozenset([(0, 1, 2), (0, 1, 3)]))
    with pytest.raises(ValueError, match="sharing two vertices"):
        scan(h, 9, lambda v, m: v < 4)
    with pytest.raises(ValueError, match="below r=3"):
        scan(h, 2, sparsity_condition(3))


@settings(max_examples=200, deadline=None)
@given(r=st.integers(2, 8),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(r=2, gamma=math.nextafter(1.0, 0.0))
@example(r=8, gamma=1.0 - 2.0 ** -52)
def test_conditions_in_use_hold_for_an_overlapping_pair(r, gamma):
    # (2r-2, 2) is a pair of edges sharing two vertices: r-1+gamma < r
    # must hold however close gamma is to 1
    assert sparsity_condition(r)(2 * r - 2, 2)
    assert blowup_deletion_condition(r, gamma)(2 * r - 2, 2)


@settings(max_examples=300, deadline=None)
@given(r=st.integers(2, 5), m=st.integers(1, 6),
       gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       rnd=st.randoms(use_true_random=False))
def test_conditions_are_cycle_rank_bounds(r, m, gamma, rnd):
    # a random connected collection of m r-edges on v vertices: the
    # deletion condition is c > gamma (m-1), sparsity is c > 0, where c
    # is the cycle rank of the vertex-edge incidence graph
    pool = range(rnd.randint(r, r * m))
    edges = [rnd.sample(pool, r)]
    while len(edges) < m:
        anchor = rnd.choice([x for e in edges for x in e])
        edges.append([anchor] + rnd.sample([x for x in pool if x != anchor],
                                           r - 1))
    incidence = nx.Graph((("v", x), ("e", i))
                         for i, e in enumerate(edges) for x in e)
    assert nx.is_connected(incidence)
    c = len(nx.cycle_basis(incidence))
    v = len({x for e in edges for x in e})
    assert sparsity_condition(r)(v, m) == (c > 0)
    assert blowup_deletion_condition(r, gamma)(v, m) == (c > gamma * (m - 1))


def test_connected_subset_enumeration_matches_brute_force():
    from itertools import combinations as combs
    from rtlab.verifiers import _Counter, connected_edge_subsets

    def brute(edges, max_v):
        # connected collections of two or more edges
        out = set()
        for size in range(2, len(edges) + 1):
            for sub in combs(range(len(edges)), size):
                verts = set()
                for i in sub:
                    verts.update(edges[i])
                if len(verts) > max_v:
                    continue
                left, reach = set(sub[1:]), set(edges[sub[0]])
                while True:
                    add = {i for i in left if reach & set(edges[i])}
                    if not add:
                        break
                    for i in add:
                        reach.update(edges[i])
                    left -= add
                if not left:
                    out.add(sub)
        return out

    rng = substream(500, "enum-oracle")
    found = 0
    for trial in range(25):
        n = 5 + trial % 5
        m = 2 + trial % 7
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.choice(n, 3, replace=False).tolist())))
        h = PartitionedHypergraph(n, 3, frozenset(edges))
        rows = h.edge_array.tolist()
        masks = [sum(1 << x for x in e) for e in rows]
        got = set()
        for sub, v in connected_edge_subsets(h, masks, 7, _Counter(10 ** 9),
                                             lambda v, m: False):
            assert sub not in got
            assert v == len({x for i in sub for x in rows[i]})
            got.add(sub)
        assert got == brute(rows, 7)
        found += len(got)
    assert found > 0


def _former_linear_walk(h, masks, max_vertices, counter, stop_at,
                        dead=frozenset()):
    # connected_edge_subsets as it was when it also refused every
    # candidate sharing two vertices with an edge of the subset
    from rtlab.hypergraph import _runs
    rows = h.edge_array
    m, r = rows.shape
    if r > max_vertices:
        return
    live = np.ones(m, dtype=bool)
    live[list(dead)] = False
    kept = np.flatnonzero(live)
    order, _, start = _runs(rows[kept].ravel())
    incident = kept[order // r].tolist()
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
            for i, w in enumerate(ext):
                if w in dead:
                    continue
                ws = masks[w]
                nv = verts | ws
                if nv.bit_count() > max_vertices or any(
                        (ws & masks[j]).bit_count() > 1 for j in subset):
                    continue
                counter.tick()
                fresh = [u for u in nbr_lists[w]
                         if u > seed and u not in closed and u not in dead]
                stack.append((subset + (w,), nv, ext[i + 1:] + fresh,
                              closed | set(fresh)))


def test_sparse_scans_match_the_former_linear_walk(monkeypatch):
    # the pair phase leaves no two live edges within the cap sharing two
    # vertices, so dropping the walk's linear test changes no witness, no
    # deletion and no node count
    from rtlab import verifiers

    def scans(h, ell, condition):
        counters = []

        class Recording(_Counter):
            def __init__(self, budget):
                super().__init__(budget)
                counters.append(self)

        monkeypatch.setattr(verifiers, "_Counter", Recording)
        emb = scan_sparse_patterns(h, 3, ell, budget=10 ** 9,
                                   condition=condition)
        doomed = sparse_pattern_doomed_edges(h, ell, condition, 10 ** 9)
        monkeypatch.undo()
        return (emb and emb.edges_used, doomed,
                [c.nodes for c in counters])

    rng = substream(32, "former-walk")
    walked = 0
    for trial in range(100):
        n = int(rng.integers(5, 11))
        edges = []
        for _ in range(int(rng.integers(2, 15))):
            e = set(rng.choice(n, 3, replace=False).tolist())
            # every other trial keeps the collection linear, so the scan
            # reaches the walk before any pair
            if trial % 2 and any(len(e & f) > 1 for f in edges):
                continue
            if e not in edges:
                edges.append(e)
        h = PartitionedHypergraph(n, 3, [tuple(e) for e in edges])
        ell = int(rng.integers(3, 10))
        condition = blowup_deletion_condition(3, (0.1, 0.3, 0.6)[trial % 3])
        got = scans(h, ell, condition)
        monkeypatch.setattr(verifiers, "connected_edge_subsets",
                            _former_linear_walk)
        want = scans(h, ell, condition)
        assert got == want, trial
        walked += sum(got[2])
    assert walked > 0


# ---------------------------------------------------------------------------
# density reports


def test_density_report_empty_hypergraph():
    from rtlab.verifiers import density_report
    h = PartitionedHypergraph(0, 3, frozenset(), ())
    rep = density_report(h)
    # no metadata and no parts: nothing is asserted
    assert rep.verdict == "unchecked"
    assert all(r["value"] == 0 for r in rep.rows if r["quantity"] == "edges")


def test_density_report_shadow_double_count():
    from rtlab.constructions import (ConstructionParams, full_construction,
                                     shadow_first_parts)
    from rtlab.verifiers import density_report
    p = ConstructionParams(r=3, z=12, alpha=0.3, beta=0.3,
                           epsilon=0.5 * math.sqrt(5), k=5, seed=5,
                           blowup_t=2, pattern_cap=10)
    h = full_construction(p)
    sh = shadow_first_parts(h, 2)
    rep = density_report(sh)
    # the block counts are reported, not asserted
    assert rep.verdict == "unchecked"
    blocks = [r["value"] for r in rep.rows
              if r["quantity"].startswith(("edges_within_", "edges_between_"))]
    assert blocks and sum(blocks) == len(sh.edge_array)


def test_density_report_unlabelled_graph_has_no_block_rows():
    from rtlab.verifiers import density_report
    rep = density_report(SimpleGraph(4, [(0, 1), (2, 3)]))
    names = [r["quantity"] for r in rep.rows]
    assert names == ["vertices", "edges", "edge_density"]
    assert rep.verdict == "unchecked"


def test_density_report_graph_blocks_skip_unlabelled_vertices():
    # a within row for each label present, a between row for each pair
    # of labelled parts an edge joins, both in ascending order; an edge to
    # an unlabelled vertex gives no row
    from rtlab.verifiers import density_report
    for g, want in [
            (SimpleGraph(4, [(0, 1), (1, 2), (2, 3)], (0, 0, -1, -1)),
             [("edges_within_part_0", 1)]),
            (SimpleGraph(7, [(0, 1), (0, 4), (2, 5), (3, 5), (1, 6)],
                         (0, 0, 1, 2, 5, 5, -1)),
             [("edges_within_part_0", 1), ("edges_within_part_1", 0),
              ("edges_within_part_2", 0), ("edges_within_part_5", 0),
              ("edges_between_parts_0_5", 1), ("edges_between_parts_1_5", 1),
              ("edges_between_parts_2_5", 1)])]:
        blocks = [(r["quantity"], r["value"]) for r in density_report(g).rows
                  if r["quantity"].startswith(("edges_within_",
                                               "edges_between_"))]
        assert blocks == want


def test_density_report_cross_identity_on_full_construction():
    from rtlab.constructions import ConstructionParams, full_construction
    from rtlab.verifiers import density_report
    p = ConstructionParams(r=3, z=10, alpha=0.3, beta=0.3,
                           epsilon=0.5 * math.sqrt(5), k=5, seed=3,
                           blowup_t=2, pattern_cap=10)
    h = full_construction(p)
    rep = density_report(h, p)
    assert rep.verdict == "holds"
    ident = [r for r in rep.rows if r["quantity"] == "cross_blowup_identity"]
    assert ident and ident[0]["ok"] and ident[0]["asserted"]


def test_density_report_failed_identity_reads_violated():
    from rtlab.constructions import ConstructionParams, full_construction
    from rtlab.verifiers import density_report
    p = ConstructionParams(r=3, z=10, alpha=0.3, beta=0.3,
                           epsilon=0.5 * math.sqrt(5), k=5, seed=3,
                           blowup_t=2, pattern_cap=10)
    h = full_construction(p)
    h.meta["base_cross"] += 1
    rep = density_report(h, p)
    assert rep.verdict == "violated"
    ident = [r for r in rep.rows if r["quantity"] == "cross_blowup_identity"]
    assert ident[0]["asserted"] and ident[0]["ok"] is False
