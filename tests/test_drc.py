import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from rtlab import drc
from helpers import complete_uniform
from rtlab.drc import (DrcParams, PipelineFailure, average_degree,
                       drc_feasible, drc_find_set, drc_recheck,
                       find_f_witness, find_tkf5_tk4, hyper_drc,
                       recheck_f_witness, recheck_tk4)
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph,
                              turan_hypergraph)
from rtlab.rng import substream
from rtlab.verifiers import Embedding, recheck_tk, recheck_tkf_core


def gnp(n, prob, seed):
    rng = substream(seed, "gnp")
    edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < prob)
    return SimpleGraph(n, edges)


def dense_random_3u(n, prob, seed):
    rng = substream(seed, "dense3u")
    edges = frozenset(e for e in combinations(range(n), 3)
                      if rng.random() < prob)
    return PartitionedHypergraph(n, 3, edges)


# ---------------------------------------------------------------------------
# feasibility (exact arithmetic)


def test_feasible_worked_example():
    # 50^2/100 - C(100,2) (5/100)^2 = 25 - 12.375 = 12.625 >= 12
    p = DrcParams(a=12, m=5, n=100, r=2, t=2)
    assert drc_feasible(p, 50)
    assert not drc_feasible(DrcParams(a=13, m=5, n=100, r=2, t=2), 50)


def test_feasible_m_equals_n():
    # (m/n)^t = 1: left side <= d^t/n^(t-1) - C(n, r)
    import math
    n, t, r, d = 30, 2, 2, 20
    cap = Fraction(d) ** t / Fraction(n) ** (t - 1) - math.comb(n, r)
    a_ok = int(cap) if cap == int(cap) else int(cap)
    p_bad = DrcParams(a=max(1, a_ok + 1), m=n, n=n, r=r, t=t)
    assert not drc_feasible(p_bad, d)


def test_feasible_complete_graph_exact_boundary():
    import math
    n, t, r, m = 20, 3, 2, 1
    d = Fraction(n - 1)
    bound = d ** t / Fraction(n) ** (t - 1) - math.comb(n, r) * Fraction(m, n) ** t
    floor_a = int(bound)
    assert drc_feasible(DrcParams(a=floor_a, m=m, n=n, r=r, t=t), d)
    assert not drc_feasible(DrcParams(a=floor_a + 1, m=m, n=n, r=r, t=t), d)


def test_feasible_exact_arithmetic_repeatable():
    p = DrcParams(a=12, m=5, n=100, r=2, t=2)
    lhs = Fraction(50) ** 2 / Fraction(100) - 4950 * Fraction(5, 100) ** 2
    assert lhs == Fraction(101, 8)
    assert drc_feasible(p, Fraction(50)) is drc_feasible(p, Fraction(50))


# ---------------------------------------------------------------------------
# set finding


def test_find_set_complete_graph():
    import math
    g = SimpleGraph(20, frozenset(combinations(range(20), 2)))
    p = DrcParams(a=17, m=1, n=20, r=2, t=2)
    assert drc_feasible(p, average_degree(g))
    u = drc_find_set(g, p, seed=1)
    assert u is not None and len(u) >= 17
    assert drc_recheck(g, u, 2, 1)


def test_find_set_rejects_edgeless():
    g = SimpleGraph(10, frozenset())
    with pytest.raises(ValueError):
        drc_find_set(g, DrcParams(a=2, m=1, n=10, r=2, t=2), seed=0)


def test_find_set_gnp_verified():
    g = gnp(200, 0.5, seed=3)
    p = DrcParams(a=6, m=8, n=200, r=2, t=4)
    u = drc_find_set(g, p, seed=3)
    assert u is not None and len(u) >= 6
    assert drc_recheck(g, u, 2, 8)


def _restart_loop_find_set(g, p, seed):
    # the strip that rescans U from the start after every deletion, the
    # reference for the one-pass strip; it ends with every r-subset good
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    for trial in range(p.retries):
        rng = substream(seed, "drc-find-set", trial)
        picks = [int(rng.integers(g.n)) for _ in range(p.t)]
        u_set = set.intersection(*(adj[v] for v in picks))
        while len(u_set) >= p.a:
            bad = next((sub for sub in combinations(sorted(u_set), p.r)
                        if len(set.intersection(*(adj[v] for v in sub)))
                        < p.m), None)
            if bad is None:
                return u_set
            u_set.discard(bad[-1])
    return None


@pytest.mark.parametrize("a,m,r,t", [(6, 8, 2, 4), (4, 4, 3, 2), (3, 2, 2, 1),
                                     (10, 3, 2, 3), (5, 1, 1, 2)])
def test_find_set_matches_restart_loop(a, m, r, t):
    p = DrcParams(a=a, m=m, r=r, t=t, retries=16)
    for (n, prob), seed in product(((40, 0.5), (80, 0.4), (200, 0.5),
                                    (30, 0.8)), (1, 2, 3)):
        g = gnp(n, prob, seed)
        assert (drc_find_set(g, p, seed=seed, require_feasible=False)
                == _restart_loop_find_set(g, p, seed))


# ---------------------------------------------------------------------------
# hypergraph form


def test_hyper_drc_rejects_s0():
    h = turan_hypergraph(9, 3, 3)
    with pytest.raises(ValueError):
        hyper_drc(h, 0)


def test_hyper_drc_rejects_empty_first_part():
    h = PartitionedHypergraph(6, 3, [(0, 2, 4)], (1, 1, 2, 2, 2, 2))
    with pytest.raises(ValueError, match="first part is empty"):
        hyper_drc(h, 1)


def test_hyper_drc_complete_multipartite():
    h = turan_hypergraph(9, 3, 3)
    for s in (1, 2, 3):
        out = hyper_drc(h, s, seed=s)
        # every transversal pair over parts 1 and 2 survives
        assert len(out.edges) == 9
        assert out.r == 2


def test_hyper_drc_matches_brute_force_links():
    # three equal parts, then three of unequal size
    for sizes in ((12, 12, 12), (13, 9, 11)):
        rng = substream(11, "h3p")
        parts = tuple(p for p, size in enumerate(sizes) for _ in range(size))
        verts = [[v for v, q in enumerate(parts) if q == p] for p in range(3)]
        edges = frozenset(e for e in product(*verts) if rng.random() < 0.5)
        h = PartitionedHypergraph(len(parts), 3, edges, parts)
        out = hyper_drc(h, 2, seed=5)
        samples = out.meta["samples"]
        # brute-force oracle: scan all transversal pairs directly
        want = {(b, c) for b, c in product(verts[1], verts[2])
                if all(tuple(sorted((w, b, c))) in h.edges for w in samples)}
        assert out.edges == frozenset(want)


# ---------------------------------------------------------------------------
# witness pipelines


def test_find_f_on_complete_12():
    h = complete_uniform(12, 3)
    p = DrcParams(a=3, m=3, t=2, s=1, codegree_threshold=2, retries=32)
    w = find_f_witness(h, p, seed=1)
    assert recheck_f_witness(h, w)


def test_recheck_f_witness_reads_edges_used():
    # every edge the nine vertices need is there, but the witness lists
    # (0, 1, 5), which is not an edge
    parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    h = PartitionedHypergraph(9, 3, list(turan_hypergraph(9, 3, 3).edges)
                              + parts)
    assert recheck_f_witness(h, drc.FWitness(*parts))
    bogus = drc.FWitness(*parts, edges_used=[(0, 1, 5)])
    assert not recheck_f_witness(h, bogus)
    full = drc.FWitness(*parts, edges_used=drc._f_edges(*parts))
    assert len(full.edges_used) == 30 and recheck_f_witness(h, full)
    full.edges_used = full.edges_used[::-1]
    assert not recheck_f_witness(h, full)


def test_find_f_fails_on_edgeless():
    h = PartitionedHypergraph(12, 3, frozenset())
    p = DrcParams(a=3, m=3, t=2, s=1, codegree_threshold=2, retries=4)
    with pytest.raises(PipelineFailure) as exc:
        find_f_witness(h, p, seed=1)
    assert exc.value.stage == "cleaning"


def test_find_f_dense_random_with_tk6():
    h = dense_random_3u(30, 0.9, seed=4)
    p = DrcParams(a=4, m=4, t=2, s=2, codegree_threshold=4, retries=64)
    w = find_f_witness(h, p, seed=4)
    assert recheck_f_witness(h, w)
    assert w.tk is not None and recheck_tk(h, w.tk, 6)


@pytest.mark.parametrize("run", [
    lambda h: find_f_witness(h, DrcParams(a=3, m=3, t=2, s=1,
                                          codegree_threshold=2, retries=2),
                             seed=1),
    lambda h: find_tkf5_tk4(h, eps=0.1, codegree_threshold=2, seed=2),
], ids=["find-f", "find-tkf5"])
def test_bad_tk_extension_fails_verification(monkeypatch, run):
    # a subdivision search that returns its cores without their edges:
    # the extension is rechecked before the witness is returned
    monkeypatch.setattr(drc, "subdivision", lambda cover, cores, *a: Embedding(
        dict(enumerate(sorted(cores))), {i: "core" for i in range(len(cores))}))
    with pytest.raises(PipelineFailure) as exc:
        run(complete_uniform(12, 3))
    assert exc.value.stage == "verification"


@pytest.mark.parametrize("n", [31, 32])
def test_find_f_n_not_a_multiple_of_3(n):
    # the balanced partition has parts of unequal size; the hypergraph
    # form takes them as they are
    h = dense_random_3u(n, 0.9, seed=1)
    p = DrcParams(a=4, m=4, t=2, s=2, codegree_threshold=4)
    w = find_f_witness(h, p, seed=1)
    assert recheck_f_witness(h, w)


def test_find_f_own_parts_of_unequal_size():
    parts = (0,) * 11 + (1,) * 10 + (2,) * 10
    h = PartitionedHypergraph(31, 3, dense_random_3u(31, 0.9, seed=1).edge_array,
                              parts)
    p = DrcParams(a=4, m=4, t=2, s=2, codegree_threshold=4)
    w = find_f_witness(h, p, seed=1)
    assert recheck_f_witness(h, w)
    labels = [{parts[v] for v in e} for e in (w.xs, w.ys, w.zs)]
    assert labels[0] == {0} and sorted(labels[1] | labels[2]) == [1, 2]
    assert all(len(s) == 1 for s in labels)


def test_find_f_uses_the_hypergraph_own_parts():
    # three labelled parts of 5, every cross triple and every inside
    # triple: the part edges come out of the hypergraph's own parts
    parts = (0,) * 5 + (1,) * 5 + (2,) * 5
    edges = frozenset(e for e in combinations(range(15), 3)
                      if len({parts[v] for v in e}) in (1, 3))
    h = PartitionedHypergraph(15, 3, edges, parts)
    p = DrcParams(a=3, m=3, t=2, s=1, codegree_threshold=2, retries=4)
    w = find_f_witness(h, p, seed=1)
    assert recheck_f_witness(h, w)
    labels = [{parts[v] for v in e} for e in (w.xs, w.ys, w.zs)]
    assert labels[0] == {0} and sorted(labels[1] | labels[2]) == [1, 2]
    assert all(len(s) == 1 for s in labels)


def test_find_f_cleans_own_parts_once(monkeypatch):
    # own parts label every trial alike, so the codegree cleaning runs
    # once however many trials fail
    calls = {"clean": 0, "hyper_drc": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(drc, "clean_low_codegree",
                        counted("clean", drc.clean_low_codegree))
    monkeypatch.setattr(drc, "hyper_drc", counted("hyper_drc", drc.hyper_drc))
    h = turan_hypergraph(15, 3, 3)
    p = DrcParams(a=3, m=3, t=2, s=1, codegree_threshold=2, retries=4)
    with pytest.raises(PipelineFailure) as info:
        find_f_witness(h, p, seed=1)
    assert info.value.stage == "edge-in-set"
    assert calls == {"clean": 1, "hyper_drc": 4}


def test_find_tkf5_on_complete_12():
    # the 4-core subdivision needs 10 distinct vertices, so 12 suffice
    h = complete_uniform(12, 3)
    tkf5, tk4 = find_tkf5_tk4(h, eps=0.1, codegree_threshold=2, seed=2)
    assert recheck_tkf_core(h, tkf5)
    assert tk4 is not None and recheck_tk4(h, tk4)


def test_find_tkf5_cleaning_wipes_low_codegree():
    # every cross pair has codegree exactly 1 <= threshold
    h = turan_hypergraph(9, 3, 3)
    edges = sorted(h.edges)[:6]
    sparse = PartitionedHypergraph(9, 3, frozenset(edges[:1]), h.part_of)
    with pytest.raises(PipelineFailure) as exc:
        find_tkf5_tk4(sparse, eps=0.05, codegree_threshold=16, seed=1)
    assert exc.value.stage == "cleaning"


def test_find_tkf5_planted_recovery():
    base = turan_hypergraph(61, 3, 3)  # parts 21, 20, 20
    big = base.part_vertices(0)
    rng = substream(7, "plant")
    plant = tuple(sorted(rng.choice(big, 3, replace=False).tolist()))
    h = PartitionedHypergraph(61, 3, frozenset(base.edges | {plant}),
                              base.part_of)
    tkf5, tk4 = find_tkf5_tk4(h, eps=0.2, codegree_threshold=16, seed=7)
    assert set(plant) <= set(tkf5.vertex_map.values())
    assert recheck_tkf_core(h, tkf5)
    assert tk4 is not None and recheck_tk4(h, tk4)


def test_find_tkf5_tk4_extension_found_past_first_fit():
    # parts: 0 = x (A), 1 = y (B), Z = {2, 3, 4} (C), fresh vertices 5..9 (A).
    # x y gets the link edges xyz, E = Z is an edge, and each pair of the
    # four cores x, y, 2, 3 has private edges; first fit gives x y the edge
    # through 5, which the pair (1, 3) needs, so only the second choice
    # (0, 1, 6) extends to a four-core subdivision
    edges = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4), (0, 1, 5), (0, 1, 6),
             (0, 2, 7), (0, 3, 8), (1, 2, 9), (1, 3, 5)]
    h = PartitionedHypergraph(10, 3, frozenset(edges),
                              (0, 1, 2, 2, 2, 0, 0, 0, 0, 0))
    tkf5, tk4 = find_tkf5_tk4(h, eps=0.1, codegree_threshold=0)
    assert sorted(tkf5.vertex_map.values()) == [0, 1, 2, 3, 4]
    assert tk4 is not None and recheck_tk4(h, tk4)
    assert tk4.edges_used == [(0, 1, 6), (0, 2, 7), (0, 3, 8), (1, 2, 9),
                              (1, 3, 5), (2, 3, 4)]
    assert list(tk4.vertex_map.values()) == [0, 1, 2, 3, 6, 7, 8, 9, 5, 4]


@pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, 1.5])
def test_find_tkf5_refuses_eps_outside_unit_interval(eps):
    # a part edge on the Turan 3-graph: eps 0.9 stops at the codegree
    # gate, which an eps outside (0, 1] would let every pair through
    base = turan_hypergraph(15, 3, 3)
    h = PartitionedHypergraph(15, 3, frozenset(base.edges | {(0, 1, 2)}),
                              base.part_of)
    with pytest.raises(PipelineFailure) as exc:
        find_tkf5_tk4(h, eps=0.9, codegree_threshold=0)
    assert exc.value.stage == "no-qualifying-pair"
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
        find_tkf5_tk4(h, eps=eps, codegree_threshold=0)
