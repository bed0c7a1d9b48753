"""`search`: the exact solvers and the DRC pipelines on prebuilt inputs.

Certify operations run exhaustive searches that return no witness; find
operations return one.  Inputs are drawn from the seed, many small
instances per kind so the per-round total varies little between seeds:

- certify: no K_(w+1) in G(140, 1/2) (w from networkx), alpha_3 of
  random graphs on 20 vertices with 95 edges, hyper_independence of random
  3-graphs on 15 vertices with 114 triples, the split-core scan of criterion-4 sphere hypergraphs
  (k=10, z=30, theta=0.5), and the split-core, two-part-shadow K5 and
  per-part sparse scans (ell=9) of two finished constructions (README
  parameters seed 5, criterion-6 parameters seed 5; fixed seeds, since
  build time varies widely with the seed).
- certify, failing every time: alpha_3 of the edgeless graph on 1,500
  vertices (named fault: recursion depth grows with n).
- find: K_w in the same G(140, 1/2), find_tk (s=7) in random 3-graphs on
  60 vertices (p = 0.3), drc_find_set on G(200, 1/2) with the
  criterion-10 parameters, find_f_witness on criterion-11 inputs (30
  vertices, p = 0.9), find_tkf5_tk4 on the 61-vertex Turan 3-graph with
  one planted part edge.
"""

import math
from itertools import combinations

import numpy as np

import harness
import oracles
from harness import Fault, Op, require

N_CLIQUE, CLIQUE_N = 10, 140
N_ALPHA, ALPHA_N, ALPHA_M = 24, 20, 95        # half of all pairs
N_HYPER, HYPER_N, HYPER_M = 24, 15, 114       # a quarter of all triples
N_CRIT4 = 4
N_TK = 4
N_DRC = 4
N_F = 4
N_TKF5 = 2
DEEP_N = 1500
FAULT = "alpha_t recursion depth grows with n"


def gnp(n, p, rng):
    iu = np.triu_indices(n, 1)
    keep = rng.random(len(iu[0])) < p
    return list(zip(iu[0][keep].tolist(), iu[1][keep].tolist()))


def random_triples(n, p, rng):
    return [e for e in combinations(range(n), 3) if rng.random() < p]


def gnm(n, m, rng):
    """m distinct edges drawn uniformly.  A fixed edge count, where the
    solve time of an exhaustive search grows fast with density, keeps the
    round total from varying with the seed more than the program does."""
    iu = np.triu_indices(n, 1)
    keep = np.sort(rng.choice(len(iu[0]), m, replace=False))
    return list(zip(iu[0][keep].tolist(), iu[1][keep].tolist()))


def random_triples_m(n, m, rng):
    """m distinct triples drawn uniformly (as gnm, for 3-graphs)."""
    triples = list(combinations(range(n), 3))
    return [triples[i] for i in np.sort(rng.choice(len(triples), m, replace=False))]


class Search(harness.Workload):
    name = "search"
    round_s = 2.5

    def prepare(self, seed):
        """Clique numbers of the G(140, 1/2) inputs, from networkx: they
        set the clique sizes searched for, and are the check's reference."""
        rng = np.random.default_rng([seed, 0x5EA6C4])
        self.omega = [oracles.clique_number(CLIQUE_N, gnp(CLIQUE_N, 0.5, rng))
                      for _ in range(N_CLIQUE)]

    def setup(self, seed):
        from rtlab import constructions as con, drc, hypergraph as hg
        from rtlab import sphere as sph, verifiers as ver
        self.ver, self.drc = ver, drc
        # the clique inputs come first, as in prepare()
        rng = np.random.default_rng([seed, 0x5EA6C4])
        self.inputs = {}
        ops = []

        def add(name, kind, fn, data=None, **kw):
            self.inputs[name] = data
            ops.append(Op(name, kind, fn, **kw))

        for i, w in enumerate(self.omega):
            edges = gnp(CLIQUE_N, 0.5, rng)
            g = hg.SimpleGraph(CLIQUE_N, frozenset(edges))
            add(f"no-K{w + 1}-{i}", "certify",
                lambda g=g, s=w + 1: ver.find_clique(g, s), (g, w + 1, w))
            add(f"find-K{w}-{i}", "find",
                lambda g=g, s=w: ver.find_clique(g, s), (g, w, w))
        for i in range(N_ALPHA):
            g = hg.SimpleGraph(ALPHA_N, frozenset(gnm(ALPHA_N, ALPHA_M, rng)))
            add(f"alpha3-{i}", "certify", lambda g=g: ver.alpha_t(g, 3), g)
        for i in range(N_HYPER):
            h = hg.PartitionedHypergraph(HYPER_N, 3,
                                         frozenset(random_triples_m(HYPER_N, HYPER_M, rng)))
            add(f"hyper-alpha-{i}", "certify",
                lambda h=h: ver.hyper_independence(h), h)
        for i in range(N_CRIT4):
            k, z, theta = 10, 30, 0.5
            s = int(rng.integers(1 << 30))
            p = con.ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                                       epsilon=theta * math.sqrt(k), k=k, seed=s)
            part = sph.build_partition(k, z, theta, s, balance_iters=8,
                                       diag_samples=4000)
            h = con.sphere_hypergraph(p, part)
            add(f"crit4-{i}-split", "certify",
                lambda h=h: ver.scan_split_core(h), h)
        for label, params in (
                ("readme-seed5", dict(z=14, epsilon=0.5)),
                ("crit6-seed5", dict(z=20, epsilon=0.5 * math.sqrt(5)))):
            p = con.ConstructionParams(r=3, alpha=0.3, beta=0.3, k=5,
                                       blowup_t=3, gamma=0.3, pattern_cap=10,
                                       seed=5, **params)
            h = con.full_construction(p)
            add(f"{label}-split", "certify", lambda h=h: ver.scan_split_core(h), h)
            add(f"{label}-k5", "certify",
                lambda h=h: ver.find_clique(con.shadow_first_parts(h, 2), 5), h)
            add(f"{label}-sparse", "certify",
                lambda h=h: [ver.scan_sparse_patterns(h.induced(h.part_vertices(q)),
                                                      3, 9)
                             for q in range(h.parts)], h)
        deep = hg.SimpleGraph(DEEP_N, frozenset())
        add(f"alpha3-edgeless-{DEEP_N}", "certify",
            lambda: ver.alpha_t(deep, 3), deep,
            fault=Fault(RecursionError, FAULT))

        for i in range(N_TK):
            h = hg.PartitionedHypergraph(60, 3, frozenset(random_triples(60, 0.3, rng)))
            add(f"tk7-{i}", "find", lambda h=h: ver.find_tk(h, 7), h)
        for i in range(N_DRC):
            g = hg.SimpleGraph(200, frozenset(gnp(200, 0.5, rng)))
            p = drc.DrcParams(a=6, m=8, n=200, r=2, t=4, retries=64)
            s = int(rng.integers(1 << 30))
            add(f"drc-set-{i}", "find",
                lambda g=g, p=p, s=s: drc.drc_find_set(g, p, seed=s), (g, p))
        for i in range(N_F):
            h = hg.PartitionedHypergraph(30, 3, frozenset(random_triples(30, 0.9, rng)))
            p = drc.DrcParams(a=4, m=4, t=2, s=2, codegree_threshold=4, retries=64)
            s = int(rng.integers(1 << 30))
            add(f"f-witness-{i}", "find",
                lambda h=h, p=p, s=s: drc.find_f_witness(h, p, seed=s), h)
        base = hg.turan_hypergraph(61, 3, 3)
        for i in range(N_TKF5):
            plant = tuple(sorted(rng.choice(base.part_vertices(0), 3,
                                            replace=False).tolist()))
            h = hg.PartitionedHypergraph(61, 3, frozenset(base.edges | {plant}),
                                         base.part_of)
            s = int(rng.integers(1 << 30))
            add(f"tkf5-{i}", "find",
                lambda h=h, s=s: drc.find_tkf5_tk4(h, eps=0.2,
                                                   codegree_threshold=16, seed=s),
                (h, plant))
        self.ops = ops

    def check(self, op, result):
        ver, drc = self.ver, self.drc
        name, data = op.name, self.inputs[op.name]
        if name.startswith("no-K") or name.startswith("find-K"):
            g, s, omega = data       # omega from networkx, before set-up
            if result is None:
                require(omega < s, f"no K{s} claimed, networkx finds {omega}")
            else:
                vs = list(result.vertex_map.values())
                require(omega >= s and len(vs) == s, f"K{s} claimed, omega={omega}")
                require(ver.recheck_clique(g, result), "recheck_clique rejects")
                require(oracles.is_clique(g.edges, vs), "witness is not a clique")
        elif name.startswith("alpha3-edgeless"):
            require(result == DEEP_N, f"alpha_3 of the edgeless graph is {result}")
        elif name.startswith("alpha3-"):
            want = oracles.max_kt_free_subset(data.n, data.edges, 3)
            require(result == want, f"alpha_3 {result}, brute force {want}")
        elif name.startswith("hyper-alpha"):
            want = oracles.max_independent_in_hypergraph(data.n, data.edges)
            require(result == want, f"independence {result}, brute force {want}")
        elif name.endswith("-split") or name.endswith("-k5"):
            split, k5 = oracles.split_core_or_k5(sorted(data.edges),
                                                 list(data.part_of))
            if name.endswith("-split"):
                require((result is None) == (not split),
                        f"split-core answer {result} vs networkx {split}")
            else:
                require((result is None) == (not k5),
                        f"K5 answer {result} vs networkx {k5}")
        elif name.endswith("-sparse"):
            cond = lambda v, m: v < 3 + 2 * (m - 1)
            for q, w in enumerate(result):
                inside = [e for e in data.edges
                          if all(data.part_of[v] == q for v in e)]
                require((w is None) == (not oracles.sparse_pattern_exists(inside, 9, cond)),
                        f"sparse answer for part {q} disagrees with brute force")
        elif name.startswith("tk7"):
            require(result is not None, "no TK_7 found")
            cores = [v for k, v in result.vertex_map.items()
                     if result.roles[k] == "core"]
            require(ver.recheck_tk(data, result, 7), "recheck_tk rejects")
            require(oracles.tk_embedding_ok(data.edges, cores, result.edges_used),
                    "TK_7 witness fails the edge-by-edge check")
        elif name.startswith("drc-set"):
            g, p = data
            require(result is not None and len(result) >= p.a, "no DRC set")
            require(drc.drc_recheck(g, result, p.r, p.m), "drc_recheck rejects")
            require(oracles.common_neighbour_counts_ok(g.n, g.edges, result, p.r, p.m),
                    "a pair of U has too few common neighbours")
        elif name.startswith("f-witness"):
            w = result
            require(drc.recheck_f_witness(data, w), "recheck_f_witness rejects")
            vs = list(w.xs) + list(w.ys) + list(w.zs)
            need = [w.xs, w.ys, w.zs] + [tuple(sorted((x, y, z))) for x in w.xs
                                         for y in w.ys for z in w.zs]
            require(len(set(vs)) == 9 and all(tuple(sorted(e)) in data.edges
                                              for e in need),
                    "nine-vertex witness fails the edge-by-edge check")
            require(w.tk is not None, "no TK_6 extension")
            cores = [v for k, v in w.tk.vertex_map.items() if w.tk.roles[k] == "core"]
            require(ver.recheck_tk(data, w.tk, 6)
                    and oracles.tk_embedding_ok(data.edges, cores, w.tk.edges_used),
                    "TK_6 extension fails its checks")
        elif name.startswith("tkf5"):
            h, plant = data
            tkf5, tk4 = result
            cores = sorted(tkf5.vertex_map.values())
            require(ver.recheck_tkf_core(h, tkf5), "recheck_tkf_core rejects")
            shadow = {p for e in h.edges for p in combinations(e, 2)}
            require(len(cores) == 5 and oracles.is_clique(shadow, cores),
                    "five cores not pairwise covered")
            require(set(plant) <= set(cores), "planted edge not among the cores")
            require(tk4 is not None and drc.recheck_tk4(h, tk4), "TK_4 fails recheck")
            cores4 = [v for k, v in tk4.vertex_map.items() if tk4.roles[k] == "core"]
            require(oracles.tk_embedding_ok(h.edges, cores4, tk4.edges_used),
                    "TK_4 witness fails the edge-by-edge check")
        else:
            raise harness.CheckFailed(f"no check for {name}")

    def fingerprint(self, op, result):
        if op.name.startswith("drc-set"):
            return sorted(result)
        if op.name.startswith("f-witness"):
            return result.as_json()
        return result
