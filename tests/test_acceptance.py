"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rtlab.constructions import (ConstructionParams, bollobas_erdos,
                                 full_construction, optimize_a,
                                 shadow_first_parts, sphere_hypergraph,
                                 theta_lower_bound)
from rtlab.drc import (DrcParams, drc_find_set, drc_recheck, find_f_witness,
                       find_tkf5_tk4, recheck_f_witness, recheck_tk4)
from rtlab.hypergraph import PartitionedHypergraph, SimpleGraph, turan_hypergraph
from rtlab.rng import substream
from rtlab.sphere import (SphericalCap, build_partition, cap_measure,
                          estimate_dt, find_eps_k, p4_best_margin)
from rtlab.verifiers import (alpha_t, find_clique, hyper_independence,
                             recheck_tk, recheck_tkf_core,
                             scan_sparse_patterns, scan_split_core)


def _line(num, name, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name} ({time.time() - t0:.1f}s) {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_bound_table():
    t0 = time.time()
    ok = (theta_lower_bound(2, 2) == Fraction(1, 8)
          and theta_lower_bound(3, 2) == Fraction(1, 64)
          and theta_lower_bound(3, 3) == Fraction(1, 48))
    elapsed_ok = time.time() - t0 < 1.0
    _line(1, "exact bound table", ok and elapsed_ok, t0)
    assert ok and elapsed_ok


def test_criterion_2_corollary_optimization():
    t0 = time.time()
    ok = (optimize_a(3, 2, 2) == (Fraction(32, 63), Fraction(16, 63))
          and optimize_a(3, 3, 2) == (Fraction(24, 47), Fraction(12, 47)))
    elapsed_ok = time.time() - t0 < 1.0
    _line(2, "exact mixing optimization", ok and elapsed_ok, t0)
    assert ok and elapsed_ok


def test_criterion_3_two_sided_sphere_graph():
    t0 = time.time()
    eps, k = find_eps_k(0.3, 0.3, 2)
    z = 150
    part = build_partition(k, z, eps / math.sqrt(k), seed=11)
    g = bollobas_erdos(part, eps)
    no_k4 = find_clique(g, 4) is None
    sides_ok = True
    for p in (0, 1):
        side = g.induced([v for v in range(g.n) if g.part_of[v] == p])
        sides_ok = sides_ok and find_clique(side, 3) is None
    elapsed = time.time() - t0
    ok = no_k4 and sides_ok and elapsed < 60.0
    _line(3, "K4-free two-sided graph, triangle-free sides", ok, t0,
          f"eps={eps} k={k} edges={len(g.edges)}")
    assert no_k4 and sides_ok and elapsed < 60.0


def test_criterion_4_split_core_exclusion():
    t0 = time.time()
    k, z, theta = 10, 30, 0.5
    all_none = True
    for seed in range(10):
        p = ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                               epsilon=theta * math.sqrt(k), k=k, seed=seed)
        part = build_partition(k, z, theta, seed, balance_iters=8,
                               diag_samples=4000)
        h = sphere_hypergraph(p, part)
        all_none = all_none and scan_split_core(h) is None
    elapsed = time.time() - t0
    ok = all_none and elapsed < 300.0
    _line(4, "split-core scan clean over 10 seeds", ok, t0,
          f"k={k} z={z} theta={theta}")
    assert all_none and elapsed < 300.0


def test_criterion_5_blowup_sparse_exclusion():
    t0 = time.time()
    from rtlab.constructions import random_blowup
    k, z, theta = 6, 12, 0.5
    all_none = True
    for seed in range(10):
        p = ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                               epsilon=theta * math.sqrt(k), k=k, seed=seed,
                               blowup_t=5, gamma=0.3)
        part = build_partition(k, z, theta, seed, balance_iters=8,
                               diag_samples=4000)
        h = sphere_hypergraph(p, part)
        inside = PartitionedHypergraph(h.n, 3, h.inside_edges(), h.part_of)
        blown = random_blowup(inside, 5, 0.3, 9, seed=seed)
        for q in range(3):
            sub = blown.induced(blown.part_vertices(q))
            if scan_sparse_patterns(sub, 3, 9) is not None:
                all_none = False
    elapsed = time.time() - t0
    ok = all_none and elapsed < 300.0
    _line(5, "post-blowup sparse patterns absent over 10 seeds", ok, t0,
          f"t=5 gamma=0.3 cap=9")
    assert all_none and elapsed < 300.0


def test_criterion_6_shadow_has_no_k5():
    t0 = time.time()
    k, z, theta = 5, 20, 0.5
    all_clean = True
    sizes = []
    for seed in (3, 4, 5):
        p = ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                               epsilon=theta * math.sqrt(k), k=k, seed=seed,
                               blowup_t=3, gamma=0.3, pattern_cap=10)
        h = full_construction(p)
        if scan_split_core(h) is not None:
            all_clean = False
        sh = shadow_first_parts(h, 2)
        sizes.append(sh.n)
        if sh.n > 400 or find_clique(sh, 5) is not None:
            all_clean = False
    elapsed = time.time() - t0
    ok = all_clean and elapsed < 600.0
    _line(6, "no K5 in the two-part shadow (t=3)", ok, t0,
          f"shadow sizes {sizes}")
    assert all_clean and elapsed < 600.0


def test_criterion_7_solver_oracle_equivalence():
    t0 = time.time()

    def brute_tables(n):
        subsets = np.arange(1 << n, dtype=np.int64)
        pop = np.array([bin(s).count("1") for s in range(1 << n)],
                       dtype=np.int32)
        return subsets, pop

    def brute_alpha_from_masks(bad_masks, subsets, pop):
        bad = np.zeros(len(subsets), dtype=bool)
        for mc in bad_masks:
            bad[(subsets & mc) == mc] = True
        return int(pop[~bad].max()) if (~bad).any() else 0

    mismatches = 0
    for inst in range(100):
        rng = substream(inst, "acc7")
        n = int(rng.integers(8, 15))
        prob = float(rng.uniform(0.3, 0.7))
        edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                          if rng.random() < prob)
        g = SimpleGraph(n, edges)
        subsets, pop = brute_tables(n)

        s = int(rng.integers(3, 6))
        brute_cl = any(all((a, b) in g.edges for a, b in combinations(sub, 2))
                       for sub in combinations(range(n), s))
        if (find_clique(g, s) is not None) != brute_cl:
            mismatches += 1

        for t in (2, 3):
            masks = [sum(1 << v for v in cl)
                     for cl in combinations(range(n), t)
                     if all((a, b) in g.edges for a, b in combinations(cl, 2))]
            if alpha_t(g, t) != brute_alpha_from_masks(masks, subsets, pop):
                mismatches += 1

        h_edges = frozenset(e for e in combinations(range(n), 3)
                            if rng.random() < 0.25)
        h = PartitionedHypergraph(n, 3, h_edges)
        hmasks = [sum(1 << v for v in e) for e in h.edges]
        if hyper_independence(h) != brute_alpha_from_masks(hmasks, subsets, pop):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _line(7, "solvers agree with brute force on 100 instances", ok, t0,
          f"mismatches={mismatches}")
    assert mismatches == 0 and elapsed < 120.0


def test_criterion_8_sphere_numerics():
    t0 = time.time()
    hemi_ok = all(abs(cap_measure(k, 0.0) - 0.5) < 1e-10
                  for k in (2, 5, 10, 50))
    grid_ok = all(abs(cap_measure(2, float(s)) - (1 - s) / 2) < 1e-8
                  for s in np.linspace(-1, 1, 100))
    margins = {}
    for k in (5, 10, 20):
        for gamma in (0.1, 0.2):
            margins[(k, gamma)] = p4_best_margin(k, gamma, 1_000_000, 1000,
                                                 seed=100 * k + int(10 * gamma))
    p4_ok = all(m < 0 for m in margins.values())
    elapsed = time.time() - t0
    ok = hemi_ok and grid_ok and p4_ok and elapsed < 120.0
    worst = max(margins.values())
    _line(8, "cap measures and four-point margins", ok, t0,
          f"worst margin {worst:.4f}")
    assert hemi_ok and grid_ok and p4_ok and elapsed < 120.0


def test_criterion_9_spread_counterexample_demo():
    t0 = time.time()
    pole = np.array([0.0, 0.0, 1.0])
    s_small = 1 - 2 * 1e-3    # cap measure 1e-3 on S^2
    s_double = 1 - 2 * 2e-3   # cap measure 2e-3
    two_caps = [SphericalCap(pole, s_small), SphericalCap(-pole, s_small)]
    one_cap = [SphericalCap(pole, s_double)]
    est_a = estimate_dt(two_caps, 3, samples=2000, seed=2, multistarts=24)
    est_d = estimate_dt(one_cap, 3, samples=2000, seed=3, multistarts=24)
    ratio = est_a / est_d
    target = 2 / math.sqrt(6)
    rel = abs(ratio - target) / target
    elapsed = time.time() - t0
    ok = rel < 0.10 and elapsed < 60.0
    _line(9, "two-cap spread ratio near 2/sqrt(6)", ok, t0,
          f"ratio={ratio:.4f} target={target:.4f}")
    assert rel < 0.10 and elapsed < 60.0


def test_criterion_10_drc_set_on_gnp():
    t0 = time.time()
    all_ok = True
    for seed in range(10):
        rng = substream(seed, "acc10")
        n = 200
        edges = frozenset((a, b) for a in range(n) for b in range(a + 1, n)
                          if rng.random() < 0.5)
        g = SimpleGraph(n, edges)
        p = DrcParams(a=6, m=8, n=n, r=2, t=4, retries=64)
        u = drc_find_set(g, p, seed=seed)
        if u is None or len(u) < 6 or not drc_recheck(g, u, 2, 8):
            all_ok = False
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 120.0
    _line(10, "verified well-connected sets on G(200, 1/2)", ok, t0)
    assert all_ok and elapsed < 120.0


def test_criterion_11_witness_pipelines():
    t0 = time.time()
    f_ok = 0
    for seed in range(10):
        rng = substream(seed, "acc11")
        edges = frozenset(e for e in combinations(range(30), 3)
                          if rng.random() < 0.9)
        h = PartitionedHypergraph(30, 3, edges)
        p = DrcParams(a=4, m=4, t=2, s=2, codegree_threshold=4, retries=64)
        w = find_f_witness(h, p, seed=seed)
        if recheck_f_witness(h, w) and w.tk is not None and recheck_tk(h, w.tk, 6):
            f_ok += 1
    plant_ok = 0
    for seed in range(10):
        base = turan_hypergraph(61, 3, 3)
        big = base.part_vertices(0)
        rng = substream(seed, "acc11-plant")
        plant = tuple(sorted(rng.choice(big, 3, replace=False).tolist()))
        h = PartitionedHypergraph(61, 3, frozenset(base.edges | {plant}),
                                  base.part_of)
        tkf5, tk4 = find_tkf5_tk4(h, eps=0.2, codegree_threshold=16,
                                  seed=seed)
        if (set(plant) <= set(tkf5.vertex_map.values())
                and recheck_tkf_core(h, tkf5)
                and tk4 is not None and recheck_tk4(h, tk4)):
            plant_ok += 1
    elapsed = time.time() - t0
    ok = f_ok == 10 and plant_ok == 10 and elapsed < 120.0
    _line(11, "witness pipelines verified", ok, t0,
          f"nine-vertex {f_ok}/10, planted {plant_ok}/10")
    assert f_ok == 10 and plant_ok == 10 and elapsed < 120.0
