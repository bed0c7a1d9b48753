import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import rtlab
from rtlab import CapExceeded, constructions
from rtlab.bounds import theta_lower_bound
from rtlab.constructions import (ConstructionParams, bollobas_erdos,
                                 corollary_graph, full_construction,
                                 maximal_ktfree_graph, optimize_a,
                                 random_blowup, shadow_first_parts,
                                 sphere_hypergraph, tuple_vertices)
from rtlab.hypergraph import (PartitionedHypergraph, SimpleGraph, as_graph,
                              blowup, shadow, turan_hypergraph)
from rtlab.rng import substream
from rtlab.sphere import SQRT2, SpherePartition, build_partition
from rtlab.verifiers import (BudgetExceeded, _cliques, _Counter,
                             blowup_deletion_condition, density_report,
                             find_clique, scan_sparse_patterns,
                             sparse_pattern_doomed_edges)


def small_params(**kw):
    base = dict(r=3, z=10, alpha=0.3, beta=0.3, epsilon=0.5 * math.sqrt(5),
                k=5, seed=2, blowup_t=2, gamma=0.3)
    base.update(kw)
    return ConstructionParams(**base)


def quick_partition(p, iters=4):
    return build_partition(p.k, p.z, p.theta, p.seed, balance_iters=iters,
                           diag_samples=2000)


def be_params(part, epsilon):
    # the params of the two-sided graph on `part` at this epsilon
    return ConstructionParams(r=2, z=part.z, alpha=0.3, beta=0.3,
                              epsilon=epsilon, k=part.k)


# ---------------------------------------------------------------------------
# parameters


def test_params_derived_fields():
    p = small_params()
    assert p.theta == pytest.approx(p.epsilon / math.sqrt(p.k), abs=1e-15)
    assert p.u == 2
    assert p.pattern_cap == 27


def test_params_json_roundtrip():
    p = small_params()
    q = ConstructionParams(**json.loads(json.dumps(p.to_json())))
    assert q == p


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(gamma=1.5)
    with pytest.raises(ValueError):
        small_params(r=1)
    with pytest.raises(ValueError):
        small_params(blowup_t=0)
    # the corollary's fields, refused before any build
    for key, value, message in [("ell", 0, "ell must be in"),
                                ("ell", 4, "ell must be in"),
                                ("q", 1, "need q >= 2"),
                                ("mix_a", 0.0, "mixing fraction"),
                                ("mix_a", 1.0, "mixing fraction"),
                                ("ell", 1, "ell = 1 needs mix_a")]:
        with pytest.raises(ValueError, match=message):
            small_params(**{key: value})
    assert small_params(ell=1, mix_a=0.5).ell == 1


def test_params_corollary_fields_roundtrip():
    p = small_params(ell=3, q=4, mix_a=0.3)
    data = p.to_json()
    assert (data["ell"], data["q"], data["mix_a"]) == (3, 4, 0.3)
    assert ConstructionParams(**json.loads(json.dumps(data))) == p


def test_params_unset_corollary_fields_not_written():
    data = small_params().to_json()
    assert not {"ell", "q", "mix_a"} & set(data)
    # a null in the file leaves the field unset
    assert ConstructionParams(**dict(data, mix_a=None)) \
        == small_params()


# ---------------------------------------------------------------------------
# two-sided sphere graph


def test_be_single_point():
    part = build_partition(3, 1, 0.4, seed=1)
    g = bollobas_erdos(be_params(part, 0.4 * math.sqrt(3)), part)
    # d(p, p) = 0 <= sqrt(2) - theta: one cross edge, no inside edges
    assert g.n == 2
    assert g.edges == frozenset([(0, 1)])


def test_be_no_cross_edges_above_sqrt2():
    part = build_partition(3, 6, 0.4, seed=3, balance_iters=0,
                           diag_samples=500)
    # theta = 1.5 > sqrt(2)
    g = bollobas_erdos(be_params(part, 1.5 * math.sqrt(3)), part)
    assert all(g.part_of[a] == g.part_of[b] for a, b in g.edges)


def test_be_cross_degree_floor():
    # large-cap floor surrogate: with (eps, k) from the (0.2, 0.2) search,
    # every vertex sees at least (1/2 - 0.25) z cross neighbors
    from rtlab.sphere import find_eps_k
    eps, k = find_eps_k(0.2, 0.2)
    z = 100
    part = build_partition(k, z, eps / math.sqrt(k), seed=7, balance_iters=8,
                           diag_samples=8000)
    g = bollobas_erdos(be_params(part, eps), part)
    cross_deg = [0] * g.n
    for a, b in g.edges:
        if g.part_of[a] != g.part_of[b]:
            cross_deg[a] += 1
            cross_deg[b] += 1
    assert min(cross_deg) >= (0.5 - 0.25) * z


def _double_loop_be(partition, epsilon):
    # the two-sided graph's own double loop, the reference for the tuple
    # hypergraph route
    theta = epsilon / math.sqrt(partition.k)
    z = partition.z
    d = partition.distance_matrix()
    edges = set()
    for i in range(z):
        for j in range(i + 1, z):
            if d[i, j] >= 2.0 - theta:
                edges.add((i, j))
                edges.add((z + i, z + j))
    for i in range(z):
        for j in range(z):
            if d[i, j] <= SQRT2 - theta:
                edges.add((i, z + j))
    return SimpleGraph(2 * z, frozenset(edges), tuple([0] * z + [1] * z))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_be_matches_double_loop(k):
    # epsilon = 1.5 sqrt(3) and 3 put theta above sqrt(2) at small k
    for z, epsilon, seed in product((1, 2, 7, 14, 40),
                                    (0.1, 0.5, 1.0, 1.5 * math.sqrt(3), 3.0),
                                    (1, 2)):
        part = build_partition(k, z, epsilon / math.sqrt(k), seed,
                               balance_iters=0, diag_samples=200)
        assert (bollobas_erdos(be_params(part, epsilon), part)
                == _double_loop_be(part, epsilon))


# ---------------------------------------------------------------------------
# tuple vertices


def test_tuple_vertices_u1():
    part = quick_partition(small_params())
    assert tuple_vertices(part, 1, 0.5) == [(i,) for i in range(10)]


def test_tuple_vertices_only_repeats_at_sqrt2():
    part = quick_partition(small_params())
    out = tuple_vertices(part, 2, SQRT2)
    assert out == [(i, i) for i in range(10)]


def test_tuple_vertices_brute_force_oracle():
    p = small_params(k=2, z=10, epsilon=0.5 * math.sqrt(2), seed=9)
    part = build_partition(2, 10, p.theta, 9, balance_iters=0,
                           diag_samples=500)
    theta = p.theta
    got = tuple_vertices(part, 2, theta)
    d = part.distance_matrix()
    want = [(i, j) for i in range(10) for j in range(10)
            if d[i, j] <= SQRT2 - theta]
    assert got == want


# ---------------------------------------------------------------------------
# sphere hypergraph


def test_sphere_hypergraph_r2_u1_matches_be():
    p = ConstructionParams(r=2, z=12, alpha=0.3, beta=0.3,
                           epsilon=0.45 * math.sqrt(4), k=4, seed=6)
    part = build_partition(4, 12, p.theta, 6, balance_iters=0,
                           diag_samples=500)
    h = sphere_hypergraph(p, part)
    g = bollobas_erdos(p, part)
    assert frozenset(h.edges) == frozenset(g.edges)


def test_sphere_hypergraph_no_edges_at_theta2():
    p = ConstructionParams(r=3, z=8, alpha=0.3, beta=0.3,
                           epsilon=2.0 * math.sqrt(4), k=4, seed=1)
    part = build_partition(4, 8, p.theta, 1, balance_iters=0,
                           diag_samples=500)
    h = sphere_hypergraph(p, part)
    assert len(h.edges) == 0


def test_sphere_hypergraph_recheck_edge_families():
    p = small_params(z=14, seed=8)
    part = quick_partition(p)
    h = sphere_hypergraph(p, part)
    V = tuple_vertices(part, p.u, p.theta)
    nv = len(V)
    d = part.distance_matrix()
    for e in h.edges:
        tuples = [V[v % nv] for v in e]
        parts = [v // nv for v in e]
        if len(set(parts)) == 1:
            # inside: every pair far in some shared coordinate
            for x, y in combinations(range(3), 2):
                assert any(d[tuples[x][j], tuples[y][j]] >= 2 - p.theta
                           for j in range(p.u))
        else:
            assert len(set(parts)) == 3
            # cross: all coordinate pairs close
            for x, y in combinations(range(3), 2):
                for j, m in product(range(p.u), repeat=2):
                    assert d[tuples[x][j], tuples[y][m]] <= SQRT2 - p.theta


def test_sphere_hypergraph_cross_antitone_in_theta():
    k, z = 4, 12
    part = build_partition(k, z, 0.3, seed=4, balance_iters=0,
                           diag_samples=500)

    def cross_as_tuples(theta):
        p = ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                               epsilon=theta * math.sqrt(k), k=k, seed=4)
        h = sphere_hypergraph(p, part)
        V = tuple_vertices(part, p.u, theta)
        nv = len(V)
        return {tuple((v // nv, V[v % nv]) for v in e)
                for e in h.cross_edges()}

    assert cross_as_tuples(0.45) <= cross_as_tuples(0.3)


def test_sphere_hypergraph_part_cap(monkeypatch):
    # a part whose nv x nv tuple matrices, 3 bytes a cell, would pass the
    # byte cap is refused before they are built
    p = small_params(z=20, epsilon=0.5)
    part = quick_partition(p)
    nv = len(tuple_vertices(part, p.u, p.theta))
    monkeypatch.setattr(rtlab, "MAX_BYTES", 3 * nv * nv - 1)
    with pytest.raises(CapExceeded, match=f"the tuple matrices of {nv} "
                       f"tuple vertices would hold {3 * nv * nv} bytes"):
        sphere_hypergraph(p, part)


def test_tuple_matrices_refused_over_their_cap(monkeypatch):
    # 80 pairs of nearby points, the pairs mutually orthogonal: each pair
    # gives 4 tuples, so the 320 x 320 tuple matrices (3 bytes a cell)
    # outweigh the 160 x 160 distance matrices (10 bytes a cell) and every
    # listing; a cap at exactly their bytes builds, a byte less refuses
    # before the first is made
    reps = np.zeros((160, 160))
    reps[0::2, 0::2] = reps[1::2, 0::2] = np.eye(80)
    reps[1::2, 0::2] *= math.cos(0.1)
    reps[1::2, 1::2] = math.sin(0.1) * np.eye(80)
    part = SpherePartition(k=159, z=160, reps=reps, theta=0.5, seed=0)
    need = 3 * 320 * 320
    monkeypatch.setattr(rtlab, "MAX_BYTES", need)
    h = constructions._tuple_hypergraph(part, 3, 2, 0.5)
    assert h.meta["tuple_count"] == 320
    assert h.meta["base_cross"] == 80 * 4 ** 3
    monkeypatch.setattr(rtlab, "MAX_BYTES", need - 1)
    monkeypatch.setattr(np, "ix_", lambda *a: pytest.fail())
    with pytest.raises(CapExceeded, match=f"hold {need} bytes"):
        constructions._tuple_hypergraph(part, 3, 2, 0.5)


def test_sphere_hypergraph_cross_cap(monkeypatch):
    p = small_params(z=14, seed=3, epsilon=0.5)
    part = quick_partition(p)
    V = np.array(tuple_vertices(part, p.u, p.theta))
    close = part.distance_matrix() <= SQRT2 - p.theta
    tclose = np.ones((len(V), len(V)), dtype=np.int64)
    for j, m in product(range(p.u), repeat=2):
        tclose &= close[np.ix_(V[:, j], V[:, m])]
    # the close prefixes of 1, 2 and 3 tuples; the listing of each length
    # counts the length before and its own rows twice, 8 bytes an entry,
    # and at these params the cross listing is the build's largest count
    placed = [1, len(V), int(tclose.sum()),
              int((tclose * (tclose @ tclose)).sum())]
    need = max(8 * (w - 1) * placed[w - 1] + 16 * w * placed[w]
               for w in range(1, 4))
    monkeypatch.setattr(rtlab, "MAX_BYTES", need)
    h = sphere_hypergraph(p, part)
    assert h.meta["base_cross"] == placed[3]
    monkeypatch.setattr(rtlab, "MAX_BYTES", need - 1)
    with pytest.raises(CapExceeded, match=f"sequences of length 3 would "
                       f"hold {need} bytes"):
        sphere_hypergraph(p, part)


# ---------------------------------------------------------------------------
# random blowup


def test_random_blowup_empty():
    h = PartitionedHypergraph(4, 3, frozenset(), (0,) * 4)
    out = random_blowup(h, 3, 0.3, 9, seed=1)
    assert len(out.edges) == 0


def test_random_blowup_keep_probability():
    h = PartitionedHypergraph(3, 3, frozenset(), (0,) * 3)
    out = random_blowup(h, 100, 0.1, 9, seed=1)
    assert out.meta["keep_probability"] == pytest.approx(100.0 ** (-1.9))


def test_composed_blowups_record_the_product():
    # a blowup of a blowup records the product of the factors, so the
    # density report's blowup identity and vertex caps still hold
    p = small_params(z=8, epsilon=0.5)
    h = sphere_hypergraph(p, p.build_partition())
    assert h.meta["base_cross"] > 0
    twice, once = blowup(blowup(h, 2), 3), blowup(h, 6)
    assert np.array_equal(twice.edge_array, once.edge_array)
    assert np.array_equal(twice.part_of, once.part_of)
    assert twice.meta == once.meta
    assert once.meta["blowup_t"] == 6
    assert density_report(twice).verdict == "holds"
    sampled = random_blowup(blowup(h, 2), 2, 0.3, 10, seed=1)
    assert sampled.meta["blowup_t"] == 4
    assert density_report(sampled).verdict == "holds"


def test_random_blowup_reproducible():
    h = PartitionedHypergraph(6, 3, frozenset([(0, 1, 2), (3, 4, 5),
                                               (0, 2, 4)]), (0,) * 6)
    a = random_blowup(h, 4, 0.3, 9, seed=33)
    b = random_blowup(h, 4, 0.3, 9, seed=33)
    assert a.edges == b.edges


def test_random_blowup_keep_fraction_within_3_sigma():
    h = PartitionedHypergraph(6, 3, frozenset([(0, 1, 2), (1, 2, 3),
                                               (3, 4, 5), (0, 2, 4)]),
                              (0,) * 6)
    t, gamma = 3, 0.3
    p = t ** (1 + gamma - 3)
    total = 0
    n_population = len(h.edges) * t ** 3
    for seed in range(50):
        out = random_blowup(h, t, gamma, 9, seed=seed)
        total += out.meta["kept_edges"]
    n_draws = 50 * n_population
    sigma = math.sqrt(p * (1 - p) / n_draws)
    assert abs(total / n_draws - p) <= 3 * sigma


def test_random_blowup_no_surviving_patterns():
    # exhaustive post-scan oracle on the survivors
    from rtlab.verifiers import scan_sparse_patterns, blowup_deletion_condition
    h = PartitionedHypergraph(6, 3,
                              frozenset([(0, 1, 2), (1, 2, 3), (2, 3, 4),
                                         (3, 4, 5), (0, 2, 4)]), (0,) * 6)
    out = random_blowup(h, 4, 0.3, 9, seed=5)
    w = scan_sparse_patterns(out, 3, 9,
                             condition=blowup_deletion_condition(3, 0.3))
    assert w is None


# ---------------------------------------------------------------------------
# pattern deletion on seeded corpora

README_PARAMS = dict(r=3, z=14, alpha=0.3, beta=0.3, epsilon=0.5, k=5,
                     blowup_t=3, gamma=0.3, pattern_cap=10)
# edges deleted by the former pass, which took the last edge of every
# satisfying sub-collection its enumeration reached; the repeated scan
# must delete no more
CRIT5_DELETED_BEFORE = [85, 138, 41, 139, 50, 33, 88, 186, 138, 37]
CRIT6_DELETED_BEFORE = {3: 128, 4: 135, 5: 111}


def _restart_doomed_edges(h, ell, condition):
    # the deletion as a loop of full scans, each on a rebuilt hypergraph
    # of the survivors: the reference for the one resumed pass of
    # sparse_pattern_doomed_edges
    doomed = set()
    while True:
        alive = PartitionedHypergraph(h.n, h.r, h.edges - doomed, h.part_of)
        witness = scan_sparse_patterns(alive, h.r, ell, budget=10 ** 9,
                                       condition=condition)
        if witness is None:
            return doomed
        doomed.add(max(witness.edges_used))


@pytest.fixture(scope="module")
def deletion_corpus():
    """(label, pattern cap, hypergraph, former deleted count or None,
    deletions) for the seeded instances of acceptance criteria 5 and 6
    and the README parameters at seeds 2-5; deletions records each
    (input, ell, condition, deleted edges) of the pattern deletion."""
    out = []

    def build(label, cap, before, make):
        deletions = []

        def record(h, ell, condition, budget=None):
            doomed = sparse_pattern_doomed_edges(h, ell, condition, budget)
            deletions.append((h, ell, condition, doomed))
            return doomed

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "sparse_pattern_doomed_edges", record)
            out.append((label, cap, make(), before, deletions))

    k, z, theta = 6, 12, 0.5
    for seed, before in enumerate(CRIT5_DELETED_BEFORE):
        p = ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                               epsilon=theta * math.sqrt(k), k=k, seed=seed,
                               blowup_t=5, gamma=0.3)
        part = build_partition(k, z, theta, seed, balance_iters=8,
                               diag_samples=4000)
        h = sphere_hypergraph(p, part)
        inside = PartitionedHypergraph(h.n, 3, h.inside_edges(), h.part_of)
        build(f"crit5-seed{seed}", 9, before,
              lambda: random_blowup(inside, 5, 0.3, 9, seed=seed))
    for seed, before in CRIT6_DELETED_BEFORE.items():
        p = ConstructionParams(r=3, z=20, alpha=0.3, beta=0.3,
                               epsilon=0.5 * math.sqrt(5), k=5, seed=seed,
                               blowup_t=3, gamma=0.3, pattern_cap=10)
        build(f"crit6-seed{seed}", 10, before, lambda: full_construction(p))
    for seed in (2, 3, 4, 5):
        p = ConstructionParams(seed=seed, **README_PARAMS)
        build(f"readme-seed{seed}", 10, None, lambda: full_construction(p))
    return out


def _parts_pattern_free(h, cap):
    cond = blowup_deletion_condition(3, 0.3)
    return all(scan_sparse_patterns(h.induced(h.part_vertices(q)), 3, cap,
                                    condition=cond) is None
               for q in range(h.parts))


def test_deletion_corpus_pattern_free(deletion_corpus):
    for label, cap, h, _, _ in deletion_corpus:
        assert _parts_pattern_free(h, cap), label


def test_deletion_corpus_deletes_no_more_than_before(deletion_corpus):
    for label, _, h, before, _ in deletion_corpus:
        if before is not None:
            assert h.meta["deleted_patterns_edges"] <= before, label


def test_deletion_pass_matches_restart_loop(deletion_corpus):
    for label, _, _, _, deletions in deletion_corpus:
        assert len(deletions) == 1, label
        h, ell, condition, doomed = deletions[0]
        # the pass returns the ascending row indices of the loop's edges
        index = {tuple(e): i for i, e in enumerate(h.edge_array.tolist())}
        want = sorted(index[e] for e in _restart_doomed_edges(h, ell,
                                                               condition))
        assert doomed == want, label


@pytest.fixture(scope="module")
def readme_seed4():
    p = ConstructionParams(seed=4, **README_PARAMS)
    return p, p.build_partition()


def test_readme_seed4_builds_within_budget(readme_seed4):
    p, part = readme_seed4
    h = full_construction(p, part, budget=80_000)
    assert _parts_pattern_free(h, p.pattern_cap)


def test_deletion_budget_bounds_the_pass(readme_seed4):
    # the deletion pass on this instance takes 2,881 nodes in all
    p, part = readme_seed4
    with pytest.raises(BudgetExceeded) as exc:
        full_construction(p, part, budget=2_880)
    assert exc.value.nodes > 2_880
    h = full_construction(p, part, budget=2_881)
    assert _parts_pattern_free(h, p.pattern_cap)


def test_certifying_scan_node_count(readme_seed4):
    # the exhaustive scan of part 1 of the result takes exactly 237 nodes
    p, part = readme_seed4
    h = full_construction(p, part)
    part1 = h.induced(h.part_vertices(1))
    cond = blowup_deletion_condition(3, 0.3)
    with pytest.raises(BudgetExceeded) as exc:
        scan_sparse_patterns(part1, 3, 10, budget=236, condition=cond)
    assert exc.value.nodes == 237
    assert scan_sparse_patterns(part1, 3, 10, budget=237,
                                condition=cond) is None


def test_readme_z20_builds_within_budget():
    # the deletion pass takes 47,964 nodes here; restarting the scan
    # after each of its 1,435 deletions would take over 2 million
    p = ConstructionParams(seed=3, **dict(README_PARAMS, z=20))
    h = full_construction(p, budget=100_000)
    assert h.meta["deleted_patterns_edges"] == 1_435
    assert _parts_pattern_free(h, p.pattern_cap)


# ---------------------------------------------------------------------------
# full construction


def test_full_construction_cross_identity_and_t1():
    p = small_params(z=12, blowup_t=1, seed=5, pattern_cap=10)
    h = full_construction(p, quick_partition(p))
    assert h.meta["keep_probability"] == 1.0
    assert len(h.cross_edges()) == h.meta["base_cross"]

    p2 = small_params(z=12, blowup_t=2, seed=5, pattern_cap=10)
    h2 = full_construction(p2, quick_partition(p2))
    assert len(h2.cross_edges()) == 2 ** 3 * h2.meta["base_cross"]


def test_full_construction_part_sizes():
    p = small_params(z=12, blowup_t=3, seed=7, pattern_cap=10)
    h = full_construction(p, quick_partition(p))
    m = h.meta["part_size_m"]
    for q in range(3):
        assert len(h.part_vertices(q)) == m


def test_full_construction_split_core_clean():
    from rtlab.verifiers import scan_split_core
    p = small_params(z=12, blowup_t=2, seed=9, pattern_cap=10)
    h = full_construction(p, quick_partition(p))
    assert scan_split_core(h) is None


# ---------------------------------------------------------------------------
# one blowup pass: the former split construction as the reference


def _former_random_blowup(inside, t, gamma, ell, seed):
    # the blowup that sampled every copy of its (inside-only) input
    r = inside.r
    p = float(t) ** (1.0 + gamma - r)
    blown = blowup(inside, t)
    keep = substream(seed, "blowup-keep").random(len(blown.edge_array)) < p
    sampled = PartitionedHypergraph(blown.n, r, blown.edge_array[keep],
                                    blown.part_of)
    doomed = sparse_pattern_doomed_edges(
        sampled, ell, blowup_deletion_condition(r, gamma))
    meta = dict(inside.meta, blowup_t=t, keep_probability=p,
                kept_edges=len(sampled.edge_array),
                deleted_patterns_edges=len(doomed))
    return PartitionedHypergraph(blown.n, r,
                                 np.delete(sampled.edge_array, doomed, axis=0),
                                 blown.part_of, meta=meta)


def _former_full_construction(params, partition):
    # split the base, blow up the cross edges whole and the inside edges
    # through the sampled blowup, then concatenate, re-sort, merge meta
    base = sphere_hypergraph(params, partition)
    t = params.blowup_t
    cross_h = PartitionedHypergraph(base.n, base.r, base.cross_edges(),
                                    base.part_of)
    inside_h = PartitionedHypergraph(base.n, base.r, base.inside_edges(),
                                     base.part_of)
    cross_blown = blowup(cross_h, t)
    inside_blown = _former_random_blowup(inside_h, t, params.gamma,
                                         params.pattern_cap, params.seed)
    edges = np.concatenate([cross_blown.edge_array, inside_blown.edge_array])
    meta = dict(base.meta)
    meta.update(inside_blown.meta)
    meta["blowup_t"] = t
    meta["part_size_m"] = base.meta["tuple_count"] * t
    return PartitionedHypergraph(cross_blown.n, base.r, edges,
                                 cross_blown.part_of, meta=meta)


def _crit5_inside(seed):
    k, z, theta = 6, 12, 0.5
    p = ConstructionParams(r=3, z=z, alpha=0.3, beta=0.3,
                           epsilon=theta * math.sqrt(k), k=k, seed=seed,
                           blowup_t=5, gamma=0.3)
    part = build_partition(k, z, theta, seed, balance_iters=8,
                           diag_samples=4000)
    h = sphere_hypergraph(p, part)
    return PartitionedHypergraph(h.n, 3, h.inside_edges(), h.part_of)


def _crit6_params(seed):
    return ConstructionParams(r=3, z=20, alpha=0.3, beta=0.3,
                              epsilon=0.5 * math.sqrt(5), k=5, seed=seed,
                              blowup_t=3, gamma=0.3, pattern_cap=10)


def _small_case(**kw):
    p = small_params(**kw)
    return p, quick_partition(p)


def _r2_case():
    p = ConstructionParams(r=2, z=12, alpha=0.3, beta=0.3, epsilon=0.9, k=4,
                           seed=6, blowup_t=3, pattern_cap=5)
    return p, quick_partition(p)


BLOWUP_CASES = {
    **{f"readme-seed{s}": lambda s=s: (
        ConstructionParams(seed=s, **README_PARAMS), None)
       for s in (2, 3, 4, 5)},
    "readme-z20-seed3": lambda: (
        ConstructionParams(seed=3, **dict(README_PARAMS, z=20)), None),
    **{f"crit6-seed{s}": lambda s=s: (_crit6_params(s), None)
       for s in (3, 4, 5)},
    **{f"r4-z6-seed{s}": lambda s=s: _small_case(r=4, z=6, seed=s,
                                                  pattern_cap=12)
       for s in (1, 2)},
    "t1": lambda: _small_case(z=12, blowup_t=1, seed=5, pattern_cap=10),
    "r2": _r2_case,
}


def _assert_same_construction(got, want):
    assert got.edge_array.dtype == want.edge_array.dtype
    assert got.edge_array.tobytes() == want.edge_array.tobytes()
    assert got.n == want.n and np.array_equal(got.part_of, want.part_of)
    assert list(got.meta.items()) == list(want.meta.items())


@pytest.mark.parametrize("case", list(BLOWUP_CASES))
def test_full_construction_matches_the_split_construction(case):
    p, part = BLOWUP_CASES[case]()
    if part is None:
        part = p.build_partition()
    _assert_same_construction(full_construction(p, part),
                              _former_full_construction(p, part))


@pytest.mark.parametrize("seed", range(5))
def test_random_blowup_of_inside_edges_is_unchanged(seed):
    inside = _crit5_inside(seed)
    _assert_same_construction(random_blowup(inside, 5, 0.3, 9, seed=seed),
                              _former_random_blowup(inside, 5, 0.3, 9, seed))


def test_random_blowup_keeps_every_cross_copy():
    turan = turan_hypergraph(9, 3, 3)
    inside = np.array([(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 1, 3)])
    h = PartitionedHypergraph(9, 3, np.concatenate([turan.edge_array,
                                                    inside]),
                              turan.part_of)
    cross = blowup(h, 3).cross_edges()
    assert len(cross) == 27 * 3 ** 3
    # the other copies are those the sampled blowup of the non-cross edges
    # keeps, drawn in the same order
    rest = PartitionedHypergraph(9, 3, inside, h.part_of)
    for seed in range(5):
        out = random_blowup(h, 3, 0.3, 9, seed=seed)
        assert out.cross_edges().tobytes() == cross.tobytes()
        sampled = _former_random_blowup(rest, 3, 0.3, 9, seed)
        assert out.edges == set(map(tuple, cross.tolist())) | sampled.edges
        assert out.meta["kept_edges"] == sampled.meta["kept_edges"]


# ---------------------------------------------------------------------------
# tuple listing: the former bitmask walks as the reference


def _former_ordered_walk(rows, size, cand):
    # the clique walk's former ordered mode: every sequence from `cand`
    # whose vertices each lie in the rows of all earlier ones, repeats
    # allowed where a row holds its own bit, in lexicographic order
    if size == 0:
        yield ()
        return
    stack, seq = [[cand, cand]], []
    while stack:
        frame = stack[-1]
        if not frame[0]:
            stack.pop()
            if seq:
                seq.pop()
            continue
        low = frame[0] & -frame[0]
        frame[0] ^= low
        v = low.bit_length() - 1
        if len(stack) == size:
            yield (*seq, v)
            continue
        seq.append(v)
        nxt = frame[1] & rows[v]
        stack.append([nxt, nxt])


def _mask_rows(matrix):
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                           "little") for row in matrix]


def _former_tuple_vertices(partition, u, theta):
    close = partition.distance_matrix() <= SQRT2 - theta
    return list(_former_ordered_walk(_mask_rows(close), u,
                                     (1 << partition.z) - 1))


def _former_tuple_hypergraph(partition, r, u, theta):
    # the tuple vertices and the cross edges by the ordered walk, the
    # inside edges by the clique walk on the far graph
    V = _former_tuple_vertices(partition, u, theta)
    nv = len(V)
    dm = partition.distance_matrix()
    T = np.array(V, dtype=int).reshape(nv, u)
    tclose = np.ones((nv, nv), dtype=bool)
    for j, m in product(range(u), repeat=2):
        tclose &= (dm <= SQRT2 - theta)[np.ix_(T[:, j], T[:, m])]
    tfar = np.zeros((nv, nv), dtype=bool)
    for j in range(u):
        tfar |= (dm >= 2.0 - theta)[np.ix_(T[:, j], T[:, j])]
    np.fill_diagonal(tfar, False)
    full, shift = (1 << nv) - 1, nv * np.arange(r)
    inside = np.array(list(_cliques(_mask_rows(tfar), r, full, _Counter())),
                      dtype=np.int64).reshape(-1, r)
    cross = np.array(list(_former_ordered_walk(_mask_rows(tclose), r, full)),
                     dtype=np.int64).reshape(-1, r) + shift
    meta = {"tuple_count": nv, "z": partition.z, "theta": theta, "r": r,
            "u": u, "base_inside_per_part": len(inside),
            "base_inside": len(inside) * r, "base_cross": len(cross)}
    edges = np.concatenate([(inside + shift[:, None, None]).reshape(-1, r),
                            cross])
    return PartitionedHypergraph(r * nv, r, edges,
                                 tuple(p for p in range(r) for _ in range(nv)),
                                 meta=meta)


def _tuple_case(r, z, k, epsilon, seed):
    return ConstructionParams(r=r, z=z, alpha=0.3, beta=0.3, epsilon=epsilon,
                              k=k, seed=seed)


TUPLE_CASES = {
    **{f"readme-z{z}-seed3": lambda z=z: ConstructionParams(
        seed=3, **dict(README_PARAMS, z=z)) for z in (14, 20, 24, 26, 30)},
    **{f"readme-seed{s}": lambda s=s: ConstructionParams(
        seed=s, **README_PARAMS) for s in (2, 4, 5)},
    **{f"crit6-seed{s}": lambda s=s: _crit6_params(s) for s in (3, 4, 5)},
    "r4-z6-k5": lambda: _tuple_case(4, 6, 5, 0.5, 1),
    "r4-z8-k4": lambda: _tuple_case(4, 8, 4, 0.5, 2),
    "r2-z12-k4": lambda: _tuple_case(2, 12, 4, 0.9, 6),
    "r5-z6-k3": lambda: _tuple_case(5, 6, 3, 0.3, 1),
}


@pytest.mark.parametrize("case", list(TUPLE_CASES))
def test_tuple_listing_matches_the_former_walk(case):
    p = TUPLE_CASES[case]()
    part = p.build_partition()
    assert (tuple_vertices(part, p.u, p.theta)
            == _former_tuple_vertices(part, p.u, p.theta))
    _assert_same_construction(sphere_hypergraph(p, part),
                              _former_tuple_hypergraph(part, p.r, p.u, p.theta))
    _assert_same_construction(bollobas_erdos(p, part),
                              as_graph(_former_tuple_hypergraph(part, 2, 1,
                                                                p.theta)))


@pytest.mark.parametrize("build", [sphere_hypergraph, bollobas_erdos])
def test_tuple_hypergraph_builds_one_distance_matrix(monkeypatch, build):
    p = small_params()
    part = quick_partition(p)
    calls = []
    real = type(part).distance_matrix

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(type(part), "distance_matrix", counted)
    build(p, part)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# shadows of leading parts


def _toy_partitioned():
    edges = frozenset([(0, 1, 2),      # inside part 0
                       (0, 3, 6), (1, 4, 7)])  # cross
    return PartitionedHypergraph(9, 3, edges, (0, 0, 0, 1, 1, 1, 2, 2, 2))


def test_shadow_first_parts_all_is_whole_shadow():
    h = _toy_partitioned()
    assert shadow_first_parts(h, 3).edges == shadow(h).edges


def test_shadow_first_parts_one_part_gives_cliques():
    h = _toy_partitioned()
    g = shadow_first_parts(h, 1)
    assert g.edges == frozenset([(0, 1), (0, 2), (1, 2)])


def test_shadow_first_parts_keeps_cross_pairs_in_leading_parts():
    h = _toy_partitioned()
    g = shadow_first_parts(h, 2)
    # vertices renumbered 0..5; pair (0,3) survives from edge (0,3,6)
    assert (0, 3) in g.edges and (1, 4) in g.edges
    # no pair touching part 2 remains
    assert g.n == 6


def test_shadow_first_parts_range_check():
    h = _toy_partitioned()
    with pytest.raises(ValueError):
        shadow_first_parts(h, 4)
    with pytest.raises(ValueError):
        shadow_first_parts(h, 0)


# ---------------------------------------------------------------------------
# corollary graph


def test_corollary_q2_empty_inner_is_join():
    # t=1: the maximal K_2-free inner graph has no edge
    g = SimpleGraph(6, frozenset([(0, 1), (2, 3)]))
    out = corollary_graph(g, 2, 1, 4, mix_a=0.5)
    rest = out.n - g.n
    want = len(g.edges) + g.n * rest
    assert len(out.edges) == want


def test_corollary_edge_count_recount():
    g = SimpleGraph(8, frozenset([(0, 1), (2, 3), (4, 5)]))
    out = corollary_graph(g, 3, 3, 4, mix_a=0.4)
    # independent recount: g edges + inner edges + complete multipartite
    # cross edges + join edges
    rest = out.n - g.n
    inner_edges = sum(1 for a, b in out.edges
                      if a >= g.n and b >= g.n)
    join_edges = sum(1 for a, b in out.edges if a < g.n <= b)
    assert join_edges == g.n * rest
    assert len(out.edges) == len(g.edges) + inner_edges + join_edges


def former_corollary(g, q, t, inner_provider, mix_a):
    """The offsets-and-triple-loop builder corollary_graph replaced."""
    total = max(g.n + q - 1, round(g.n / mix_a))
    rest = total - g.n
    base, extra = divmod(rest, q - 1)
    sizes = [base + (1 if i < extra else 0) for i in range(q - 1)]
    offsets = [sum(sizes[:i]) for i in range(q - 1)]
    t_edges = set()
    for ci, size in enumerate(sizes):
        inner = inner_provider(size)
        t_edges.update((offsets[ci] + a, offsets[ci] + b)
                       for a, b in inner.edge_array.tolist())
        for cj in range(ci + 1, q - 1):
            for a in range(size):
                for b in range(sizes[cj]):
                    t_edges.add((offsets[ci] + a, offsets[cj] + b))
    edges = set(g.edges) | {(a + g.n, b + g.n) for a, b in t_edges}
    edges |= {(a, g.n + b) for a in range(g.n) for b in range(rest)}
    return SimpleGraph(total, edges)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_corollary_matches_former_builder(q):
    # class sizes from 1 up to uneven ones, inner graphs of every size
    for n_g, mix_a in [(0, 0.5), (3, 0.9), (5, 0.5), (8, 0.4), (9, 0.25)]:
        g = maximal_ktfree_graph(n_g, 2, seed=n_g)
        provider = lambda n: maximal_ktfree_graph(n, 2, seed=q)
        out = corollary_graph(g, q, 2, q, mix_a=mix_a)
        assert out == former_corollary(g, q, 2, provider, mix_a), (n_g, mix_a)


def test_corollary_rejects_bad_inner(monkeypatch):
    # the K_{t+1} recheck refuses an inner graph that is not K_{t+1}-free
    g = SimpleGraph(4, frozenset())
    bad = lambda n, t, seed: SimpleGraph(n, combinations(range(n), 2))
    monkeypatch.setattr(constructions, "maximal_ktfree_graph", bad)
    with pytest.raises(ValueError, match="not K_"):
        corollary_graph(g, 2, 3, 0, mix_a=0.5)


def test_corollary_class_matrix_refused_over_its_cap(monkeypatch):
    # g's 2 vertices and 38 more in 4 classes: the frame's class matrix,
    # 1 byte a cell, and the int64 rows of its pairs across classes, 16
    # bytes each, outweigh each class's pair list; a cap at exactly their
    # bytes builds, a byte less refuses before the matrix is made
    g = SimpleGraph(2, [(0, 1)])
    label = [0, 0] + sorted(1 + v % 4 for v in range(38))
    need = 40 * 40 + 16 * sum(label[a] != label[b]
                              for a, b in combinations(range(40), 2))
    assert need == 40 * 40 + 16 * 617
    monkeypatch.setattr(rtlab, "MAX_BYTES", need)
    assert corollary_graph(g, 5, 3, 0, mix_a=0.05).n == 40
    monkeypatch.setattr(rtlab, "MAX_BYTES", need - 1)
    monkeypatch.setattr(np, "argwhere", lambda *a: pytest.fail())
    with pytest.raises(CapExceeded, match=f"a class matrix of 40 x 40 "
                       f"vertices would hold {need} bytes"):
        corollary_graph(g, 5, 3, 0, mix_a=0.05)


def test_maximal_ktfree_graph_refused_over_its_cap(monkeypatch):
    # the shuffled list of the C(n, 2) pairs, 64 bytes a pair: a cap at
    # exactly that builds, a byte less refuses before any pair is listed
    need = 64 * 45
    monkeypatch.setattr(rtlab, "MAX_BYTES", need)
    assert maximal_ktfree_graph(10, 2, seed=1).n == 10
    monkeypatch.setattr(rtlab, "MAX_BYTES", need - 1)
    monkeypatch.setattr(constructions, "combinations", lambda *a: pytest.fail())
    with pytest.raises(CapExceeded, match=f"hold {need} bytes"):
        maximal_ktfree_graph(10, 2, seed=1)


def test_maximal_ktfree_graph_is_ktfree():
    for t in (2, 3):
        g = maximal_ktfree_graph(12, t, seed=9)
        assert find_clique(g, t + 1) is None


def test_maximal_ktfree_graph_counts_on_the_budget(monkeypatch):
    # the README corollary's class (116 vertices, t = 3, seed 3): the
    # clique walks of the whole build spend one counter's budget
    monkeypatch.setenv("RTLAB_BUDGET", "15413")
    maximal_ktfree_graph(116, 3, seed=3)
    monkeypatch.setenv("RTLAB_BUDGET", "15412")
    with pytest.raises(BudgetExceeded) as info:
        maximal_ktfree_graph(116, 3, seed=3)
    assert info.value.nodes == 15_413


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_maximal_ktfree_graph_is_maximal(t):
    # brute force: no (t+1)-set is a clique, and every non-edge a, b
    # closes one with t - 1 common neighbours
    n = 9
    g = maximal_ktfree_graph(n, t, seed=t)
    adj = lambda a, b: (min(a, b), max(a, b)) in g.edges
    is_clique = lambda vs: all(adj(a, b) for a, b in combinations(vs, 2))
    assert not any(is_clique(vs) for vs in combinations(range(n), t + 1))
    for a, b in combinations(range(n), 2):
        if not adj(a, b):
            rest = [v for v in range(n) if v not in (a, b)]
            assert any(is_clique(vs) and all(adj(a, v) and adj(b, v)
                                             for v in vs)
                       for vs in combinations(rest, t - 1)), (a, b)
    with pytest.raises(ValueError):
        maximal_ktfree_graph(n, 0)


# ---------------------------------------------------------------------------
# exact bounds


def test_theta_lower_bound_table():
    assert theta_lower_bound(2, 2) == Fraction(1, 8)
    assert theta_lower_bound(3, 2) == Fraction(1, 64)
    assert theta_lower_bound(3, 3) == Fraction(1, 48)
    with pytest.raises(ValueError):
        theta_lower_bound(3, 4)
    with pytest.raises(ValueError):
        theta_lower_bound(3, 1)


def test_optimize_a_known_values():
    a, v = optimize_a(3, 2, 2)
    assert (a, v) == (Fraction(32, 63), Fraction(16, 63))
    a, v = optimize_a(3, 3, 2)
    assert (a, v) == (Fraction(24, 47), Fraction(12, 47))


def test_optimize_a_grid_maximizer():
    for (t, ell, q) in ((3, 2, 2), (3, 3, 2), (4, 3, 3)):
        a_star, val = optimize_a(t, ell, q)
        b = theta_lower_bound(t, ell)

        def f(a):
            a = Fraction(a)
            return (b * a * a
                    + Fraction(math.comb(q - 1, 2)) * ((1 - a) / (q - 1)) ** 2
                    + (1 - a) * a)

        assert f(a_star) == val
        for i in range(1, 100):
            assert val >= f(Fraction(i, 100))
