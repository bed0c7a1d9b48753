"""Checks written apart from rtlab: brute force, numpy counts, networkx.

Nothing here imports rtlab.  Hypergraphs are passed as (n, edges, part
labels) so the checks never go through the package's own data model.
"""

import math
from itertools import combinations

import networkx as nx
import numpy as np


# ---------------------------------------------------------------------------
# graphs


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def clique_number(n, edges):
    return len(nx.max_weight_clique(nx_graph(n, edges), weight=None)[0])


def is_clique(edge_set, vs):
    return len(set(vs)) == len(vs) and all(
        (min(a, b), max(a, b)) in edge_set for a, b in combinations(vs, 2))


def max_kt_free_subset(n, edges, t):
    """Largest vertex set inducing no K_t, by dynamic programming over all
    2^n subsets: has[j][S] says S contains a K_j."""
    if n > 22:
        raise ValueError("brute force limited to n <= 22")
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    size = 1 << n
    has = [np.ones(size, dtype=bool)]          # every set contains K_0
    for _ in range(t):
        prev = has[-1]
        cur = np.zeros(size, dtype=bool)
        for v in range(n):
            low = np.arange(1 << v, dtype=np.int64)
            # S = {v} | low: a K_j inside S either avoids v or is v plus a
            # K_{j-1} among v's neighbours below v
            cur[(1 << v) + low] = cur[low] | prev[low & adj[v]]
        has.append(cur)
    return int(popcounts(n)[~has[t]].max())


def max_independent_in_hypergraph(n, edges):
    """Largest vertex set containing no whole edge, over all 2^n subsets."""
    if n > 22:
        raise ValueError("brute force limited to n <= 22")
    subsets = np.arange(1 << n, dtype=np.int64)
    bad = np.zeros(1 << n, dtype=bool)
    for e in edges:
        mask = sum(1 << v for v in e)
        bad |= (subsets & mask) == mask
    return int(popcounts(n)[~bad].max())


def popcounts(n):
    pop = np.zeros(1 << n, dtype=np.int8)
    for v in range(n):
        pop[1 << v:1 << (v + 1)] = pop[:1 << v] + 1
    return pop


def common_neighbour_counts_ok(n, edges, u_set, r, m):
    """Every r-subset of U has at least m common neighbours (numpy)."""
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return all(int(np.logical_and.reduce(adj[list(sub)]).sum()) >= m
               for sub in combinations(sorted(u_set), r))


# ---------------------------------------------------------------------------
# hypergraph patterns


def shadow_nx(edges, keep):
    """Shadow graph restricted to the vertex set `keep`."""
    g = nx.Graph()
    g.add_nodes_from(keep)
    for e in edges:
        g.add_edges_from((a, b) for a, b in combinations(e, 2)
                         if a in keep and b in keep)
    return g


def split_core_or_k5(edges, part_of):
    """(split core found, K5 in the shadow of parts 0 and 1), by listing
    every clique of each two-part shadow with networkx."""
    parts = sorted({p for p in part_of if p >= 0})
    split = k5 = False
    for i, j in combinations(parts, 2):
        keep = {v for v, p in enumerate(part_of) if p in (i, j)}
        for cl in nx.enumerate_all_cliques(shadow_nx(edges, keep)):
            if len(cl) == 4 and sum(part_of[v] == i for v in cl) == 2:
                split = True
            if len(cl) >= 5 and (i, j) == (0, 1):
                k5 = True
            if len(cl) > 5:
                break
    return split, k5


def sparse_pattern_exists(edges, ell, condition):
    """Brute force over edge subsets (grown in index order, pruned only by
    the vertex cap): is there a connected sub-collection with >= 2 edges,
    at most ell vertices, satisfying condition(v, m)?"""
    edges = sorted(tuple(sorted(e)) for e in edges)

    def connected(chosen):
        reached = set(edges[chosen[0]])
        rest = list(chosen[1:])
        grew = True
        while rest and grew:
            grew = False
            for i in list(rest):
                if reached & set(edges[i]):
                    reached |= set(edges[i])
                    rest.remove(i)
                    grew = True
        return not rest

    def grow(start, chosen, verts):
        if len(chosen) >= 2 and condition(len(verts), len(chosen)) \
                and connected(chosen):
            return True
        for i in range(start, len(edges)):
            nv = verts | set(edges[i])
            if len(nv) <= ell and grow(i + 1, chosen + [i], nv):
                return True
        return False

    return grow(0, [], set())


def tk_embedding_ok(edge_set, cores, edges_used):
    """Each core pair has its own edge through it; every non-core vertex
    of those edges is used once."""
    pairs = list(combinations(sorted(cores), 2))
    if len(set(cores)) != len(cores) or len(edges_used) != len(pairs):
        return False
    seen = set(cores)
    for (a, b), e in zip(pairs, edges_used):
        e = tuple(sorted(e))
        if e not in edge_set or a not in e or b not in e:
            return False
        extras = [v for v in e if v not in (a, b)]
        if seen & set(extras):
            return False
        seen.update(extras)
    return True


# ---------------------------------------------------------------------------
# sphere geometry


def close_transversal_triples(reps, theta, u):
    """Ordered triples of u-tuples of reps, pairwise tuple-close: every
    coordinate pair within sqrt(2) - theta (the cross-edge rule)."""
    gram = reps @ reps.T
    dist = np.sqrt(np.clip(2.0 - 2.0 * gram, 0.0, None))
    np.fill_diagonal(dist, 0.0)
    close = dist <= math.sqrt(2.0) - theta
    if u != 2:
        raise ValueError("tuple length 2 only")
    tuples = np.argwhere(close)                         # (i, j) with d <= bound
    a, b = tuples[:, 0], tuples[:, 1]
    tc = (close[np.ix_(a, a)] & close[np.ix_(a, b)]
          & close[np.ix_(b, a)] & close[np.ix_(b, b)]).astype(np.int64)
    return int(((tc @ tc) * tc).sum())


def sphere_cap_closed_form(k, s):
    """Normalized cap measure for k = 1, 2, 3."""
    if k == 1:
        return math.acos(s) / math.pi
    if k == 2:
        return (1.0 - s) / 2.0
    if k == 3:
        return (math.acos(s) - s * math.sqrt(1.0 - s * s)) / math.pi
    raise ValueError(k)


def mc_cap_fractions(k, thresholds, samples, rng, centers=1, batch=2000):
    """Monte Carlo share of uniform points of S^k with x . e_i >= s for the
    first `centers` axes, for each threshold s."""
    hits = np.zeros(len(thresholds))
    left = samples
    while left:
        b = min(batch, left)
        x = rng.standard_normal((b, k + 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        lead = x[:, :centers]
        for i, s in enumerate(thresholds):
            hits[i] += np.count_nonzero(np.all(lead >= s, axis=1))
        left -= b
    return hits / samples


def check_cap_properties(eps, k, alpha, beta, rng, samples=20_000):
    """None when the three cap properties hold at (eps, k) under a Monte
    Carlo estimate (tolerance: 4 standard errors), else the first problem."""
    theta = eps / math.sqrt(k)
    if theta >= 0.25:
        return f"working scale {theta} >= 1/4"
    a = math.sqrt(2.0) - theta
    s_big = 1.0 - a * a / 2.0
    rho = (2.0 - eps / (2.0 * math.sqrt(k))) / 2.0
    s_small = math.sqrt(1.0 - rho * rho)
    tol = 4 * 0.5 / math.sqrt(samples)
    big, small = mc_cap_fractions(k, [s_big, s_small], samples, rng)
    both, = mc_cap_fractions(k, [s_big], samples, rng, centers=2)
    if big < 0.5 - alpha - tol:
        return f"large cap {big:.4f} < 1/2 - alpha"
    if small > beta + tol:
        return f"small cap {small:.4f} > beta"
    if both < 0.25 - 2 * alpha - tol:
        return f"two orthogonal caps {both:.4f} < 1/4 - 2 alpha"
    return None


# ---------------------------------------------------------------------------
# files


def read_hypergraph_file(path):
    """(r, n, edges, part labels) from the `HG r n m parts` text format."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    head = lines[0].split()
    if head[0] != "HG":
        raise ValueError(f"{path}: not a hypergraph file")
    r, n, m = int(head[1]), int(head[2]), int(head[3])
    part_of = [int(x) for x in lines[1:1 + n]]
    edges = [tuple(int(x) for x in line.split())
             for line in lines[1 + n:1 + n + m]]
    if len(edges) != m or any(len(e) != r for e in edges):
        raise ValueError(f"{path}: edge lines do not match the header")
    return r, n, edges, part_of


def read_report_csv(path):
    """quantity -> value text from a CSV report."""
    rows = {}
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        rows[cells["quantity"]] = cells["value"]
    return rows
