"""Geometry of the k-dimensional unit sphere.

Uniform sampling, Euclidean distances, normalized spherical-cap measures,
the four-point impossibility margin, near-equal-measure point partitions
with implicit Voronoi domains, and a multistart estimator for the largest
t-point spread of a cap union.

Conventions: S^k lives in R^(k+1); the normalized surface measure has
mu(S^k) = 1; a cap is {x : x . center >= s} for a threshold s in [-1, 1].
All inequalities are evaluated in double precision with ties counting as
satisfied.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream

SQRT2 = math.sqrt(2.0)
# the largest z whose owner pass runs over (z, B) blocks of products; above
# it the pass over (B, z) blocks, one row per point, is faster
LLOYD_COLUMN_MAX_Z = 64


# ---------------------------------------------------------------------------
# points and distances


def sample_uniform_points(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, k+1) array of independent uniform points on S^k."""
    if k < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {k}")
    v = rng.standard_normal((count, k + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def distance(p, q) -> float:
    """Euclidean distance in R^(k+1) between two points of the same sphere."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(np.linalg.norm(p - q))


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Symmetric matrix of Euclidean distances between rows of `points`."""
    g = points @ points.T
    d2 = np.clip(2.0 - 2.0 * g, 0.0, None)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------------------
# spherical caps


@dataclass
class SphericalCap:
    """Cap {x : x . center >= s}; center must be a unit vector."""

    center: np.ndarray
    s: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not abs(np.linalg.norm(self.center) - 1.0) <= 1e-12:
            raise ValueError("cap center must lie on the unit sphere")
        if not -1.0 <= self.s <= 1.0:
            raise ValueError(f"cap threshold must be in [-1, 1], got {self.s}")


def threshold_for_base_diameter(diam: float) -> float:
    rho = diam / 2.0
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"cap base diameter must be in [0, 2], got {diam}")
    return math.sqrt(1.0 - rho * rho)


# ---------------------------------------------------------------------------
# cap measure in closed form

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_TERMS = 100_000


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by
    the modified Lentz method (Numerical Recipes, section 6.4)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge "
                          f"(a={a}, b={b}, x={x})")


def _log_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)).  For large a the asymptotic series
    replaces the difference of two large lgamma values, whose rounding
    would otherwise reach 1e-12 near a = 2500."""
    if a < 16.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a ** 3)
            - 1.0 / (640.0 * a ** 5) + 17.0 / (14336.0 * a ** 7)
            - 31.0 / (18432.0 * a ** 9))


def _incomplete_beta_half(a: float, x: float, s: float) -> float:
    """Regularized incomplete beta I_x(a, 1/2) for 0 < x <= 1, with
    x = 1 - s^2 and y = 1 - x taken as s * s: recomputed as 1 - x it
    would round to 0 once y < 1e-16, and mu(s) for |s| < 1e-8 would
    collapse to exactly 1/2.  Where s * s underflows to 0 (|s| below
    about 1.6e-162), log|s| stands in for (1/2) log y."""
    y = s * s
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    half_log_y = 0.5 * math.log(y) if y > 0.0 else math.log(abs(s))
    log_front = (_log_gamma_ratio(a) - 0.5 * math.log(math.pi)
                 + a * log_x + half_log_y)
    if x < (a + 1.0) / (a + 2.5):
        return math.exp(log_front) * _beta_continued_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * math.exp(log_front) * _beta_continued_fraction(0.5, a, y)


def cap_measure(k: int, s: float) -> float:
    """Normalized measure of the cap {x in S^k : x . c >= s}.

    Closed form mu(s) = I_{1-s^2}(k/2, 1/2) / 2 for s > 0, mirrored for
    s < 0, where I is the regularized incomplete beta function.  Strictly
    decreasing in s, with mu(-1) = 1, mu(0) = 1/2, mu(1) = 0.  Against
    40-digit references the absolute error stays below 5e-13 for every k
    up to 10^6; the relative error is below 2e-13 for k <= 5000.
    """
    if k < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {k}")
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"cap threshold must be in [-1, 1], got {s}")
    if s == 0.0:
        return 0.5
    if s == 1.0:
        return 0.0
    if s == -1.0:
        return 1.0
    tail = _incomplete_beta_half(k / 2.0, (1.0 - s) * (1.0 + s), s)
    return tail / 2.0 if s > 0.0 else 1.0 - tail / 2.0


def cap_intersection_measure_mc(k: int, centers: np.ndarray, s: float,
                                samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of mu(intersection of caps {x . c_i >= s}).

    Whether x lies in the caps depends only on its m = min(t, k+1)
    coordinates in an orthonormal basis q of a space holding the t
    centers (centers.T = q r, and x . c_i is those coordinates times
    column i of r).  For x uniform on S^k, by rotation invariance, these
    coordinates have the law g / sqrt(|g|^2 + c), with g standard normal
    in R^m and c an independent chi-square with k+1-m degrees of freedom
    (c = 0 when m = k+1).  So each sample draws m + 1 numbers instead of
    k + 1, and the estimate is exact in distribution: the hit count is
    Binomial(samples, mu).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    _, r = np.linalg.qr(centers.T)
    m = r.shape[0]
    g = rng.standard_normal((samples, m))
    norm2 = np.einsum("ij,ij->i", g, g)
    if m < k + 1:
        norm2 += rng.chisquare(k + 1 - m, samples)
    hits = np.all(g @ r >= s * np.sqrt(norm2)[:, None], axis=1)
    return int(np.count_nonzero(hits)) / samples


# ---------------------------------------------------------------------------
# the (eps, k) search


class InfeasibleSearch(RuntimeError):
    """No (eps, k) within the search caps satisfies the cap properties."""


_P2_SAMPLES = 40_000
# largest sphere dimension the (eps, k) search tries
K_CAP = 1_000_000


def _p1_threshold(eps: float, k: int) -> float:
    # cap of Euclidean radius sqrt(2) - eps/sqrt(k): 2h = a^2, s = 1 - h
    a = SQRT2 - eps / math.sqrt(k)
    return 1.0 - a * a / 2.0


def _p3_threshold(eps: float, k: int) -> float:
    return threshold_for_base_diameter(2.0 - eps / (2.0 * math.sqrt(k)))


def properties_hold(eps: float, alpha: float, beta: float, k: int,
                    t_max: int = 2) -> bool:
    """Numeric check of the three cap properties at a given (eps, k).

    Large-cap floor: the cap of radius sqrt(2) - eps/sqrt(k) has measure
    >= 1/2 - alpha.  Intersection floor: t such caps with pairwise-
    orthogonal centers (the extreme admissible configuration, centers at
    pairwise distance sqrt(2)) keep a Monte Carlo measure >= 2^-t -
    t*alpha, for 2 <= t <= t_max.  Each of its 40,000 samples is the
    projection of a uniform point onto the span of the centers, drawn from
    its exact law g / sqrt(|g|^2 + chi^2_(k+1-t)) with g standard normal
    in R^t (`cap_intersection_measure_mc`): the estimate is exact in
    distribution and costs t + 1 draws per sample.  Small-cap ceiling: the
    cap of base diameter 2 - eps/(2 sqrt(k)) has measure <= beta.  The
    working scale eps/sqrt(k) is additionally required to stay below 1/4,
    the regime in which the four-point exclusion is available downstream.
    """
    theta = eps / math.sqrt(k)
    if theta >= 0.25:
        return False
    s1 = _p1_threshold(eps, k)
    if cap_measure(k, s1) < 0.5 - alpha:
        return False
    if cap_measure(k, _p3_threshold(eps, k)) > beta:
        return False
    for t in range(2, min(t_max, k + 1) + 1):
        floor = 2.0 ** (-t) - t * alpha
        if floor <= 0.0:
            continue
        centers = np.eye(t, k + 1)
        rng = substream(k * 1_000_003 + t, "p2-mc")
        if cap_intersection_measure_mc(k, centers, s1, _P2_SAMPLES, rng) < floor:
            return False
    return True


def find_eps_k(alpha: float, beta: float,
               t_max: int = 2) -> tuple[float, int]:
    """Smallest workable (eps, k): eps halved down a ladder, then the
    minimal k located by doubling followed by bisection.

    Raises InfeasibleSearch when no k <= K_CAP (1,000,000) works for any
    ladder eps.
    """
    if not (0.0 < alpha < 0.5 and 0.0 < beta < 0.5):
        raise ValueError("alpha and beta must lie in (0, 1/2)")
    eps = 1.0
    for _ in range(24):
        k = _minimal_k(eps, alpha, beta, t_max)
        if k is not None:
            return eps, k
        eps /= 2.0
    raise InfeasibleSearch(
        f"no (eps, k) with k <= {K_CAP} satisfies the cap properties for "
        f"alpha={alpha}, beta={beta}")


def _minimal_k(eps, alpha, beta, t_max):
    ok = lambda k: properties_hold(eps, alpha, beta, k, t_max)
    # doubling phase: first k that works
    k = max(1, math.ceil((4.0 * eps) ** 2))  # below this theta >= 1/4
    lo = 0
    while k <= K_CAP and not ok(k):
        lo = k
        k *= 2
    if k > K_CAP:
        return None
    # bisection phase: minimal passing k in (lo, k]
    hi = k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# four-point margin


def check_p4(p1, p2, q1, q2, gamma: float) -> float:
    """Violation margin of the four-point configuration.

    margin = min(d(p1,p2) - (2-gamma), d(q1,q2) - (2-gamma),
                 min over cross pairs of (sqrt(2)-gamma) - d(p_i,q_j)).

    A non-negative margin would mean two (2-gamma)-far pairs whose four
    cross distances are all within sqrt(2)-gamma; for gamma in (0, 1/4)
    this never happens on any sphere.
    """
    if not 0.0 < gamma < 0.25:
        raise ValueError(f"gamma must be in (0, 1/4), got {gamma}")
    pts = [np.asarray(v, dtype=float) for v in (p1, p2, q1, q2)]
    dim = pts[0].shape
    if any(v.shape != dim for v in pts):
        raise ValueError("all four points must share a dimension")
    p1, p2, q1, q2 = pts
    far = 2.0 - gamma
    close = SQRT2 - gamma
    cross = max(distance(p, q) for p in (p1, p2) for q in (q1, q2))
    return min(distance(p1, p2) - far, distance(q1, q2) - far, close - cross)


def p4_best_margin(k: int, gamma: float, n_random: int, n_refine: int,
                   seed: int = 0) -> float:
    """Best (largest) margin over random quadruples plus local ascent refinements.

    The margin depends only on the six inner products of the four points.
    For uniform points on S^k these are those of four standard normal
    vectors of R^(k+1), whose coordinates in a Gram-Schmidt frame of their
    span form the lower-triangular Bartlett factor of a Wishart(k+1, I_4)
    matrix: normals below the diagonal and sqrt(chi^2_(k+1-i)) on it
    (`_bartlett_quadruples`).  So each random quadruple takes 10 draws,
    whatever k, in batches of 50,000, so memory is O(batch).  Each batch
    keeps its best starts, and the best n_refine of them are refined by
    random coordinate ascent on their normalised frame rows: points of a
    great S^3 (of S^k itself when k < 3).  This loses nothing, since any
    four points of S^k lie on a great S^3 and the margin does not change
    under rotation.  Each ascent step scores four proposals for one point
    of every start at once and keeps the best when it raises the margin
    (`_refine_quadruples`).  Returns the largest margin seen, always
    negative for gamma in (0, 1/4), the only gammas accepted.
    """
    if not 0.0 < gamma < 0.25:
        raise ValueError(f"gamma must be in (0, 1/4), got {gamma}")
    if k < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {k}")
    if n_random < 1:
        raise ValueError(f"need n_random >= 1 quadruples, got {n_random}")
    if n_refine < 0:
        raise ValueError(f"need n_refine >= 0 refinements, got {n_refine}")
    rng = substream(seed, "p4-search")
    batch = 50_000
    per_batch = math.ceil(n_refine / math.ceil(n_random / batch))
    best = -math.inf
    top_margins, top_quads = [], []
    for start in range(0, n_random, batch):
        lower = _bartlett_quadruples(k, min(batch, n_random - start), rng)
        margins = _frame_margins(lower, gamma)
        best = max(best, float(margins.max()))
        if per_batch:
            # the per_batch largest, in increasing order as the tail of
            # np.argsort(margins) lists them, without sorting the batch
            idx = np.argpartition(margins, max(len(margins) - per_batch, 0))
            idx = idx[-per_batch:]
            idx = idx[np.argsort(margins[idx])]
            rows = lower[:, :, idx].transpose(2, 0, 1)
            top_quads.append(rows / np.linalg.norm(rows, axis=2, keepdims=True))
            top_margins.append(margins[idx])
    if n_refine > 0:
        order = np.argsort(-np.concatenate(top_margins), kind="stable")
        starts = np.concatenate(top_quads)[order[:n_refine]]
        best = max(best, _refine_quadruples(starts, gamma, rng))
    return best


def _bartlett_quadruples(k: int, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """(4, m, count) frame coordinates of `count` quadruples of standard
    normal vectors of R^(k+1), m = min(4, k+1): [i, j, n] is coordinate j
    of vector i of quadruple n in the Gram-Schmidt frame of the vectors.

    Row i < m has normals in columns j < i and sqrt(chi^2_(k+1-i)) at
    column i; a row i >= m (only when k < 3, where the first m vectors
    span R^(k+1)) has m normals.
    """
    m = min(4, k + 1)
    lower = np.zeros((4, m, count))
    for i in range(4):
        if i:
            lower[i, :min(i, m)] = rng.standard_normal((min(i, m), count))
        if i < m:
            lower[i, i] = np.sqrt(rng.chisquare(k + 1 - i, count))
    return lower


def _frame_margins(lower: np.ndarray, gamma: float) -> np.ndarray:
    """`check_p4` margins of the directions of the rows of (4, m, count)
    frame coordinates, zero above the diagonal as `_bartlett_quadruples`
    draws them.  Each distance is sqrt(max(2 - 2c, 0)) for the cosine c;
    the largest cross distance is that of the smallest cross cosine."""
    m = lower.shape[1]

    def dot(i, l):
        c = min(i, l, m - 1) + 1
        return np.einsum("jn,jn->n", lower[i, :c], lower[l, :c])

    inv = [1.0 / np.sqrt(dot(i, i)) for i in range(4)]
    cos = {(i, l): dot(i, l) * (inv[i] * inv[l])
           for i, l in ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))}
    cross = np.minimum(np.minimum(cos[0, 2], cos[0, 3]),
                       np.minimum(cos[1, 2], cos[1, 3]))
    d = [np.sqrt(np.maximum(2.0 - 2.0 * c, 0.0))
         for c in (cos[0, 1], cos[2, 3], cross)]
    return np.minimum(np.minimum(d[0], d[1]) - (2.0 - gamma),
                      (SQRT2 - gamma) - d[2])


# for each point i of a quadruple (p1, p2, q1, q2): its partner in its far
# pair, then the other far pair, the points it is compared with across
_P4_ROLES = ((1, 2, 3), (0, 2, 3), (3, 0, 1), (2, 0, 1))


def _refine_quadruples(quads: np.ndarray, gamma: float,
                       rng: np.random.Generator) -> float:
    """Coordinate ascent on the margin for an (N, 4, m) batch of unit rows.

    Each round visits the four points in turn.  Point i of every
    quadruple gets four Gaussian proposals around it, scored as one
    (N, 4, m) batch, and moves to the best of them (the first on ties)
    when that raises its quadruple's margin.  The (N, 4, 4) distances
    are cached, so a proposal computes only its own distances to the
    other three.  The step, 0.3 at first, halves every eight of the 60
    rounds."""
    n, _, m = quads.shape
    far, close = 2.0 - gamma, SQRT2 - gamma
    gram = np.einsum("nid,njd->nij", quads, quads)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * gram, 0.0))
    cur = np.minimum(np.minimum(dist[:, 0, 1], dist[:, 2, 3]) - far,
                     close - dist[:, (0, 0, 1, 1), (2, 3, 2, 3)].max(axis=1))
    # point j of each quadruple as column j: a C-ordered copy, since the
    # batched product with a transposed view is about three times slower
    cols = np.ascontiguousarray(quads.transpose(0, 2, 1))
    rows = np.arange(n)
    step = 0.3
    for rnd in range(60):
        noise = step * rng.standard_normal((4, 4, n, m))
        for i, (p, a, b) in enumerate(_P4_ROLES):
            cand = quads[:, i, None] + noise[i].transpose(1, 0, 2)
            cand /= np.sqrt(np.einsum("nrd,nrd->nr", cand, cand))[..., None]
            d = np.sqrt(np.maximum(2.0 - 2.0 * (cand @ cols), 0.0))
            d[..., i] = 0.0
            cross = np.maximum(np.maximum(d[..., a], d[..., b]),
                               np.maximum(dist[:, p, a], dist[:, p, b])[:, None])
            new = np.minimum(np.minimum(d[..., p], dist[:, a, b, None]) - far,
                             close - cross)
            r = np.argmax(new, axis=1)
            best = new[rows, r]
            take = best > cur
            moved, r = rows[take], r[take]
            quads[moved, i] = cols[moved, :, i] = cand[moved, r]
            dist[moved, i] = dist[moved, :, i] = d[moved, r]
            np.maximum(cur, best, out=cur)
        if (rnd + 1) % 8 == 0:
            step *= 0.5
    return float(cur.max())


# ---------------------------------------------------------------------------
# partitions


def min_domains(k: int, diam: float) -> float:
    """Volume bound: S^k splits into z sets of chordal diameter <= diam
    only if z >= 1 / mu(cap {x . c >= 1 - diam^2/2}), since each set lies
    in the cap of chordal radius diam around any of its points.  The
    threshold is clamped at -1 (diam >= 2 gives 1); a cap measure that
    underflows to 0 gives inf."""
    measure = cap_measure(k, max(1.0 - diam * diam / 2.0, -1.0))
    return 1.0 / measure if measure > 0.0 else math.inf


@dataclass
class SpherePartition:
    """z representative points on S^k with implicit Voronoi domains.

    The domains are the Voronoi cells of `reps`; their diameters and
    measures are not recorded.  `precondition_min_z` is the volume bound
    on z for domains of diameter at most `domain_diam_bound`.
    """

    k: int
    z: int
    reps: np.ndarray
    domain_diam_bound: float
    seed: int

    def __post_init__(self):
        self.reps = np.asarray(self.reps, dtype=float)
        if self.reps.shape != (self.z, self.k + 1):
            raise ValueError("reps must be a (z, k+1) array")
        norms = np.linalg.norm(self.reps, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("all representatives must lie on the unit sphere")

    @property
    def precondition_min_z(self) -> float:
        return min_domains(self.k, self.domain_diam_bound)

    def distance_matrix(self) -> np.ndarray:
        return pairwise_distances(self.reps)


def build_partition(k: int, z: int, theta: float, seed: int,
                    balance_iters: int = 32,
                    diag_samples: int = 20_000) -> SpherePartition:
    """Partition of S^k into z Voronoi domains aiming at diameter <= theta/4.

    Representatives start as i.i.d. uniform points and are then balanced
    by `balance_iters` Lloyd steps (Monte Carlo cell means re-projected to
    the sphere), which push the empirical cell measures toward 1/z.  The
    Lloyd cloud has max(diag_samples, 40 z) uniform points: `diag_samples`
    only sets that floor.  Each step finds the points' nearest
    representatives in blocks of B = 2^17 // z points, in one of two
    layouts chosen by z alone: for z <= LLOYD_COLUMN_MAX_Z = 64, (z, B)
    blocks of products reduced down their columns; above it, (B, z)
    blocks against a C-ordered copy of reps.T, one row per point.  The
    block buffers are allocated once per call, at about 1 MB each, so
    memory is O(N (k+1) + 2^17) for N cloud points, never an (N, z)
    matrix.  A block's dot products may differ from the full product
    `cloud @ reps.T` in the last bit (BLAS picks its kernel by shape),
    but in both layouts the owners, first index on exact ties, and so
    the representatives, are the full product's on every seeded shape
    tested.  Whether the diameters can meet theta/4 is left to the
    volume bound (`precondition_min_z`); no diameter is sampled.
    Bit-reproducible for a fixed seed.  ValueError for z < 1, a negative
    `balance_iters`, or a theta that is not a positive finite number.
    """
    if z < 1:
        raise ValueError(f"domain count must be >= 1, got {z}")
    if balance_iters < 0:
        raise ValueError(f"balance_iters must be >= 0, got {balance_iters}")
    _check_theta(theta)
    rng = substream(seed, "partition-reps")
    reps = sample_uniform_points(k, z, rng)
    if z > 1 and balance_iters > 0:
        cloud = sample_uniform_points(k, max(diag_samples, 40 * z),
                                      substream(seed, "partition-lloyd"))
        columns = np.ascontiguousarray(cloud.T)
        owners = _owner_pass(cloud, columns, z)
        for _ in range(balance_iters):
            owner = owners(reps)
            # bincount adds each cell's rows in sampling order, as a sum
            # over the cell's rows would, so the means are the same floats
            sums = np.stack([np.bincount(owner, weights=col, minlength=z)
                             for col in columns], axis=1)
            # the same floats as np.linalg.norm of each row, which axis=1
            # norms, einsum and (sums * sums).sum(1) are not
            nm = np.sqrt(sums[:, None, :] @ sums[:, :, None])[:, 0, 0]
            keep = nm > 1e-12
            reps[keep] = sums[keep] / nm[keep, None]
    return SpherePartition(k=k, z=z, reps=reps, domain_diam_bound=theta / 4.0,
                           seed=seed)


def _owner_pass(cloud: np.ndarray, columns: np.ndarray, z: int):
    """owners(reps): for each row of `cloud` (whose transpose, C-ordered,
    is `columns`) the index of its largest product with one of the z rows
    of `reps`, the first on exact ties, as np.argmax(cloud @ reps.T,
    axis=1) gives it.  Every call fills and returns the same intp array.

    The points go in blocks of B = 2^17 // z, so a block holds at most
    2^17 products (1 MB of float64), written into a buffer allocated
    here, once.
    Up to LLOYD_COLUMN_MAX_Z cells the products of each block form a
    (z, B) array and every reduction runs down axis 0 over contiguous
    rows: the column maxima, the mask of entries equal to them, and the
    largest z - j over the mask, which is z minus the first maximal j.
    (np.argmax along axis 0 would transpose; along axis 1 it pays per
    row, which dominates when rows hold a few dozen entries.)  Above it
    each block is a (B, z) array, the product of its cloud rows with a
    C-ordered copy of reps.T made once per call of owners (at k = 5,
    single-thread OpenBLAS runs this product 1.3 to 1.5 times as fast
    as against the transposed view), and np.argmax takes each row's
    owner.
    """
    n = len(cloud)
    owner = np.empty(n, dtype=np.intp)
    # 2^17 products per block: 1 MB of float64
    width = max(1, min(n, (1 << 17) // z))
    if z > LLOYD_COLUMN_MAX_Z:
        block = np.empty((width, z))

        def owners(reps):
            reps_t = np.ascontiguousarray(reps.T)
            for lo in range(0, n, width):
                hi = min(lo + width, n)
                p = np.matmul(cloud[lo:hi], reps_t, out=block[:hi - lo])
                np.argmax(p, axis=1, out=owner[lo:hi])
            return owner
        return owners
    prod = np.empty((z, width))
    top = np.empty(width)
    hit = np.empty((z, width), dtype=bool)
    score = np.empty((z, width), dtype=np.uint8)
    best = np.empty(width, dtype=np.uint8)
    # z - j for cell j: the largest for the first cell
    rank = (z - np.arange(z)).astype(np.uint8)[:, None]

    def owners(reps):
        for lo in range(0, n, width):
            w = min(width, n - lo)
            p = np.matmul(reps, columns[:, lo:lo + w], out=prod[:, :w])
            m = np.max(p, axis=0, out=top[:w])
            h = np.equal(p, m, out=hit[:, :w])
            s = np.multiply(h, rank, out=score[:, :w])
            np.subtract(z, np.max(s, axis=0, out=best[:w]),
                        out=owner[lo:lo + w])
        return owner
    return owners


def _check_theta(theta: float) -> None:
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be a positive finite number, got {theta}")


def write_partition(part: SpherePartition, path: str) -> None:
    """Text format: header `SPHERE k z seed theta`, then z coordinate lines."""
    with open(path, "w") as fh:
        theta = part.domain_diam_bound * 4.0
        fh.write(f"SPHERE {part.k} {part.z} {part.seed} {theta!r}\n")
        for row in part.reps:
            fh.write(" ".join(f"{c:.17g}" for c in row) + "\n")


def read_partition(path: str) -> SpherePartition:
    """Read what `write_partition` wrote; ValueError unless the header
    gives k >= 1, z >= 1 and a positive finite theta and is followed by
    exactly z lines of k+1 coordinates each, every line a point within
    1e-9 of the unit sphere.  The rows are kept as parsed, not
    renormalised: 17 significant digits give back every float written,
    so the representatives read back bit for bit."""
    with open(path) as fh:
        header = fh.readline().split()
        rows = [line.split() for line in fh if line.strip()]
    if len(header) != 5 or header[0] != "SPHERE":
        raise ValueError(f"not a partition file: {path}")
    k, z, seed = int(header[1]), int(header[2]), int(header[3])
    theta = float(header[4])
    if k < 1 or z < 1:
        raise ValueError(f"not a partition file: {path}: k={k}, z={z} < 1")
    _check_theta(theta)
    if len(rows) != z or any(len(row) != k + 1 for row in rows):
        raise ValueError(f"not a partition file: {path}: the header asks "
                         f"for {z} lines of {k + 1} coordinates")
    reps = np.array([[float(c) for c in row] for row in rows])
    return SpherePartition(k=k, z=z, reps=reps, domain_diam_bound=theta / 4.0,
                           seed=seed)


# ---------------------------------------------------------------------------
# largest t-point spread of a cap union


def _into_union(x: np.ndarray, centers: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unit rows of x (any leading shape) moved into the union of the caps
    {y : y . centers[i] >= s[i]}.  A row inside some cap is unchanged; a
    row outside every cap goes to the nearest point of the cap with the
    largest margin x . c - s (the first on ties), on its rim."""
    margins = x @ centers.T - s
    i = np.argmax(margins, axis=-1)
    c, si = centers[i], s[i]
    w = x - np.einsum("...d,...d->...", x, c)[..., None] * c
    nw = np.linalg.norm(w, axis=-1)
    flat = nw < 1e-15
    if np.any(flat):  # a row at -c: every rim point is nearest, take one
        e = np.eye(x.shape[-1])[np.argmin(np.abs(c[flat]), axis=-1)]
        w[flat] = e - np.einsum("nd,nd->n", e, c[flat])[:, None] * c[flat]
        nw[flat] = np.linalg.norm(w[flat], axis=-1)
    rim = si[..., None] * c + (np.sqrt(np.maximum(0.0, 1.0 - si * si))
                               / nw)[..., None] * w
    return np.where(margins.max(axis=-1, keepdims=True) >= 0.0, x, rim)


def _spread(pts: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance of each (t, k+1) point set of `pts`,
    read from its Gram matrix."""
    gram = np.einsum("mid,mjd->mij", pts, pts)
    t = pts.shape[1]
    gram[:, np.arange(t), np.arange(t)] = -np.inf
    return np.sqrt(np.maximum(2.0 - 2.0 * gram.max(axis=(1, 2)), 0.0))


def estimate_dt(regions, t: int, samples: int = 4000, seed: int = 0,
                multistarts: int = 40) -> float:
    """Lower estimate of d_t of a union of caps: the largest achievable
    minimum pairwise distance among t points of the union.

    All `multistarts` starts move at once.  Each start is t uniform points
    moved into the union, so a point outside every cap lands on a rim,
    where the optima of small caps lie.  Then `samples // multistarts`
    redraw rounds: each start redraws one random point and keeps the draw
    unless its spread falls.  Then 80 ascent rounds: every point gets six
    Gaussian proposals, moved into the union and scored as one batch, and
    the best of them (the first on ties) is kept when it raises the
    spread; a start's step, 0.4 at first, halves after a round with no
    gain.  Returns the largest spread of any start.  ValueError for no
    cap, t < 2, multistarts < 1 or samples < 0.
    """
    caps = list(regions)
    if not caps:
        raise ValueError("need at least one cap region")
    if t < 2:
        raise ValueError(f"need t >= 2 points, got {t}")
    if multistarts < 1:
        raise ValueError(f"need multistarts >= 1, got {multistarts}")
    if samples < 0:
        raise ValueError(f"need samples >= 0, got {samples}")
    centers = np.array([c.center for c in caps])
    s = np.array([c.s for c in caps])
    k = centers.shape[1] - 1
    rng = substream(seed, "dt-estimate")
    rows = np.arange(multistarts)
    pts = _into_union(sample_uniform_points(k, multistarts * t, rng),
                      centers, s).reshape(multistarts, t, k + 1)
    val = _spread(pts)
    for _ in range(samples // multistarts):
        cand = pts.copy()
        cand[rows, rng.integers(t, size=multistarts)] = _into_union(
            sample_uniform_points(k, multistarts, rng), centers, s)
        v = _spread(cand)
        keep = v >= val
        pts[keep], val[keep] = cand[keep], v[keep]
    step = np.full(multistarts, 0.4)
    for _ in range(80):
        gained = np.zeros(multistarts, dtype=bool)
        for i in range(t):
            x = pts[:, i] + step[:, None] * rng.standard_normal(
                (6, multistarts, k + 1))
            x /= np.linalg.norm(x, axis=-1, keepdims=True)
            cand = np.repeat(pts[None], 6, axis=0)
            cand[:, :, i] = _into_union(x, centers, s)
            v = _spread(cand.reshape(-1, t, k + 1)).reshape(6, multistarts)
            r = np.argmax(v, axis=0)
            best = v[r, rows]
            keep = best > val
            pts[keep, i] = cand[r[keep], rows[keep], i]
            np.maximum(val, best, out=val)
            gained |= keep
        step[~gained] *= 0.5
    return float(val.max())
