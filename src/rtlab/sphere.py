"""Geometry of the k-dimensional unit sphere.

Uniform sampling, Euclidean distances, a Monte Carlo estimate of the
measure of an intersection of caps, the four-point impossibility margin,
near-equal-measure point partitions with implicit Voronoi domains, and a
multistart estimator for the largest t-point spread of a cap union.  The
closed-form cap measures, the (eps, k) search and the volume bound on
the domain count are in `rtlab.capmeasure`, which imports no numpy;
`cap_measure` and `find_eps_k` are re-exported here.

Conventions: S^k lives in R^(k+1); the normalized surface measure has
mu(S^k) = 1; a cap is {x : x . center >= s} for a threshold s in [-1, 1].
All inequalities are evaluated in double precision with ties counting as
satisfied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import check_bytes
# cap_measure and find_eps_k are re-exports: callers read them as sphere.*
from .capmeasure import SQRT2, cap_measure, find_eps_k, min_domains
from .rng import substream

# the largest z whose owner pass runs over (z, B) blocks of products; above
# it the pass over (B, z) blocks, one row per point, is faster
LLOYD_COLUMN_MAX_Z = 64
# quadruples whose four-point margins are scored at once: 32 KB per
# temporary, which stays in cache
P4_BLOCK = 4096


# ---------------------------------------------------------------------------
# points and distances


def sample_uniform_points(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, k+1) array of independent uniform points on S^k."""
    if k < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {k}")
    v = rng.standard_normal((count, k + 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


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
    Binomial(samples, mu).  Nothing in the package calls it: the (eps, k)
    search derives its intersection floor from the large-cap floor in
    closed form (`capmeasure.properties_hold`), and the tests hold these
    estimates against that floor.
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
    whatever k, in batches of 50,000.  One batch is resident at a time:
    it is drawn in place into one (4, m, 50,000) array, scored in blocks
    of P4_BLOCK (4,096) columns into one margin array, and both go
    before the next batch is drawn.  Each batch keeps its best starts,
    and the best n_refine of them are refined by random coordinate
    ascent on their normalised frame rows: points of a great S^3 (of S^k
    itself when k < 3).  This loses nothing, since any four points of
    S^k lie on a great S^3 and the margin does not change under
    rotation.  Each ascent step scores four proposals for one point of
    every start at once and keeps the best when it raises the margin
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
        # one batch resident: this one goes before the next is drawn
        del lower, margins
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
            rng.standard_normal(out=lower[i, :min(i, m)])
        if i < m:
            # chi^2_df is 2 standard_gamma(df/2) in numpy's own chisquare,
            # so these are its floats and leave the generator as it does
            diag = lower[i, i]
            rng.standard_gamma((k + 1 - i) / 2, out=diag)
            diag *= 2.0
            np.sqrt(diag, out=diag)
    return lower


def _frame_margins(lower: np.ndarray, gamma: float) -> np.ndarray:
    """`check_p4` margins of the directions of the rows of (4, m, count)
    frame coordinates, zero above the diagonal as `_bartlett_quadruples`
    draws them.  Each distance is sqrt(max(2 - 2c, 0)) for the cosine c;
    the largest cross distance is that of the smallest cross cosine.  The
    columns are scored in blocks of P4_BLOCK into one output array, so the
    temporaries hold one block, not the batch; each column's arithmetic
    is the same in any block."""
    count = lower.shape[2]
    out = np.empty(count)
    for lo in range(0, count, P4_BLOCK):
        hi = min(lo + P4_BLOCK, count)
        out[lo:hi] = _block_margins(lower[:, :, lo:hi], gamma)
    return out


def _block_margins(lower: np.ndarray, gamma: float) -> np.ndarray:
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


@dataclass
class SpherePartition:
    """z representative points on S^k with implicit Voronoi domains.

    The domains are the Voronoi cells of `reps`; their diameters and
    measures are not recorded.  `theta` is the working scale the
    partition was built for, stored as given so that a file written from
    it reads back the same theta; the domains aim at diameter
    `domain_diam_bound` = theta / 4, and `precondition_min_z` is the
    volume bound on z for domains that small.
    """

    k: int
    z: int
    reps: np.ndarray
    theta: float
    seed: int

    def __post_init__(self):
        self.reps = np.asarray(self.reps, dtype=float)
        if self.reps.shape != (self.z, self.k + 1):
            raise ValueError("reps must be a (z, k+1) array")
        norms = np.linalg.norm(self.reps, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("all representatives must lie on the unit sphere")

    @property
    def domain_diam_bound(self) -> float:
        return self.theta / 4.0

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
    only sets that floor.  It is held once, as its transpose `columns`, a
    C-ordered (k+1, N) array for N cloud points, drawn into it in blocks
    of 2^17 floats; those are the floats of one (N, k+1) draw.  Each step
    finds the points' nearest representatives in blocks of B = 2^17 // z
    points, in one of two layouts chosen by z alone: for z <=
    LLOYD_COLUMN_MAX_Z = 64, (z, B) blocks of products reduced down their
    columns; above it, (B, z) blocks of the transposed column slices
    against a C-ordered copy of reps.T, one row per point.  The block
    buffers are allocated once per call, at about 1 MB each, so memory
    is O(N (k+1) + 2^17), never an (N, z) matrix.  A block's dot
    products may differ from the full product `columns.T @ reps.T` in
    the last bit (BLAS picks its kernel by shape), but in both layouts the
    owners, first index on exact ties, and so the representatives, are
    the full product's on every seeded shape tested.  Whether the
    diameters can meet theta/4 is left to the volume bound
    (`precondition_min_z`); no diameter is sampled.  Bit-reproducible
    for a fixed seed.  ValueError for z < 1, a negative `balance_iters`,
    or a theta that is not a positive finite number; CapExceeded, before
    any draw, when the representatives and the cloud would take over
    the package's byte cap (`check_bytes`, 1 GiB) of float64.
    """
    if z < 1:
        raise ValueError(f"domain count must be >= 1, got {z}")
    if balance_iters < 0:
        raise ValueError(f"balance_iters must be >= 0, got {balance_iters}")
    _check_theta(theta)
    lloyd = z > 1 and balance_iters > 0
    samples = max(diag_samples, 40 * z) if lloyd else 0
    check_bytes(8 * (k + 1) * (z + samples),
                f"a partition of S^{k} into {z} domains")
    reps = sample_uniform_points(k, z, substream(seed, "partition-reps"))
    if lloyd:
        # one stream's rows, block after block: one big draw's floats
        rng = substream(seed, "partition-lloyd")
        columns = np.empty((k + 1, samples))
        step = max(1, (1 << 17) // (k + 1))
        for lo in range(0, samples, step):
            hi = min(lo + step, samples)
            columns[:, lo:hi] = sample_uniform_points(k, hi - lo, rng).T
        owners = _owner_pass(columns, z)
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
    return SpherePartition(k=k, z=z, reps=reps, theta=theta, seed=seed)


def _owner_pass(columns: np.ndarray, z: int):
    """owners(reps): for each column of `columns`, a (k+1, N) array of
    N cloud points, the index of its largest product with one of the z
    rows of `reps`, the first on exact ties, as np.argmax(columns.T @
    reps.T, axis=1) gives it.  Every call fills and returns the same
    intp array.

    The points go in blocks of B = 2^17 // z, so a block holds at most
    2^17 products (1 MB of float64), written into a buffer allocated
    here, once.
    Up to LLOYD_COLUMN_MAX_Z cells the products of each block form a
    (z, B) array and every reduction runs down axis 0 over contiguous
    rows: the column maxima, the mask of entries equal to them, and the
    largest z - j over the mask, which is z minus the first maximal j.
    (np.argmax along axis 0 would transpose; along axis 1 it pays per
    row, which dominates when rows hold a few dozen entries.)  Above it
    each block is a (B, z) array, the product of its transposed column
    slice, one row per point, with a C-ordered copy of reps.T made once
    per call of owners (at k = 5, single-thread OpenBLAS runs this
    product 1.3 to 1.5 times as fast as against the transposed view),
    and np.argmax takes each row's owner.
    """
    n = columns.shape[1]
    owner = np.empty(n, dtype=np.intp)
    # 2^17 products per block: 1 MB of float64
    width = max(1, min(n, (1 << 17) // z))
    if z > LLOYD_COLUMN_MAX_Z:
        block = np.empty((width, z))

        def owners(reps):
            reps_t = np.ascontiguousarray(reps.T)
            for lo in range(0, n, width):
                hi = min(lo + width, n)
                p = np.matmul(columns[:, lo:hi].T, reps_t,
                              out=block[:hi - lo])
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
        fh.write(f"SPHERE {part.k} {part.z} {part.seed} {part.theta!r}\n")
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
    return SpherePartition(k=k, z=z, reps=reps, theta=theta, seed=seed)


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
