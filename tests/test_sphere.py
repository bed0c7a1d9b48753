import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nearest_rep, run_fresh
from rtlab import CapExceeded
from rtlab.rng import substream
from rtlab.sphere import (LLOYD_COLUMN_MAX_Z, P4_BLOCK, SQRT2, SphericalCap,
                          _bartlett_quadruples, _frame_margins, _into_union,
                          _owner_pass, _P4_ROLES, _refine_quadruples, _spread,
                          build_partition,
                          cap_intersection_measure_mc, cap_measure,
                          check_p4, distance, estimate_dt, find_eps_k,
                          min_domains, p4_best_margin, pairwise_distances,
                          read_partition, sample_uniform_points,
                          write_partition)


# ---------------------------------------------------------------------------
# sampling


def test_sample_norm_one_on_circle():
    rng = substream(0, "t")
    p = sample_uniform_points(1, 1, rng)[0]
    assert p.shape == (2,)
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_sample_deterministic():
    a = sample_uniform_points(20, 1, substream(7, "op"))[0]
    b = sample_uniform_points(20, 1, substream(7, "op"))[0]
    assert np.array_equal(a, b)


def test_sample_rejects_k0():
    with pytest.raises(ValueError):
        sample_uniform_points(0, 1, substream(0, "t"))


def test_sample_mean_symmetry():
    # Monte Carlo symmetry oracle: mean of 1e5 points on S^2 is near 0
    pts = sample_uniform_points(2, 100_000, substream(3, "sym"))
    assert np.all(np.abs(pts.mean(axis=0)) < 0.02)


# ---------------------------------------------------------------------------
# distance


def test_distance_basics():
    e = np.eye(3)
    assert distance(e[0], e[0]) == 0.0
    assert distance(e[0], -e[0]) == pytest.approx(2.0)
    assert distance(e[0], e[1]) == pytest.approx(SQRT2)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_distance_triangle_inequality(seed):
    pts = sample_uniform_points(4, 3, substream(seed, "tri"))
    d01 = distance(pts[0], pts[1])
    d12 = distance(pts[1], pts[2])
    d02 = distance(pts[0], pts[2])
    assert d02 <= d01 + d12 + 1e-12


# ---------------------------------------------------------------------------
# cap measure


def test_cap_measure_hemisphere_all_dims():
    for k in range(1, 201):
        assert cap_measure(k, 0.0) == 0.5


def test_cap_measure_circle_arc_length():
    # on S^1 the measure is arccos(s)/pi
    for s in (-0.8, -0.3, 0.0, 0.5, 0.95):
        assert cap_measure(1, s) == pytest.approx(math.acos(s) / math.pi,
                                                  abs=1e-9)


def test_cap_measure_s3_closed_form():
    # independent oracle on S^3: mu = (arccos(s) - s sqrt(1-s^2))/pi
    for s in (-0.9, -0.4, 0.1, 0.6, 0.99):
        want = (math.acos(s) - s * math.sqrt(1 - s * s)) / math.pi
        assert cap_measure(3, s) == pytest.approx(want, abs=1e-9)


def test_cap_measure_monte_carlo_cross_route():
    # sampling-based second route through the same quantity
    rng = substream(17, "cap-mc")
    for k, s in ((4, 0.3), (9, -0.2), (15, 0.5)):
        pts = sample_uniform_points(k, 400_000, rng)
        frac = float(np.mean(pts[:, 0] >= s))
        assert cap_measure(k, s) == pytest.approx(frac, abs=0.005)


def test_cap_measure_s2_values():
    # closed form on S^2: mu = (1 - s)/2; radius a=1 means s = 1 - a^2/2
    assert cap_measure(2, 0.5) == pytest.approx(0.25, abs=1e-10)
    assert cap_measure(2, 0.9) == pytest.approx(0.05, abs=1e-10)


def test_cap_measure_s2_closed_form_grid():
    for s in np.linspace(-1, 1, 100):
        assert cap_measure(2, float(s)) == pytest.approx((1 - s) / 2, abs=1e-8)


def test_cap_measure_extremes_and_monotone():
    for k in (1, 3, 17):
        assert cap_measure(k, -1.0) == 1.0
        assert cap_measure(k, 1.0) == 0.0
        grid = [cap_measure(k, s) for s in np.linspace(-1, 1, 41)]
        assert all(a > b for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("s", [1e-200, -1e-200, 5e-324, -5e-324])
@pytest.mark.parametrize("k", [1, 3, 1000])
def test_cap_measure_threshold_whose_square_underflows(k, s):
    # s * s rounds to 0 here, yet s is a valid threshold
    assert s * s == 0.0
    assert cap_measure(k, s) == 0.5


def exact_cap_measure(k, s):
    # even k: the axial density (1-x^2)^((k-2)/2) is a polynomial, so the
    # cap integral and the sphere integral are exact rationals in s
    m = (k - 2) // 2
    s = Fraction(s)

    def antiderivative(x):
        return sum(Fraction(math.comb(m, j) * (-1) ** j, 2 * j + 1)
                   * x ** (2 * j + 1) for j in range(m + 1))

    full = antiderivative(Fraction(1))
    return (full - antiderivative(s)) / (2 * full)


@pytest.mark.parametrize("k", [2, 4, 6, 10, 30, 32, 64, 128, 300])
def test_cap_measure_exact_rational_oracle(k):
    for s in (-0.999999, -0.7, -0.2, -1e-6, -1e-9, 1e-9, 1e-6, 0.05, 0.3,
              0.6, 0.9, 0.999999):
        want = float(exact_cap_measure(k, s))
        assert cap_measure(k, s) == pytest.approx(want, rel=1e-12,
                                                  abs=1e-300), (k, s)


@pytest.mark.parametrize("k", [401, 5000])
def test_cap_measure_strictly_monotone_through_zero(k):
    assert cap_measure(k, 1e-9) < 0.5 < cap_measure(k, -1e-9)


def _full_dimension_fraction(k, centers, s, n, rng):
    # the direct route: n uniform points of S^k, all k+1 coordinates
    pts = sample_uniform_points(k, n, rng)
    return np.count_nonzero(np.all(pts @ centers.T >= s, axis=1)) / n


def _within_4se(estimate, p, n):
    return abs(estimate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def _agree_4se(a, b, n):
    # two independent estimates of one measure: their difference has
    # variance 2 p (1 - p) / n
    p = (a + b) / 2.0
    return abs(a - b) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n)


def test_cap_intersection_mc_deterministic_and_matches_full_dimension():
    k, s, n = 30, 0.1, 40_000
    centers = np.eye(k + 1)[:2]
    got = cap_intersection_measure_mc(k, centers, s, n, substream(3, "mc"))
    assert got == cap_intersection_measure_mc(k, centers, s, n,
                                              substream(3, "mc"))
    full = _full_dimension_fraction(k, centers, s, n, substream(4, "mc"))
    assert _agree_4se(got, full, n), (got, full)


@pytest.mark.parametrize("s", [0.0, 0.2, 0.5, 0.65])
def test_cap_intersection_mc_circle_two_orthogonal_caps(s):
    # on S^1 the two arcs |phi| <= acos s and |phi - pi/2| <= acos s meet
    # in an arc of length acos s - asin s; here the projection is the
    # whole point (m = k + 1)
    n = 40_000
    want = (math.acos(s) - math.asin(s)) / (2.0 * math.pi)
    got = cap_intersection_measure_mc(1, np.eye(2), s, n,
                                      substream(5, "circle"))
    assert _within_4se(got, want, n), (got, want)


@pytest.mark.parametrize("k,t", [(3, 4), (5, 3), (40, 4), (691, 2)])
def test_cap_intersection_mc_orthant(k, t):
    # t orthogonal hemispheres meet in an orthant of measure 2^-t
    n = 40_000
    got = cap_intersection_measure_mc(k, np.eye(k + 1)[:t], 0.0, n,
                                      substream(k, "orthant"))
    assert _within_4se(got, 2.0 ** -t, n), got


@pytest.mark.parametrize("k,s", [(2, 0.3), (10, -0.2), (200, 0.05)])
def test_cap_intersection_mc_duplicated_center_is_one_cap(k, s):
    # a rank-deficient center matrix: the intersection is the single cap
    n = 40_000
    c = sample_uniform_points(k, 1, substream(k, "dup-center"))
    got = cap_intersection_measure_mc(k, np.vstack([c, c]), s, n,
                                      substream(k, "dup"))
    assert _within_4se(got, cap_measure(k, s), n), got


@pytest.mark.parametrize("k,t,s", [(2, 3, 0.1), (6, 2, 0.3), (25, 3, 0.05),
                                   (4, 7, -0.1)])
def test_cap_intersection_mc_skew_centers_match_full_dimension(k, t, s):
    n = 40_000
    centers = sample_uniform_points(k, t, substream(k * t, "skew-centers"))
    got = cap_intersection_measure_mc(k, centers, s, n, substream(1, "skew"))
    full = _full_dimension_fraction(k, centers, s, n, substream(2, "skew"))
    assert _agree_4se(got, full, n), (got, full)


def test_cap_measure_rejects_out_of_range():
    with pytest.raises(ValueError):
        cap_measure(3, 1.5)


# ---------------------------------------------------------------------------
# the (eps, k) search


def test_find_eps_k_loose_tolerances_small_k():
    eps, k = find_eps_k(0.49, 0.49)
    assert k <= 50
    # the returned pair satisfies the small-cap ceiling (postcondition recheck)
    from rtlab.capmeasure import _p3_threshold
    assert cap_measure(k, _p3_threshold(eps, k)) <= 0.49


def test_find_eps_k_monotone_in_alpha():
    # rerun-search oracle: stricter alpha never returns a smaller k
    _, k_loose = find_eps_k(0.45, 0.05)
    _, k_tight = find_eps_k(0.20, 0.05)
    assert k_tight >= k_loose


def test_find_eps_k_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        find_eps_k(0.6, 0.3)


def test_find_eps_k_reports_infeasible_at_cap(monkeypatch):
    from rtlab import capmeasure
    monkeypatch.setattr(capmeasure, "K_CAP", 64)
    with pytest.raises(CapExceeded):
        find_eps_k(0.3, 1e-9)


@pytest.mark.parametrize("alpha,beta,want", [
    (0.1, 0.1, (0.125, 691)), (0.3, 0.3, (0.5, 5)),
    (0.49, 0.49, (1.0, 17)), (0.45, 0.05, (1.0, 29)),
    (0.2, 0.05, (0.25, 469)), (0.45, 0.45, (1.0, 17)),
    (0.2, 0.2, (0.25, 33)), (0.002, 0.3, (0.001953125, 79298))])
def test_find_eps_k_pinned_answers(alpha, beta, want):
    assert find_eps_k(alpha, beta) == want


def test_find_eps_k_large_k_in_small_memory():
    # the search holds no array whose size grows with k: each step is two
    # closed-form cap measures
    assert find_eps_k(0.1, 0.1) == (0.125, 691)
    assert find_eps_k(0.05, 0.05) == (0.0625, 7496)
    assert find_eps_k(0.1, 0.001) == (0.125, 23342)
    tracemalloc.start()
    try:
        assert find_eps_k(0.1, 0.01) == (0.125, 7497)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_find_eps_k_draws_no_random_number():
    # every decision of the search is a closed-form cap measure: in a
    # fresh interpreter where numpy and the random module cannot be
    # imported, it gives the same answers
    code = ("import sys\n"
            "sys.modules['numpy'] = sys.modules['random'] = None\n"
            "from rtlab.capmeasure import find_eps_k\n"
            "print(find_eps_k(0.1, 0.1), find_eps_k(0.05, 0.05))\n")
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(0.125, 691) (0.0625, 7496)\n"


@pytest.mark.parametrize("eps,k", [(0.015625, 1240), (0.0078125, 4957),
                                   (0.00390625, 19825), (0.001953125, 79298)])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_intersection_floor_follows_from_large_cap_floor(eps, k, t):
    # t caps of threshold s1 on orthonormal centres meet in measure at
    # least 2^-t - t (1/2 - mu(s1)): the orthant minus t slabs.  The
    # search checks only the large-cap floor and relies on this bound.
    # The pairs are find_eps_k's answers for beta = 0.3 and alpha = 0.01,
    # 0.005, 0.003 and 0.002, where the bound is positive up to t = 4.
    from rtlab.capmeasure import _p1_threshold
    s1 = _p1_threshold(eps, k)
    floor = 2.0 ** -t - t * (0.5 - cap_measure(k, s1))
    assert floor > 0.0
    n = 200_000
    got = cap_intersection_measure_mc(k, np.eye(t, k + 1), s1, n,
                                      substream(k * 10 + t, "p2-floor"))
    assert got >= floor - 5.0 * math.sqrt(floor * (1.0 - floor) / n), \
        (got, floor)


# ---------------------------------------------------------------------------
# four-point margin


def test_check_p4_coincident_pair():
    e = np.eye(4)
    gamma = 0.2
    m = check_p4(e[0], e[0], e[1], e[2], gamma)
    assert m <= -(2 - gamma)


def test_check_p4_orthogonal_antipodal_exact():
    # cross distances all sqrt(2): margin is exactly -gamma
    e = np.eye(4)
    assert check_p4(e[0], -e[0], e[1], -e[1], 0.2) == pytest.approx(-0.2)


def test_check_p4_rejects_gamma_range():
    e = np.eye(3)
    with pytest.raises(ValueError):
        check_p4(e[0], e[1], e[2], e[0], 0.3)


def test_p4_random_search_negative():
    # random-search oracle at reduced scale; the acceptance suite runs 1e6
    for k in (5, 10, 20):
        for gamma in (0.05, 0.1, 0.2):
            assert p4_best_margin(k, gamma, 50_000, 100, seed=9) < 0


@pytest.mark.parametrize("args", [
    (5, 0.0, 100, 1), (5, 0.25, 100, 1), (5, -0.1, 100, 1), (5, 0.3, 100, 1),
    (0, 0.1, 100, 1), (-1, 0.1, 100, 1),
    (5, 0.1, 0, 1), (5, 0.1, -5, 1),
    (5, 0.1, 100, -1)])
def test_p4_best_margin_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        p4_best_margin(*args)


def _margins_of_points(p1, p2, q1, q2, gamma):
    # check_p4's formula over rows of (n, k+1) arrays
    d = lambda a, b: np.linalg.norm(a - b, axis=1)
    cross = np.maximum.reduce([d(p1, q1), d(p1, q2), d(p2, q1), d(p2, q2)])
    return np.minimum.reduce([d(p1, p2) - (2 - gamma), d(q1, q2) - (2 - gamma),
                              SQRT2 - gamma - cross])


def _ks_distance(a, b):
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, x, "right") / len(a)
                  - np.searchsorted(b, x, "right") / len(b)).max()


@pytest.mark.parametrize("k", [1, 2, 3, 5, 20])
def test_p4_gram_law_matches_full_dimension(k):
    # the Bartlett draw gives the margins of uniform points of S^k; a
    # chi-square degree off by one moves the KS distance well past 0.01
    from rtlab.sphere import _bartlett_quadruples, _frame_margins
    n, gamma = 200_000, 0.1
    frame = _frame_margins(_bartlett_quadruples(k, n, substream(k, "law-frame")),
                           gamma)
    rng = substream(k, "law-full")
    full = _margins_of_points(*[sample_uniform_points(k, n, rng) for _ in range(4)],
                              gamma)
    assert _ks_distance(frame, full) < 0.01


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_p4_frame_margins_match_check_p4(k):
    # the frame coordinates of R^(k+1) quadruples, from a QR factorisation,
    # score as check_p4 scores the points themselves
    from rtlab.sphere import _frame_margins
    rng = np.random.default_rng(k)
    quads = rng.standard_normal((300, 4, k + 1))
    lower = np.stack([np.linalg.qr(g.T)[1].T for g in quads], axis=2)
    units = quads / np.linalg.norm(quads, axis=2, keepdims=True)
    for gamma in (0.05, 0.1, 0.2):
        got = _frame_margins(lower, gamma)
        want = [check_p4(*u, gamma) for u in units]
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("gamma", [0.1, 0.2])
def test_p4_refined_margin_independent_of_k(gamma):
    # any four points of S^k lie on a great S^3, so the best margin is the
    # same for every k >= 3
    found = [p4_best_margin(k, gamma, 100_000, 100, seed=k)
             for k in (3, 5, 10, 20)]
    assert max(found) - min(found) < 2e-3


def _sequential_refine_quadruples(quads, gamma, rng):
    # the ascent that scored one proposal per step and moved the point as
    # soon as a proposal raised its margin: the reference for the batched
    # step, with the same draws
    n, _, m = quads.shape
    far, close = 2.0 - gamma, SQRT2 - gamma
    gram = np.einsum("nid,njd->nij", quads, quads)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * gram, 0.0))
    cur = np.minimum(np.minimum(dist[:, 0, 1], dist[:, 2, 3]) - far,
                     close - dist[:, (0, 0, 1, 1), (2, 3, 2, 3)].max(axis=1))
    step = 0.3
    for rnd in range(60):
        noise = step * rng.standard_normal((4, 4, n, m))
        for i, (p, a, b) in enumerate(_P4_ROLES):
            for r in range(4):
                cand = quads[:, i] + noise[i, r]
                cand /= np.sqrt(np.einsum("nd,nd->n", cand, cand))[:, None]
                d = np.sqrt(np.maximum(
                    2.0 - 2.0 * np.einsum("nd,njd->nj", cand, quads), 0.0))
                d[:, i] = 0.0
                cross = np.maximum(np.maximum(d[:, a], d[:, b]),
                                   np.maximum(dist[:, p, a], dist[:, p, b]))
                new = np.minimum(np.minimum(d[:, p], dist[:, a, b]) - far,
                                 close - cross)
                take = (new > cur)[:, None]
                np.copyto(quads[:, i], cand, where=take)
                np.copyto(dist[:, i], d, where=take)
                np.copyto(dist[:, :, i], d, where=take)
                np.maximum(cur, new, out=cur)
        if (rnd + 1) % 8 == 0:
            step *= 0.5
    return float(cur.max())


@pytest.mark.parametrize("k", [1, 2, 5])
def test_refine_quadruples_never_lowers_a_margin(k):
    # seeded starts on the great S^min(k, 3) the refinement works on; the
    # margins of the points it leaves, recomputed, are each start's margin
    # or more, and the largest is what it returns
    m = min(4, k + 1)
    starts = sample_uniform_points(m - 1, 4 * 200, substream(k, "refine-starts"))
    starts = starts.reshape(200, 4, m)
    for gamma in (0.05, 0.1, 0.2):
        quads = starts.copy()
        best = _refine_quadruples(quads, gamma, substream(k, "refine-ascent"))
        before = _margins_of_points(*starts.transpose(1, 0, 2), gamma)
        after = _margins_of_points(*quads.transpose(1, 0, 2), gamma)
        assert np.all(after >= before - 1e-9)
        assert best == pytest.approx(after.max(), abs=1e-9)
        assert best > before.max()
        assert np.allclose(np.linalg.norm(quads, axis=2), 1.0, atol=1e-12)


def test_refine_quadruples_near_sequential_reference(monkeypatch):
    # on the criterion-8 calls, the batched ascent and the sequential one
    # refine the same starts with the same draws to within 1e-3
    from rtlab import sphere
    seen = []

    def both(quads, gamma, rng):
        want = _sequential_refine_quadruples(quads.copy(), gamma,
                                             copy.deepcopy(rng))
        got = _refine_quadruples(quads, gamma, rng)
        seen.append((got, want))
        return got

    monkeypatch.setattr(sphere, "_refine_quadruples", both)
    for k in (5, 10, 20):
        for gamma in (0.1, 0.2):
            p4_best_margin(k, gamma, 1_000_000, 1000,
                           seed=100 * k + int(10 * gamma))
    assert len(seen) == 6
    for got, want in seen:
        assert abs(got - want) < 1e-3


def test_p4_starts_match_full_sort(monkeypatch):
    # on the criterion-8 calls, the refinement gets the same starts in the
    # same order as when each batch's best 50 are read off np.argsort
    from rtlab import sphere
    frame_margins, refine = sphere._frame_margins, sphere._refine_quadruples
    batches, same = [], []

    def recording_margins(lower, gamma):
        margins = frame_margins(lower, gamma)
        idx = np.argsort(margins)[-50:]
        rows = lower[:, :, idx].transpose(2, 0, 1)
        batches.append((margins[idx],
                        rows / np.linalg.norm(rows, axis=2, keepdims=True)))
        return margins

    def recording_refine(quads, gamma, rng):
        order = np.argsort(-np.concatenate([m for m, _ in batches]),
                           kind="stable")[:1000]
        want = np.concatenate([q for _, q in batches])[order]
        same.append(np.array_equal(quads, want))
        batches.clear()
        return refine(quads, gamma, rng)

    monkeypatch.setattr(sphere, "_frame_margins", recording_margins)
    monkeypatch.setattr(sphere, "_refine_quadruples", recording_refine)
    for k in (5, 10, 20):
        for gamma in (0.1, 0.2):
            p4_best_margin(k, gamma, 1_000_000, 1000,
                           seed=100 * k + int(10 * gamma))
    assert same == [True] * 6


def _chisquare_bartlett(k, count, rng):
    # the draw that took each diagonal from rng.chisquare and every row
    # into a new array: the reference for the in-place draw
    m = min(4, k + 1)
    lower = np.zeros((4, m, count))
    for i in range(4):
        if i:
            lower[i, :min(i, m)] = rng.standard_normal((min(i, m), count))
        if i < m:
            lower[i, i] = np.sqrt(rng.chisquare(k + 1 - i, count))
    return lower


def _whole_batch_margins(lower, gamma):
    # the margins scored over the whole batch at once: the reference for
    # the scoring in blocks of P4_BLOCK columns
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


@pytest.mark.parametrize("k", [1, 2, 3, 5, 20])
@pytest.mark.parametrize("count", [1, 2 * P4_BLOCK + 1234])
def test_bartlett_in_place_matches_chisquare_draw(k, count):
    # the same floats as the chisquare draw, the generator left in the same
    # state, and the blocked margins those of the whole batch, also on a
    # count that is not a multiple of the block
    got_rng, want_rng = substream(k, "bartlett"), substream(k, "bartlett")
    got = _bartlett_quadruples(k, count, got_rng)
    want = _chisquare_bartlett(k, count, want_rng)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for gamma in (0.05, 0.2):
        assert np.array_equal(_frame_margins(got, gamma),
                              _whole_batch_margins(got, gamma))


# the six calls of the perfbench `sphere` workload at seed 1 (criterion-8
# sizes) and the margins they returned when each batch was drawn into new
# arrays and scored whole
@pytest.mark.parametrize("k,gamma,seed,want", [
    (5, 0.1, 1014235352, -0.01735024189912271),
    (5, 0.2, 874687064, -0.034464923190308694),
    (10, 0.1, 339148287, -0.017298859728732907),
    (10, 0.2, 191541984, -0.03452336227343178),
    (20, 0.1, 635200176, -0.017322585253084277),
    (20, 0.2, 758827552, -0.03450439132804406)])
def test_p4_best_margin_pinned(k, gamma, seed, want):
    assert p4_best_margin(k, gamma, 100_000, 100, seed=seed) == want


def test_p4_best_margin_holds_one_batch():
    # a batch's (4, 4, 50,000) frame is 6.1 MiB and is freed before the
    # next is drawn; its margins and the block temporaries add about 1 MiB
    tracemalloc.start()
    try:
        p4_best_margin(20, 0.2, 100_000, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# partitions


def test_partition_two_domains_are_hemispheres():
    part = build_partition(2, 2, 0.5, seed=1)
    pts = sample_uniform_points(2, 100_000, substream(3, "measure-mc"))
    measures = np.bincount(nearest_rep(part, pts), minlength=2) / 100_000
    assert np.all(np.abs(measures - 0.5) < 0.02)


def test_partition_deterministic():
    a = build_partition(4, 9, 0.4, seed=5)
    b = build_partition(4, 9, 0.4, seed=5)
    assert np.array_equal(a.reps, b.reps)


def _masked_lloyd_partition(k, z, seed, balance_iters=32, samples=20_000):
    # the per-cell boolean-mask form of the Lloyd step: the same rows in
    # the same order, so the same floats
    reps = sample_uniform_points(k, z, substream(seed, "partition-reps"))
    cloud = sample_uniform_points(k, max(samples, 40 * z),
                                  substream(seed, "partition-lloyd"))
    for _ in range(balance_iters):
        owner = np.argmax(cloud @ reps.T, axis=1)
        for j in range(z):
            members = cloud[owner == j]
            if len(members):
                m = members.sum(axis=0)
                if np.linalg.norm(m) > 1e-12:
                    reps[j] = m / np.linalg.norm(m)
    return reps


@pytest.mark.parametrize("k,z,balance_iters,samples", [
    pytest.param(k, z, 32, 20_000, id=f"{k}-{z}")
    for k, z in [(5, 14), (5, 20), (3, 60), (5, 250)]] + [
    # the last z of the column layout, the first of the row layout, S^1
    pytest.param(k, z, 32, 20_000, id=f"{k}-{z}")
    for k, z in [(3, LLOYD_COLUMN_MAX_Z), (3, LLOYD_COLUMN_MAX_Z + 1),
                 (1, 7)]] + [
    # the search benchmark's call, a cloud of four Lloyd blocks
    pytest.param(10, 30, 8, 4000, id="10-30-search"),
    # a cloud smaller than one block
    pytest.param(3, 5, 32, 500, id="3-5-sub-block"),
    # a cloud drawn in 7 blocks of 3,196 points, the last one partial, in
    # each layout
    pytest.param(40, 14, 32, 20_000, id="40-14-blocks"),
    pytest.param(40, LLOYD_COLUMN_MAX_Z + 1, 32, 20_000, id="40-65-blocks"),
])
def test_partition_matches_masked_lloyd(k, z, balance_iters, samples):
    # one seed at z=250, where the masked reference takes seconds
    for seed in ((1,) if z == 250 else (1, 2, 3)):
        part = build_partition(k, z, 0.5, seed, balance_iters=balance_iters,
                               diag_samples=samples)
        assert np.array_equal(part.reps, _masked_lloyd_partition(
            k, z, seed, balance_iters=balance_iters, samples=samples))


def test_partition_never_builds_cloud_by_cells_matrix():
    # the (N, z) products of the cloud alone would take 10 MB at z=64
    # (the column layout), 40 MB at z=250 and 320 MB at z=1000 (the row
    # layout, on clouds of 20,000 and 40,000 points)
    for z in (LLOYD_COLUMN_MAX_Z, 250, 1000):
        tracemalloc.start()
        try:
            build_partition(5, z, 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, (z, peak)


def test_partition_holds_cloud_once():
    # the 20,000-point cloud at k=200 takes 32 MB; a second copy of it
    # would double the peak
    tracemalloc.start()
    try:
        build_partition(200, 14, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * 201 * 20_000, peak


@pytest.mark.parametrize("z", [2, LLOYD_COLUMN_MAX_Z, LLOYD_COLUMN_MAX_Z + 1])
def test_owner_pass_first_index_on_exact_ties(z):
    # both layouts give np.argmax's owners, the first index on ties:
    # reps with repeated rows tie exactly, and so do small integer
    # coordinates, whose products are exact in any summation order
    rng = substream(z, "owner-ties")
    cloud = sample_uniform_points(3, 5000, rng)
    half = sample_uniform_points(3, (z + 1) // 2, rng)
    dup = np.concatenate([half, half])[rng.permutation(2 * len(half))][:z]
    ints = rng.integers(-2, 3, size=(5000, 4)).astype(float)
    int_reps = rng.integers(-2, 3, size=(z, 4)).astype(float)
    for pts, reps in ((cloud, dup), (ints, int_reps)):
        owners = _owner_pass(np.ascontiguousarray(pts.T), z)
        want = np.argmax(pts @ reps.T, axis=1)
        assert np.array_equal(owners(reps), want)
        # the buffers are reused: a second call still gives the owners
        assert np.array_equal(owners(reps[::-1].copy()),
                              np.argmax(pts @ reps[::-1].T, axis=1))


@pytest.mark.parametrize("k,z,n", [
    # z=1000: blocks of 131 points, the last of 22
    (5, 1000, 5000),
    # four whole blocks and 7 points
    (3, 250, 4 * ((1 << 17) // 250) + 7),
    # the first z of the row layout, a block and one point
    (20, LLOYD_COLUMN_MAX_Z + 1, (1 << 17) // (LLOYD_COLUMN_MAX_Z + 1) + 1)])
def test_owner_pass_rows_match_full_product(k, z, n):
    rng = substream(z, "owner-rows")
    cloud = sample_uniform_points(k, n, rng)
    owners = _owner_pass(np.ascontiguousarray(cloud.T), z)
    for _ in range(2):
        reps = sample_uniform_points(k, z, rng)
        assert np.array_equal(owners(reps), np.argmax(cloud @ reps.T, axis=1))


def test_partition_refuses_large_k_before_drawing():
    # the Lloyd cloud alone would take 160 GB at k = 1,000,000
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="over the cap"):
            build_partition(1_000_000, 14, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("balance_iters,size", [
    # the 14 representatives and the 20,000-point cloud, held once, at k=5
    (32, 8 * 6 * (14 + 20_000)),
    # no Lloyd step, no cloud
    (0, 8 * 6 * 14)])
def test_partition_byte_cap_counts_reps_and_cloud(monkeypatch, balance_iters,
                                                  size):
    import rtlab
    monkeypatch.setattr(rtlab, "MAX_BYTES", size)
    build_partition(5, 14, 0.5, 1, balance_iters=balance_iters)
    monkeypatch.setattr(rtlab, "MAX_BYTES", size - 1)
    with pytest.raises(CapExceeded, match=f"hold {size} bytes"):
        build_partition(5, 14, 0.5, 1, balance_iters=balance_iters)


def test_partition_rejects_negative_balance_iters():
    with pytest.raises(ValueError, match="balance_iters must be >= 0"):
        build_partition(3, 5, 0.5, seed=1, balance_iters=-1)
    # zero steps keeps the sampled representatives
    assert np.array_equal(
        build_partition(3, 5, 0.5, seed=1, balance_iters=0).reps,
        sample_uniform_points(3, 5, substream(1, "partition-reps")))


def test_partition_single_domain_is_whole_sphere():
    part = build_partition(3, 1, 0.5, seed=2)
    pts = sample_uniform_points(3, 20_000, substream(1, "measure-mc"))
    measures = np.bincount(nearest_rep(part, pts), minlength=1) / 20_000
    assert measures[0] == 1.0


def test_partition_measures_balanced():
    # the default scheme keeps every cell within 20% of 1/z
    for k, z in ((2, 40), (5, 25)):
        part = build_partition(k, z, 0.5, seed=11)
        pts = sample_uniform_points(k, 200_000, substream(7, "measure-mc"))
        measures = np.bincount(nearest_rep(part, pts), minlength=z) / 200_000
        assert np.all(np.abs(measures - 1.0 / z) < 0.2 / z), (k, z, measures)


README_THETA = 0.5 / math.sqrt(5)


@pytest.mark.parametrize("theta", [0.01, README_THETA, 0.5, 2.0, 7.9])
def test_min_domains_closed_forms(theta):
    # S^1: an arc of chord theta/4 is 2 asin(theta/8) of 2 pi; S^2: the
    # cap of chordal radius rho has measure rho^2/4 (Archimedes).  The
    # threshold 1 - d^2/2 is rounded to a double, which moves the cap's
    # height d^2/2 by up to 1.1e-16 / (d^2/2) relative
    d = theta / 4.0
    rel = max(1e-12, 2.2e-16 / (d * d / 2.0))
    assert min_domains(1, d) == pytest.approx(
        math.pi / (2.0 * math.asin(theta / 8.0)), rel=rel)
    assert min_domains(2, d) == pytest.approx(64.0 / theta ** 2, rel=rel)
    assert min_domains(5, d) == pytest.approx(
        1.0 / cap_measure(5, 1.0 - theta ** 2 / 32.0), rel=rel)


def test_min_domains_at_its_edges():
    # theta >= 8: the cap threshold is clamped at -1, one domain suffices
    assert min_domains(3, 2.0) == 1.0 and min_domains(3, 10.0 / 4.0) == 1.0
    # the cap measure underflows to 0: no finite z is enough
    assert min_domains(200, 0.5 / math.sqrt(200) / 4.0) == math.inf
    # the README's k=5 needs about 1.08e7 domains
    assert 1.07e7 < min_domains(5, README_THETA / 4.0) < 1.09e7


@pytest.mark.parametrize("z,fails", [(56, True), (57, False)])
def test_partition_volume_bound_readme_theta_on_circle(z, fails):
    part = build_partition(1, z, README_THETA, seed=3)
    assert part.precondition_min_z == pytest.approx(56.1912, abs=1e-4)
    assert (part.z < part.precondition_min_z) == fails


def test_partition_reports_failure_without_sampling_diameter(monkeypatch):
    # the volume bound decides; no substream beyond the Lloyd steps' is
    # drawn
    from rtlab import sphere
    labels = []

    def recording(seed, label, *rest):
        labels.append(label)
        return substream(seed, label, *rest)

    monkeypatch.setattr(sphere, "substream", recording)
    part = build_partition(2, 2, 0.5, seed=1)
    assert part.precondition_min_z == pytest.approx(256.0, rel=1e-12)
    assert part.z < part.precondition_min_z
    assert labels == ["partition-reps", "partition-lloyd"]


def test_partition_file_roundtrip(tmp_path):
    # 17 significant digits give back every float: the same bits
    path = tmp_path / "part.sphere"
    for k, z, seed in [(3, 7, 13), (1, 5, 2), (5, 14, 0), (5, 20, 1),
                       (5, 30, 2), (10, 30, 3), (5, 250, 4)]:
        part = build_partition(k, z, 0.6, seed=seed)
        write_partition(part, str(path))
        back = read_partition(str(path))
        assert back.k == part.k and back.z == part.z
        assert back.seed == part.seed
        assert back.theta == part.theta
        assert back.domain_diam_bound == part.domain_diam_bound
        assert np.array_equal(back.reps, part.reps), (k, z, seed)
    # a subnormal theta reads back too, although its quarter rounds
    for theta in (5e-324, 1e-323):
        write_partition(build_partition(2, 3, theta, seed=1), str(path))
        assert read_partition(str(path)).theta == theta


def test_partition_file_rejects_row_off_sphere(tmp_path):
    # rows are read as written, not renormalised, so one off the sphere
    # is refused
    path = tmp_path / "part.sphere"
    write_partition(build_partition(2, 3, 0.6, seed=13), str(path))
    lines = path.read_text().splitlines()
    lines[2] = " ".join(repr(1.01 * float(c)) for c in lines[2].split())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="unit sphere"):
        read_partition(str(path))


def test_partition_file_rejects_nan_row(tmp_path):
    # NaN is not within 1e-9 of the sphere, though no comparison with it
    # is true
    path = tmp_path / "part.sphere"
    path.write_text("SPHERE 1 1 0 0.6\nnan nan\n")
    with pytest.raises(ValueError, match="unit sphere"):
        read_partition(str(path))


def test_cap_rejects_nan_center():
    with pytest.raises(ValueError, match="unit sphere"):
        SphericalCap(np.array([np.nan, 0.0, 0.0]), 0.5)


@pytest.mark.parametrize("mangle", [
    lambda lines: lines[:-1],
    lambda lines: lines + [lines[-1]],
    lambda lines: ["SPHERE 2 2 13 0.6"] + lines[1:],
    lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]],
    lambda lines: lines[:-1] + [lines[-1] + " 0"],
    lambda lines: ["SPHERE 0 2 0 0.5", "1", "-1"],
    lambda lines: ["SPHERE 2 0 13 0.6"],
], ids=["fewer-rows", "more-rows", "header-z-below-rows", "short-row",
        "long-row", "k-zero", "z-zero"])
def test_partition_file_rejects_malformed(tmp_path, mangle):
    # k >= 1, z >= 1 and exactly z lines of k+1 coordinates follow the
    # header, or ValueError
    path = tmp_path / "part.sphere"
    write_partition(build_partition(2, 3, 0.6, seed=13), str(path))
    path.write_text("\n".join(mangle(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match="not a partition file"):
        read_partition(str(path))


@pytest.mark.parametrize("theta", [-1.0, 0.0, math.nan, math.inf])
def test_partition_rejects_bad_theta(theta):
    with pytest.raises(ValueError, match="theta must be a positive finite"):
        build_partition(2, 3, theta, seed=13)


@pytest.mark.parametrize("theta", ["-1.0", "0.0", "nan", "inf"])
def test_partition_file_rejects_bad_theta(tmp_path, theta):
    # the header's theta sets the diameter bound, so it is checked too
    path = tmp_path / "part.sphere"
    write_partition(build_partition(2, 3, 0.6, seed=13), str(path))
    lines = path.read_text().splitlines()
    lines[0] = " ".join(lines[0].split()[:4] + [theta])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="theta must be a positive finite"):
        read_partition(str(path))


def test_triangle_exclusion_below_threshold():
    # for theta < 2 - sqrt(3) no three points are pairwise >= 2 - theta
    theta = 2 - math.sqrt(3) - 1e-6
    thresh = 2 - theta
    rng = substream(21, "triangle-search")
    for _ in range(200):
        pts = sample_uniform_points(6, 40, rng)
        d = pairwise_distances(pts)
        far = d >= thresh
        n = len(pts)
        found = any(far[i, j] and far[i, l] and far[j, l]
                    for i in range(n) for j in range(i + 1, n)
                    for l in range(j + 1, n))
        assert not found


# ---------------------------------------------------------------------------
# d_t estimation


def test_estimate_dt_single_point():
    cap = SphericalCap(np.array([0.0, 0.0, 1.0]), 1.0)
    assert estimate_dt([cap], 2, samples=200, seed=1, multistarts=4) == 0.0


def test_estimate_dt_whole_sphere_simplex():
    cap = SphericalCap(np.array([0.0, 0.0, 1.0]), -1.0)
    est = estimate_dt([cap], 3, samples=2000, seed=1, multistarts=20)
    assert est == pytest.approx(math.sqrt(3.0), rel=0.05)


def test_estimate_dt_pinned_values():
    # the criterion-9 calls and the whole-sphere call, to the last bit
    pole = np.array([0.0, 0.0, 1.0])
    two_caps = [SphericalCap(pole, 1 - 2e-3), SphericalCap(-pole, 1 - 2e-3)]
    one_cap = [SphericalCap(pole, 1 - 4e-3)]
    whole = [SphericalCap(pole, -1.0)]
    assert estimate_dt(two_caps, 3, samples=2000, seed=2,
                       multistarts=24) == 0.1264278450342355
    assert estimate_dt(one_cap, 3, samples=2000, seed=3,
                       multistarts=24) == 0.15476433697722475
    assert estimate_dt(whole, 3, samples=2000, seed=1,
                       multistarts=20) == 1.7320507698797492


def test_estimate_dt_closed_forms():
    # three points in two antipodal small caps: two at opposite ends of
    # one rim, 2 sqrt(1 - s^2) apart; in one cap: an equilateral triangle
    # inscribed in the rim, side sqrt(3) sqrt(1 - s^2); on the whole
    # sphere: the regular simplex
    pole = np.array([0.0, 0.0, 1.0])
    s2, s1 = 1 - 2e-3, 1 - 4e-3
    two_caps = [SphericalCap(pole, s2), SphericalCap(-pole, s2)]
    one_cap = [SphericalCap(pole, s1)]
    whole = [SphericalCap(pole, -1.0)]
    assert estimate_dt(two_caps, 3, samples=2000, seed=2, multistarts=24) \
        == pytest.approx(2.0 * math.sqrt(1 - s2 * s2), rel=1e-9)
    assert estimate_dt(one_cap, 3, samples=2000, seed=3, multistarts=24) \
        == pytest.approx(math.sqrt(3.0) * math.sqrt(1 - s1 * s1), rel=1e-9)
    assert estimate_dt(whole, 3, samples=2000, seed=1, multistarts=20) \
        == pytest.approx(math.sqrt(3.0), abs=1e-5)
    assert estimate_dt(whole, 4, samples=2000, seed=1, multistarts=20) \
        == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-5)


def test_estimate_dt_needs_a_start():
    whole = [SphericalCap(np.array([0.0, 0.0, 1.0]), -1.0)]
    with pytest.raises(ValueError):
        estimate_dt(whole, 3, multistarts=0)


def test_estimate_dt_rejects_negative_samples():
    whole = [SphericalCap(np.array([0.0, 0.0, 1.0]), -1.0)]
    with pytest.raises(ValueError):
        estimate_dt(whole, 3, samples=-5)


def _sequential_estimate_dt(caps, t, samples, seed, multistarts):
    # the ascent that scored one proposal per step and kept it when it
    # raised the spread: the reference for the batched step, with the
    # same draws
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
            for _ in range(6):
                x = pts[:, i] + step[:, None] * rng.standard_normal(
                    (multistarts, k + 1))
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                cand = pts.copy()
                cand[:, i] = _into_union(x, centers, s)
                v = _spread(cand)
                keep = v > val
                pts[keep], val[keep] = cand[keep], v[keep]
                gained |= keep
        step[~gained] *= 0.5
    return float(val.max())


@pytest.mark.parametrize("caps, seeds", [("two", (2, 4, 5)), ("one", (3, 4, 5))])
def test_estimate_dt_matches_sequential_reference(caps, seeds):
    # the criterion-9 calls (two caps at seed 2, one cap at seed 3) and two
    # more seeds each
    pole = np.array([0.0, 0.0, 1.0])
    regions = {"two": [SphericalCap(pole, 1 - 2e-3), SphericalCap(-pole, 1 - 2e-3)],
               "one": [SphericalCap(pole, 1 - 4e-3)]}[caps]
    for seed in seeds:
        want = _sequential_estimate_dt(regions, 3, 2000, seed, 24)
        assert estimate_dt(regions, 3, samples=2000, seed=seed,
                           multistarts=24) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_into_union_keeps_inside_rows_and_moves_outside_ones_to_a_rim(k):
    rng = substream(k, "into-union")
    centers = sample_uniform_points(k, 3, rng)
    s = np.array([0.9, 0.5, 0.97])
    x = sample_uniform_points(k, 400, rng)
    got = _into_union(x, centers, s)
    margins = x @ centers.T - s
    inside = margins.max(axis=1) >= 0.0
    assert inside.any() and not inside.all()
    assert np.array_equal(got[inside], x[inside])
    # each cap's points: sampled ones inside it, and rim points
    cloud = sample_uniform_points(k, 20_000, rng)
    for row, y in zip(x[~inside], got[~inside]):
        i = int(np.argmax(row @ centers.T - s))
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert y @ centers[i] == pytest.approx(s[i], abs=1e-12)
        members = cloud[cloud @ centers[i] >= s[i]]
        nearest = np.linalg.norm(members - row, axis=1).min()
        assert np.linalg.norm(y - row) <= nearest + 1e-12
    # a row at -center: every rim point is nearest, and one is taken
    y = _into_union(-centers[:1], centers[:1], s[:1])[0]
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
    assert y @ centers[0] == pytest.approx(s[0], abs=1e-12)


def test_estimate_dt_on_circle():
    # on S^1 the cap of angular radius 60 degrees is an arc; two points
    # are furthest apart at its ends, sqrt(3), and three are 1 apart
    arc = [SphericalCap(np.array([1.0, 0.0]), 0.5)]
    assert estimate_dt(arc, 2, samples=200, seed=1,
                       multistarts=4) == pytest.approx(math.sqrt(3.0), rel=1e-6)
    assert estimate_dt(arc, 3, samples=200, seed=1,
                       multistarts=4) == pytest.approx(1.0, rel=1e-3)


def test_estimate_dt_empty_regions_rejected():
    with pytest.raises(ValueError):
        estimate_dt([], 3)
