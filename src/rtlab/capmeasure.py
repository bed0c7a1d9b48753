"""Spherical-cap measures in closed form, and the (eps, k) search.

The normalized measure of a cap of S^k by the regularized incomplete
beta function, the thresholds of the caps the sphere lemma names, the
closed-form check of its three cap properties, the search for the
smallest workable (eps, k), and the volume bound on the number of small
domains of a partition.  Conventions are those of `rtlab.sphere`: S^k
lives in R^(k+1), mu(S^k) = 1, and a cap is {x : x . center >= s}.  The
module imports the standard library only, so `rtlab sphere eps-k` and
`rtlab sphere cap-measure` run without numpy.
"""

from __future__ import annotations

import math

from . import CapExceeded

SQRT2 = math.sqrt(2.0)


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


# ---------------------------------------------------------------------------
# the (eps, k) search


# largest sphere dimension the (eps, k) search tries
K_CAP = 1_000_000


def _p1_threshold(eps: float, k: int) -> float:
    # cap of Euclidean radius sqrt(2) - eps/sqrt(k): 2h = a^2, s = 1 - h
    a = SQRT2 - eps / math.sqrt(k)
    return 1.0 - a * a / 2.0


def _p3_threshold(eps: float, k: int) -> float:
    return threshold_for_base_diameter(2.0 - eps / (2.0 * math.sqrt(k)))


def properties_hold(eps: float, alpha: float, beta: float, k: int) -> bool:
    """Closed-form check of the three cap properties at a given (eps, k).

    Large-cap floor: the cap of radius sqrt(2) - eps/sqrt(k), threshold
    s1 = sqrt(2) theta - theta^2/2 for theta = eps/sqrt(k), has measure
    >= 1/2 - alpha.  Small-cap ceiling: the cap of base diameter
    2 - eps/(2 sqrt(k)) has measure <= beta.  The working scale theta is
    additionally required to stay below 1/4, the regime in which the
    four-point exclusion is available downstream.

    Intersection floor: t such caps with pairwise-orthogonal centers (the
    extreme admissible configuration, centers at pairwise distance
    sqrt(2)) meet in measure >= 2^-t - t*alpha, for every t <= k+1.  The
    large-cap floor implies it, so it is not checked separately.  For
    theta < 1/4, s1 > 0, so each cap lies in its half-space {x . c >= 0}.
    The t half-spaces meet in an orthant of measure exactly 2^-t, by
    sign symmetry, and each half-space minus its cap is a slab of
    measure 1/2 - mu(s1) <= alpha.  By the union bound the caps meet in
    measure >= 2^-t - t*alpha.  (`sphere.cap_intersection_measure_mc`
    samples that measure; the tests hold it against this bound.)
    """
    theta = eps / math.sqrt(k)
    if theta >= 0.25:
        return False
    if cap_measure(k, _p1_threshold(eps, k)) < 0.5 - alpha:
        return False
    return cap_measure(k, _p3_threshold(eps, k)) <= beta


def find_eps_k(alpha: float, beta: float) -> tuple[float, int]:
    """Smallest workable (eps, k): eps halved down a ladder, then the
    minimal k located by doubling followed by bisection.  Every step is
    the closed-form `properties_hold`, so the answer draws no random
    number.

    Raises CapExceeded when no k <= K_CAP (1,000,000) works for any
    ladder eps.
    """
    if not (0.0 < alpha < 0.5 and 0.0 < beta < 0.5):
        raise ValueError("alpha and beta must lie in (0, 1/2)")
    eps = 1.0
    for _ in range(24):
        k = _minimal_k(eps, alpha, beta)
        if k is not None:
            return eps, k
        eps /= 2.0
    raise CapExceeded(
        f"no (eps, k) with k <= {K_CAP} satisfies the cap properties for "
        f"alpha={alpha}, beta={beta}")


def _minimal_k(eps, alpha, beta):
    ok = lambda k: properties_hold(eps, alpha, beta, k)
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
# partitions


def min_domains(k: int, diam: float) -> float:
    """Volume bound: S^k splits into z sets of chordal diameter <= diam
    only if z >= 1 / mu(cap {x . c >= 1 - diam^2/2}), since each set lies
    in the cap of chordal radius diam around any of its points.  The
    threshold is clamped at -1 (diam >= 2 gives 1); a cap measure that
    underflows to 0 gives inf."""
    measure = cap_measure(k, max(1.0 - diam * diam / 2.0, -1.0))
    return 1.0 / measure if measure > 0.0 else math.inf
