"""Exact rational bounds of the complete-join corollary.

The edge-density floor of the two-part shadow and the mixing fraction
a* that maximizes the corollary graph's density bound, both as
`Fraction`s.  The module imports the standard library only, so
`rtlab optimize` runs without numpy.
"""

from fractions import Fraction


def theta_lower_bound(t: int, ell: int) -> Fraction:
    """Edge-density floor (1/2)(1 - 1/ell) 2^(-u^2) with u = ceil(t/2)."""
    if not 2 <= ell <= t:
        raise ValueError(f"need 2 <= ell <= t, got ell={ell}, t={t}")
    u = (t + 1) // 2
    return Fraction(1, 2) * (1 - Fraction(1, ell)) / Fraction(2 ** (u * u))


def optimize_a(t: int, ell: int, q: int) -> tuple[Fraction, Fraction]:
    """Exact maximizer over a in (0,1) of
    B a^2 + C(q-1,2) ((1-a)/(q-1))^2 + (1-a) a with B the density floor.

    Returns (a*, value) as exact rationals, a* the vertex of the
    quadratic.  With c = C(q-1,2)/(q-1)^2 < 1/2 and B <= 1/8 the a^2
    coefficient B + c - 1 is negative, and the vertex
    (1 - 2c) / (2 (1 - B - c)) lies in (0,1) because B < 1/2."""
    if q < 2:
        raise ValueError("need q >= 2")
    b = theta_lower_bound(t, ell)
    # expand: f(a) = A2 a^2 + A1 a + A0
    c_t = Fraction(q - 2, 2 * (q - 1))  # C(q-1,2)/(q-1)^2
    a2 = b + c_t - 1
    a1 = 1 - 2 * c_t
    a0 = c_t
    a_star = -a1 / (2 * a2)
    value = a2 * a_star * a_star + a1 * a_star + a0
    return a_star, value
