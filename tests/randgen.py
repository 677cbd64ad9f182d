"""Seeded random-instance generators shared by the property and acceptance
suites.  Everything is driven by an explicit random.Random so runs are
reproducible."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from slopenorm import CSNormData, CuspLattice, Slope


def value_order(s: Slope) -> tuple:
    """Reference sort key in Fractions: finite slopes by value, the meridian last."""
    return (1, Fraction(0)) if s.is_meridian else (0, Fraction(s.p, s.q))


def random_slope(rng: random.Random, p_max: int = 50, q_max: int = 50, finite: bool = False) -> Slope:
    while True:
        p = rng.randint(-p_max, p_max)
        q = rng.randint(1 if finite else 0, q_max)
        if (p, q) == (0, 0):
            continue
        if math.gcd(abs(p), abs(q)) == 1:
            return Slope(p, q)


def random_slope_pair(rng: random.Random, p_max: int = 50, q_max: int = 50, finite: bool = False):
    r = random_slope(rng, p_max, q_max, finite)
    while True:
        s = random_slope(rng, p_max, q_max, finite)
        if s != r:
            return r, s


def random_fraction(rng: random.Random, lo: int = 1, hi: int = 40, den: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_lattice(rng: random.Random) -> CuspLattice:
    """Arbitrary positive-definite rational Gram matrix."""
    g_mm = random_fraction(rng)
    g_ll = random_fraction(rng)
    while True:
        g_ml = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        if g_ml * g_ml < g_mm * g_ll:
            return CuspLattice(g_mm, g_ml, g_ll)


def random_sheared_lattice(rng: random.Random) -> CuspLattice:
    """Positive-definite Gram whose minimal vectors provably have small
    coordinates: a nearly-reduced form pushed through two bounded shears.

    The base form has its minimum on a vector with entries in {-1, 0, 1};
    the change of basis [[1 + c*d, c], [d, 1]] with |c|, |d| <= 2 maps such
    vectors into the box |p|, q <= 7, so a brute-force search over
    |p|, q <= 20 is guaranteed to see every minimal vector.
    """
    a = random_fraction(rng, 1, 10, 4)
    c = random_fraction(rng, 1, 10, 4)
    while True:
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        if 2 * abs(b) <= min(a, c):
            break
    sh1 = rng.randint(-2, 2)
    sh2 = rng.randint(-2, 2)
    # basis change U = [[1 + sh1*sh2, sh1], [sh2, 1]]; new Gram = U^T G U
    u00, u01, u10, u11 = 1 + sh1 * sh2, sh1, sh2, 1
    g_mm = a * u00 * u00 + 2 * b * u00 * u10 + c * u10 * u10
    g_ml = a * u00 * u01 + b * (u00 * u11 + u01 * u10) + c * u10 * u11
    g_ll = a * u01 * u01 + 2 * b * u01 * u11 + c * u11 * u11
    return CuspLattice(g_mm, g_ml, g_ll)


def random_norm_data(
    rng: random.Random,
    min_terms: int = 2,
    max_terms: int = 5,
    weights=(2, 4, 6),
    t_max: int = 30,
    u_max: int = 8,
) -> CSNormData:
    """Meridian-free norm data with distinct finite slopes."""
    n_terms = rng.randint(min_terms, max_terms)
    slopes: set[Slope] = set()
    while len(slopes) < n_terms:
        slopes.add(random_slope(rng, t_max, u_max, finite=True))
    return CSNormData(tuple((s, rng.choice(weights)) for s in sorted(slopes, key=value_order)))
