"""Exact Euclidean geometry of the cusp cross-section torus.

The horotorus is a flat torus; its translation lattice in the
(meridian, longitude) basis is recorded by the Gram entries
g_mm = <m, m>, g_ml = <m, l>, g_ll = <l, l>.  Each lattice scales its Gram
matrix once by the lcm L of the three denominators, so squared lengths,
inner products and the Lagrange-Gauss reduction run on integers; the
public values are still exact Fractions (the integer over L).  Angles are
sin^2 values.  Square roots are taken only for display.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .slopes import Slope, _Record, _tie_key, distance

__all__ = ["CuspLattice", "cmp_sqrt3"]

RationalLike = Fraction | int | str


def cmp_sqrt3(a: RationalLike, b: RationalLike, c: RationalLike) -> int:
    """Exact sign of sqrt(a) + sqrt(b) - sqrt(c) for non-negative rationals.

    Squaring twice removes the radicals: sqrt(a) + sqrt(b) >= sqrt(c) iff
    2*sqrt(a*b) >= c - a - b, and once the right side is non-negative both
    sides can be squared.  No floating point is involved, and no Fraction
    arithmetic: over their common denominator the three are integers, and
    scaling all of them by one positive factor keeps the sign.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = (x.numerator * (den // x.denominator) for x in (a, b, c))
    if a < 0 or b < 0 or c < 0:
        raise ValueError("negative input")
    d = c - a - b
    if d < 0:
        return 1
    lhs = 4 * a * b
    rhs = d * d
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


class CuspLattice(_Record):
    """Positive-definite Gram matrix of the horotorus translation lattice.

    Each Gram entry is given as a Fraction, an int or a string that
    Fraction reads; anything else, a bool or a float included, is refused
    rather than coerced.  The `maximal` flag asserts that the horotorus is
    the maximal one, which forces every slope to have length at least 1;
    construction rejects a flagged lattice whose systole is shorter.
    """

    _fields = ("g_mm", "g_ml", "g_ll", "maximal")
    g_mm: Fraction
    g_ml: Fraction
    g_ll: Fraction
    maximal: bool

    def __init__(self, g_mm: RationalLike, g_ml: RationalLike, g_ll: RationalLike, maximal: bool = False) -> None:
        if not isinstance(maximal, bool):
            raise ValueError("cusp maximal flag must be a boolean")
        gram = []
        for name, g in (("g_mm", g_mm), ("g_ml", g_ml), ("g_ll", g_ll)):
            if type(g) is not Fraction:
                if not isinstance(g, (Fraction, int, str)) or isinstance(g, bool):
                    raise TypeError(f"cusp {name} must be a Fraction, an int or a string")
                g = Fraction(g)
            object.__setattr__(self, name, g)
            gram.append(g)
        object.__setattr__(self, "maximal", maximal)
        scale = math.lcm(*(g.denominator for g in gram))
        a, b, c = (g.numerator * (scale // g.denominator) for g in gram)
        if a <= 0 or c <= 0 or a * c <= b * b:
            raise ValueError("Gram matrix is not positive definite")
        # (L, L*g_mm, L*g_ml, L*g_ll); not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_scaled", (scale, a, b, c))
        if maximal:
            systole, _ = self.systole_squared()
            if systole < 1:
                raise ValueError(f"maximal flag violates length >= 1 (systole^2 = {systole})")

    # -- quadratic form ----------------------------------------------------

    def _qval(self, p: int, q: int) -> int:
        _, a, b, c = self._scaled
        return (a * p + 2 * b * q) * p + c * q * q

    def _inner(self, u: tuple[int, int], v: tuple[int, int]) -> int:
        _, a, b, c = self._scaled
        return a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0]) + c * u[1] * v[1]

    def squared_length(self, r: Slope) -> Fraction:
        """Squared Euclidean length of the geodesic representative of r."""
        return Fraction(self._qval(r.p, r.q), self._scaled[0])

    def area_squared(self) -> Fraction:
        """Squared area of the torus: the Gram determinant."""
        return self.g_mm * self.g_ll - self.g_ml * self.g_ml

    def sin_sq_angle(self, r: Slope, s: Slope) -> Fraction:
        """sin^2 of the angle between the geodesics of r and s, in [0, 1].

        Computed as 1 - cos^2 from the exact inner product; parallel slopes
        give 0, a perpendicular pair gives 1.
        """
        if r == s:
            return Fraction(0)
        lr = self._qval(r.p, r.q)
        ls = self._qval(s.p, s.q)
        dot = self._inner((r.p, r.q), (s.p, s.q))
        return Fraction(lr * ls - dot * dot, lr * ls)

    def lemma1_identity(self, r: Slope, s: Slope) -> bool:
        """Check distance^2 * area^2 == len^2(r) * len^2(s) * sin^2(angle).

        The relation ties intersection number to lattice geometry and holds
        for every valid lattice and slope pair; the method exists as an
        exact self-test oracle.
        """
        d = distance(r, s)
        lhs = Fraction(d * d) * self.area_squared()
        rhs = self.squared_length(r) * self.squared_length(s) * self.sin_sq_angle(r, s)
        return lhs == rhs

    # -- shortest vector ---------------------------------------------------

    def systole_squared(self) -> tuple[Fraction, Slope]:
        """Minimal squared slope length and a slope attaining it.

        Runs Lagrange-Gauss reduction on the Gram matrix, then inspects the
        reduced basis vectors and their sum and difference, which between
        them contain every minimal vector.  Ties go by slopes._tie_key.  Found
        once per lattice, so the check of a maximal one answers later calls.
        """
        if getattr(self, "_systole", None) is None:  # kept outside the fields, like _scaled
            object.__setattr__(self, "_systole", self._reduce())
        return self._systole

    def _reduce(self) -> tuple[Fraction, Slope]:
        u, v = (1, 0), (0, 1)
        if self._qval(*u) > self._qval(*v):
            u, v = v, u
        while True:
            qu = self._qval(*u)
            t = (2 * self._inner(u, v) + qu) // (2 * qu)  # nearest to inner/qu, ties up
            v = (v[0] - t * u[0], v[1] - t * u[1])
            if self._qval(*v) >= qu:
                break
            u, v = v, u
        best = self._qval(*u)
        candidates = [u, v, (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1])]
        slopes = {Slope(*c) for c in candidates if self._qval(*c) == best}
        return Fraction(best, self._scaled[0]), min(slopes, key=lambda s: _tie_key(s.p, s.q))

    # -- consistency checks -------------------------------------------------

    def agol_check(self, surface) -> bool:
        """Whether the surface's slope obeys length <= 6*(-euler)/b here.

        Exact squared form: len^2(slope) * b^2 <= 36 * euler^2.  Used to
        validate that a cusp shape and a surface record can coexist.
        """
        if surface.euler >= 0:
            raise ValueError("non-negative Euler characteristic")
        lhs = self._qval(surface.slope.p, surface.slope.q) * surface.b * surface.b
        return lhs <= 36 * surface.euler * surface.euler * self._scaled[0]
