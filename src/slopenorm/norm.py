"""The boundary-slope norm as finite exact data.

The norm of a class x*m + y*l is a weighted sum of intersection distances
against a fixed finite list of slopes, with positive even integer weights.
On primitive integer classes it agrees with the slope norm; on real classes
it is piecewise linear and its unit ball is a centrally symmetric polygon
whose vertices lie on the rays spanned by the stored slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator

from .slopes import MERIDIAN, Slope

__all__ = ["CSNormData", "BoundarySlopeSet"]


def is_norm_weight(weight) -> bool:
    """Whether weight is a valid norm-term weight: a positive even int."""
    return isinstance(weight, int) and not isinstance(weight, bool) and weight > 0 and weight % 2 == 0


def _ccw_compare(v: tuple[int, int], w: tuple[int, int]) -> int:
    # counterclockwise from the positive x-axis; exact integer predicate
    def half(u: tuple[int, int]) -> int:
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    hv, hw = half(v), half(w)
    if hv != hw:
        return -1 if hv < hw else 1
    cross = v[0] * w[1] - v[1] * w[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


@dataclass(frozen=True)
class CSNormData:
    """Finite list of (slope, weight) terms defining the norm.

    Weights are even and at least 2; zero-weight slopes are simply not
    stored.  At least two distinct slopes are required, which makes the
    evaluation vanish only on the zero class.
    """

    terms: tuple[tuple[Slope, int], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for entry in self.terms:
            slope, weight = entry
            if not isinstance(slope, Slope):
                raise TypeError("norm term slope must be a Slope")
            if not is_norm_weight(weight):
                raise ValueError("weight must be positive even")
            cleaned.append((slope, weight))
        cleaned.sort(key=lambda t: t[0].sort_key())
        slopes = [s for s, _ in cleaned]
        if len(set(slopes)) != len(slopes):
            raise ValueError("duplicate slope in norm terms")
        if len(slopes) < 2:
            raise ValueError("need at least two distinct slopes")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def support(self) -> tuple[Slope, ...]:
        return tuple(s for s, _ in self.terms)

    @property
    def has_meridian_term(self) -> bool:
        return any(s.is_meridian for s, _ in self.terms)

    def evaluate(self, r: Slope) -> int:
        """Norm of the slope r: the weighted sum of distances to the terms."""
        return self._direction_norm(r.p, r.q)

    def _direction_norm(self, t: int, u: int) -> int:
        # norm of the integer class t*m + u*l
        return sum(a * abs(t * s.q - u * s.p) for s, a in self.terms)

    def evaluate_real(self, x, y) -> Fraction:
        """Norm of the real class x*m + y*l; homogeneous of degree 1."""
        x, y = Fraction(x), Fraction(y)
        return sum((a * abs(x * s.q - y * s.p) for s, a in self.terms), Fraction(0))

    def meridian_norm(self) -> int:
        """Norm of the meridian: the weighted sum of term denominators."""
        return self.evaluate(MERIDIAN)

    def linear_pieces(self) -> list[tuple[Slope | None, Slope | None, int, int]]:
        """The norm as integer linear forms between consecutive finite term
        slopes: (lower, upper, A, B) with norm(p/q) = A*p + B*q whenever
        q > 0 and lower <= p/q <= upper, in increasing order; None leaves a
        side unbounded.
        """
        finite = [(s, w) for s, w in self.terms if not s.is_meridian]
        # below every finite term slope each distance is q*t - p*u (or q for
        # the meridian); passing the term t/u of weight w adds 2*w*(p*u - q*t)
        a = -sum(w * s.q for s, w in finite)
        b = sum(w * s.p for s, w in finite) + sum(w for s, w in self.terms if s.is_meridian)
        pieces = []
        lower = None
        for upper, w in finite:
            pieces.append((lower, upper, a, b))
            a, b, lower = a + 2 * w * upper.q, b - 2 * w * upper.p, upper
        pieces.append((lower, None, a, b))
        return pieces

    def unit_ball_vertices(self) -> list[tuple[Fraction, Fraction]]:
        """Vertices of {v : norm(v) <= 1}, counterclockwise.

        The norm kinks exactly on the rays spanned by the stored slopes, so
        the vertices are the points (t, u)/norm(t, u) over the terms t/u and
        their antipodes, sorted by angle from the positive x-axis.
        """
        dirs: list[tuple[int, int]] = []
        for s, _ in self.terms:
            dirs.append((s.p, s.q))
            dirs.append((-s.p, -s.q))
        dirs.sort(key=cmp_to_key(_ccw_compare))
        vertices = []
        for t, u in dirs:
            n = self._direction_norm(t, u)
            vertices.append((Fraction(t, n), Fraction(u, n)))
        return vertices

    def min_norm_nontrivial(self) -> tuple[int, Slope]:
        """Least norm over slopes other than the meridian, with a minimizer.

        Any slope beating the running minimum m lies inside m times the unit
        ball, so the search is confined to the bounding box of that polygon.
        Ties go to the smallest q, then smallest |p|, then positive p.
        """
        candidates = [self._search_key(Slope(0, 1))]
        for s in self.support:
            if not s.is_meridian:
                candidates.append(self._search_key(s))
        best = min(candidates)
        p_max, q_max = self._search_box(best[0])
        for q in range(1, q_max + 1):
            for p in range(-p_max, p_max + 1):
                if math.gcd(abs(p), q) != 1:
                    continue
                val = self._direction_norm(p, q)
                key = (val, q, abs(p), 0 if p >= 0 else 1, p, q)
                if key < best:
                    best = key
        return best[0], Slope(best[4], best[5])

    def _search_box(self, bound: int) -> tuple[int, int]:
        # integer bounding box of bound * unit ball: its vertices are the
        # term directions (t, u) scaled to norm bound
        norms = [(s, self._direction_norm(s.p, s.q)) for s in self.support]
        return max(bound * abs(s.p) // n for s, n in norms), max(bound * s.q // n for s, n in norms)

    def _search_key(self, s: Slope) -> tuple:
        val = self.evaluate(s)
        return (val, s.q, abs(s.p), 0 if s.p >= 0 else 1, s.p, s.q)


@dataclass(frozen=True)
class BoundarySlopeSet:
    """Distinct slopes of essential surfaces, at least one of them finite."""

    slopes: tuple[Slope, ...]

    def __post_init__(self) -> None:
        slopes = tuple(sorted(self.slopes, key=lambda s: s.sort_key()))
        if len(set(slopes)) != len(slopes):
            raise ValueError("duplicate boundary slope")
        if not any(not s.is_meridian for s in slopes):
            raise ValueError("need at least one finite boundary slope")
        object.__setattr__(self, "slopes", slopes)

    @property
    def finite(self) -> tuple[Slope, ...]:
        """Non-meridional members, in increasing numerical order."""
        return tuple(s for s in self.slopes if not s.is_meridian)

    def diam(self) -> Fraction:
        """Greatest minus least numerical value; the meridian is ignored."""
        finite = self.finite
        if len(finite) < 2:
            raise ValueError("diameter undefined")
        return finite[-1].value() - finite[0].value()

    def __contains__(self, slope: Slope) -> bool:
        return slope in self.slopes

    def __iter__(self) -> Iterator[Slope]:
        return iter(self.slopes)

    def __len__(self) -> int:
        return len(self.slopes)
