"""The boundary-slope norm as finite exact data.

The norm of a class x*m + y*l is a weighted sum of intersection distances
against a fixed finite list of slopes, with positive even integer weights.
On primitive integer classes it agrees with the slope norm; on real classes
it is piecewise linear and its unit ball is a centrally symmetric polygon
whose vertices lie on the rays spanned by the stored slopes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .slopes import Slope, _Record, _tie_key, _value_key

__all__ = ["CSNormData", "BoundarySlopeSet"]


def is_norm_weight(weight) -> bool:
    """Whether weight is a valid norm-term weight: a positive even int."""
    return isinstance(weight, int) and not isinstance(weight, bool) and weight > 0 and weight % 2 == 0


class CSNormData(_Record):
    """Finite list of (slope, weight) terms defining the norm.

    Weights are even and at least 2; zero-weight slopes are simply not
    stored.  At least two distinct slopes are required, which makes the
    evaluation vanish only on the zero class.
    """

    _fields = ("terms",)
    terms: tuple[tuple[Slope, int], ...]

    def __init__(self, terms: tuple[tuple[Slope, int], ...]) -> None:
        cleaned = []
        for slope, weight in terms:
            if not isinstance(slope, Slope):
                raise TypeError("norm term slope must be a Slope")
            if not is_norm_weight(weight):
                raise ValueError("weight must be positive even")
            cleaned.append((slope, weight))
        key = _value_key([s for s, _ in cleaned])
        cleaned.sort(key=lambda t: key(t[0]))
        # (weight, p, q) per term and the meridian norm, the sum of weight*q;
        # not fields, so ==, hash and repr ignore them
        table = tuple((w, s.p, s.q) for s, w in cleaned)
        if len({(p, q) for _, p, q in table}) != len(table):
            raise ValueError("duplicate slope in norm terms")
        if len(table) < 2:
            raise ValueError("need at least two distinct slopes")
        object.__setattr__(self, "terms", tuple(cleaned))
        object.__setattr__(self, "_terms", table)
        object.__setattr__(self, "_meridian_norm", sum(w * q for w, _, q in table))

    @property
    def support(self) -> tuple[Slope, ...]:
        return tuple(s for s, _ in self.terms)

    @property
    def has_meridian_term(self) -> bool:
        return self._terms[-1][2] == 0  # the meridian sorts last

    def evaluate(self, r: Slope) -> int:
        """Norm of the slope r: the weighted sum of distances to the terms."""
        return self._direction_norm(r.p, r.q)

    def _direction_norm(self, t: int, u: int) -> int:
        # norm of the integer class t*m + u*l
        n = 0
        for a, p, q in self._terms:
            n += a * abs(t * q - u * p)
        return n

    def meridian_norm(self) -> int:
        """Norm of the meridian: the weighted sum of term denominators."""
        return self._meridian_norm

    def linear_pieces(self) -> list[tuple[Slope | None, Slope | None, int, int]]:
        """The norm as integer linear forms between consecutive finite term
        slopes: (lower, upper, A, B) with norm(p/q) = A*p + B*q whenever
        q > 0 and lower <= p/q <= upper, in increasing order; None leaves a
        side unbounded.
        """
        # below every finite term slope the distance to each term t/u, the
        # meridian 1/0 included, is q*t - p*u, so A = -norm(m) and B is the
        # sum of w*t; passing the term t/u of weight w adds 2*w*(p*u - q*t)
        a, b = -self._meridian_norm, sum(w * t for w, t, _ in self._terms)
        pieces = []
        lower = None
        for (upper, _), (w, t, u) in zip(self.terms, self._terms):
            if u:
                pieces.append((lower, upper, a, b))
                a, b, lower = a + 2 * w * u, b - 2 * w * t, upper
        pieces.append((lower, None, a, b))
        return pieces

    def unit_ball_vertices(self) -> list[tuple[Fraction, Fraction]]:
        """Vertices of {v : norm(v) <= 1}, counterclockwise.

        The norm kinks exactly on the rays spanned by the stored slopes, so
        the vertices are the points (t, u)/norm(t, u) over the terms t/u and
        their antipodes.  Counterclockwise from the positive x-axis the terms
        come in reverse order, the meridian first and then decreasing t/u,
        and their antipodes follow in the same order.
        """
        rays = [(t, u, self._direction_norm(t, u)) for _, t, u in reversed(self._terms)]
        return [(Fraction(sign * t, n), Fraction(sign * u, n)) for sign in (1, -1) for t, u, n in rays]

    def min_norm_nontrivial(self) -> tuple[int, Slope]:
        """Least norm over slopes other than the meridian, with a minimizer.

        Rows q = 1, 2, ... are scanned.  On a row the norm is convex in p and
        least, at q*c, on q*[lo, hi]: lo is the lower side of the first linear
        piece with A >= 0, hi its upper side when A = 0 and lo otherwise, and
        c = norm(lo)/lo.q.  A meridian term adds w*q to the whole row: c
        counts it, and A and the interval do not move.  A row's candidate is
        the integer in q*[lo, hi] nearest 0, the one slopes._tie_key prefers,
        or with none there the two integers around it, the norm being strictly
        monotone on either side.  The scan stops once q*c reaches the running
        minimum: no later row can beat it, nor win a tie, since ties go to
        smaller q.  A class d*v with d > 1 has d times the norm of v, found on
        an earlier row, so it never wins.
        """
        lo, hi = next((lower, upper if big_a == 0 else lower) for lower, upper, big_a, _ in self.linear_pieces() if big_a >= 0)
        least = self._direction_norm(lo.p, lo.q)
        best, q = None, 1
        while best is None or q * least < best[0] * lo.q:
            a, b = -(-q * lo.p // lo.q), q * hi.p // hi.q
            row = min(self._search_key(p, q) for p in ((min(max(0, a), b),) if a <= b else (b, a)))
            best = row if best is None else min(best, row)
            q += 1
        return best[0], Slope(*best[2])

    def _search_key(self, p: int, q: int) -> tuple:
        return self._direction_norm(p, q), _tie_key(p, q), (p, q)


class BoundarySlopeSet(_Record):
    """Distinct slopes of essential surfaces, at least one of them finite."""

    _fields = ("slopes",)
    slopes: tuple[Slope, ...]

    def __init__(self, slopes: tuple[Slope, ...]) -> None:
        slopes = tuple(slopes)
        for s in slopes:
            if not isinstance(s, Slope):
                raise TypeError("boundary slope must be a Slope")
        slopes = tuple(sorted(slopes, key=_value_key(slopes)))
        # the (p, q) pairs and the finite slopes are not fields, so ==, hash and repr ignore them
        pairs = {(s.p, s.q) for s in slopes}
        if len(pairs) != len(slopes):
            raise ValueError("duplicate boundary slope")
        finite = tuple(s for s in slopes if not s.is_meridian)
        if not finite:
            raise ValueError("need at least one finite boundary slope")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_finite", finite)

    @property
    def finite(self) -> tuple[Slope, ...]:
        """Non-meridional members, in increasing numerical order."""
        return self._finite

    def diam(self) -> Fraction:
        """Greatest minus least numerical value; the meridian is ignored."""
        return Fraction(*self._diam_ratio())

    def _diam_ratio(self) -> tuple[int, int]:
        # diam() as an unreduced numerator and a positive denominator
        finite = self._finite
        if len(finite) < 2:
            raise ValueError("diameter undefined")
        lo, hi = finite[0], finite[-1]
        return hi.p * lo.q - lo.p * hi.q, hi.q * lo.q

    def __contains__(self, slope: Slope) -> bool:
        return isinstance(slope, Slope) and (slope.p, slope.q) in self._pairs

    def __iter__(self) -> Iterator[Slope]:
        return iter(self.slopes)

    def __len__(self) -> int:
        return len(self.slopes)
