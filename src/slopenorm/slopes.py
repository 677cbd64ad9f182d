"""Exact arithmetic on slopes of a one-cusped torus boundary.

A slope is the unoriented isotopy class of an essential simple closed curve
on the boundary torus.  Once a meridian-longitude basis is fixed, a slope is
a primitive homology class up to sign; we store the canonical coprime pair
(p, q) with q >= 0, the meridian being pinned to (1, 0).  The numerical
slope is the fraction p/q, infinite exactly for the meridian.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Iterator

__all__ = [
    "Slope",
    "MERIDIAN",
    "LONGITUDE",
    "distance",
    "enumerate_slopes",
]

# the one grammar of slope and rational text, which manifold._parse_rational
# and cli._merge_slope_flags narrow with rules of their own
_SLOPE_TEXT = re.compile(r"[+-]?\d+(?:/\d+)?")


class _Record:
    """Immutable value record: a subclass names its fields in _fields and sets
    each one once in its own __init__, with object.__setattr__.

    Two records are equal when they are of the same class with equal field
    tuples, and hash as that tuple; repr lists the fields by name.  Values a
    subclass keeps beside its fields (attributes named with an underscore)
    take no part in any of this.  Assigning or deleting any attribute raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # _values(record) is the field tuple, read by one attrgetter in C: a
        # Python loop over _fields made == on two slopes cost 0.9 us, not 0.3.
        # An attrgetter of one name returns the bare value, so it is wrapped.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Slope(_Record):
    """Canonical coprime pair (p, q) with q >= 0; (p, q) and (-p, -q) agree.

    Construction normalizes the sign but refuses non-primitive pairs: a
    class divisible by an integer > 1 is not a slope, and silently reducing
    it would hide a caller bug.
    """

    _fields = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if not isinstance(p, int) or not isinstance(q, int) or isinstance(p, bool) or isinstance(q, bool):
            raise TypeError("slope components must be integers")
        if p == 0 and q == 0:
            raise ValueError("not a slope")
        if math.gcd(abs(p), abs(q)) != 1:
            raise ValueError("not primitive")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_meridian(self) -> bool:
        return self.q == 0

    def value(self) -> Fraction:
        """Numerical slope p/q as an exact rational; the meridian has none."""
        if self.q == 0:
            raise ValueError("infinite slope")
        return Fraction(self.p, self.q)

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse "p/q" with an optional sign on p; a bare integer means p/1.
        Anything else, a non-string included, raises ValueError."""
        s = text.strip() if isinstance(text, str) else ""
        if not _SLOPE_TEXT.fullmatch(s):
            raise ValueError(f"not a slope: {text!r}")
        num, _, den = s.partition("/")
        return cls(int(num), int(den or 1))

    def __str__(self) -> str:
        # rendered once and kept outside the fields, so ==, hash and repr ignore
        # it; set as an attribute, since reading __dict__ slows later reads of p and q
        if getattr(self, "_text", None) is None:
            object.__setattr__(self, "_text", f"{self.p}/{self.q}")
        return self._text


def _value_key(slopes):
    """The sort key ordering the given slopes by value, the meridian last, in
    integers: over the lcm L of their finite denominators, p/q is p*(L//q)."""
    scale = math.lcm(*(s.q for s in slopes if s.q))
    return lambda s: (1, 0) if s.q == 0 else (0, s.p * (scale // s.q))


def _tie_key(p: int, q: int) -> tuple:
    """The tie-break among slopes equal in some measure: smaller q (the
    meridian first), then smaller |p|, then positive p."""
    return q, abs(p), p < 0


MERIDIAN = Slope(1, 0)
LONGITUDE = Slope(0, 1)


def distance(r: Slope, s: Slope) -> int:
    """Minimal geometric intersection number |p_r*q_s - q_r*p_s|."""
    return abs(r.p * s.q - r.q * s.p)


def enumerate_slopes(p_max: int, q_max: int) -> Iterator[Slope]:
    """The meridian, then all canonical slopes with |p| <= p_max and
    1 <= q <= q_max in increasing q, then increasing p, so sweeps are
    reproducible."""
    yield MERIDIAN
    for q in range(1, q_max + 1):
        for p in range(-p_max, p_max + 1):
            if math.gcd(abs(p), q) == 1:
                yield Slope(p, q)
