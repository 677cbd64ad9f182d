"""Seeded input generation shared by the workloads.

The random instances follow the distributions of the test suite's
``tests/randgen.py`` (rational Gram entries with denominators up to 8,
meridian-free norms with 2-5 terms, |t| <= 30, u <= 8, weights 2/4/6) but
are generated here, so later changes to the tests cannot change the
benchmark's inputs.  Properties that change the per-request cost (term
count, maximal flag, surfaces) are stratified by index rather than drawn,
so different seeds give workloads of the same shape.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle


@dataclass(frozen=True)
class Instance:
    """One manifold as plain data, plus its canonical document."""

    name: str
    boundary: tuple
    gram: tuple | None = None
    maximal: bool = False
    terms: tuple | None = None
    surfaces: tuple = ()
    certificate: int | None = None
    family: tuple = ()  # (name of a slopenorm.families function, *parameters)

    @property
    def scaled(self):
        return oracle.scaled_gram(*self.gram)

    def document(self) -> dict:
        return oracle.canonical_document(
            self.name, self.boundary, self.gram, self.maximal,
            self.terms, self.surfaces, self.certificate,
        )


def _fraction(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def finite_slope(rng: random.Random, t_max: int, u_max: int) -> tuple[int, int]:
    while True:
        t, u = rng.randint(-t_max, t_max), rng.randint(1, u_max)
        if math.gcd(t, u) == 1:
            return (t, u)


def random_gram(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    g_mm, g_ll = _fraction(rng, 1, 40, 8), _fraction(rng, 1, 40, 8)
    while True:
        g_ml = _fraction(rng, -40, 40, 8)
        if g_ml * g_ml < g_mm * g_ll:
            return g_mm, g_ml, g_ll


def random_instance(rng: random.Random, index: int, name: str) -> Instance:
    """A valid document with cusp and norm data.

    Index i sets the shape: 2 + i % 4 norm terms, (i // 3) % 3 extra
    boundary slopes, the maximal flag when i % 3 == 0 (the Gram matrix is
    scaled up until its systole is >= 1), 2 + (i // 2) % 2 surfaces when i
    is even, and the meridian among the boundary slopes when i % 5 == 0.  When (i // 4) % 4 == 3 the Gram
    matrix is also stretched until thm1 fails on a slope with |p|, q <= 3,
    so that sweeps meet failures; unstretched draws rarely fail.
    """
    gram = random_gram(rng)
    term_slopes: set = set()
    while len(term_slopes) < 2 + index % 4:
        term_slopes.add(finite_slope(rng, 30, 8))
    terms = tuple((s, rng.choice((2, 4, 6))) for s in sorted(term_slopes, key=oracle.slope_sort_key))
    if (index // 4) % 4 == 3:
        scaled = oracle.scaled_gram(*gram)
        ratio = min(
            Fraction(9 * oracle.norm_value(terms, *s) ** 2, 4) / oracle.squared_length(scaled, s)
            for s in oracle.slopes_in_range(3)
        )
        gram = tuple(g * (math.floor(ratio) + 1) for g in gram)
    maximal = index % 3 == 0
    if maximal:
        shortest, _ = oracle.systole(oracle.scaled_gram(*gram))
        gram = tuple(g * max(1, math.ceil(1 / shortest)) for g in gram)
    boundary = set(term_slopes)
    for _ in range((index // 3) % 3):
        boundary.add(finite_slope(rng, 30, 8))
    surfaces = ()
    if index % 2 == 0:
        finite = sorted(boundary, key=oracle.slope_sort_key)
        surfaces = tuple(
            (s, -rng.randint(1, 12), rng.randint(1, 2), rng.random() < 0.5, rng.random() < 0.7)
            for s in rng.sample(finite, min(len(finite), 2 + (index // 2) % 2))
        )
    if index % 5 == 0:
        boundary.add(oracle.MERIDIAN)
    return Instance(name, tuple(boundary), gram, maximal, terms, surfaces)


def family_instances() -> list[Instance]:
    """The bundled families as plain data: figure-eight, pretzel n = 7..99
    (odd), two-bridge C = 4..100."""
    out = [_from_document(oracle.fig8_document(), ("fig8_dataset",))]
    out += [_from_document(oracle.pretzel_document(n), ("pretzel_dataset", n)) for n in range(7, 100, 2)]
    out += [_from_document(oracle.twobridge_document(c), ("twobridge_dataset", c)) for c in range(4, 101)]
    return out


def _from_document(doc: dict, family: tuple) -> Instance:
    cusp = doc.get("cusp")
    norm = doc.get("culler_shalen")
    return Instance(
        name=doc["name"],
        boundary=tuple(oracle.parse_slope(s) for s in doc["boundary_slopes"]),
        gram=tuple(Fraction(cusp[k]) for k in ("g_mm", "g_ml", "g_ll")) if cusp else None,
        maximal=bool(cusp and cusp["maximal"]),
        terms=tuple((oracle.parse_slope(t["slope"]), t["weight"]) for t in norm["terms"]) if norm else None,
        surfaces=tuple(
            (oracle.parse_slope(s["slope"]), s["euler"], s["boundary_components"], s["strict"], s["ideal_point"])
            for s in doc.get("surfaces", ())
        ),
        certificate=doc.get("meridian_norm_certificate"),
        family=family,
    )


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi), one drawn from each of ``count`` equal
    slices, so the multiset barely depends on the seed."""
    width = max(1, (hi - lo) // count)
    return [lo + k * (hi - lo) // count + rng.randrange(width) for k in range(count)]
