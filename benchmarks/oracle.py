"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports slopenorm.  Slopes are plain ``(p, q)`` pairs in the
canonical form (``q >= 0``, meridian ``(1, 0)``), Gram matrices are scaled
by the lcm of their denominators so that every length comparison is an
integer comparison, and documents are built and serialised directly from
the format description in the README.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache

MERIDIAN = (1, 0)


def slope_text(s: tuple[int, int]) -> str:
    return f"{s[0]}/{s[1]}"


def parse_slope(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


def slope_sort_key(s: tuple[int, int]) -> tuple:
    """Finite slopes by value, the meridian last."""
    return (1, Fraction(0)) if s[1] == 0 else (0, Fraction(s[0], s[1]))


def scaled_gram(g_mm, g_ml, g_ll) -> tuple[int, int, int, int]:
    """(L, A, B, C) with L the lcm of the denominators and A = L*g_mm etc."""
    g = [Fraction(x) for x in (g_mm, g_ml, g_ll)]
    scale = math.lcm(*(x.denominator for x in g))
    return (scale, *(int(x * scale) for x in g))


def qform(gram, p: int, q: int) -> int:
    """Scaled squared length L * len^2(p/q)."""
    _, a, b, c = gram
    return a * p * p + 2 * b * p * q + c * q * q


def squared_length(gram, s) -> Fraction:
    return Fraction(qform(gram, *s), gram[0])


def norm_value(terms, p: int, q: int) -> int:
    """sum_i a_i * |p*u_i - q*t_i| over terms ((t_i, u_i), a_i)."""
    return sum(a * abs(p * u - q * t) for (t, u), a in terms)


def slopes_in_range(limit: int):
    """The sweep order: the meridian, then increasing q, then increasing p."""
    yield MERIDIAN
    for q in range(1, limit + 1):
        for p in range(-limit, limit + 1):
            if math.gcd(p, q) == 1:
                yield (p, q)


@lru_cache(maxsize=None)
def slope_count(limit: int) -> int:
    return sum(1 for _ in slopes_in_range(limit))


def thm1(gram, terms, s) -> tuple[str, str, str]:
    """Status, lhs and rhs text of the check 9*norm^2 >= 4*len^2 at s."""
    n = norm_value(terms, *s)
    lhs = 9 * n * n * gram[0]
    rhs = 4 * qform(gram, *s)
    status = "holds" if lhs > rhs else "equality" if lhs == rhs else "fails"
    return status, str(9 * n * n), str(Fraction(rhs, gram[0]))


def sweep(gram, terms, limit: int) -> tuple[int, int, tuple[int, int] | None]:
    """(passed, total, first failing slope) of thm1 over the sweep range."""
    scale, a, b, c = gram
    nine_l = 9 * scale
    passed = total = 0
    first_bad = None
    for p, q in slopes_in_range(limit):
        total += 1
        n = 0
        for (t, u), w in terms:
            n += w * abs(p * u - q * t)
        if nine_l * n * n >= 4 * (a * p * p + 2 * b * p * q + c * q * q):
            passed += 1
        elif first_bad is None:
            first_bad = (p, q)
    return passed, total, first_bad


def _tie_key(s) -> tuple:
    p, q = s
    return (0 if q == 0 else 1, q, abs(p), 0 if p >= 0 else 1)


def systole(gram) -> tuple[Fraction, tuple[int, int]]:
    """Shortest slope by exhaustive search, with the library's tie-break.

    Any v with Q(v) <= M has q^2 <= M*A/D and p^2 <= M*C/D (D = AC - B^2),
    so with M = min(A, C) the box below holds every minimal vector.
    """
    scale, a, b, c = gram
    det = a * c - b * b
    bound = min(a, c)
    p_max = math.isqrt(bound * c // det) + 1
    q_max = math.isqrt(bound * a // det) + 1
    best = None
    for q in range(0, q_max + 1):
        for p in range(-p_max, p_max + 1):
            if math.gcd(p, q) != 1 or (q == 0 and p != 1):
                continue
            key = (qform(gram, p, q), _tie_key((p, q)))
            if best is None or key < best[0]:
                best = (key, (p, q))
    return Fraction(best[0][0], scale), best[1]


def min_norm_problems(terms, value: int, witness, box: int = 24) -> list[str]:
    """Spot check of min_norm_nontrivial: the witness has the claimed norm,
    is not the meridian, and no slope in |p|, q <= box does better."""
    problems = []
    if witness[1] == 0:
        problems.append("min_norm witness is the meridian")
    if norm_value(terms, *witness) != value:
        problems.append(f"min_norm value {value} is not the norm of {slope_text(witness)}")
    claimed = (value, witness[1], abs(witness[0]), 0 if witness[0] >= 0 else 1)
    for q in range(1, box + 1):
        for p in range(-box, box + 1):
            if math.gcd(p, q) == 1:
                key = (norm_value(terms, p, q), q, abs(p), 0 if p >= 0 else 1)
                if key < claimed:
                    problems.append(f"min_norm: {p}/{q} beats {slope_text(witness)}")
                    return problems
    return problems


def _ccw(v, w) -> int:
    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    if half(v) != half(w):
        return -1 if half(v) < half(w) else 1
    cross = v[0] * w[1] - v[1] * w[0]
    return -1 if cross > 0 else 1 if cross < 0 else 0


def unit_ball(terms) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the norm's unit ball, counterclockwise from angle 0."""
    dirs = sorted(
        [d for (t, u), _ in terms for d in ((t, u), (-t, -u))], key=cmp_to_key(_ccw)
    )
    return [(Fraction(t, norm_value(terms, t, u)), Fraction(u, norm_value(terms, t, u))) for t, u in dirs]


# -- documents ------------------------------------------------------------------


def document_text(doc: dict) -> str:
    """The byte form `save` must produce for a canonical document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def canonical_document(
    name: str,
    boundary,
    gram=None,
    maximal: bool = False,
    terms=None,
    surfaces=(),
    certificate: int | None = None,
) -> dict:
    """A manifold document in the canonical order the loader normalises to.

    ``gram`` is (g_mm, g_ml, g_ll) as Fractions, ``terms`` is a list of
    ((t, u), weight), ``surfaces`` a list of (slope, euler, b, strict, ideal).
    """
    doc: dict = {
        "name": name,
        "boundary_slopes": [slope_text(s) for s in sorted(boundary, key=slope_sort_key)],
    }
    if gram is not None:
        doc["cusp"] = {
            "g_mm": str(gram[0]),
            "g_ml": str(gram[1]),
            "g_ll": str(gram[2]),
            "maximal": maximal,
        }
    if terms is not None:
        doc["culler_shalen"] = {
            "terms": [
                {"slope": slope_text(s), "weight": a}
                for s, a in sorted(terms, key=lambda t: slope_sort_key(t[0]))
            ]
        }
    if surfaces:
        doc["surfaces"] = [
            {
                "slope": slope_text(s),
                "euler": euler,
                "boundary_components": b,
                "strict": strict,
                "ideal_point": ideal,
            }
            for s, euler, b, strict, ideal in surfaces
        ]
    if certificate is not None:
        doc["meridian_norm_certificate"] = certificate
    return doc


def fig8_document() -> dict:
    return canonical_document(
        "figure-eight",
        [(4, 1), (-4, 1)],
        gram=(Fraction(1), Fraction(0), Fraction(12)),
        maximal=True,
        terms=[((4, 1), 2), ((-4, 1), 2)],
    )


def pretzel_document(n: int) -> dict:
    s1, s2 = (16, 1), (2 * n + 6, 1)
    return canonical_document(
        f"pretzel(-2,3,{n})",
        [s1, s2],
        surfaces=[(s1, 6 - n, 1, True, True), (s2, -1, 1, True, True)],
        certificate=3 * n - 9 if n % 3 else None,
    )


def twobridge_document(crossings: int) -> dict:
    chi1 = -((crossings - 1) // 2)
    chi2 = 2 - crossings - chi1
    s1, s2 = (0, 1), (2 * crossings, 1)
    return canonical_document(
        f"two-bridge-C{crossings}",
        [s1, s2],
        surfaces=[(s1, chi1, 1, True, True), (s2, chi2, 1, True, True)],
    )
