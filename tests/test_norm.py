import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from slopenorm import (
    MERIDIAN,
    BoundarySlopeSet,
    CSNormData,
    Slope,
    extremal_pair,
)
from randgen import random_norm_data, random_slope

FIG8_NORM = CSNormData(((Slope(4, 1), 2), (Slope(-4, 1), 2)))
DIAMOND = CSNormData(((MERIDIAN, 2), (Slope(0, 1), 2)))


def evaluate_real(norm, x, y) -> Fraction:
    """Norm of the real class x*m + y*l, from the terms in Fractions; the
    oracle the integer methods are checked against."""
    x, y = Fraction(x), Fraction(y)
    return sum((a * abs(x * s.q - y * s.p) for s, a in norm.terms), Fraction(0))


def brute_force_min_norm(norm, box=50):
    best = None
    for q in range(1, box + 1):
        for p in range(-box, box + 1):
            if math.gcd(abs(p), q) != 1:
                continue
            s = Slope(p, q)
            key = (norm.evaluate(s), s.q, abs(s.p), 0 if s.p >= 0 else 1)
            if best is None or key < best[0]:
                best = (key, s)
    return best[0][0], best[1]


def test_construction_validation():
    with pytest.raises(ValueError, match="weight must be positive even"):
        CSNormData(((Slope(4, 1), 3), (Slope(-4, 1), 2)))
    with pytest.raises(ValueError, match="weight must be positive even"):
        CSNormData(((Slope(4, 1), 0), (Slope(-4, 1), 2)))
    with pytest.raises(ValueError, match="weight must be positive even"):
        CSNormData(((Slope(4, 1), -2), (Slope(-4, 1), 2)))
    with pytest.raises(ValueError, match="duplicate slope"):
        CSNormData(((Slope(4, 1), 2), (Slope(-4, -1), 2), (Slope(-4, 1), 2)))
    with pytest.raises(ValueError, match="at least two distinct slopes"):
        CSNormData(((Slope(4, 1), 2),))
    with pytest.raises(TypeError, match="norm term slope must be a Slope"):
        CSNormData((("4/1", 2), (Slope(-4, 1), 2)))


def test_evaluate_fig8():
    assert FIG8_NORM.evaluate(MERIDIAN) == 4
    assert FIG8_NORM.evaluate(Slope(4, 1)) == 16
    assert FIG8_NORM.evaluate(Slope(-4, 1)) == 16
    assert FIG8_NORM.evaluate(Slope(0, 1)) == 16


def test_evaluate_real():
    assert evaluate_real(FIG8_NORM, 1, 0) == 4
    assert evaluate_real(FIG8_NORM, 2, 0) == 8
    assert evaluate_real(FIG8_NORM, Fraction(1, 4), Fraction(1, 16)) == 1


def test_meridian_norm():
    assert FIG8_NORM.meridian_norm() == 4
    assert CSNormData(((Slope(0, 1), 2), (Slope(1, 1), 2))).meridian_norm() == 4


def test_evaluate_parity_and_agreement():
    rng = random.Random(31)
    for _ in range(300):
        norm = random_norm_data(rng)
        r = random_slope(rng, 40, 40)
        val = norm.evaluate(r)
        assert val % 2 == 0
        assert val > 0
        assert evaluate_real(norm, r.p, r.q) == val


def test_norm_axioms_sampled():
    rng = random.Random(32)
    norm = random_norm_data(rng)
    for _ in range(1000):
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        y = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        w = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        z = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert evaluate_real(norm, -x, -y) == evaluate_real(norm, x, y)
        assert evaluate_real(norm, c * x, c * y) == abs(c) * evaluate_real(norm, x, y)
        assert evaluate_real(norm, x + w, y + z) <= evaluate_real(norm, x, y) + evaluate_real(norm, w, z)


def test_unit_ball_fig8_rectangle():
    q = Fraction(1, 4)
    s = Fraction(1, 16)
    assert FIG8_NORM.unit_ball_vertices() == [(q, s), (-q, s), (-q, -s), (q, -s)]


def test_unit_ball_diamond():
    h = Fraction(1, 2)
    assert DIAMOND.unit_ball_vertices() == [(h, 0), (0, h), (-h, 0), (0, -h)]


def test_unit_ball_defining_property():
    rng = random.Random(33)
    for _ in range(50):
        norm = random_norm_data(rng)
        verts = norm.unit_ball_vertices()
        n = len(verts)
        assert n == 2 * len(norm.terms)
        for i, (x, y) in enumerate(verts):
            assert evaluate_real(norm, x, y) == 1
            # edge midpoints sit on the unit sphere, scaled-down vertices inside
            nx, ny = verts[(i + 1) % n]
            assert evaluate_real(norm, (x + nx) / 2, (y + ny) / 2) == 1
            assert evaluate_real(norm, x / 2, y / 2) < 1
        # central symmetry
        assert set(verts) == {(-x, -y) for x, y in verts}


def fraction_unit_ball_vertices(norm):
    # the Fraction formula: each term direction and its antipode over
    # evaluate_real, counterclockwise from the positive x-axis
    dirs = [d for s in norm.support for d in ((s.p, s.q), (-s.p, -s.q))]
    dirs.sort(key=lambda d: math.atan2(d[1], d[0]) % (2 * math.pi))
    return [(Fraction(t) / evaluate_real(norm, t, u), Fraction(u) / evaluate_real(norm, t, u)) for t, u in dirs]


def norms_with_and_without_meridian(rng, count):
    norms = [FIG8_NORM, DIAMOND]
    for i in range(count):
        norm = random_norm_data(rng)
        if i % 3 == 0:
            norm = CSNormData(norm.terms + ((MERIDIAN, rng.choice((2, 4))),))
        norms.append(norm)
    return norms


def test_unit_ball_matches_fraction_formula():
    rng = random.Random(36)
    for norm in norms_with_and_without_meridian(rng, 60):
        verts = norm.unit_ball_vertices()
        assert verts == fraction_unit_ball_vertices(norm)
        assert all(type(x) is Fraction and type(y) is Fraction for x, y in verts)


def ccw_compare(v, w):
    # counterclockwise from the positive x-axis, exactly: the half-plane
    # first (upper, with the positive x-axis), then the sign of the cross product
    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    if half(v) != half(w):
        return -1 if half(v) < half(w) else 1
    cross = v[0] * w[1] - v[1] * w[0]
    return -1 if cross > 0 else 1 if cross < 0 else 0


def test_unit_ball_order_matches_ccw_sort():
    rng = random.Random(39)
    norms = norms_with_and_without_meridian(rng, 60)
    assert sum(norm.has_meridian_term for norm in norms) == 21
    for norm in norms:
        dirs = sorted((d for s in norm.support for d in ((s.p, s.q), (-s.p, -s.q))), key=cmp_to_key(ccw_compare))
        verts = norm.unit_ball_vertices()
        assert len(verts) == len(dirs)
        for (t, u), (x, y) in zip(dirs, verts):
            n = evaluate_real(norm, t, u)
            assert (x, y) == (t / n, u / n)


def test_private_tables_leave_equality_alone():
    a = CSNormData(((Slope(4, 1), 2), (MERIDIAN, 4), (Slope(-4, 1), 2)))
    b = CSNormData(((MERIDIAN, 4), (Slope(-4, 1), 2), (Slope(4, 1), 2)))
    assert a == b and hash(a) == hash(b)
    assert a._terms == ((2, -4, 1), (2, 4, 1), (4, 1, 0)) and a.meridian_norm() == 4
    assert "_terms" not in repr(a) and "_meridian_norm" not in repr(a)
    bset = BoundarySlopeSet((MERIDIAN, Slope(4, 1), Slope(-1, 3)))
    assert bset == BoundarySlopeSet((Slope(-1, 3), Slope(4, 1), MERIDIAN))
    assert bset.finite == (Slope(-1, 3), Slope(4, 1)) and "_finite" not in repr(bset)


def test_min_norm_examples():
    assert FIG8_NORM.min_norm_nontrivial() == (16, Slope(0, 1))
    assert DIAMOND.min_norm_nontrivial() == (2, Slope(0, 1))


@pytest.mark.parametrize(
    "terms, expected, rows",
    [
        # a box around the unit ball holds about k^2 points; the row scan reads one row
        *[
            (((Slope(k * k + 1, k), 2), (Slope(k * k - 1, k), 2), (MERIDIAN, 2)), (6, Slope(k, 1)), 1)
            for k in (300, 10**6)
        ],
        # a flat row away from 0, on either side of it
        (((Slope(3, 1), 2), (Slope(5, 1), 2)), (4, Slope(3, 1)), 1),
        (((Slope(-5, 1), 2), (Slope(-3, 1), 2)), (4, Slope(-3, 1)), 1),
        # a tie across rows goes to the smaller q
        (((Slope(1, 1000), 2), (Slope(1, 999), 2)), (2, Slope(1, 999)), 999),
    ],
)
def test_min_norm_golden(terms, expected, rows, monkeypatch):
    read = set()
    search_key = CSNormData._search_key

    def spy(self, p, q):
        read.add(q)
        return search_key(self, p, q)

    monkeypatch.setattr(CSNormData, "_search_key", spy)
    assert CSNormData(terms).min_norm_nontrivial() == expected
    # the scan stops at the first row whose least reaches the best, which no later row can tie-win
    assert read == set(range(1, rows + 1))


def test_min_norm_bounded_by_all_slopes():
    val, _ = FIG8_NORM.min_norm_nontrivial()
    assert val >= min(FIG8_NORM.evaluate(s) for s in FIG8_NORM.support)


def test_min_norm_matches_brute_force():
    rng = random.Random(34)
    for norm in norms_with_and_without_meridian(rng, 60):
        assert norm.min_norm_nontrivial() == brute_force_min_norm(norm)


def test_linear_pieces_agree_with_evaluate():
    rng = random.Random(48)
    for i in range(100):
        norm = random_norm_data(rng)
        if i % 4 == 0:
            norm = CSNormData(norm.terms + ((MERIDIAN, 2),))
        pieces = norm.linear_pieces()
        finite = tuple(s for s in norm.support if not s.is_meridian)
        assert [(lo, hi) for lo, hi, _, _ in pieces] == list(zip((None,) + finite, finite + (None,)))
        for _ in range(20):
            r = random_slope(rng, 60, 8, finite=True)
            matching = [
                (a, b) for lo, hi, a, b in pieces
                if (lo is None or lo.value() <= r.value()) and (hi is None or r.value() <= hi.value())
            ]
            assert matching and all(a * r.p + b * r.q == norm.evaluate(r) for a, b in matching)


def test_boundary_slope_set_validation():
    with pytest.raises(ValueError, match="duplicate boundary slope"):
        BoundarySlopeSet((Slope(4, 1), Slope(-4, -1)))
    with pytest.raises(ValueError, match="at least one finite"):
        BoundarySlopeSet((MERIDIAN,))


def test_diam():
    assert BoundarySlopeSet((Slope(4, 1), Slope(-4, 1))).diam() == 8
    assert BoundarySlopeSet((Slope(16, 1), Slope(20, 1))).diam() == 4
    with pytest.raises(ValueError, match="diameter undefined"):
        BoundarySlopeSet((Slope(0, 1),)).diam()
    # the meridian is excluded even when present
    assert BoundarySlopeSet((Slope(4, 1), Slope(-4, 1), MERIDIAN)).diam() == 8
    with pytest.raises(ValueError, match="diameter undefined"):
        BoundarySlopeSet((Slope(0, 1), MERIDIAN)).diam()
    rng = random.Random(38)
    for _ in range(100):
        slopes = {random_slope(rng, 30, 6) for _ in range(rng.randint(3, 6))}
        values = [s.value() for s in slopes if not s.is_meridian]
        if len(values) >= 2:
            diam = BoundarySlopeSet(tuple(slopes)).diam()
            assert type(diam) is Fraction and diam == max(values) - min(values)


def test_boundary_slope_set_order_and_lookup():
    bset = BoundarySlopeSet((Slope(4, 1), MERIDIAN, Slope(-4, 1)))
    assert bset.finite == (Slope(-4, 1), Slope(4, 1))
    assert extremal_pair(bset) == (Slope(4, 1), Slope(-4, 1))
    with pytest.raises(ValueError, match="need two finite boundary slopes"):
        extremal_pair(BoundarySlopeSet((Slope(0, 1), MERIDIAN)))
    assert MERIDIAN in bset
    assert Slope(1, 2) not in bset
    assert Slope(-4, -1) in bset and Slope(4, -1) in bset
    for other in ("4/1", (4, 1), None, 4, Fraction(4)):
        assert other not in bset
    assert len(bset) == 3
