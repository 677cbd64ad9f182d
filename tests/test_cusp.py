import math
import random
from fractions import Fraction

import numpy as np
import pytest

from slopenorm import (
    LONGITUDE,
    MERIDIAN,
    CuspLattice,
    Slope,
    cmp_sqrt3,
    fig8_dataset,
)
from randgen import random_lattice, random_sheared_lattice, random_slope, random_slope_pair

FIG8 = CuspLattice(1, 0, 12)


def brute_force_systole(lattice, box=20):
    best = None
    for q in range(0, box + 1):
        for p in range(-box, box + 1):
            if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
                continue
            s = Slope(p, q)
            val = lattice.squared_length(s)
            key = (val, 0 if s.is_meridian else 1, s.q, abs(s.p), 0 if s.p >= 0 else 1)
            if best is None or key < best[0]:
                best = (key, s)
    return best[0][0], best[1]


def test_squared_length_fig8():
    assert FIG8.squared_length(Slope(4, 1)) == 28
    assert FIG8.squared_length(MERIDIAN) == 1
    assert FIG8.squared_length(LONGITUDE) == 12


def test_area_squared():
    assert FIG8.area_squared() == 12
    assert CuspLattice(1, 0, 1).area_squared() == 1
    assert CuspLattice(2, 1, 2).area_squared() == 3


def test_positive_definite_required():
    with pytest.raises(ValueError, match="positive definite"):
        CuspLattice(1, 2, 1)
    with pytest.raises(ValueError, match="positive definite"):
        CuspLattice(-1, 0, 1)
    with pytest.raises(ValueError, match="positive definite"):
        CuspLattice(1, 0, 0)


def test_maximal_flag_validation():
    CuspLattice(1, 0, 12, maximal=True)  # fig-8 shape is fine
    with pytest.raises(ValueError, match="maximal flag violates length >= 1"):
        CuspLattice(Fraction(1, 4), 0, Fraction(1, 4), maximal=True)


def test_sin_sq_angle():
    assert FIG8.sin_sq_angle(MERIDIAN, LONGITUDE) == 1  # perpendicular pair
    assert FIG8.sin_sq_angle(Slope(4, 1), Slope(4, 1)) == 0
    assert FIG8.sin_sq_angle(Slope(4, 1), MERIDIAN) == Fraction(3, 7)


def test_sin_sq_angle_range():
    rng = random.Random(21)
    for _ in range(200):
        lattice = random_lattice(rng)
        r, s = random_slope_pair(rng, 20, 20)
        v = lattice.sin_sq_angle(r, s)
        assert 0 <= v <= 1


def test_lemma1_identity_fig8():
    assert FIG8.lemma1_identity(MERIDIAN, LONGITUDE)
    assert FIG8.lemma1_identity(Slope(4, 1), Slope(-4, 1))
    # the sin^2 value behind the second case
    assert FIG8.sin_sq_angle(Slope(4, 1), Slope(-4, 1)) == Fraction(48, 49)


def test_lemma1_identity_random():
    rng = random.Random(22)
    for _ in range(400):
        lattice = random_lattice(rng)
        r, s = random_slope_pair(rng)
        assert lattice.lemma1_identity(r, s)


def test_squared_length_positive():
    rng = random.Random(23)
    for _ in range(200):
        lattice = random_lattice(rng)
        r = random_slope(rng, 30, 30)
        assert lattice.squared_length(r) > 0


def test_scaling_property():
    rng = random.Random(24)
    for _ in range(100):
        lattice = random_lattice(rng)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = CuspLattice(c * lattice.g_mm, c * lattice.g_ml, c * lattice.g_ll)
        r, s = random_slope_pair(rng, 20, 20)
        assert scaled.squared_length(r) == c * lattice.squared_length(r)
        assert scaled.sin_sq_angle(r, s) == lattice.sin_sq_angle(r, s)


def fraction_qval(lattice, p, q):
    return p * p * lattice.g_mm + 2 * p * q * lattice.g_ml + q * q * lattice.g_ll


def negative_ml(lattice):
    # the mirror image p -> -p: the same lengths, with g_ml <= 0
    return CuspLattice(lattice.g_mm, -abs(lattice.g_ml), lattice.g_ll)


def has_denominator(lattice):
    return any(g.denominator > 1 for g in (lattice.g_mm, lattice.g_ml, lattice.g_ll))


def test_integer_gram_matches_fraction_formulas():
    rng = random.Random(29)
    with_denominators = 0
    for _ in range(300):
        lattice = negative_ml(random_lattice(rng))
        if lattice.g_ml < 0 and has_denominator(lattice):
            with_denominators += 1
        r, s = random_slope_pair(rng, 30, 30)
        lr, ls = fraction_qval(lattice, r.p, r.q), fraction_qval(lattice, s.p, s.q)
        dot = r.p * s.p * lattice.g_mm + (r.p * s.q + r.q * s.p) * lattice.g_ml + r.q * s.q * lattice.g_ll
        assert type(lattice.squared_length(r)) is Fraction
        assert lattice.squared_length(r) == lr
        assert lattice.sin_sq_angle(r, s) == (lr * ls - dot * dot) / (lr * ls)
    assert with_denominators > 200


def test_systole_with_denominators_matches_brute_force():
    rng = random.Random(30)
    with_denominators = 0
    for _ in range(60):
        lattice = negative_ml(random_sheared_lattice(rng))
        if has_denominator(lattice):
            with_denominators += 1
        systole = lattice.systole_squared()
        assert type(systole[0]) is Fraction
        assert systole == brute_force_systole(lattice)
    assert with_denominators > 30


def test_scaled_gram_is_not_a_field():
    a, b = CuspLattice("1/2", 0, 3), CuspLattice(Fraction(2, 4), 0, 3)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "CuspLattice(g_mm=Fraction(1, 2), g_ml=Fraction(0, 1), g_ll=Fraction(3, 1), maximal=False)"


def test_systole_examples():
    assert FIG8.systole_squared() == (1, MERIDIAN)
    # square lattice: tie between meridian and longitude, meridian wins
    assert CuspLattice(1, 0, 1).systole_squared() == (1, MERIDIAN)
    assert CuspLattice(5, 2, 1).systole_squared() == (1, Slope(0, 1))


def test_systole_kept_from_the_maximal_check():
    maximal = CuspLattice(Fraction(1), 0, "12", maximal=True)
    assert type(maximal.g_ll) is Fraction and maximal.g_mm == 1
    assert "_systole" in vars(maximal) and "_systole" not in vars(CuspLattice(1, 0, 12))
    found = maximal.systole_squared()
    assert found == (1, MERIDIAN) and maximal.systole_squared() is found
    assert maximal == CuspLattice(1, 0, 12, maximal=True)
    assert repr(maximal) == "CuspLattice(g_mm=Fraction(1, 1), g_ml=Fraction(0, 1), g_ll=Fraction(12, 1), maximal=True)"


def test_systole_matches_brute_force():
    rng = random.Random(25)
    for _ in range(60):
        lattice = random_sheared_lattice(rng)
        assert lattice.systole_squared() == brute_force_systole(lattice)


def test_systole_is_lower_bound():
    rng = random.Random(26)
    for _ in range(40):
        lattice = random_lattice(rng)
        sys2, witness = lattice.systole_squared()
        assert lattice.squared_length(witness) == sys2
        for q in range(0, 21):
            for p in range(-20, 21):
                if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
                    assert sys2 <= lattice.squared_length(Slope(p, q))


def test_cmp_sqrt3_examples():
    assert cmp_sqrt3(4, 9, 25) == 0          # 2 + 3 = 5
    assert cmp_sqrt3(2, 2, 8) == 0           # sqrt2 + sqrt2 = 2*sqrt2
    assert cmp_sqrt3(28, 28, 64) == 1        # 2*sqrt28 > 8
    assert cmp_sqrt3(1, 1, 9) == -1
    assert cmp_sqrt3(0, 0, 0) == 0
    assert cmp_sqrt3(0, 4, 1) == 1
    with pytest.raises(ValueError, match="negative input"):
        cmp_sqrt3(-1, 1, 1)


def test_cmp_sqrt3_int_and_fraction_spellings_agree():
    rng = random.Random(29)
    for _ in range(500):
        ints = [rng.randint(0, 10**rng.randint(1, 30)) for _ in range(3)]
        if rng.random() < 0.3:  # a tie: sqrt(a^2) + sqrt(b^2) = sqrt((a+b)^2)
            ints = [ints[0] ** 2, ints[1] ** 2, (ints[0] + ints[1]) ** 2]
        den = rng.randint(1, 50)
        sign = cmp_sqrt3(*ints)
        assert sign == cmp_sqrt3(*(Fraction(x) for x in ints)) == cmp_sqrt3(*(str(x) for x in ints))
        assert sign == cmp_sqrt3(*(Fraction(x, den) for x in ints))
    assert cmp_sqrt3(True, False, 1) == cmp_sqrt3(1, 0, 1) == 0
    for radicands in ((3, -1, 4), (Fraction(3), Fraction(-1), Fraction(4))):
        with pytest.raises(ValueError, match="negative input"):
            cmp_sqrt3(*radicands)


def test_cmp_sqrt3_constructed_ties():
    rng = random.Random(27)
    for _ in range(200):
        a = Fraction(rng.randint(0, 30), rng.randint(1, 6))
        b = Fraction(rng.randint(0, 30), rng.randint(1, 6))
        # sqrt(a^2) + sqrt(b^2) = sqrt((a+b)^2) exactly
        assert cmp_sqrt3(a * a, b * b, (a + b) ** 2) == 0


def test_cmp_sqrt3_against_float128():
    rng = random.Random(28)
    for _ in range(500):
        a = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        b = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        c = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        wide = (
            np.sqrt(np.float128(a.numerator) / np.float128(a.denominator))
            + np.sqrt(np.float128(b.numerator) / np.float128(b.denominator))
            - np.sqrt(np.float128(c.numerator) / np.float128(c.denominator))
        )
        if abs(wide) > 1e-10:
            assert cmp_sqrt3(a, b, c) == (1 if wide > 0 else -1)


def test_sqrt_sum():
    # sqrt(28) + sqrt(28) - sqrt(64), the figure-eight's prop-length margin
    assert cmp_sqrt3(28, 28, 64) == 1
    with pytest.raises(ValueError, match="negative input"):
        cmp_sqrt3(-1, 0, 0)


def test_agol_check():
    fig8 = fig8_dataset()
    surf = type("S", (), {"slope": Slope(4, 1), "euler": -1, "b": 1})()
    assert fig8.cusp.agol_check(surf)
    surf2 = type("S", (), {"slope": Slope(4, 1), "euler": -1, "b": 2})()
    assert not fig8.cusp.agol_check(surf2)
    flat = type("S", (), {"slope": Slope(4, 1), "euler": 0, "b": 1})()
    with pytest.raises(ValueError, match="non-negative Euler characteristic"):
        fig8.cusp.agol_check(flat)
