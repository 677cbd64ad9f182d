import math
import random
import re
from fractions import Fraction

import pytest

from slopenorm import (
    MERIDIAN,
    Slope,
    distance,
    enumerate_slopes,
)
from slopenorm.slopes import _value_key
from randgen import random_slope, random_slope_pair, value_order


def test_normalize_sign():
    assert Slope(-3, -5) == Slope(3, 5)
    assert Slope(3, -5) == Slope(-3, 5)
    assert Slope(1, 0) == MERIDIAN
    assert Slope(-1, 0) == MERIDIAN


def test_normalize_rejects_non_primitive():
    with pytest.raises(ValueError, match="not primitive"):
        Slope(2, 4)
    with pytest.raises(ValueError, match="not primitive"):
        Slope(2, 0)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError, match="not a slope"):
        Slope(0, 0)


@pytest.mark.parametrize("p, q", [(True, 1), (1, False), (1.0, 0), (3, 2.0)])
def test_components_must_be_integers(p, q):
    with pytest.raises(TypeError, match="slope components must be integers"):
        Slope(p, q)


def test_two_to_one_identification():
    rng = random.Random(11)
    for _ in range(200):
        r = random_slope(rng)
        assert Slope(-r.p, -r.q) == r
        assert Slope(r.p, r.q) == r  # idempotent


def test_distance_examples():
    assert distance(Slope(4, 1), Slope(-4, 1)) == 8
    assert distance(MERIDIAN, Slope(7, 3)) == 3
    assert distance(Slope(16, 1), Slope(20, 1)) == 4


def test_distance_basic_properties():
    rng = random.Random(12)
    for _ in range(200):
        r, s = random_slope_pair(rng)
        assert distance(r, s) == distance(s, r)
        assert distance(r, r) == 0
        assert distance(r, s) > 0
        assert distance(r, MERIDIAN) == r.q


def test_distance_difference_identity():
    # distance equals q*u*|value difference| for finite slopes
    rng = random.Random(13)
    for _ in range(300):
        r, s = random_slope_pair(rng, finite=True)
        assert distance(r, s) == r.q * s.q * abs(r.value() - s.value())


def test_numeric_value():
    assert Slope(4, 1).value() == 4
    assert Slope(-5, 2).value() == Fraction(-5, 2)
    with pytest.raises(ValueError, match="infinite slope"):
        MERIDIAN.value()


def test_parse_and_str():
    assert Slope.parse("4/1") == Slope(4, 1)
    assert Slope.parse("-5/2") == Slope(-5, 2)
    assert Slope.parse("1/0") == MERIDIAN
    assert Slope.parse("7") == Slope(7, 1)
    assert Slope.parse("-3") == Slope(-3, 1)
    assert str(Slope(-4, 1)) == "-4/1"
    assert str(MERIDIAN) == "1/0"
    for text in ("", "a/b", "1.5", "1/-2", "4 / 1"):
        with pytest.raises(ValueError):
            Slope.parse(text)
    # a non-string is rejected as text is, as manifold._parse_rational rejects it
    for value in (5, None, b"1/2"):
        with pytest.raises(ValueError, match=f"^not a slope: {re.escape(repr(value))}$"):
            Slope.parse(value)


def test_text_is_rendered_once_and_not_compared():
    r = Slope(3, -2)
    assert str(r) is str(r) == "-3/2"
    # the kept text is not a field: a slope equals, hashes and prints as a fresh one
    assert r == Slope(-3, 2) and hash(r) == hash(Slope(-3, 2)) and repr(r) == "Slope(p=-3, q=2)"


def test_parse_str_roundtrip():
    rng = random.Random(14)
    for _ in range(100):
        r = random_slope(rng)
        assert Slope.parse(str(r)) == r


def test_sort_key_orders_by_value_meridian_last():
    slopes = [Slope(4, 1), MERIDIAN, Slope(-4, 1), Slope(1, 2)]
    ordered = sorted(slopes, key=_value_key(slopes))
    assert ordered == [Slope(-4, 1), Slope(1, 2), Slope(4, 1), MERIDIAN]


def test_value_key_orders_like_sort_key():
    rng = random.Random(15)
    for _ in range(300):
        slopes = [random_slope(rng, 40, 12) for _ in range(rng.randint(0, 8))]
        assert sorted(slopes, key=_value_key(slopes)) == sorted(slopes, key=value_order)
    assert sorted([MERIDIAN], key=_value_key([MERIDIAN])) == [MERIDIAN]


def test_enumerate_slopes_small():
    got = list(enumerate_slopes(2, 2))
    assert got[0] == MERIDIAN
    assert got.count(MERIDIAN) == 1
    # every canonical slope in range, exactly once
    expected = {MERIDIAN}
    for q in (1, 2):
        for p in range(-2, 3):
            if math.gcd(abs(p), q) == 1:
                expected.add(Slope(p, q))
    assert set(got) == expected
    assert len(got) == len(expected)
    # order: q increases, then p
    finite = got[1:]
    assert finite == sorted(finite, key=lambda s: (s.q, s.p))
