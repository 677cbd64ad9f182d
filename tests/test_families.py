import pytest

from slopenorm import (
    HOLDS,
    Slope,
    distance,
    fig8_dataset,
    pretzel_dataset,
    prop4_hypothesis,
    standard_reports,
    twobridge_dataset,
    twobridge_pair,
)


def test_fig8_golden_values():
    m = fig8_dataset()
    assert m.cusp.maximal
    assert m.cusp.squared_length(Slope(4, 1)) == 28
    assert m.norm.meridian_norm() == 4
    assert m.boundary_slopes.diam() == 8


def test_fig8_verifies_cleanly():
    assert all(r.ok for r in standard_reports(fig8_dataset(), sweep_range=15))


def test_pretzel_7():
    m = pretzel_dataset(7)
    assert {str(s) for s in m.boundary_slopes} == {"16/1", "20/1"}
    assert distance(m.surfaces[0].slope, m.surfaces[1].slope) == 4
    assert m.meridian_norm_certificate == 12
    assert m.cusp is None and m.norm is None
    assert prop4_hypothesis(m).status == HOLDS


def test_pretzel_9():
    m = pretzel_dataset(9)
    assert {str(s) for s in m.boundary_slopes} == {"16/1", "24/1"}
    chis = sorted(s.euler for s in m.surfaces)
    assert chis == [-3, -1]
    assert m.meridian_norm_certificate is None  # 9 is divisible by 3


def test_pretzel_invalid_n():
    for bad in (5, 6, 8, 1):
        with pytest.raises(ValueError, match="odd integer >= 7"):
            pretzel_dataset(bad)


def test_pretzel_margin_constant():
    # the distance exceeds the per-surface bound for the big surface by
    # exactly 2, independently of n
    for n in range(7, 100, 2):
        m = pretzel_dataset(n)
        s_big = next(s for s in m.surfaces if s.euler == 6 - n)
        d = distance(m.surfaces[0].slope, m.surfaces[1].slope)
        assert d == 2 * n - 10
        assert d * s_big.b + 2 * s_big.euler == 2
        assert prop4_hypothesis(m).status == HOLDS


def test_twobridge_pair_examples():
    assert twobridge_pair(4, -1, -1).status == HOLDS
    assert twobridge_pair(10, -5, -3).status == HOLDS
    with pytest.raises(ValueError, match="negative"):
        twobridge_pair(3, -1, 0)
    with pytest.raises(ValueError, match="sum to 2 - crossings"):
        twobridge_pair(4, -1, -2)
    with pytest.raises(ValueError, match=">= 3"):
        twobridge_pair(2, -1, -1)


def test_twobridge_sweep_small():
    for crossings in range(4, 31):
        for chi1 in range(3 - crossings, 0):
            chi2 = 2 - crossings - chi1
            assert twobridge_pair(crossings, chi1, chi2).status == HOLDS


def test_twobridge_dataset():
    m = twobridge_dataset(4)
    assert {str(s) for s in m.boundary_slopes} == {"0/1", "8/1"}
    assert sorted(s.euler for s in m.surfaces) == [-1, -1]
    assert prop4_hypothesis(m).status == HOLDS
    with pytest.raises(ValueError, match="negative"):
        twobridge_dataset(3)  # no all-negative split exists


def test_family_builder_validation():
    fig8_dataset()
    pretzel_dataset(7)
    twobridge_dataset(4)
    twobridge_dataset(5, -1)
    assert twobridge_pair(5, -1, -2).status == HOLDS
    with pytest.raises(ValueError, match="odd integer >= 7"):
        pretzel_dataset(6)
    with pytest.raises(ValueError, match="sum to 2 - crossings"):
        twobridge_pair(5, -1, -1)
    with pytest.raises(ValueError, match="negative"):
        twobridge_dataset(3)  # no all-negative split exists


def test_family_builder_build():
    m = twobridge_dataset(6)
    assert m == twobridge_dataset(6, -2)  # the default split is the balanced one
    chi1, chi2 = sorted(s.euler for s in m.surfaces)
    assert twobridge_pair(6, chi1, chi2).status == HOLDS
