import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slopenorm import (
    EQUALITY,
    FAILS,
    HOLDS,
    MERIDIAN,
    NOT_APPLICABLE,
    BoundarySlopeSet,
    CSNormData,
    CuspLattice,
    ManifoldData,
    Slope,
    SurfaceData,
    VerifyReport,
    cmp_sqrt3,
    corollary_euler,
    distance,
    enumerate_slopes,
    family_ratio_unbounded,
    fig8_dataset,
    integral_extremal_pair,
    pretzel_dataset,
    prop4_hypothesis,
    prop6_condition,
    standard_reports,
    sweep_norm_vs_length,
    verify_cor_ubdiam,
    verify_norm_ge_length,
    verify_prop_length,
    verify_prop_norm,
    verify_thm_diam,
    verify_thm_length_norm,
)
from slopenorm.verify import _ratio
from randgen import random_lattice, random_norm_data, random_slope_pair, value_order

FIG8 = fig8_dataset()


# -- thm1 ---------------------------------------------------------------------

def test_thm1_fig8_slopes():
    rep = verify_norm_ge_length(FIG8, Slope(4, 1))
    assert rep.status == HOLDS
    assert rep.lhs == "2304" and rep.rhs == "112"
    rep = verify_norm_ge_length(FIG8, MERIDIAN)
    assert rep.status == HOLDS
    assert rep.lhs == "144" and rep.rhs == "4"


def test_thm1_needs_data():
    rep = verify_norm_ge_length(pretzel_dataset(7), Slope(16, 1))
    assert rep.status == NOT_APPLICABLE
    assert sweep_norm_vs_length(pretzel_dataset(7), 5).status == NOT_APPLICABLE


# -- thm1 sweeps ----------------------------------------------------------------

def brute_force_sweep(m, limit):
    """Status, count text and witnesses of thm1 over every slope with
    |p|, q <= limit, one slope at a time in sweep order."""
    total = passed = 0
    first_bad = None
    for r in enumerate_slopes(limit, limit):
        total += 1
        n = m.norm.evaluate(r)
        if 9 * n * n >= 4 * m.cusp.squared_length(r):
            passed += 1
        elif first_bad is None:
            first_bad = r
    status = HOLDS if passed == total else FAILS
    witnesses = (str(first_bad),) if first_bad is not None else ()
    return status, f"{passed}/{total} slopes", witnesses


def sweep_fields(m, limit):
    rep = sweep_norm_vs_length(m, limit)
    return rep.status, rep.lhs, rep.witnesses


def thm1_manifold(lattice, norm):
    return ManifoldData(
        name="thm1", boundary_slopes=BoundarySlopeSet(norm.support), cusp=lattice, norm=norm
    )


def stretched(lattice, norm, box=3):
    """The lattice scaled until thm1 fails on a slope with |p|, q <= box."""
    ratio = min(
        Fraction(9 * norm.evaluate(r) ** 2, 4) / lattice.squared_length(r)
        for r in enumerate_slopes(box, box)
    )
    k = math.floor(ratio) + 1
    return CuspLattice(k * lattice.g_mm, k * lattice.g_ml, k * lattice.g_ll)


def test_sweep_matches_brute_force():
    rng = random.Random(46)
    failing = 0
    for i in range(150):
        norm = random_norm_data(rng)
        if i % 5 == 0:
            norm = CSNormData(norm.terms + ((MERIDIAN, 2),))
        lattice = random_lattice(rng)
        if i % 3 == 0:
            lattice = stretched(lattice, norm)
        m = thm1_manifold(lattice, norm)
        limit = 1 + i % 30
        got = sweep_fields(m, limit)
        assert got == brute_force_sweep(m, limit), (lattice, norm.terms, limit)
        failing += got[0] == FAILS
    assert failing >= 40


def test_sweep_range_one():
    assert sweep_fields(FIG8, 1) == (HOLDS, "4/4 slopes", ())
    assert sweep_fields(FIG8, 1) == brute_force_sweep(FIG8, 1)


UNIT_TERMS = CSNormData(((Slope(1, 1), 2), (Slope(-1, 1), 2)))


def test_sweep_meridian_fails_first():
    m = thm1_manifold(CuspLattice(100, 0, 1), UNIT_TERMS)
    assert sweep_fields(m, 3) == (FAILS, "5/16 slopes", ("1/0",))
    assert sweep_fields(m, 3) == brute_force_sweep(m, 3)


def test_sweep_equality_passes():
    m = thm1_manifold(CuspLattice(1, 0, 36), UNIT_TERMS)
    assert verify_norm_ge_length(m, Slope(0, 1)).status == EQUALITY
    assert sweep_fields(m, 3) == (FAILS, "8/16 slopes", ("-1/1",))
    assert sweep_fields(m, 3) == brute_force_sweep(m, 3)


def test_sweep_linear_pieces_of_the_form():
    # with g_mm = 36 the outer pieces of UNIT_TERMS have no p^2 term in F
    for lattice in (CuspLattice(36, 0, 1), CuspLattice(36, 1, 1), CuspLattice(36, -Fraction(1, 2), 3)):
        m = thm1_manifold(lattice, UNIT_TERMS)
        for limit in (3, 10):
            assert sweep_fields(m, limit) == brute_force_sweep(m, limit)


def test_sweep_term_slope_on_piece_boundary():
    # the figure-eight's ratio is least on its term slopes +-4/1; scaling its
    # Gram matrix by 144/7 puts them at equality, by 145/7 just past it
    for limit in (4, 5, 9, 16):
        assert sweep_fields(FIG8, limit) == brute_force_sweep(FIG8, limit)
    tight = thm1_manifold(CuspLattice(Fraction(144, 7), 0, Fraction(1728, 7)), FIG8.norm)
    assert verify_norm_ge_length(tight, Slope(4, 1)).status == EQUALITY
    assert sweep_fields(tight, 9) == (HOLDS, "112/112 slopes", ())
    past = thm1_manifold(CuspLattice(Fraction(145, 7), 0, Fraction(1740, 7)), FIG8.norm)
    assert sweep_fields(past, 9) == (FAILS, "110/112 slopes", ("-4/1",))
    for m in (tight, past):
        for limit in (4, 9, 25):
            assert sweep_fields(m, limit) == brute_force_sweep(m, limit)


def test_sweep_rational_gram():
    lattice = CuspLattice(Fraction(7, 3), Fraction(-5, 4), Fraction(11, 6))
    norm = CSNormData(((Slope(-3, 2), 2), (Slope(1, 5), 4), (MERIDIAN, 2)))
    for m in (thm1_manifold(lattice, norm), thm1_manifold(stretched(lattice, norm), norm)):
        for limit in (1, 7, 20):
            assert sweep_fields(m, limit) == brute_force_sweep(m, limit)


def test_sweep_counts_without_visiting(monkeypatch):
    calls = {"squared_length": 0, "evaluate": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(CuspLattice, "squared_length", counted("squared_length", CuspLattice.squared_length))
    monkeypatch.setattr(CSNormData, "evaluate", counted("evaluate", CSNormData.evaluate))
    limit = 2000
    phi = list(range(limit + 1))
    for k in range(2, limit + 1):
        if phi[k] == k:
            for j in range(k, limit + 1, k):
                phi[j] -= phi[j] // k
    total = 2 + 2 * limit + 2 * (2 * sum(phi[1:]) - 1 - limit)
    assert sweep_fields(FIG8, limit) == (HOLDS, f"{total}/{total} slopes", ())
    assert calls["squared_length"] <= 2 and calls["evaluate"] <= 2


# -- prop4 ---------------------------------------------------------------------

def test_prop4_pretzel7():
    rep = prop4_hypothesis(pretzel_dataset(7))
    assert rep.status == HOLDS
    assert rep.witnesses == ("16/1", "20/1")


def test_prop4_no_surfaces_fails_with_empty_witness():
    rep = prop4_hypothesis(FIG8)
    assert rep.status == FAILS
    assert rep.witnesses == ()


def test_prop4_insufficient_distance_fails():
    s1, s2 = Slope(0, 1), Slope(1, 1)
    m = ManifoldData(
        name="tight",
        boundary_slopes=BoundarySlopeSet((s1, s2)),
        surfaces=(
            SurfaceData(s1, euler=-5, b=1, ideal_point=True),
            SurfaceData(s2, euler=-5, b=1, ideal_point=True),
        ),
    )
    assert prop4_hypothesis(m).status == FAILS  # distance 1 < 10


# -- prop6 ---------------------------------------------------------------------

def test_prop6_boundary_case():
    s1 = SurfaceData(Slope(0, 1), euler=-2, b=1)
    s2 = SurfaceData(Slope(4, 1), euler=-1, b=1)
    rep = prop6_condition(s1, s2)
    assert rep.status == EQUALITY  # 2*(-2) = -4 = -1*1*4


def test_prop6_violation():
    s1 = SurfaceData(Slope(0, 1), euler=-3, b=1)
    s2 = SurfaceData(Slope(4, 1), euler=-1, b=1)
    assert prop6_condition(s1, s2).status == FAILS  # -6 < -4


def test_prop6_pretzel7():
    m = pretzel_dataset(7)
    rep = prop6_condition(m.surfaces[0], m.surfaces[1])
    assert rep.status == HOLDS  # 2*(-1) = -2 > -4
    assert "spanning pair" in rep.detail and "yes" in rep.detail


def test_prop6_same_slope_rejected():
    s = SurfaceData(Slope(0, 1), euler=-1, b=1)
    with pytest.raises(ValueError, match="distinct slopes"):
        prop6_condition(s, s)


# -- prop-length -----------------------------------------------------------------

def test_prop_length_fig8():
    rep = verify_prop_length(FIG8.cusp, Slope(4, 1), Slope(-4, 1))
    assert rep.status == HOLDS
    assert "unit-meridian form" in rep.detail and "holds" in rep.detail


def test_prop_length_square_lattice():
    rep = verify_prop_length(CuspLattice(1, 0, 1), Slope(1, 1), Slope(0, 1))
    assert rep.status == HOLDS  # sqrt2 + 1 > 1


def test_prop_length_degenerate_pair():
    # one slope twice makes the right side 0, so the check would hold vacuously
    with pytest.raises(ValueError, match="needs two distinct slopes"):
        verify_prop_length(FIG8.cusp, Slope(4, 1), Slope(4, 1))


def test_prop_length_meridian_rejected():
    with pytest.raises(ValueError, match="infinite slope"):
        verify_prop_length(FIG8.cusp, MERIDIAN, Slope(0, 1))


def test_prop_length_random_strict():
    rng = random.Random(41)
    for _ in range(200):
        lattice = random_lattice(rng)
        r1, r2 = random_slope_pair(rng, 30, 30, finite=True)
        assert verify_prop_length(lattice, r1, r2).status == HOLDS


# -- prop-norm -------------------------------------------------------------------

def test_prop_norm_fig8_equality_cases():
    rep = verify_prop_norm(FIG8.norm, Slope(5, 1), Slope(-5, 1), FIG8.boundary_slopes)
    assert rep.status == EQUALITY
    assert rep.lhs == "10" and rep.rhs == "10"
    rep = verify_prop_norm(FIG8.norm, Slope(4, 1), Slope(-4, 1), FIG8.boundary_slopes)
    assert rep.status == EQUALITY
    assert rep.lhs == "8" and rep.rhs == "8"
    # against boundary slopes the norm does not fit, a bracketing pair's
    # strict inequality breaks the equality it must meet
    rep = verify_prop_norm(FIG8.norm, Slope(2, 1), Slope(-1, 1), BoundarySlopeSet((Slope(0, 1), Slope(1, 1))))
    assert (rep.status, rep.summary) == (FAILS, "fails: 8 > 3")
    assert rep.detail == "expected equality: the pair brackets every boundary slope"


def test_prop_norm_strict_case():
    rep = verify_prop_norm(FIG8.norm, Slope(1, 1), Slope(0, 1), FIG8.boundary_slopes)
    assert rep.status == HOLDS
    assert rep.lhs == "8" and rep.rhs == "1"


def test_prop_norm_meridian_weight_degrades():
    norm = CSNormData(((MERIDIAN, 2), (Slope(0, 1), 2)))
    bset = BoundarySlopeSet((MERIDIAN, Slope(0, 1)))
    rep = verify_prop_norm(norm, Slope(3, 1), Slope(-3, 1), bset)
    assert rep.status in (HOLDS, EQUALITY)
    assert "not asserted" in rep.detail
    # the meridian term genuinely breaks equality here
    assert rep.status == HOLDS


def test_prop_norm_random():
    rng = random.Random(42)
    for _ in range(200):
        norm = random_norm_data(rng)
        bset = BoundarySlopeSet(norm.support)
        r1, r2 = random_slope_pair(rng, 60, 8, finite=True)
        rep = verify_prop_norm(norm, r1, r2, bset)
        assert rep.ok
        hi = max(s.value() for s in norm.support)
        lo = min(s.value() for s in norm.support)
        if r1.value() >= hi and r2.value() <= lo:
            assert rep.status == EQUALITY


# -- thm2 ------------------------------------------------------------------------

def test_thm2_fig8():
    rep = verify_thm_length_norm(FIG8, Slope(4, 1), Slope(-4, 1))
    assert rep.status == HOLDS
    assert "integral form" in rep.detail
    rep = verify_thm_length_norm(FIG8, Slope(6, 1), Slope(-6, 1))
    assert rep.status == HOLDS


def test_thm2_extremality_precondition():
    rep = verify_thm_length_norm(FIG8, Slope(0, 1), Slope(-4, 1))
    assert rep.status == NOT_APPLICABLE
    assert rep.witnesses == ("4/1",)
    rep = verify_thm_length_norm(FIG8, Slope(4, 1), Slope(0, 1))
    assert rep.status == NOT_APPLICABLE
    assert rep.witnesses == ("-4/1",)


def test_thm2_needs_maximal_cusp():
    bare = ManifoldData(
        name="no-cusp",
        boundary_slopes=FIG8.boundary_slopes,
        norm=FIG8.norm,
    )
    assert verify_thm_length_norm(bare, Slope(4, 1), Slope(-4, 1)).status == NOT_APPLICABLE


def test_thm2_meridian_rejected():
    with pytest.raises(ValueError, match="infinite slope"):
        verify_thm_length_norm(FIG8, MERIDIAN, Slope(0, 1))


# -- thm3 ------------------------------------------------------------------------

def test_thm3_fig8():
    for r in (Slope(4, 1), Slope(-4, 1)):
        rep = verify_thm_diam(FIG8, r)
        assert rep.status == HOLDS
        assert rep.summary == "holds: 8 > 4"


def test_thm3_synthetic():
    norm = CSNormData(((Slope(0, 1), 2), (Slope(2, 1), 2)))
    m = ManifoldData(
        name="synthetic",
        boundary_slopes=BoundarySlopeSet((Slope(0, 1), Slope(2, 1))),
        norm=norm,
    )
    rep = verify_thm_diam(m, Slope(0, 1))
    assert rep.status == HOLDS
    assert rep.lhs == "2" and rep.rhs == "1"


def test_thm3_not_boundary_slope():
    with pytest.raises(ValueError, match="not a boundary slope"):
        verify_thm_diam(FIG8, Slope(1, 2))


def test_thm3_and_cor_ubdiam_need_norm_data():
    m = pretzel_dataset(7)  # two finite boundary slopes, no norm terms
    rep = verify_thm_diam(m, m.boundary_slopes.finite[0])
    assert (rep.status, rep.detail) == (NOT_APPLICABLE, "no norm data")
    rep = verify_cor_ubdiam(m)
    assert (rep.status, rep.detail) == (NOT_APPLICABLE, "needs norm data and two finite boundary slopes")


def test_thm3_random_strict():
    rng = random.Random(44)
    for _ in range(100):
        norm = random_norm_data(rng)
        m = ManifoldData(
            name="r",
            boundary_slopes=BoundarySlopeSet(norm.support),
            norm=norm,
        )
        for r in norm.support:
            assert verify_thm_diam(m, r).status == HOLDS


# -- cor-ubdiam --------------------------------------------------------------------

def test_cor_ubdiam_fig8():
    rep = verify_cor_ubdiam(FIG8)
    assert rep.status == EQUALITY
    assert rep.lhs == "8" and rep.rhs == "8"
    assert "max form: 2 * 4 = 8" in rep.detail


def test_cor_ubdiam_synthetic():
    norm = CSNormData(((Slope(0, 1), 2), (Slope(2, 1), 2)))
    m = ManifoldData(
        name="synthetic",
        boundary_slopes=BoundarySlopeSet((Slope(0, 1), Slope(2, 1))),
        norm=norm,
    )
    rep = verify_cor_ubdiam(m)
    assert rep.status == EQUALITY
    assert rep.lhs == "2" and rep.rhs == "2"


def test_cor_ubdiam_random_upper_bound():
    rng = random.Random(45)
    for _ in range(100):
        norm = random_norm_data(rng)
        m = ManifoldData(
            name="r", boundary_slopes=BoundarySlopeSet(norm.support), norm=norm
        )
        assert verify_cor_ubdiam(m).ok


# -- cor-euler ---------------------------------------------------------------------

def test_cor_euler_pretzel7():
    m = pretzel_dataset(7)
    s1, s2 = m.surfaces
    rep = corollary_euler(s1, s2)
    assert rep.status == HOLDS
    assert rep.lhs == "12" and rep.rhs == "4"
    assert "distance form: 12 vs 4" in rep.detail


def test_cor_euler_large_slack():
    s1 = SurfaceData(Slope(0, 1), euler=-100, b=1)
    s2 = SurfaceData(Slope(4, 1), euler=-1, b=1)
    assert corollary_euler(s1, s2).status == HOLDS


def test_cor_euler_tie_fails():
    # 6 * (1 + 1) = 12 = |12 - 0|: the strict inequality fails on both forms
    s1 = SurfaceData(Slope(0, 1), euler=-1, b=1)
    s2 = SurfaceData(Slope(12, 1), euler=-1, b=1)
    rep = corollary_euler(s1, s2)
    assert (rep.status, rep.lhs, rep.rhs, rep.relation) == (FAILS, "12", "12", "<=")
    assert rep.detail == "distance form: 12 vs 12"


def test_cor_euler_errors():
    s1 = SurfaceData(Slope(0, 1), euler=-1, b=1)
    flat = SurfaceData(Slope(4, 1), euler=0, b=1)
    with pytest.raises(ValueError, match="non-negative Euler characteristic"):
        corollary_euler(s1, flat)


# -- ratio growth -------------------------------------------------------------------

def test_family_ratio_values():
    rep = family_ratio_unbounded([7, 13])
    assert rep.status == HOLDS
    assert rep.witnesses == ("n=7: 2", "n=13: 5")


def test_family_ratio_invalid_n():
    for bad in (9, 5, 8, 15):
        with pytest.raises(ValueError, match="invalid n"):
            family_ratio_unbounded([7, bad])
    with pytest.raises(ValueError, match="no parameters given"):
        family_ratio_unbounded([])


# -- orchestration ------------------------------------------------------------------

def test_integral_extremal_pair_rounds_outward():
    rng = random.Random(47)
    for _ in range(200):
        bset = BoundarySlopeSet(tuple({random_slope_pair(rng, 30, 6)[0] for _ in range(rng.randint(2, 5))}))
        finite = [s.value() for s in bset if not s.is_meridian]
        if finite:
            top, bot = integral_extremal_pair(bset)
            assert (top, bot) == (Slope(math.ceil(max(finite)), 1), Slope(math.floor(min(finite)), 1))



def test_standard_reports_fig8_all_ok():
    reports = standard_reports(FIG8)
    assert reports
    assert all(r.ok for r in reports)
    statements = {r.statement for r in reports}
    assert "thm1(4/1)" in statements
    assert "thm2(4/1, -4/1)" in statements
    assert "thm3(4/1)" in statements
    assert "cor-ubdiam" in statements


def test_standard_reports_pretzel_all_ok():
    reports = standard_reports(pretzel_dataset(7))
    assert reports
    assert all(r.ok for r in reports)
    statements = {r.statement for r in reports}
    assert "prop4" in statements
    assert any(s.startswith("prop6") for s in statements)
    assert any(s.startswith("cor-euler") for s in statements)


def test_report_serialization():
    rep = verify_thm_diam(FIG8, Slope(4, 1))
    d = rep.to_dict()
    assert d["statement"] == "thm3(4/1)"
    assert d["status"] == "holds"
    assert d["lhs"] == "8" and d["rhs"] == "4"
    assert d["witnesses"] == ["4/1"]


# -- integer reports against the Fraction formulas ------------------------------------

@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool))
@example(0, 7)
@example(0, -7)
@example(12, -8)
@example(-5, 1)
@example(5, -1)
@example(-6, -3)
def test_ratio_is_fraction_text(n, d):
    assert _ratio(n, d) == str(Fraction(n, d))


def fraction_classify(lhs, rhs):
    return (HOLDS, ">") if lhs > rhs else (EQUALITY, "=") if lhs == rhs else (FAILS, "<")


def finite_by_value(bset):
    return sorted((s for s in bset if not s.is_meridian), key=lambda s: s.value())


def fraction_thm1(m, r):
    n, len2 = m.norm.evaluate(r), m.cusp.squared_length(r)
    status, rel = fraction_classify(9 * n * n, 4 * len2)
    return VerifyReport(
        f"thm1({r})", status, str(9 * n * n), str(4 * len2), rel, (str(r),),
        f"norm = {n}, squared length = {len2}",
    )


def fraction_thm3(m, r):
    finite = finite_by_value(m.boundary_slopes)
    d = finite[-1].value() - finite[0].value()
    rhs = Fraction(m.norm.evaluate(r), r.q * m.norm.evaluate(MERIDIAN))
    if d > rhs:
        status, rel, detail = HOLDS, ">", ""
        if any(s.is_meridian for s in m.norm.support):
            detail = "meridional weight present"
    elif d == rhs:
        status, rel, detail = FAILS, "=", "bound met with equality; a strict inequality is required"
    else:
        status, rel, detail = FAILS, "<", "diameter below the norm bound"
    return VerifyReport(f"thm3({r})", status, str(d), str(rhs), rel, (str(r),), detail)


def fraction_cor_ubdiam(m):
    finite = finite_by_value(m.boundary_slopes)
    nm = m.norm.evaluate(MERIDIAN)
    top, bot = finite[-1], finite[0]
    bound = Fraction(m.norm.evaluate(top), nm * top.q) + Fraction(m.norm.evaluate(bot), nm * bot.q)
    max_term = max(Fraction(m.norm.evaluate(s), nm * s.q) for s in finite)
    d = top.value() - bot.value()
    status, rel = fraction_classify(bound, d) if 2 * max_term >= d else (FAILS, "<")
    return VerifyReport(
        "cor-ubdiam", status, str(bound), str(d), rel, (str(top), str(bot)),
        f"max form: 2 * {max_term} = {2 * max_term} vs {d}",
    )


def fraction_prop_norm(m, r1, r2):
    nm = m.norm.evaluate(MERIDIAN)
    lhs = Fraction(m.norm.evaluate(r1), r1.q * nm) + Fraction(m.norm.evaluate(r2), r2.q * nm)
    rhs = abs(r1.value() - r2.value())
    status, rel = fraction_classify(lhs, rhs)
    detail = ""
    finite = finite_by_value(m.boundary_slopes)
    if r1.value() >= finite[-1].value() and r2.value() <= finite[0].value():
        if any(s.is_meridian for s in m.norm.support):
            detail = "equality not asserted (meridional weight present)"
        elif status != EQUALITY:
            status, detail = FAILS, "expected equality: the pair brackets every boundary slope"
        else:
            detail = "extremal pair: equality expected and found"
    return VerifyReport(f"prop-norm({r1}, {r2})", status, str(lhs), str(rhs), rel, (str(r1), str(r2)), detail)


def fraction_cor_euler(m, r1, r2):
    s1, s2 = (next(s for s in m.surfaces if s.slope == r) for r in (r1, r2))
    lhs1 = 6 * (Fraction(-s1.euler, s1.b * r1.q) + Fraction(-s2.euler, s2.b * r2.q))
    rhs1 = abs(r1.value() - r2.value())
    lhs2 = 6 * (Fraction(r2.q * -s1.euler, s1.b) + Fraction(r1.q * -s2.euler, s2.b))
    rhs2 = distance(r1, r2)
    ok = lhs1 > rhs1 and lhs2 > rhs2
    return VerifyReport(
        f"cor-euler({r1}, {r2})", HOLDS if ok else FAILS, str(lhs1), str(rhs1), ">" if ok else "<=",
        (str(r1), str(r2)), f"distance form: {lhs2} vs {rhs2}",
    )


def fraction_radicands(m, r1, r2):
    a, b = (m.cusp.squared_length(r) / (r.q * r.q) for r in (r1, r2))
    return a, b, (r1.value() - r2.value()) ** 2


def fraction_prop_length(m, r1, r2):
    a, b, diff2 = fraction_radicands(m, r1, r2)
    c = diff2 * m.cusp.g_mm
    status, rel = fraction_classify(cmp_sqrt3(a, b, c), 0)
    detail = f"decimals: {math.sqrt(a) + math.sqrt(b):.12g} vs {math.sqrt(c):.12g}"
    if m.cusp.maximal:
        detail += f"; unit-meridian form (rhs |r1 - r2|): {'holds' if cmp_sqrt3(a, b, diff2) > 0 else 'fails'}"
    return VerifyReport(
        f"prop-length({r1}, {r2})", status, f"sqrt({a}) + sqrt({b})", f"sqrt({c})", rel, (str(r1), str(r2)), detail,
    )


def fraction_thm2(m, r1, r2):
    # standard_reports checks thm2 only on a pair bracketing every boundary slope
    a, b, c = fraction_radicands(m, r1, r2)
    norm_report = fraction_prop_norm(m, r1, r2)
    meridional = any(s.is_meridian for s in m.norm.support)
    norm_ok = norm_report.status == EQUALITY or (meridional and norm_report.status == HOLDS)
    status = HOLDS if cmp_sqrt3(a, b, c) > 0 and norm_ok else FAILS
    detail = f"length side {math.sqrt(a) + math.sqrt(b):.12g}, norm side {norm_report.lhs} ({norm_report.status})"
    if r1.q == 1 and r2.q == 1:
        n1, n2, nm = m.norm.evaluate(r1), m.norm.evaluate(r2), m.norm.evaluate(MERIDIAN)
        detail += (
            f"; integral form: len({r1}) + len({r2}) > "
            f"(norm {n1} + norm {n2}) / norm(m) {nm} = {Fraction(n1 + n2, nm)}"
        )
    return VerifyReport(
        f"thm2({r1}, {r2})", status, f"sqrt({a}) + sqrt({b})", norm_report.rhs, ">", (str(r1), str(r2)), detail,
    )


FRACTION_FORMULAS = {
    "thm1": fraction_thm1,
    "thm2": fraction_thm2,
    "thm3": fraction_thm3,
    "prop-length": fraction_prop_length,
    "prop-norm": fraction_prop_norm,
    "cor-euler": fraction_cor_euler,
}


def fraction_report(m, statement):
    """The report the Fraction formulas give for a statement, or None when
    the statement is not one of thm1, thm2, thm3, cor-ubdiam, prop-length,
    prop-norm, cor-euler."""
    if statement == "cor-ubdiam":
        return fraction_cor_ubdiam(m)
    name, _, args = statement.partition("(")
    if name not in FRACTION_FORMULAS:
        return None
    return FRACTION_FORMULAS[name](m, *(Slope.parse(a) for a in args.rstrip(")").split(", ")))


def reference_documents(count, seed):
    """Seeded documents with cusp and norm data: every third lattice is
    stretched until thm1 fails, every fourth norm has a meridian term, every
    sixth boundary set lists the meridian, every fifth lattice is maximal,
    every 25th norm has only one finite slope, and even ones carry surfaces."""
    rng = random.Random(seed)
    for i in range(count):
        norm = random_norm_data(rng)
        if i % 25 == 7:
            norm = CSNormData(((MERIDIAN, 2), (norm.support[0], rng.choice((2, 4)))))
        elif i % 4 == 0:
            norm = CSNormData(norm.terms + ((MERIDIAN, rng.choice((2, 4))),))
        lattice = random_lattice(rng)
        if i % 3 == 0:
            lattice = stretched(lattice, norm)
        if i % 5 == 1:
            k = max(1, math.ceil(1 / lattice.systole_squared()[0]))
            lattice = CuspLattice(k * lattice.g_mm, k * lattice.g_ml, k * lattice.g_ll, maximal=True)
        boundary = set(norm.support) | {random_slope_pair(rng, 30, 8, finite=True)[0] for _ in range(i % 3)}
        if i % 6 == 0:
            boundary.add(MERIDIAN)
        surfaces = ()
        if i % 2 == 0:
            slopes = rng.sample(sorted(boundary, key=value_order), min(len(boundary), 2 + i % 3))
            surfaces = tuple(
                SurfaceData(s, -rng.randint(1, 12), rng.randint(1, 3), ideal_point=rng.random() < 0.7)
                for s in slopes
            )
        yield ManifoldData(f"ref-{i}", BoundarySlopeSet(tuple(boundary)), lattice, norm, surfaces)


def test_standard_reports_match_fraction_formulas():
    seen = {}
    for m in reference_documents(200, 62):
        for rep in standard_reports(m):
            want = fraction_report(m, rep.statement)
            if want is not None:
                assert rep == want, m
                kind = (rep.statement.partition("(")[0], rep.status)
                seen[kind] = seen.get(kind, 0) + 1
    for kind in [("thm1", HOLDS), ("thm1", FAILS), ("thm2", HOLDS), ("thm3", HOLDS), ("prop-length", HOLDS),
                 ("cor-ubdiam", EQUALITY),
                 ("cor-ubdiam", HOLDS), ("prop-norm", EQUALITY), ("prop-norm", HOLDS),
                 ("cor-euler", HOLDS), ("cor-euler", FAILS)]:
        assert seen.get(kind, 0) >= 5, (kind, seen)


# -- standard_reports against the public checkers ------------------------------------

PUBLIC_CHECKERS = {
    "thm1": lambda m, r: verify_norm_ge_length(m, r),
    "thm2": lambda m, r1, r2: verify_thm_length_norm(m, r1, r2),
    "thm3": lambda m, r: verify_thm_diam(m, r),
    "prop-norm": lambda m, r1, r2: verify_prop_norm(m.norm, r1, r2, m.boundary_slopes),
    "cor-ubdiam": lambda m: verify_cor_ubdiam(m),
    "prop4": lambda m: prop4_hypothesis(m),
}


def test_standard_reports_match_public_checkers():
    # standard_reports builds these statements from norms it evaluates once;
    # each public checker evaluates its own and must give the same report
    seen = {}
    for m in [FIG8, *reference_documents(150, 64)]:
        for rep in standard_reports(m, sweep_range=3):
            name, _, args = rep.statement.partition("(")
            if name in PUBLIC_CHECKERS:
                slopes = [Slope.parse(a) for a in args.rstrip(")").split(", ")] if args else []
                assert rep == PUBLIC_CHECKERS[name](m, *slopes), m
                seen[name, rep.status] = seen.get((name, rep.status), 0) + 1
    for kind in [("thm1", HOLDS), ("thm1", FAILS), ("thm2", HOLDS), ("thm3", HOLDS), ("cor-ubdiam", EQUALITY),
                 ("cor-ubdiam", HOLDS), ("prop-norm", EQUALITY), ("prop-norm", HOLDS), ("prop4", HOLDS),
                 ("prop4", FAILS)]:
        assert seen.get(kind, 0) >= 3, (kind, seen)


def test_standard_reports_evaluate_each_norm_once(monkeypatch):
    evaluate = CSNormData.evaluate
    calls = []

    def counted(norm, r):
        calls.append(r)
        return evaluate(norm, r)

    monkeypatch.setattr(CSNormData, "evaluate", counted)
    for m in [FIG8, *reference_documents(150, 65)]:
        calls.clear()
        standard_reports(m, sweep_range=3)
        assert len(set(calls)) == len(calls), (m, calls)
        assert set(m.boundary_slopes.finite) <= set(calls)


def test_standard_reports_compute_the_diameter_once(monkeypatch):
    diam_ratio = BoundarySlopeSet._diam_ratio
    calls = []

    def counted(bset):
        calls.append(bset)
        return diam_ratio(bset)

    monkeypatch.setattr(BoundarySlopeSet, "_diam_ratio", counted)
    for m in [FIG8, *reference_documents(150, 65)]:
        calls.clear()
        reports = standard_reports(m, sweep_range=3)
        assert len(calls) <= 1, m
        assert len(calls) == any(r.statement.startswith("thm3(") for r in reports), m
