"""Executable checks for the inequalities tying slope lengths, the
boundary-slope norm, and the boundary-slope diameter together.

Each checker returns a VerifyReport carrying exact left/right values and a
status; every decision reduces to integer sign tests, or to the exact
square-root comparator on integers, so there is no epsilon anywhere.  Decimal
renderings appear only in detail strings, with 12 significant digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Context, Decimal

from .counting import count_negative
from .cusp import CuspLattice, cmp_sqrt3
from .manifold import ManifoldData, SurfaceData
from .norm import BoundarySlopeSet, CSNormData
from .slopes import MERIDIAN, Slope, _value_key, distance

__all__ = [
    "HOLDS", "EQUALITY", "FAILS", "NOT_APPLICABLE", "VerifyReport",
    "verify_norm_ge_length", "sweep_norm_vs_length", "prop4_hypothesis",
    "prop6_condition", "verify_prop_length", "verify_prop_norm",
    "verify_thm_length_norm", "verify_thm_diam", "verify_cor_ubdiam", "corollary_euler",
    "standard_reports", "extremal_pair", "integral_extremal_pair",
]

HOLDS = "holds"
EQUALITY = "equality"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


def _dec(den: int, *nums: int) -> str:
    # sqrt(n1/den) + sqrt(n2/den) + ... in 12 significant digits, for display;
    # a radicand past the float range is summed in decimal instead
    try:
        return f"{sum(math.sqrt(n / den) for n in nums):.12g}"
    except OverflowError:
        return f"{sum((Decimal(n) / den).sqrt() for n in nums).normalize(Context(prec=12)):g}"


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for integers, d != 0, without making the Fraction."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _finite(*slopes: Slope) -> None:
    if any(s.is_meridian for s in slopes):
        raise ValueError("infinite slope")


def _finite_pair(r1: Slope, r2: Slope) -> None:
    # with r1 == r2 the right side |r1 - r2| is 0, so a pair check would hold vacuously
    _finite(r1, r2)
    if r1 == r2:
        raise ValueError("needs two distinct slopes")


def _classify(lhs, rhs, strict: bool = False) -> tuple[str, str]:
    """Status and relation of an inequality lhs >= rhs, with equality noted,
    or of lhs > rhs when strict, which equality fails."""
    if lhs > rhs:
        return HOLDS, ">"
    if lhs == rhs:
        return FAILS if strict else EQUALITY, "="
    return FAILS, "<"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one check: exact values, a status, and any witnesses."""

    statement: str
    status: str
    lhs: str = ""
    rhs: str = ""
    relation: str = ""
    witnesses: tuple[str, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAILS

    @property
    def summary(self) -> str:
        if self.relation and self.rhs:
            return f"{self.status}: {self.lhs} {self.relation} {self.rhs}"
        if self.lhs:
            return f"{self.status}: {self.lhs}"
        return self.status

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "witnesses": list(self.witnesses),
            "detail": self.detail,
        }


# -- norm against length -----------------------------------------------------


def verify_norm_ge_length(m: ManifoldData, r: Slope) -> VerifyReport:
    """Check norm(r) >= (2/3) * length(r), exactly: 9*norm^2 >= 4*len^2."""
    if m.cusp is None or m.norm is None:
        return VerifyReport(f"thm1({r})", NOT_APPLICABLE, detail="needs both cusp shape and norm data")
    return _thm1(m, r, m.norm.evaluate(r))


def _thm1(m: ManifoldData, r: Slope, n: int) -> VerifyReport:
    # the thm1 report where verify_norm_ge_length applies, given the norm n of r
    scale, len2 = m.cusp._scaled[0], m.cusp._qval(r.p, r.q)  # squared length len2/scale
    status, rel = _classify(9 * n * n * scale, 4 * len2)
    return VerifyReport(
        f"thm1({r})", status, str(9 * n * n), _ratio(4 * len2, scale), rel,
        witnesses=(str(r),), detail=f"norm = {n}, squared length = {_ratio(len2, scale)}",
    )


def sweep_norm_vs_length(m: ManifoldData, limit: int) -> VerifyReport:
    """Run the thm1 comparison over every slope with |p|, q <= limit
    (meridian included) and aggregate the outcome.

    The slopes are counted, not visited.  On the lattice's Gram matrix scaled
    by the lcm L of its denominators, thm1 fails at p/q exactly where
    F = 9*L*norm^2 - 4*L*len^2 is negative.  Between consecutive finite term
    slopes the norm is a linear form A*p + B*q, so there F is an integer
    quadratic form, and `count_negative` counts its negative slopes row by
    row, factoring q only on a row where some piece is negative; the count
    of all slopes is a closed form.  The witness is the first failure in
    sweep order: the meridian, then increasing q, then increasing p.
    """
    stmt = f"thm1[range {limit}]"
    if m.cusp is None or m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs both cusp shape and norm data")
    scale, a, b, c = m.cusp._scaled
    nine_l = 9 * scale
    pieces = [  # F = alpha*p^2 + 2*beta*p*q + gamma*q^2 per piece
        (lower, upper, nine_l * big_a * big_a - 4 * a, nine_l * big_a * big_b - 4 * b, nine_l * big_b * big_b - 4 * c)
        for lower, upper, big_a, big_b in m.norm.linear_pieces()
    ]
    failed, total, first = count_negative(pieces, limit)
    witness = Slope(*first) if first else None
    if nine_l * m.norm.meridian_norm() ** 2 < 4 * a:
        failed, witness = failed + 1, MERIDIAN
    status = HOLDS if failed == 0 else FAILS
    witnesses = (str(witness),) if witness else ()
    return VerifyReport(stmt, status, f"{total + 1 - failed}/{total + 1} slopes", witnesses=witnesses)


# -- surface-pair hypotheses ---------------------------------------------------


def prop4_hypothesis(m: ManifoldData) -> VerifyReport:
    """Search for two ideal-point surfaces with distinct slopes satisfying
    distance(s1, s2) >= 2*(-euler_i)/b_i for both; first such pair wins."""
    return _prop4(_distinct_pairs(_surfaces_by_slope(m)))


def _prop4(pairs: list[tuple[SurfaceData, SurfaceData]]) -> VerifyReport:
    # the prop4 report on the surface pairs with distinct slopes, in slope order
    stmt = "prop4"
    for s1, s2 in pairs:
        if not all(s.ideal_point and s.euler < 0 for s in (s1, s2)):
            continue
        d = distance(s1.slope, s2.slope)
        if all(d * s.b + 2 * s.euler >= 0 for s in (s1, s2)):
            bound1, bound2 = (_ratio(-2 * s.euler, s.b) for s in (s1, s2))
            return VerifyReport(
                stmt, HOLDS, str(d), bound1 if s1.euler * s2.b <= s2.euler * s1.b else bound2, ">=",
                witnesses=(str(s1.slope), str(s2.slope)),
                detail=f"distance {d} against 2*(-euler)/b = {bound1} and {bound2}",
            )
    return VerifyReport(stmt, FAILS, detail="no ideal-point surface pair satisfies the distance bound")


def prop6_condition(s1: SurfaceData, s2: SurfaceData) -> VerifyReport:
    """Check 2*euler_i >= -b1*b2*distance(s1, s2) for both surfaces."""
    if s1.slope == s2.slope:
        raise ValueError("surfaces must have distinct slopes")
    stmt = f"prop6({s1.slope}, {s2.slope})"
    d = distance(s1.slope, s2.slope)
    rhs = -s1.b * s2.b * d
    lhs = min(2 * s1.euler, 2 * s2.euler)
    status, rel = _classify(lhs, rhs)
    detail = f"2*euler values {2 * s1.euler}, {2 * s2.euler}"
    if s1.b == 1 and s2.b == 1:
        pair_ok = all(d + 2 * s.euler >= 0 for s in (s1, s2))
        detail += f"; spanning pair, distance bound for the pair hypothesis: {'yes' if pair_ok else 'no'}"
    return VerifyReport(
        stmt, status, str(lhs), str(rhs), rel,
        witnesses=(str(s1.slope), str(s2.slope)),
        detail=detail,
    )


# -- triangle-type bounds on numerical slopes ---------------------------------


def _length_radicands(lattice: CuspLattice, r1: Slope, r2: Slope) -> tuple[int, int, int, int]:
    """len^2(r1)/q1^2, len^2(r2)/q2^2 and (r1 - r2)^2 for two finite slopes,
    as integer numerators over one denominator L*q1^2*q2^2 (L the lattice's
    scale), and that denominator."""
    scale, q1, q2 = lattice._scaled[0], r1.q * r1.q, r2.q * r2.q
    a, b = lattice._qval(r1.p, r1.q) * q2, lattice._qval(r2.p, r2.q) * q1
    return a, b, distance(r1, r2) ** 2 * scale, scale * q1 * q2


def _bracketing_gap(slopes: BoundarySlopeSet, r1: Slope, r2: Slope) -> tuple[Slope, str] | None:
    """None when r1 is at or above every finite boundary slope and r2 at or
    below; otherwise the first extremal slope out of place and why."""
    top, bot = slopes.finite[-1], slopes.finite[0]
    if r1.p * top.q < top.p * r1.q:
        return top, f"{r1} is below the maximal boundary slope {top}"
    if r2.p * bot.q > bot.p * r2.q:
        return bot, f"{r2} is above the minimal boundary slope {bot}"
    return None


def verify_prop_length(lattice: CuspLattice, r1: Slope, r2: Slope) -> VerifyReport:
    """Check len(r1)/q1 + len(r2)/q2 > |r1 - r2| * len(meridian), exactly.

    The three radicands go through the exact square-root comparator.  When
    the lattice is flagged maximal, the weaker unit-meridian form with right
    side |r1 - r2| is reported as well.
    """
    _finite_pair(r1, r2)
    a, b, diff2, den = _length_radicands(lattice, r1, r2)
    stmt = f"prop-length({r1}, {r2})"
    c = distance(r1, r2) ** 2 * lattice._scaled[1]  # (r1 - r2)^2 * g_mm over den
    status, rel = _classify(cmp_sqrt3(a, b, c), 0, strict=True)
    detail = f"decimals: {_dec(den, a, b)} vs {_dec(den, c)}"
    if lattice.maximal:
        detail += f"; unit-meridian form (rhs |r1 - r2|): {_classify(cmp_sqrt3(a, b, diff2), 0, strict=True)[0]}"
    return VerifyReport(
        stmt, status, f"sqrt({_ratio(a, den)}) + sqrt({_ratio(b, den)})", f"sqrt({_ratio(c, den)})", rel,
        witnesses=(str(r1), str(r2)),
        detail=detail,
    )


def verify_prop_norm(
    norm: CSNormData, r1: Slope, r2: Slope, slopes: BoundarySlopeSet
) -> VerifyReport:
    """Check norm(r1)/(q1*norm(m)) + norm(r2)/(q2*norm(m)) >= |r1 - r2|.

    When r1 sits at or above every boundary slope and r2 at or below, and no
    meridional weight is present, equality is forced; anything else there is
    reported as a failure of the data.
    """
    _finite_pair(r1, r2)
    return _prop_norm(norm, r1, r2, norm.evaluate(r1), norm.evaluate(r2), slopes)


def _prop_norm(norm: CSNormData, r1: Slope, r2: Slope, n1: int, n2: int, slopes: BoundarySlopeSet) -> VerifyReport:
    # the prop-norm report for a pair that passed verify_prop_norm's check, given its norms
    stmt = f"prop-norm({r1}, {r2})"
    nm, q12, d = norm.meridian_norm(), r1.q * r2.q, distance(r1, r2)
    lhs = n1 * r2.q + n2 * r1.q  # over q12 * nm; |r1 - r2| = d / q12
    status, rel = _classify(lhs, d * nm)
    detail = ""
    if _bracketing_gap(slopes, r1, r2) is None:
        if norm.has_meridian_term:
            detail = "equality not asserted (meridional weight present)"
        elif status != EQUALITY:
            status = FAILS
            detail = "expected equality: the pair brackets every boundary slope"
        else:
            detail = "extremal pair: equality expected and found"
    return VerifyReport(stmt, status, _ratio(lhs, q12 * nm), _ratio(d, q12), rel, witnesses=(str(r1), str(r2)), detail=detail)


def verify_thm_length_norm(m: ManifoldData, r1: Slope, r2: Slope) -> VerifyReport:
    """Check the chain len(r1)/q1 + len(r2)/q2 > |r1 - r2| = norm side,
    for a pair bracketing every boundary slope on a maximal horotorus."""
    _finite_pair(r1, r2)
    stmt = f"thm2({r1}, {r2})"
    if m.cusp is None or not m.cusp.maximal or m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs a maximal cusp shape and norm data")
    gap = _bracketing_gap(m.boundary_slopes, r1, r2)
    if gap:
        return VerifyReport(stmt, NOT_APPLICABLE, witnesses=(str(gap[0]),), detail=gap[1])
    return _thm2(m, r1, r2, m.norm.evaluate(r1), m.norm.evaluate(r2))


def _thm2(m: ManifoldData, r1: Slope, r2: Slope, n1: int, n2: int) -> VerifyReport:
    # the thm2 report for a finite pair that passed verify_thm_length_norm's checks, given its norms
    a, b, c, den = _length_radicands(m.cusp, r1, r2)
    sign = cmp_sqrt3(a, b, c)
    norm_report = _prop_norm(m.norm, r1, r2, n1, n2, m.boundary_slopes)
    norm_ok = norm_report.status == EQUALITY or (m.norm.has_meridian_term and norm_report.status == HOLDS)
    status = HOLDS if sign > 0 and norm_ok else FAILS
    detail = f"length side {_dec(den, a, b)}, norm side {norm_report.lhs} ({norm_report.status})"
    if r1.q == 1 and r2.q == 1:
        nm = m.norm.meridian_norm()
        detail += f"; integral form: len({r1}) + len({r2}) > (norm {n1} + norm {n2}) / norm(m) {nm} = {_ratio(n1 + n2, nm)}"
    return VerifyReport(
        f"thm2({r1}, {r2})", status, f"sqrt({_ratio(a, den)}) + sqrt({_ratio(b, den)})", norm_report.rhs, ">",
        witnesses=(str(r1), str(r2)), detail=detail,
    )


# -- diameter bounds -----------------------------------------------------------


def verify_thm_diam(m: ManifoldData, r: Slope) -> VerifyReport:
    """Check diam > norm(r) / (q * norm(m)) strictly for a boundary slope r.

    The bound can never be met with equality on consistent data, so an exact
    tie is reported as a failure with diagnostics.  An r that is infinite or
    not a boundary slope raises ValueError whatever data m holds.
    """
    stmt = f"thm3({r})"
    _finite(r)
    if r not in m.boundary_slopes:
        raise ValueError("not a boundary slope")
    if m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="no norm data")
    if len(m.boundary_slopes.finite) < 2:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs two finite boundary slopes")
    return _thm3(m, r, m.norm.evaluate(r), m.boundary_slopes._diam_ratio())


def _thm3(m: ManifoldData, r: Slope, rn: int, diam: tuple[int, int]) -> VerifyReport:
    # the thm3 report for a slope that passed verify_thm_diam's checks, given
    # its norm rn and the diameter as _diam_ratio gives it
    dn, dd = diam
    rd = r.q * m.norm.meridian_norm()
    status, rel = _classify(dn * rd, rn * dd, strict=True)
    if status != HOLDS:
        detail = "diameter below the norm bound" if rel == "<" else "bound met with equality; a strict inequality is required"
    else:
        detail = "meridional weight present" if m.norm.has_meridian_term else ""
    return VerifyReport(f"thm3({r})", status, _ratio(dn, dd), _ratio(rn, rd), rel, witnesses=(str(r),), detail=detail)


def verify_cor_ubdiam(m: ManifoldData) -> VerifyReport:
    """Check the two-term upper bound on the diameter from the extremal
    boundary slopes, plus the doubled max-term form."""
    if m.norm is None or len(m.boundary_slopes.finite) < 2:
        return VerifyReport("cor-ubdiam", NOT_APPLICABLE, detail="needs norm data and two finite boundary slopes")
    return _cor_ubdiam(m, [m.norm.evaluate(s) for s in m.boundary_slopes.finite], m.boundary_slopes._diam_ratio())


def _cor_ubdiam(m: ManifoldData, norms: list[int], diam: tuple[int, int]) -> VerifyReport:
    # the cor-ubdiam report where verify_cor_ubdiam applies, given the norms
    # of the finite boundary slopes and the diameter as _diam_ratio gives it
    nm = m.norm.meridian_norm()
    s_top, s_bot = extremal_pair(m.boundary_slopes)
    # the bound is bn/bd, the largest term tn/(nm*td), the diameter dn/dd
    bn, bd = norms[-1] * s_bot.q + norms[0] * s_top.q, nm * s_top.q * s_bot.q
    tn, td = 0, 1
    for s, n in zip(m.boundary_slopes.finite, norms):
        if n * td > tn * s.q:
            tn, td = n, s.q
    dn, dd = diam
    status, rel = _classify(bn * dd, dn * bd) if 2 * tn * dd >= dn * nm * td else (FAILS, "<")
    return VerifyReport(
        "cor-ubdiam", status, _ratio(bn, bd), _ratio(dn, dd), rel, witnesses=(str(s_top), str(s_bot)),
        detail=f"max form: 2 * {_ratio(tn, nm * td)} = {_ratio(2 * tn, nm * td)} vs {_ratio(dn, dd)}",
    )


def corollary_euler(s1: SurfaceData, s2: SurfaceData) -> VerifyReport:
    """Check 6*((-e1)/(b1*q1) + (-e2)/(b2*q2)) > |r1 - r2| and its
    distance-form twin, both exactly in rationals, where r_i is s_i's slope."""
    r1, r2 = s1.slope, s2.slope
    _finite(r1, r2)
    if s1.euler >= 0 or s2.euler >= 0:
        raise ValueError("non-negative Euler characteristic")
    stmt = f"cor-euler({r1}, {r2})"
    # the left sides are n/(b1*b2*q1*q2) and n/(b1*b2), the right d/(q1*q2) and d
    n, bb, d = 6 * (-s1.euler * s2.b * r2.q - s2.euler * s1.b * r1.q), s1.b * s2.b, distance(r1, r2)
    ok = n > bb * d
    return VerifyReport(
        stmt, HOLDS if ok else FAILS, _ratio(n, bb * r1.q * r2.q), _ratio(d, r1.q * r2.q), ">" if ok else "<=",
        witnesses=(str(r1), str(r2)),
        detail=f"distance form: {_ratio(n, bb)} vs {d}",
    )


# -- default slope and pair choices ----------------------------------------------


def extremal_pair(slopes: BoundarySlopeSet) -> tuple[Slope, Slope]:
    """The greatest and least finite boundary slopes."""
    finite = slopes.finite
    if len(finite) < 2:
        raise ValueError("need two finite boundary slopes")
    return finite[-1], finite[0]


def integral_extremal_pair(slopes: BoundarySlopeSet) -> tuple[Slope, Slope]:
    """Integral slopes bracketing every boundary slope: the ceiling of the
    greatest finite one and the floor of the least."""
    top, bot = slopes.finite[-1], slopes.finite[0]
    return Slope(-(-top.p // top.q), 1), Slope(bot.p // bot.q, 1)


def _surfaces_by_slope(m: ManifoldData) -> list[SurfaceData]:
    key = _value_key([s.slope for s in m.surfaces])
    return sorted(m.surfaces, key=lambda s: key(s.slope))


def _distinct_pairs(surfaces: list[SurfaceData]) -> list[tuple[SurfaceData, SurfaceData]]:
    # the pairs with distinct slopes, in the order of surfaces within and across pairs
    return [(s1, s2) for s1, s2 in itertools.combinations(surfaces, 2) if s1.slope != s2.slope]


# -- orchestration --------------------------------------------------------------


def standard_reports(m: ManifoldData, sweep_range: int | None = None) -> list[VerifyReport]:
    """Every applicable check on one manifold, in a deterministic order.

    The CLI's `verify STMT` prints the reports whose statement, up to `(`, is STMT.
    Each finite boundary slope's norm is evaluated once, the diameter is
    computed once, and the surfaces are sorted once.
    """
    reports: list[VerifyReport] = []
    finite = m.boundary_slopes.finite
    norms = [m.norm.evaluate(r) for r in finite] if m.norm is not None else []

    if m.cusp is not None and m.norm is not None:
        reports += [_thm1(m, r, n) for r, n in zip(finite, norms)]
        reports.append(_thm1(m, MERIDIAN, m.norm.meridian_norm()))  # the meridian sorts last
        if sweep_range:
            reports.append(sweep_norm_vs_length(m, sweep_range))

    if m.cusp is not None and m.cusp.maximal and m.norm is not None:
        top, bot = integral_extremal_pair(m.boundary_slopes)
        if top != bot:  # one integral finite slope rounds to itself both ways
            n_top = norms[-1] if top == finite[-1] else m.norm.evaluate(top)
            n_bot = norms[0] if bot == finite[0] else m.norm.evaluate(bot)
            reports.append(_thm2(m, top, bot, n_top, n_bot))

    if len(finite) >= 2:
        top, bot = extremal_pair(m.boundary_slopes)
        if m.cusp is not None:
            reports.append(verify_prop_length(m.cusp, top, bot))
        if m.norm is not None:
            reports.append(_prop_norm(m.norm, top, bot, norms[-1], norms[0], m.boundary_slopes))
            diam = m.boundary_slopes._diam_ratio()
            reports += [_thm3(m, r, n, diam) for r, n in zip(finite, norms)]
            reports.append(_cor_ubdiam(m, norms, diam))

    surfaces = _surfaces_by_slope(m)
    pairs = _distinct_pairs(surfaces)
    if any(s.ideal_point and s.euler < 0 for s in surfaces):
        reports.append(_prop4(pairs))

    for s1, s2 in pairs:
        reports.append(prop6_condition(s1, s2))
        if all(not s.slope.is_meridian and s.euler < 0 for s in (s1, s2)):
            reports.append(corollary_euler(s1, s2))

    if m.cusp is not None:
        for s in surfaces:
            if s.euler < 0:
                ok = m.cusp.agol_check(s)
                lhs = _ratio(m.cusp._qval(s.slope.p, s.slope.q) * s.b * s.b, m.cusp._scaled[0])
                reports.append(VerifyReport(
                    f"length-bound({s.slope})", HOLDS if ok else FAILS, lhs, str(36 * s.euler * s.euler),
                    "<=" if ok else ">", witnesses=(str(s.slope),),
                ))
    return reports
