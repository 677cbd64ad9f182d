"""Executable checks for the inequalities tying slope lengths, the
boundary-slope norm, and the boundary-slope diameter together.

Each checker returns a VerifyReport carrying exact left/right values and a
status; every decision reduces to integer or rational sign tests, or to the
exact square-root comparator, so there is no epsilon anywhere.  Decimal
renderings appear only in detail strings, with 12 significant digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import count_negative
from .cusp import CuspLattice, cmp_sqrt3
from .manifold import ManifoldData, SurfaceData
from .norm import BoundarySlopeSet, CSNormData
from .slopes import MERIDIAN, Slope, distance

__all__ = [
    "HOLDS", "EQUALITY", "FAILS", "NOT_APPLICABLE", "VerifyReport",
    "verify_norm_ge_length", "sweep_norm_vs_length", "prop4_hypothesis",
    "prop6_condition", "verify_prop_length", "verify_prop_norm",
    "verify_thm_length_norm", "verify_thm_diam", "verify_cor_ubdiam", "corollary_euler",
    "family_ratio_unbounded", "standard_reports", "thm1_slopes", "extremal_pair",
    "integral_extremal_pair", "surface_pairs", "cor_euler_applies",
]

HOLDS = "holds"
EQUALITY = "equality"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


def _dec(x) -> str:
    return f"{float(x):.12g}"


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for integers, d != 0, without making the Fraction."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _finite(*slopes: Slope) -> None:
    if any(s.is_meridian for s in slopes):
        raise ValueError("infinite slope")


def _classify(lhs, rhs) -> tuple[str, str]:
    """Status and relation of an inequality lhs >= rhs, with equality noted."""
    if lhs > rhs:
        return HOLDS, ">"
    if lhs == rhs:
        return EQUALITY, "="
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
    stmt = f"thm1({r})"
    if m.cusp is None or m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs both cusp shape and norm data")
    n = m.norm.evaluate(r)
    scale, len2 = m.cusp._scaled[0], m.cusp._qval(r.p, r.q)  # squared length len2/scale
    status, rel = _classify(9 * n * n * scale, 4 * len2)
    return VerifyReport(
        stmt, status, str(9 * n * n), _ratio(4 * len2, scale), rel,
        witnesses=(str(r),),
        detail=f"norm = {n}, squared length = {_ratio(len2, scale)}",
    )


def sweep_norm_vs_length(m: ManifoldData, limit: int) -> VerifyReport:
    """Run the thm1 comparison over every slope with |p|, q <= limit
    (meridian included) and aggregate the outcome.

    The slopes are counted, not visited.  On the lattice's Gram matrix scaled
    by the lcm L of its denominators, thm1 fails at p/q exactly where
    F = 9*L*norm^2 - 4*L*len^2 is negative.  Between consecutive finite term
    slopes the norm is a linear form A*p + B*q, so there F is an integer
    quadratic form, and `count_negative` counts its negative slopes row by
    row.  The witness is the first failure in sweep order: the meridian,
    then increasing q, then increasing p.
    """
    stmt = f"thm1[range {limit}]"
    if m.cusp is None or m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs both cusp shape and norm data")
    scale, a, b, c = m.cusp._scaled
    nine_l = 9 * scale
    pieces = []  # those where F = alpha*p^2 + 2*beta*p*q + gamma*q^2 can be negative
    for lower, upper, big_a, big_b in m.norm.linear_pieces():
        alpha = nine_l * big_a * big_a - 4 * a
        beta = nine_l * big_a * big_b - 4 * b
        gamma = nine_l * big_b * big_b - 4 * c
        if alpha < 0 or gamma < 0 or beta * beta > alpha * gamma:
            pieces.append((lower, upper, alpha, beta, gamma))
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
    stmt = "prop4"
    for s1, s2 in surface_pairs(m):
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


def _length_radicands(lattice: CuspLattice, r1: Slope, r2: Slope) -> tuple[Fraction, Fraction, Fraction]:
    """len^2(r1)/q1^2, len^2(r2)/q2^2 and (r1 - r2)^2 for two finite slopes."""
    _finite(r1, r2)
    a, b = (Fraction(lattice._qval(r.p, r.q), lattice._scaled[0] * r.q * r.q) for r in (r1, r2))
    return a, b, Fraction(distance(r1, r2) ** 2, (r1.q * r2.q) ** 2)


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
    a, b, diff2 = _length_radicands(lattice, r1, r2)
    stmt = f"prop-length({r1}, {r2})"
    c = diff2 * lattice.g_mm
    status, rel = _classify(cmp_sqrt3(a, b, c), 0)
    detail = f"decimals: {_dec(math.sqrt(a) + math.sqrt(b))} vs {_dec(math.sqrt(c))}"
    if lattice.maximal:
        unit_sign = cmp_sqrt3(a, b, diff2)
        detail += f"; unit-meridian form (rhs |r1 - r2|): {'holds' if unit_sign > 0 else 'fails'}"
    return VerifyReport(
        stmt, status, f"sqrt({a}) + sqrt({b})", f"sqrt({c})", rel,
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
    _finite(r1, r2)
    stmt = f"prop-norm({r1}, {r2})"
    nm, q12, d = norm.meridian_norm(), r1.q * r2.q, distance(r1, r2)
    lhs = norm.evaluate(r1) * r2.q + norm.evaluate(r2) * r1.q  # over q12 * nm; |r1 - r2| = d / q12
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
    return VerifyReport(
        stmt, status, _ratio(lhs, q12 * nm), _ratio(d, q12), rel,
        witnesses=(str(r1), str(r2)),
        detail=detail,
    )


def verify_thm_length_norm(m: ManifoldData, r1: Slope, r2: Slope) -> VerifyReport:
    """Check the chain len(r1)/q1 + len(r2)/q2 > |r1 - r2| = norm side,
    for a pair bracketing every boundary slope on a maximal horotorus."""
    _finite(r1, r2)
    stmt = f"thm2({r1}, {r2})"
    if m.cusp is None or not m.cusp.maximal or m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs a maximal cusp shape and norm data")
    gap = _bracketing_gap(m.boundary_slopes, r1, r2)
    if gap:
        return VerifyReport(stmt, NOT_APPLICABLE, witnesses=(str(gap[0]),), detail=gap[1])
    a, b, c = _length_radicands(m.cusp, r1, r2)
    sign = cmp_sqrt3(a, b, c)
    norm_report = verify_prop_norm(m.norm, r1, r2, m.boundary_slopes)
    norm_ok = norm_report.status == EQUALITY or (
        m.norm.has_meridian_term and norm_report.status == HOLDS
    )
    status = HOLDS if sign > 0 and norm_ok else FAILS
    detail = (
        f"length side {_dec(math.sqrt(a) + math.sqrt(b))}, "
        f"norm side {norm_report.lhs} ({norm_report.status})"
    )
    if r1.q == 1 and r2.q == 1:
        n1, n2 = m.norm.evaluate(r1), m.norm.evaluate(r2)
        nm = m.norm.meridian_norm()
        detail += (
            f"; integral form: len({r1}) + len({r2}) > "
            f"(norm {n1} + norm {n2}) / norm(m) {nm} = {_ratio(n1 + n2, nm)}"
        )
    return VerifyReport(
        stmt, status, f"sqrt({a}) + sqrt({b})", norm_report.rhs, ">",
        witnesses=(str(r1), str(r2)),
        detail=detail,
    )


# -- diameter bounds -----------------------------------------------------------


def verify_thm_diam(m: ManifoldData, r: Slope) -> VerifyReport:
    """Check diam > norm(r) / (q * norm(m)) strictly for a boundary slope r.

    The bound can never be met with equality on consistent data, so an exact
    tie is reported as a failure with diagnostics.
    """
    stmt = f"thm3({r})"
    if m.norm is None:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="no norm data")
    _finite(r)
    if r not in m.boundary_slopes:
        raise ValueError("not a boundary slope")
    dn, dd = m.boundary_slopes._diam_ratio()
    rn, rd = m.norm.evaluate(r), r.q * m.norm.meridian_norm()
    status, rel = _classify(dn * rd, rn * dd)
    if status != HOLDS:
        status = FAILS
        detail = "diameter below the norm bound" if rel == "<" else "bound met with equality; a strict inequality is required"
    else:
        detail = "meridional weight present" if m.norm.has_meridian_term else ""
    return VerifyReport(stmt, status, _ratio(dn, dd), _ratio(rn, rd), rel, witnesses=(str(r),), detail=detail)


def verify_cor_ubdiam(m: ManifoldData) -> VerifyReport:
    """Check the two-term upper bound on the diameter from the extremal
    boundary slopes, plus the doubled max-term form."""
    stmt = "cor-ubdiam"
    if m.norm is None or len(m.boundary_slopes.finite) < 2:
        return VerifyReport(stmt, NOT_APPLICABLE, detail="needs norm data and two finite boundary slopes")
    nm, ev = m.norm.meridian_norm(), m.norm.evaluate
    s_top, s_bot = extremal_pair(m.boundary_slopes)
    # the bound is bn/bd, the largest term tn/(nm*td), the diameter dn/dd
    bn, bd = ev(s_top) * s_bot.q + ev(s_bot) * s_top.q, nm * s_top.q * s_bot.q
    tn, td = 0, 1
    for s in m.boundary_slopes.finite:
        if ev(s) * td > tn * s.q:
            tn, td = ev(s), s.q
    dn, dd = m.boundary_slopes._diam_ratio()
    status, rel = _classify(bn * dd, dn * bd) if 2 * tn * dd >= dn * nm * td else (FAILS, "<")
    return VerifyReport(
        stmt, status, _ratio(bn, bd), _ratio(dn, dd), rel,
        witnesses=(str(s_top), str(s_bot)),
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


def family_ratio_unbounded(n_values) -> VerifyReport:
    """Certified lower bounds (3n - 9)/6 on norm(m)/length(m) for the odd
    pretzel parameters n not divisible by 3; the bounds grow without bound."""
    ns = sorted(set(n_values))
    if not ns:
        raise ValueError("no parameters given")
    for n in ns:
        if not isinstance(n, int) or isinstance(n, bool) or n < 7 or n % 2 == 0 or n % 3 == 0:
            raise ValueError(f"invalid n: {n} (need odd n >= 7 with n not divisible by 3)")
    bounds = [Fraction(3 * n - 9, 6) for n in ns]
    increasing = all(x < y for x, y in zip(bounds, bounds[1:]))
    return VerifyReport(
        "ratio-unbounded",
        HOLDS if increasing else FAILS,
        ", ".join(str(b) for b in bounds),
        "strictly increasing",
        "is" if increasing else "is not",
        witnesses=tuple(f"n={n}: {b}" for n, b in zip(ns, bounds)),
    )


# -- default slope and pair choices ----------------------------------------------


def thm1_slopes(m: ManifoldData) -> list[Slope]:
    """The boundary slopes in order, then the meridian unless it is one."""
    checked = list(m.boundary_slopes)
    if MERIDIAN not in m.boundary_slopes:
        checked.append(MERIDIAN)
    return checked


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


def surface_pairs(m: ManifoldData) -> list[tuple[SurfaceData, SurfaceData]]:
    """Surface pairs with distinct slopes, in slope order within and across pairs."""
    surfaces = sorted(m.surfaces, key=lambda s: s.slope.sort_key())
    return [(s1, s2) for s1, s2 in itertools.combinations(surfaces, 2) if s1.slope != s2.slope]


def cor_euler_applies(s1: SurfaceData, s2: SurfaceData) -> bool:
    """Whether corollary_euler applies: finite slopes, negative Euler characteristics."""
    return all(not s.slope.is_meridian and s.euler < 0 for s in (s1, s2))


# -- orchestration --------------------------------------------------------------


def standard_reports(m: ManifoldData, sweep_range: int | None = None) -> list[VerifyReport]:
    """Every applicable check on one manifold, in a deterministic order."""
    reports: list[VerifyReport] = []
    finite = m.boundary_slopes.finite

    if m.cusp is not None and m.norm is not None:
        reports += [verify_norm_ge_length(m, r) for r in thm1_slopes(m)]
        if sweep_range:
            reports.append(sweep_norm_vs_length(m, sweep_range))

    if m.cusp is not None and m.cusp.maximal and m.norm is not None:
        reports.append(verify_thm_length_norm(m, *integral_extremal_pair(m.boundary_slopes)))

    if len(finite) >= 2:
        top, bot = extremal_pair(m.boundary_slopes)
        if m.cusp is not None:
            reports.append(verify_prop_length(m.cusp, top, bot))
        if m.norm is not None:
            reports.append(verify_prop_norm(m.norm, top, bot, m.boundary_slopes))
            reports += [verify_thm_diam(m, r) for r in finite]
            reports.append(verify_cor_ubdiam(m))

    if any(s.ideal_point and s.euler < 0 for s in m.surfaces):
        reports.append(prop4_hypothesis(m))

    for s1, s2 in surface_pairs(m):
        reports.append(prop6_condition(s1, s2))
        if cor_euler_applies(s1, s2):
            reports.append(corollary_euler(s1, s2))

    if m.cusp is not None:
        for s in sorted(m.surfaces, key=lambda s: s.slope.sort_key()):
            if s.euler < 0:
                ok = m.cusp.agol_check(s)
                lhs = _ratio(m.cusp._qval(s.slope.p, s.slope.q) * s.b * s.b, m.cusp._scaled[0])
                reports.append(VerifyReport(
                    f"length-bound({s.slope})", HOLDS if ok else FAILS, lhs, str(36 * s.euler * s.euler),
                    "<=" if ok else ">", witnesses=(str(s.slope),),
                ))
    return reports
