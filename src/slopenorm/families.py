"""Built-in datasets: the figure-eight knot exterior and two knot families
described by crossing data.

The figure-eight data is complete (cusp shape, norm terms, boundary slopes).
The pretzel family carries its two known boundary surfaces and, when the
parameter allows, a certified meridian-norm value; no full set of norm
weights is known, so none is fabricated.  Two-bridge knots appear abstractly
through the crossing-number identities of their checkerboard surfaces.
"""

from __future__ import annotations

from .cusp import CuspLattice
from .manifold import ManifoldData, SurfaceData
from .norm import BoundarySlopeSet, CSNormData
from .slopes import Slope
from .verify import HOLDS, FAILS, VerifyReport, _ratio

__all__ = [
    "fig8_dataset",
    "pretzel_dataset",
    "family_ratio_unbounded",
    "twobridge_pair",
    "twobridge_dataset",
]

def fig8_dataset() -> ManifoldData:
    """The figure-eight knot exterior with its maximal cusp shape.

    Meridian and longitude translations are perpendicular with squared
    lengths 1 and 12; the norm weights both extremal boundary slopes 4/1
    and -4/1 by 2.
    """
    s_pos, s_neg = Slope(4, 1), Slope(-4, 1)
    return ManifoldData(
        name="figure-eight",
        boundary_slopes=BoundarySlopeSet((s_pos, s_neg)),
        cusp=CuspLattice(1, 0, 12, maximal=True),
        norm=CSNormData(((s_pos, 2), (s_neg, 2))),
    )


def _twobridge_split(crossings, chi1=None, chi2=None) -> tuple[int, int]:
    """Check two-bridge parameters and return the Euler split (chi1, chi2).

    chi1 defaults to the most balanced split and chi2 to 2 - crossings - chi1.
    """
    if not isinstance(crossings, int) or isinstance(crossings, bool) or crossings < 3:
        raise ValueError("crossing number must be an integer >= 3")
    if chi1 is None:
        chi1 = -((crossings - 1) // 2)
    if chi2 is None:
        chi2 = 2 - crossings - chi1
    if chi1 >= 0 or chi2 >= 0:
        raise ValueError("Euler characteristics must be negative")
    if chi1 + chi2 != 2 - crossings:
        raise ValueError("Euler characteristics must sum to 2 - crossings")
    return chi1, chi2


def pretzel_dataset(n: int) -> ManifoldData:
    """The (-2, 3, n)-pretzel knot exterior for odd n >= 7.

    Two ideal-point surfaces are recorded: boundary slope 16 with Euler
    characteristic 6 - n, and boundary slope 2n + 6 with Euler
    characteristic -1, both with connected boundary.  For n not divisible
    by 3 the certified meridian-norm value 3n - 9 is attached; the full
    weight data is not known, so no norm terms are stored.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 7 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 7")
    s1, s2 = Slope(16, 1), Slope(2 * n + 6, 1)
    surfaces = (
        SurfaceData(slope=s1, euler=6 - n, b=1, strict=True, ideal_point=True),
        SurfaceData(slope=s2, euler=-1, b=1, strict=True, ideal_point=True),
    )
    return ManifoldData(
        name=f"pretzel(-2,3,{n})",
        boundary_slopes=BoundarySlopeSet((s1, s2)),
        surfaces=surfaces,
        meridian_norm_certificate=3 * n - 9 if n % 3 != 0 else None,
    )


def family_ratio_unbounded(n_values) -> VerifyReport:
    """Lower bounds certificate/6 on norm(m)/length(m) for the pretzel knots
    whose documents carry a meridian-norm certificate, and whether they grow:
    the meridian is at most 6 long on the maximal horotorus (6-theorem)."""
    ns = sorted(set(n_values))
    if not ns:
        raise ValueError("no parameters given")
    certificates = []
    for n in ns:
        try:
            certificate = pretzel_dataset(n).meridian_norm_certificate
        except ValueError:
            certificate = None
        if certificate is None:
            raise ValueError(f"invalid n: {n} (need odd n >= 7 with n not divisible by 3)")
        certificates.append(certificate)
    increasing = all(x < y for x, y in zip(certificates, certificates[1:]))
    bounds = [_ratio(c, 6) for c in certificates]
    return VerifyReport(
        "ratio-unbounded",
        HOLDS if increasing else FAILS,
        ", ".join(bounds),
        "strictly increasing",
        "is" if increasing else "is not",
        witnesses=tuple(f"n={n}: {b}" for n, b in zip(ns, bounds)),
    )


def twobridge_pair(crossings: int, chi1: int, chi2: int) -> VerifyReport:
    """Distance bound for the checkerboard pair of a two-bridge diagram.

    The two checkerboard surfaces of a reduced alternating diagram with C
    crossings are spanning (one boundary component each), sit at slope
    distance 2C, and split Euler characteristic as chi1 + chi2 = 2 - C.
    Verifies 2C >= 2((-chi1) + (-chi2)) = 2C - 4 >= 2*(-chi_i) for each i.
    """
    _twobridge_split(crossings, chi1, chi2)
    d = 2 * crossings
    mid = 2 * ((-chi1) + (-chi2))
    per = (2 * (-chi1), 2 * (-chi2))
    ok = d >= mid and all(mid >= x for x in per) and all(d >= x for x in per)
    return VerifyReport(
        f"two-bridge(C={crossings}, chi=({chi1},{chi2}))",
        HOLDS if ok else FAILS,
        str(d),
        str(max(per)),
        ">=" if ok else "<",
        witnesses=(f"chi1={chi1}", f"chi2={chi2}"),
        detail=f"2C = {d} >= 2C - 4 = {mid} >= per-surface bounds {per}",
    )


def twobridge_dataset(crossings: int, chi1: int | None = None) -> ManifoldData:
    """Representative dataset for a two-bridge checkerboard pair.

    Only the slope distance 2C is family data; the two slopes are placed at
    0 and 2C in a convenient framing.  The Euler split defaults to the most
    balanced one and must keep both characteristics negative, which needs
    C >= 4.
    """
    chi1, chi2 = _twobridge_split(crossings, chi1)
    s1, s2 = Slope(0, 1), Slope(2 * crossings, 1)
    surfaces = (
        SurfaceData(slope=s1, euler=chi1, b=1, strict=True, ideal_point=True),
        SurfaceData(slope=s2, euler=chi2, b=1, strict=True, ideal_point=True),
    )
    return ManifoldData(
        name=f"two-bridge-C{crossings}",
        boundary_slopes=BoundarySlopeSet((s1, s2)),
        surfaces=surfaces,
    )
