"""Exact arithmetic for slopes on a one-cusped torus boundary: Euclidean
slope lengths on a horotorus, boundary-slope norms, and the inequalities
and diameter bounds relating them.  Everything is computed over exact
rationals; square roots only ever appear inside an exact sign comparator
or in display strings.
"""

from .cusp import CuspLattice, cmp_sqrt3
from .families import (
    fig8_dataset,
    pretzel_dataset,
    twobridge_dataset,
    twobridge_pair,
)
from .manifold import (
    ManifoldData,
    ManifoldFormatError,
    SurfaceData,
    from_document,
    load,
    save,
    to_document,
)
from .norm import BoundarySlopeSet, CSNormData
from .slopes import (
    LONGITUDE,
    MERIDIAN,
    Slope,
    distance,
    enumerate_slopes,
)
from .verify import (
    EQUALITY,
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    VerifyReport,
    cor_euler_applies,
    corollary_euler,
    extremal_pair,
    family_ratio_unbounded,
    integral_extremal_pair,
    prop4_hypothesis,
    prop6_condition,
    standard_reports,
    surface_pairs,
    sweep_norm_vs_length,
    thm1_slopes,
    verify_cor_ubdiam,
    verify_norm_ge_length,
    verify_prop_length,
    verify_prop_norm,
    verify_thm_diam,
    verify_thm_length_norm,
)

__version__ = "0.1.0"

__all__ = [
    "Slope",
    "MERIDIAN",
    "LONGITUDE",
    "distance",
    "enumerate_slopes",
    "CuspLattice",
    "cmp_sqrt3",
    "CSNormData",
    "BoundarySlopeSet",
    "SurfaceData",
    "ManifoldData",
    "ManifoldFormatError",
    "load",
    "save",
    "to_document",
    "from_document",
    "VerifyReport",
    "HOLDS",
    "EQUALITY",
    "FAILS",
    "NOT_APPLICABLE",
    "verify_norm_ge_length",
    "sweep_norm_vs_length",
    "prop4_hypothesis",
    "prop6_condition",
    "verify_prop_length",
    "verify_prop_norm",
    "verify_thm_length_norm",
    "verify_thm_diam",
    "verify_cor_ubdiam",
    "corollary_euler",
    "family_ratio_unbounded",
    "standard_reports",
    "thm1_slopes",
    "extremal_pair",
    "integral_extremal_pair",
    "surface_pairs",
    "cor_euler_applies",
    "fig8_dataset",
    "pretzel_dataset",
    "twobridge_pair",
    "twobridge_dataset",
    "__version__",
]
