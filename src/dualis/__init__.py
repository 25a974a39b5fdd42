"""dualis: exact-arithmetic verification of Plucker-type duality identities.

The package computes projective dual curves, plane-curve singularity data,
Euler obstructions and Euler characteristics from first principles over the
rationals, and checks the Mukai-flop intersection identities and their
corollaries against that independently computed data.  No floating point is
used anywhere.
"""

from .charclass import (
    GRASSMANNIAN,
    PROJECTIVE_SPACE,
    QUADRIC,
    chi_smooth_complete_intersection,
    chi_standard,
    hypersurface_package,
    linear_space_package,
)
from .curvelab import (
    CurveReport,
    PlaneCurve,
    SingularPoint,
    classify_singularity,
    curve_report,
    line_transversality,
    singular_points,
    transversal_intersection_chi,
)
from .dualgeom import (
    DualCurve,
    biduality_check,
    dual_curve_report,
    dual_degree_oracle,
    dual_equation,
)
from .exact import (
    MultiPoly,
    Rational,
    UniPolyView,
    discriminant,
    parse_poly,
    poly_gcd,
    radical,
    resultant,
    squarefree_part,
)
from .flopcalc import (
    CONORMAL,
    INTRO,
    FlopCheckReport,
    IdentityInstance,
    PluckerDualData,
    VarietyInvariants,
    check_identity,
    classical_plucker,
    detect_dual_codim,
    dual_c0m,
    dual_degree_from_invariants,
    flop_defect,
    quadric_pair_check,
    solve_unknown,
)

__version__ = "0.1.0"

__all__ = [
    "CONORMAL",
    "CurveReport",
    "DualCurve",
    "FlopCheckReport",
    "GRASSMANNIAN",
    "INTRO",
    "IdentityInstance",
    "MultiPoly",
    "PROJECTIVE_SPACE",
    "PlaneCurve",
    "PluckerDualData",
    "QUADRIC",
    "Rational",
    "SingularPoint",
    "UniPolyView",
    "VarietyInvariants",
    "biduality_check",
    "check_identity",
    "chi_smooth_complete_intersection",
    "chi_standard",
    "classical_plucker",
    "classify_singularity",
    "curve_report",
    "detect_dual_codim",
    "discriminant",
    "dual_c0m",
    "dual_curve_report",
    "dual_degree_from_invariants",
    "dual_degree_oracle",
    "dual_equation",
    "flop_defect",
    "hypersurface_package",
    "line_transversality",
    "linear_space_package",
    "parse_poly",
    "poly_gcd",
    "quadric_pair_check",
    "radical",
    "resultant",
    "singular_points",
    "solve_unknown",
    "squarefree_part",
    "transversal_intersection_chi",
]
