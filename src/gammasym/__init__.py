"""Exact invariant geometry of block-graded orthogonal Lie algebras.

The pipeline: build so(n) with exact structure constants, grade it over
the Klein four-group by a block partition, solve for the family of
invariant inner products on the tangent complement, refine by natural
reductivity, classify signatures, and evaluate curvature and geodesics.
"""

from .groups import GroupElement, enumerate_group, from_label, identity, product
from .liealg import LieAlgebra, build_so
from .linalg import RowReducer, SymmetricForm, char_poly, congruence_signature
from .grading import (
    ComponentView,
    Grading,
    GradingViolation,
    HolonomySpan,
    block_grading,
    holonomy_span,
    verify_grading,
)
from .metrics import (
    FormFamily,
    KillingMetricOperator,
    SignatureReport,
    evaluate_family,
    invariant_family,
    is_adapted,
    killing_metric_operator,
    lorentzian_search,
    naturally_reductive_subfamily,
    signature_scan,
)
from .geometry import (
    AmbroseSingerReport,
    CurvatureTable,
    GeodesicCurve,
    ambrose_singer_check,
    canonical_curvature,
    canonical_torsion,
    geodesic_curve,
    matrix_exp_numeric,
    sectional_table,
    torsionfree_curvature,
)

__version__ = "0.1.0"

__all__ = [
    "AmbroseSingerReport",
    "ComponentView",
    "CurvatureTable",
    "FormFamily",
    "GeodesicCurve",
    "Grading",
    "GradingViolation",
    "GroupElement",
    "HolonomySpan",
    "KillingMetricOperator",
    "LieAlgebra",
    "RowReducer",
    "SignatureReport",
    "SymmetricForm",
    "ambrose_singer_check",
    "block_grading",
    "build_so",
    "canonical_curvature",
    "canonical_torsion",
    "char_poly",
    "congruence_signature",
    "enumerate_group",
    "evaluate_family",
    "from_label",
    "geodesic_curve",
    "holonomy_span",
    "identity",
    "invariant_family",
    "is_adapted",
    "killing_metric_operator",
    "lorentzian_search",
    "matrix_exp_numeric",
    "naturally_reductive_subfamily",
    "product",
    "sectional_table",
    "signature_scan",
    "torsionfree_curvature",
    "verify_grading",
]
