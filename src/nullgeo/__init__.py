"""Tensor evolution, classification and structure results for submanifolds
with relative nullity in space forms, at desk scale."""

from .core import (
    GeodesicDomain,
    NullityError,
    NullityProfile,
    ShapeOperatorSet,
    SingularJacobi,
    SplittingTensor,
    is_codazzi_compatible,
    jacobi_derivative,
    jacobi_tensor,
    max_invertible_time,
    shape_operator_at,
    splitting_tensor_at,
)
from .classify import (
    AlphaLimit,
    BlockBehavior,
    Clause,
    DecayReport,
    SpectrumVerdict,
    classify_splitting_spectrum,
    decay_report,
    sign_balance_check,
)
from .theorems import (
    CylinderSplit,
    SpecialDirection,
    SplittingFamily,
    cylinder_split,
    find_special_nullity_direction,
    florit_bound,
    integrable_conullity_classify,
    minimality_certificate,
    nu_n,
    radon_hurwitz,
    scalar_curvature,
    sphere_rigidity_threshold,
    theorem1_applicable,
    theorem1_pipeline,
    theorem2_applicable,
)

__version__ = "0.1.0"
