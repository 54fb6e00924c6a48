"""Exact alpha-cut calculus for fuzzy numbers.

Fuzzy numbers are stored as their pair of monotone cut curves, so
cuts, memberships, convolutions, and scalings stay exact wherever the
curve functions have closed forms.  On top of that sit slope
classification, the sup metric with a certified gap, smoother
condition checks, smoother synthesis, and approximation schedules.
"""

from .approx import (DifferentiabilityReport, ErrorReport,
                     PreservationReport, approximate, default_schedule,
                     preservation_report, verify_smoothness)
from .calculus import (ClassFlags, ExtendedSlope, SingularPoint,
                       class_membership, classify_points, left_deriv,
                       lipschitz_estimate, numeric_slope, right_deriv,
                       singular_at, sup_metric)
from .convolve import (EndpointSpec, convolve, crisp_point,
                       endpoint_value, predicted_derivative, scale)
from .cutcore import (CutCurve, ExprFn, FuzzyNum, Interval, Segment,
                      ValidationReport, alpha_cut, expr,
                      from_membership_pieces, membership,
                      membership_outer_limit, sample, strong_cut,
                      validate)
from .errors import (AlphacutError, ParseError, RepresentationError,
                     SmootherConditionError, StructuralError)
from .smoother import (ConditionReport, SmootherFamilySpec,
                       check_smoother_conditions, core_preserving_shift,
                       family, synthesize_smoother)

__version__ = "0.1.0"

__all__ = [
    "AlphacutError",
    "ClassFlags",
    "ConditionReport",
    "CutCurve",
    "DifferentiabilityReport",
    "EndpointSpec",
    "ErrorReport",
    "ExprFn",
    "ExtendedSlope",
    "FuzzyNum",
    "Interval",
    "ParseError",
    "PreservationReport",
    "RepresentationError",
    "Segment",
    "SingularPoint",
    "SmootherConditionError",
    "SmootherFamilySpec",
    "StructuralError",
    "ValidationReport",
    "alpha_cut",
    "approximate",
    "check_smoother_conditions",
    "class_membership",
    "classify_points",
    "convolve",
    "core_preserving_shift",
    "crisp_point",
    "default_schedule",
    "endpoint_value",
    "expr",
    "family",
    "from_membership_pieces",
    "left_deriv",
    "lipschitz_estimate",
    "membership",
    "membership_outer_limit",
    "numeric_slope",
    "predicted_derivative",
    "preservation_report",
    "right_deriv",
    "sample",
    "scale",
    "singular_at",
    "strong_cut",
    "sup_metric",
    "synthesize_smoother",
    "validate",
    "verify_smoothness",
]
