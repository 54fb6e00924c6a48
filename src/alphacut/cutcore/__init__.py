"""Core value types: symbolic expressions, cut curves, membership building."""

from .curve import (
    CutCurve,
    ExprFn,
    FuzzyNum,
    Interval,
    Segment,
    ValidationReport,
    alpha_cut,
    membership,
    membership_outer_limit,
    sample,
    strong_cut,
    validate,
)
from .build import from_membership_pieces
from . import expr

__all__ = [
    "CutCurve",
    "ExprFn",
    "FuzzyNum",
    "Interval",
    "Segment",
    "ValidationReport",
    "alpha_cut",
    "expr",
    "from_membership_pieces",
    "membership",
    "membership_outer_limit",
    "sample",
    "strong_cut",
    "validate",
]
