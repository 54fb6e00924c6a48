"""Sup-min convolution as exact cut addition, scaling, and predictions.

The convolution of two fuzzy numbers adds their cut curves level by
level, so the implementation merges the two segment partitions and
adds segment functions symbolically.  The derivative predictor only
answers when a slope-combination rule applies; it refuses otherwise
instead of extrapolating.
"""

import math

from .calculus import ExtendedSlope, as_left_slope
from .cutcore import expr as ex
from .cutcore.curve import (CutCurve, FuzzyNum, Segment, membership,
                            membership_outer_limit, validate)
from .cutcore.tolerance import TOL
from .errors import StructuralError


class EndpointSpec:
    """Addresses one cut endpoint: branch, cut kind, and level."""

    def __init__(self, branch, kind, level):
        if branch not in ("left", "right"):
            raise ValueError("branch must be 'left' or 'right'")
        if kind not in ("cut", "strong-cut"):
            raise ValueError("kind must be 'cut' or 'strong-cut'")
        level = float(level)
        if not 0.0 <= level <= 1.0:
            raise ValueError("level %r outside [0, 1]" % (level,))
        self.branch = branch
        self.kind = kind
        self.level = level

    def __repr__(self):
        return "EndpointSpec(%s, %s, %r)" % (
            self.branch, self.kind, self.level)


def crisp_point(x):
    """The crisp fuzzy number sitting at a single abscissa."""
    x = float(x)
    curve = CutCurve([Segment(0.0, 1.0, ex.const(x), "const")])
    return FuzzyNum(curve, curve, name="point(%r)" % (x,))


def _segment_at(curve, a, b):
    """The segment of curve covering the open interval (a, b)."""
    mid = 0.5 * (a + b)
    for s in curve.segments:
        if s.lo <= mid <= s.hi and s.width > 0.0:
            return s
    raise StructuralError("no segment covers (%r, %r)" % (a, b))


def _merge_curves(cu, cv):
    """Levelwise sum of two cut curves, tagged as a moving summand is."""
    knots = sorted({0.0, 1.0}
                   | {s.lo for s in cu.segments} | {s.hi for s in cu.segments}
                   | {s.lo for s in cv.segments} | {s.hi for s in cv.segments})
    segs = []
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        su = _segment_at(cu, a, b)
        sv = _segment_at(cv, a, b)
        mono = sv.mono if su.mono == "const" else su.mono
        segs.append(Segment(a, b, ex.add(su.fn.expr, sv.fn.expr), mono))
    return CutCurve(segs)


def convolve(u, v):
    """Sup-min convolution by exact levelwise cut addition."""
    left = _merge_curves(u.left, v.left)
    right = _merge_curves(u.right, v.right)
    out = FuzzyNum(left, right)
    rep = validate(out)
    if not rep.ok:
        raise StructuralError(
            "convolution violated representation conditions %s"
            % (rep.failures(),))
    return out


def scale(r, v):
    """Scalar multiple of a fuzzy number; r = 0 collapses to a point."""
    r = float(r)
    if not math.isfinite(r):
        raise ValueError("scale factor r must be finite, got %r" % (r,))
    if r == 0.0:
        return crisp_point(0.0)
    if r < 0.0:
        v, r = v.mirror, -r
    return FuzzyNum(v.left.scaled(r), v.right.scaled(r))


def _component_endpoint(fz, spec):
    curve = fz.left if spec.branch == "left" else fz.right
    if spec.kind == "cut":
        return curve.value(spec.level)
    return curve.strong_value(spec.level)


def endpoint_value(u, v, spec):
    """Membership of the convolution at the summed cut endpoint."""
    return min(membership(u, _component_endpoint(u, spec)),
               membership(v, _component_endpoint(v, spec)))


def _const_above(curve, q):
    """True when the curve is constant on a level neighborhood above q."""
    if q >= 1.0:
        return False
    for s in curve.segments:
        if s.hi > q:
            return s.mono == "const"
    return False


def _predict_outward(u, v, q):
    """Left-branch slope from the left, away from the core (clean side)."""
    if q <= 0.0:
        return None
    if _const_above(u.left, q) and _const_above(v.left, q):
        # both factors flat just above q: the summed endpoint carries a
        # membership jump, so there is no finite one-sided slope there
        return None
    du = u.left.deriv_below(q)
    dv = v.left.deriv_below(q)
    if math.isinf(du) or math.isinf(dv):
        return 0.0
    if du == 0.0 and dv == 0.0:
        return None
    if du == 0.0 or dv == 0.0:
        # pass-through needs the flat factor to be a genuine jump
        jumper, other_d = (u, dv) if du == 0.0 else (v, du)
        lam = membership_outer_limit(jumper, jumper.left.value(q))
        if q - lam > TOL:
            return as_left_slope(other_d)
        return None
    return as_left_slope(du + dv)


def _predict_inward(u, v, q):
    """Left-branch slope from the right, gated by endpoint memberships."""
    cu, cv = u.left, v.left
    if q >= 1.0:
        return None
    if (abs(cu.right_limit(q) - cu.value(q)) > TOL
            or abs(cv.right_limit(q) - cv.value(q)) > TOL):
        # a cut jump in either factor lays a constant membership run on
        # the core side of the summed endpoint
        return as_left_slope(0.0)
    mu = membership(u, cu.value(q))
    mv = membership(v, cv.value(q))
    u_attains = abs(mu - q) <= TOL
    v_attains = abs(mv - q) <= TOL
    if u_attains and v_attains:
        du = cu.deriv_above(q)
        dv = cv.deriv_above(q)
        if math.isinf(du) or math.isinf(dv):
            return 0.0
        if du == 0.0 or dv == 0.0:
            return None
        return as_left_slope(du + dv)
    if u_attains and mv > q + TOL:
        d = cu.deriv_above(q)
        if math.isinf(d):
            return 0.0
        if d == 0.0:
            return None
        return as_left_slope(d)
    if v_attains and mu > q + TOL:
        d = cv.deriv_above(q)
        if math.isinf(d):
            return 0.0
        if d == 0.0:
            return None
        return as_left_slope(d)
    return None


def _predict_strong(u, v, q, side):
    """Left-branch slope at the strong-cut endpoint."""
    cu, cv = u.left, v.left
    if q >= 1.0:
        return None
    if side == "left":
        # approaching the strong endpoint from outside: a cut jump in
        # either factor lays a constant membership run on that side
        ju = abs(cu.right_limit(q) - cu.value(q)) > TOL
        jv = abs(cv.right_limit(q) - cv.value(q)) > TOL
        if ju or jv:
            return 0.0
        return None
    # core side of the strong endpoint
    mu = membership(u, cu.strong_value(q))
    mv = membership(v, cv.strong_value(q))
    if abs(mu - q) <= TOL and abs(mv - q) <= TOL:
        du = cu.deriv_above(q)
        dv = cv.deriv_above(q)
        if math.isinf(du) or math.isinf(dv):
            return 0.0
        if du == 0.0 or dv == 0.0:
            return None
        return as_left_slope(du + dv)
    return None


def predicted_derivative(u, v, spec, side):
    """Predicted one-sided slope of convolve(u, v) at a cut endpoint.

    Returns an ExtendedSlope when a combination rule applies, or None
    when no rule covers the configuration.  A right-branch endpoint is
    the mirrored left-branch endpoint of -u and -v, read from the other
    side.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if spec.branch == "right":
        other = "right" if side == "left" else "left"
        got = predicted_derivative(
            u.mirror, v.mirror, EndpointSpec("left", spec.kind, spec.level),
            other)
        return None if got is None else ExtendedSlope(0.0 - got.value, side)
    q = spec.level
    if spec.kind == "strong-cut":
        val = _predict_strong(u, v, q, side)
    elif side == "left":
        val = _predict_outward(u, v, q)
    else:
        val = _predict_inward(u, v, q)
    return None if val is None else ExtendedSlope(val, side)
