"""Build cut curves from a piecewise membership description.

A membership description is a list of pieces (xlo, xhi, expr, mono)
tiling the support, with expr a function of x (an Expr or text) and
mono one of "inc", "dec", "const".  Zero-width pieces write down the
membership value at a single point; at every other junction the
membership value is the larger of the two one-sided values, which is
forced by cut closedness.

The builder inverts each monotone piece symbolically when it matches
an affine, quadratic or sinusoid pattern, and falls back to an inv
expression, solved by bisection, otherwise.  Inverse formulas are
re-anchored on the snapped level bounds so junction levels and
abscissas agree to float dust.

Both branches go through one walk from the support end inwards.  The
right branch is not built as the negated left branch of -u, whose inv
segments would save as (-1)*inv(...).
"""

import math

from ..errors import RepresentationError
from . import expr as ex
from .curve import CutCurve, ExprFn, FuzzyNum, Segment
from .tolerance import TOL, TURN_SLACK, VERTEX_SLACK


class _Piece:
    __slots__ = ("xlo", "xhi", "expr", "mono", "vlo", "vhi")

    @property
    def is_point(self):
        return self.xlo == self.xhi

    def __repr__(self):
        return "piece [%r, %r] %s" % (self.xlo, self.xhi, self.mono)


def _snap_unit(v, where):
    if abs(v) <= TOL:
        return 0.0
    if abs(v - 1.0) <= TOL:
        return 1.0
    if v < 0.0 or v > 1.0:
        raise RepresentationError(
            "membership value %r at %s lies outside [0, 1]" % (v, where))
    return v


def _normalize(pieces):
    ps = []
    for raw in pieces:
        if len(raw) != 4:
            raise RepresentationError(
                "each piece needs (xlo, xhi, expr, mono), got %r" % (raw,))
        xlo, xhi, m, mono = raw
        p = _Piece()
        p.xlo = float(xlo)
        p.xhi = float(xhi)
        if not (math.isfinite(p.xlo) and math.isfinite(p.xhi)):
            raise RepresentationError("piece interval must be finite")
        if p.xhi < p.xlo:
            raise RepresentationError(
                "piece interval [%r, %r] is reversed" % (p.xlo, p.xhi))
        if mono not in ("inc", "dec", "const"):
            raise RepresentationError(
                "unknown monotonicity tag %r" % (mono,))
        p.mono = "const" if p.is_point else mono
        p.expr = ex.parse(m, varname="x") if isinstance(m, str) else m
        p.vlo = _snap_unit(float(ex.evaluate(p.expr, p.xlo)), "x=%r" % p.xlo)
        p.vhi = _snap_unit(float(ex.evaluate(p.expr, p.xhi)), "x=%r" % p.xhi)
        ps.append(p)
    if not ps:
        raise RepresentationError("no membership pieces")
    ps.sort(key=lambda q: (q.xlo, q.xhi))
    for a, b in zip(ps, ps[1:]):
        if a.xhi != b.xlo:
            raise RepresentationError(
                "pieces must tile an interval; boundary %r does not meet "
                "%r" % (a.xhi, b.xlo))
    for p in ps:
        if p.is_point or p.mono != "const":
            continue
        if abs(p.vlo - p.vhi) > TOL:
            raise RepresentationError("%r is tagged const but varies" % (p,))
        p.vhi = p.vlo
    for p in ps:
        if p.mono == "inc" and p.vhi <= p.vlo:
            raise RepresentationError(
                "%r is tagged inc but does not increase" % (p,))
        if p.mono == "dec" and p.vhi >= p.vlo:
            raise RepresentationError(
                "%r is tagged dec but does not decrease" % (p,))
    return ps


def _split_at_core(ps):
    """Partition pieces into left branch, core span, right branch."""
    left = []
    right = []
    core_lo = core_hi = None
    phase = "left"
    for p in ps:
        at_one = p.mono == "const" and p.vlo == 1.0
        if phase == "left":
            if p.mono == "dec":
                raise RepresentationError(
                    "membership must be nondecreasing left of the core "
                    "(%r decreases)" % (p,))
            if at_one:
                core_lo, core_hi = p.xlo, p.xhi
                phase = "core"
            elif p.mono == "inc" and p.vhi == 1.0:
                left.append(p)
                core_lo = core_hi = p.xhi
                phase = "core"
            else:
                left.append(p)
        elif phase == "core":
            if at_one:
                core_hi = p.xhi
            elif p.mono == "inc":
                raise RepresentationError(
                    "membership must be nonincreasing right of the core "
                    "(%r increases)" % (p,))
            else:
                phase = "right"
                right.append(p)
        else:
            if at_one or p.mono == "inc":
                raise RepresentationError(
                    "membership must be nonincreasing right of the core "
                    "(%r rises again)" % (p,))
            right.append(p)
    if core_lo is None:
        raise RepresentationError(
            "membership never attains level 1, so the core is empty")
    return left, core_lo, core_hi, right


def _const_fn(x):
    return ExprFn(ex.const(x))


def _invert_affine(xa, xb, va, vb):
    """Line through (va, xa) and (vb, xb) as a function of the level."""
    m = (xb - xa) / (vb - va)
    e = ex.add(ex.const(xb), ex.scal(m, ex.sub(ex.var(), ex.const(vb))))
    return ExprFn(e)


def _invert_quadratic(coeffs, xa, xb, va, vb):
    c0, c1, c2 = coeffs
    x0 = -c1 / (2.0 * c2)
    slack = VERTEX_SLACK * abs(xb - xa)
    if min(xa, xb) + slack < x0 < max(xa, xb) - slack:
        raise RepresentationError(
            "piece tagged monotone spans the parabola vertex at x=%r"
            % (x0,))
    k = c0 - c1 * c1 / (4.0 * c2)
    # the bound nearer the vertex value anchors k; c2 > 0 puts the
    # vertex at the minimum level, c2 < 0 at the maximum
    near, far = (va, vb) if c2 > 0.0 else (vb, va)
    x_far = xa if far == va else xb
    if abs(k - near) <= TOL:
        k = near
    denom = far - k
    if denom == 0.0 or (denom > 0.0) != (c2 > 0.0):
        return None
    s = (x_far - x0) * (x_far - x0) / denom
    root = ex.sqrt(ex.scal(s, ex.sub(ex.var(), ex.const(k))))
    sign = 1.0 if x_far >= x0 else -1.0
    return ExprFn(ex.add(ex.const(x0), ex.scal(sign, root)))


def _exact_unit_scale(delta):
    """A float c with fl(delta * c) == 1.0 exactly, or None."""
    c = 1.0 / delta
    for _ in range(5):
        r = delta * c
        if r == 1.0:
            return c
        c = math.nextafter(c, math.inf if r < 1.0 else -math.inf)
    return None


def unit_affine(va, vb, za, zb):
    """Affine expr through (va, za), (vb, zb), bitwise at |z| = 1 ends.

    The arc functions have unbounded derivative at |z| = 1, so any
    rounding dust there blows up; ends with |z| < 1 tolerate it.
    """
    if abs(za) == 1.0 and abs(zb) == 1.0:
        # z = +-c*((alpha - va) + (alpha - vb)); the summed form is
        # bitwise -+delta at the ends and c is nudged so c*delta == 1
        c = _exact_unit_scale(vb - va)
        if c is None:
            return None
        body = ex.add(ex.sub(ex.var(), ex.const(va)),
                      ex.sub(ex.var(), ex.const(vb)))
        return ex.scal(math.copysign(c, zb), body)
    slope = (zb - za) / (vb - va)
    if abs(za) == 1.0:
        anchor, z0 = va, za
    else:
        anchor, z0 = vb, zb
    return ex.add(ex.const(z0),
                  ex.scal(slope, ex.sub(ex.var(), ex.const(anchor))))


def _invert_trig(decomp, xa, xb, va, vb):
    trig, amp, omega, cc, shift = decomp
    tha = omega * xa + cc
    thb = omega * xb + cc
    tlo, thi = min(tha, thb), max(tha, thb)
    half = 0.5 * math.pi
    if trig == "cos":
        k0 = math.floor(tlo / math.pi + TURN_SLACK)
        fits = [k for k in (k0, k0 + 1)
                if k * math.pi - TURN_SLACK <= tlo and
                thi <= (k + 1) * math.pi + TURN_SLACK]
    else:
        k0 = math.floor(tlo / math.pi + 0.5 + TURN_SLACK)
        fits = [k for k in (k0, k0 + 1)
                if k * math.pi - half - TURN_SLACK <= tlo and
                thi <= k * math.pi + half + TURN_SLACK]
    if not fits:
        return None
    k = fits[0]

    def zval(level):
        z = (level - shift) / amp
        if abs(z - 1.0) <= TOL:
            return 1.0
        if abs(z + 1.0) <= TOL:
            return -1.0
        if abs(z) > 1.0:
            return None
        return z

    za = zval(va)
    zb = zval(vb)
    if za is None or zb is None or za == zb:
        return None
    z_expr = unit_affine(va, vb, za, zb)
    if z_expr is None:
        return None
    if trig == "cos":
        arc = ex.acos(z_expr)
        if k % 2 == 0:
            theta = ex.add(ex.const(k * math.pi), arc)
        else:
            theta = ex.sub(ex.const((k + 1) * math.pi), arc)
    else:
        arc = ex.asin(z_expr)
        if k % 2 == 0:
            theta = ex.add(ex.const(k * math.pi), arc)
        else:
            theta = ex.sub(ex.const(k * math.pi), arc)
    return ExprFn(ex.scal(1.0 / omega, ex.sub(theta, ex.const(cc))))


def _invert(p, xa, xb, va, vb):
    """Level -> abscissa function for p, from (va, xa) to (vb, xb)."""
    fn = None
    coeffs = ex.poly_coeffs(p.expr)
    if coeffs is not None:
        if coeffs[2] == 0.0:
            fn = _invert_affine(xa, xb, va, vb)
        else:
            fn = _invert_quadratic(coeffs, xa, xb, va, vb)
    if fn is None:
        decomp = ex.trig_decompose(p.expr)
        if decomp is not None:
            fn = _invert_trig(decomp, xa, xb, va, vb)
    if fn is None:
        fn = ExprFn(ex.inv(p.expr, p.xlo, p.xhi))
    return fn


def _branch_segments(pieces, core_x, rising):
    """Cut-curve segments for one branch.

    The left branch (rising) walks its pieces in x order, the right
    branch from the support end backwards.  Either way each piece is
    read once as (outer x, inner x, outer level, inner level), the
    inner end facing the core, so levels ascend along the walk.
    """
    if not pieces:
        return [Segment(0.0, 1.0, _const_fn(core_x), "const")]
    if rising:
        walk = [(p, p.xlo, p.xhi, p.vlo, p.vhi) for p in pieces]
        tag, side = "inc", "left of"
    else:
        walk = [(p, p.xhi, p.xlo, p.vhi, p.vlo) for p in reversed(pieces)]
        tag, side = "dec", "right of"
    _, outer_x, _, cur, _ = walk[0]
    segs = []
    if cur > 0.0:
        segs.append(Segment(0.0, cur, _const_fn(outer_x), "const"))
    point_decl = None
    for p, xa, xb, va, vb in walk:
        if p.is_point:
            if va > cur + TOL:
                segs.append(Segment(cur, va, _const_fn(xa), "const"))
                cur = va
            elif va < cur - TOL:
                raise RepresentationError(
                    "membership must be nondecreasing %s the core, but "
                    "the point value at x=%r drops" % (side, xa))
            point_decl = (xa, va)
            continue
        if p.mono == "const":
            if abs(va - cur) > TOL:
                raise RepresentationError(
                    "plateau at level %r does not meet the branch at "
                    "level %r" % (va, cur))
            point_decl = None
            continue
        if va > cur + TOL:
            if point_decl and point_decl[0] == xa \
                    and point_decl[1] < va - TOL:
                raise RepresentationError(
                    "membership at x=%r is declared %r but the jump "
                    "there attains %r; cut closedness needs the upper "
                    "value" % (xa, point_decl[1], va))
            segs.append(Segment(cur, va, _const_fn(xa), "const"))
            cur = va
        elif va < cur - TOL:
            raise RepresentationError(
                "membership must be nondecreasing %s the core (drops "
                "to %r at x=%r against level %r)" % (side, va, xa, cur))
        segs.append(Segment(cur, vb, _invert(p, xa, xb, cur, vb), tag))
        cur = vb
        point_decl = None
    if cur < 1.0:
        segs.append(Segment(cur, 1.0, _const_fn(core_x), "const"))
    return segs


def from_membership_pieces(pieces, name=None, doc=None):
    """Assemble a fuzzy number from monotone membership pieces."""
    ps = _normalize(pieces)
    left_ps, core_lo, core_hi, right_ps = _split_at_core(ps)
    left = CutCurve(_branch_segments(left_ps, core_lo, True))
    right = CutCurve(_branch_segments(right_ps, core_hi, False))
    return FuzzyNum(left, right, name=name, doc=doc)
