"""One-sided membership derivatives, singular points, classes, metrics.

The symbolic route turns cut-curve level derivatives into membership
slopes: on the left branch the slope at u^-(alpha) is the reciprocal
of du^-/dalpha, an infinite level derivative (constant membership run)
gives slope 0, and a zero level derivative (membership jump, written
as a constant cut segment) gives an infinite slope.
"""

import math
import weakref

from .cutcore import expr as ex
from .cutcore.curve import membership, membership_pair
from .cutcore.tolerance import TOL, TOL_SLOPE

FD_LADDER = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
# halvings of a segment's level range while proving it regular
PROOF_DEPTH = 8


class ExtendedSlope:
    """A one-sided membership slope; value may be +-inf."""

    def __init__(self, value, side):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.value = float(value)
        self.side = side

    def __float__(self):
        return self.value

    def is_finite(self):
        return math.isfinite(self.value)

    def __eq__(self, other):
        if isinstance(other, ExtendedSlope):
            return self.value == other.value and self.side == other.side
        if isinstance(other, (int, float)):
            return self.value == float(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.side))

    def __repr__(self):
        return "ExtendedSlope(%r, %r)" % (self.value, self.side)


class SingularPoint:
    """A point where the membership function is not differentiable."""

    def __init__(self, x, kind, branch, level, outer_limit,
                 left_slope, right_slope):
        self.x = x
        self.kind = kind
        self.branch = branch
        self.level = level
        self.outer_limit = outer_limit
        self.left_slope = left_slope
        self.right_slope = right_slope

    def __repr__(self):
        extra = ""
        if self.kind == "jump":
            extra = ", outer limit %r" % (self.outer_limit,)
        return "SingularPoint(x=%r, %s, %s branch, level %r%s)" % (
            self.x, self.kind, self.branch, self.level, extra)


class ClassFlags:
    """Membership of the four fuzzy-number families."""

    def __init__(self, in_FT, in_FN, in_FC, in_FD):
        self.in_FT = bool(in_FT)
        self.in_FN = bool(in_FN)
        self.in_FC = bool(in_FC)
        self.in_FD = bool(in_FD)

    def as_dict(self):
        return {"in_FT": self.in_FT, "in_FN": self.in_FN,
                "in_FC": self.in_FC, "in_FD": self.in_FD}

    def __eq__(self, other):
        if isinstance(other, ClassFlags):
            return self.as_dict() == other.as_dict()
        if isinstance(other, tuple) and len(other) == 4:
            return (self.in_FT, self.in_FN, self.in_FC, self.in_FD) == other
        return NotImplemented

    def __repr__(self):
        return "ClassFlags(in_FT=%r, in_FN=%r, in_FC=%r, in_FD=%r)" % (
            self.in_FT, self.in_FN, self.in_FC, self.in_FD)


def as_left_slope(level_deriv):
    """Left-branch membership slope from a left-curve level derivative."""
    if math.isinf(level_deriv):
        return 0.0
    if level_deriv == 0.0:
        return math.inf
    return 1.0 / level_deriv


def _check_in_support(fz, x):
    sup = fz.support
    if x < sup.lo - TOL or x > sup.hi + TOL:
        raise ValueError("x=%r outside the support [%r, %r]"
                         % (x, sup.lo, sup.hi))


def _snap_level(rho, *curves):
    """Pull a scanned level onto the nearest junction level.

    The membership scans carry up to a few ulp of dust; a level that
    lands dust-close to a segment junction must be treated as exactly
    that junction or the one-sided level derivatives read the wrong
    segment.
    """
    best, err = rho, TOL
    if abs(rho - 1.0) <= err:
        best, err = 1.0, abs(rho - 1.0)
    for curve in curves:
        for s in curve.segments[:-1]:
            d = abs(rho - s.hi)
            if d <= err:
                best, err = s.hi, d
    return best


def _left_slope_at(fz, x, rho):
    """Membership slope at x from the left."""
    core = fz.core
    if x > core.lo + TOL:
        if x <= core.hi + TOL:
            return 0.0
        # right branch: nonzero only where x is the inner cut image
        if rho >= 1.0:
            return 0.0
        inner = fz.right.right_limit(rho)
        if abs(x - inner) <= TOL:
            # the right curve read as the mirror's left curve; 0.0 - v
            # keeps a zero slope +0.0
            return 0.0 - as_left_slope(-fz.right.deriv_above(rho))
        return 0.0
    # left branch, including the core start
    if rho == 0.0:
        return 0.0
    outer = fz.left.value(rho)
    if abs(x - outer) <= TOL:
        return as_left_slope(fz.left.deriv_below(rho))
    return 0.0


def _right_slope_at(fz, x, rho):
    """Membership slope at x from the right: the mirrored left slope."""
    return 0.0 - _left_slope_at(fz.mirror, -x, rho)


def left_deriv(fz, x):
    """One-sided membership derivative at x from the left."""
    _check_in_support(fz, x)
    rho = _snap_level(membership(fz, x), fz.left, fz.right)
    return ExtendedSlope(_left_slope_at(fz, x, rho), "left")


def right_deriv(fz, x):
    """One-sided membership derivative at x from the right."""
    _check_in_support(fz, x)
    rho = _snap_level(membership(fz, x), fz.left, fz.right)
    return ExtendedSlope(_right_slope_at(fz, x, rho), "right")


def numeric_slope(fz, x, side):
    """Richardson-extrapolated one-sided difference quotient.

    Cross-checks the symbolic route; the ladder refines h until two
    consecutive extrapolations agree or the ladder is exhausted.
    """
    sgn = -1.0 if side == "left" else 1.0
    m0 = membership(fz, x)

    def quot(h):
        return (membership(fz, x + sgn * h) - m0) / (sgn * h)

    prev = None
    for h in FD_LADDER:
        val = 2.0 * quot(0.5 * h) - quot(h)
        if prev is not None and abs(val - prev) <= 1e-8 * (1.0 + abs(val)):
            return val
        prev = val
    return prev


def candidate_points(fz):
    """Breakpoint images of both curves plus the core endpoints."""
    xs = []
    for curve in (fz.left, fz.right):
        for b in curve.breakpoints():
            xs.append(curve.value(b))
            xs.append(curve.right_limit(b))
    core = fz.core
    xs.append(core.lo)
    xs.append(core.hi)
    xs.sort()
    out = []
    for x in xs:
        if not out or x - out[-1] > TOL:
            out.append(x)
    return out


def singular_at(fz, x):
    """SingularPoint at x, or None if membership is differentiable there."""
    level, outer = membership_pair(fz, x)
    rho = _snap_level(level, fz.left, fz.right)
    ls = _left_slope_at(fz, x, rho)
    rs = _right_slope_at(fz, x, rho)
    lam = _snap_level(outer, fz.left, fz.right)
    jump = rho - lam > TOL
    kink = (math.isinf(ls) or math.isinf(rs)
            or abs(ls - rs) > TOL_SLOPE)
    if not (jump or kink):
        return None
    core = fz.core
    if abs(x - core.lo) <= TOL or abs(x - core.hi) <= TOL:
        branch = "core-endpoint"
    elif x < core.lo:
        branch = "left"
    else:
        branch = "right"
    return SingularPoint(x, "jump" if jump else "kink", branch, rho,
                         lam if jump else None, ls, rs)


def regular_intervals(fz):
    """Sorted disjoint open intervals of x where singular_at(fz, x) is None.

    Each interval is proven, not sampled.  On the core's inside,
    core.lo + TOL < x < core.hi - TOL, membership and its outer
    limit are both 1 and both slopes 0.  Off the core, take a left
    curve L (fz.left at x, or fz.mirror.left at -x for the right
    branch) and a segment of L tagged inc.  Its level range is
    cut into pieces that keep 2*TOL away from every junction level
    of both curves and from 0 and 1; a piece is proven when the
    enclosure of the level derivative has a lower bound d above TOL
    and with d*TOL above four times the bound on the segment
    function's rounding error.  An x is covered by a piece when it lies
    above every value of the earlier segments and outside the value
    enclosures of the rest of its own segment, and x < core.lo - TOL
    (on the mirror).  Then singular_at finds nothing at x:

    - The membership scan passes every earlier segment and bisects
      this one.  Its last bracket is two neighbouring floats (or
      narrower than any piece's distance from 0), with the segment
      function at or below x on one and at or above x on the other, so
      both sit in one part of the segment whose enclosure holds x: the
      piece.  Nothing is snapped there, since _snap_level moves levels
      by at most TOL.
    - The level rho lies inside one segment of both curves, so the left
      slope reads fn.deriv(rho) through the left curve and the right
      slope reads it through the negated curve; negation is exact, so
      the two slopes are the same float, and the derivative floor makes
      it finite.
    - The strict and non-strict scans part only where the computed
      function equals x.  Were their levels more than TOL apart, the
      computed function would fall by a level step of TOL on which
      the exact one rises by at least d*TOL, more than twice the
      rounding bound allows.  So there is no jump.
    """
    levels = {0.0, 1.0}
    for curve in (fz.left, fz.right):
        levels.update(s.hi for s in curve.segments[:-1])
    levels = sorted(levels)
    core = fz.core
    spans = [(core.lo + TOL, core.hi - TOL)]
    edge = core.lo - TOL
    spans += [(lo, min(hi, edge)) for lo, hi in _curve_spans(fz.left, levels)]
    edge = fz.mirror.core.lo - TOL
    spans += [(-min(hi, edge), -lo)
              for lo, hi in _curve_spans(fz.mirror.left, levels)]
    merged = []
    for lo, hi in sorted(s for s in spans if s[0] < s[1]):
        if merged and lo < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _curve_spans(curve, levels):
    """Open x intervals whose scan of the left curve lands in a proof."""
    out = []
    below = -math.inf  # every value the scan meets before this segment
    for s in curve.segments:
        if s.width > 0.0 and s.mono == "inc":
            out += _segment_spans(s, levels, below)
        below = _past(below, (s.fn(s.lo), s.fn(s.hi)))
    return out


def _past(below, values):
    """The largest of below and values; a NaN value gives inf."""
    for v in values:
        below = max(below, v) if v == v else math.inf
    return below


def _segment_spans(s, levels, below):
    """_curve_spans for one segment, given the values below it."""
    f = ex.enclosed(s.fn.expr)
    df = ex.enclosed(ex.derivative(s.fn.expr))
    margin = 2.0 * TOL
    parts = []  # (value lo, value hi, derivative floor or None, error)
    cur = s.lo
    for j in levels:
        if j + margin < s.lo or j - margin > s.hi:
            continue
        lo, hi = max(j - margin, s.lo), min(j + margin, s.hi)
        if lo > cur:
            _prove(f, df, cur, lo, PROOF_DEPTH, parts)
            cur = lo
        if hi > cur:
            parts.append(f(cur, hi)[:2] + (None, None))
            cur = hi
    if cur < s.hi:
        _prove(f, df, cur, s.hi, PROOF_DEPTH, parts)
    # above[i]: the least value of parts i..; a NaN bound stops coverage
    above = [math.inf]
    for v0, _, _, _ in reversed(parts):
        above.append(min(above[-1], v0) if v0 == v0 else -math.inf)
    above.reverse()
    out = []
    i = 0
    while i < len(parts):
        d, err = parts[i][2:]
        j = i + 1
        if d is not None:
            while j < len(parts) and parts[j][2] is not None:
                d2, err2 = min(d, parts[j][2]), max(err, parts[j][3])
                if not _proven(d2, err2):
                    break
                d, err = d2, err2
                j += 1
            if below < above[j]:
                out.append((below, above[j]))
        below = _past(below, (p[1] for p in parts[i:j]))
        i = j
    return out


def _prove(f, df, lo, hi, depth, parts):
    """Append proven and unproven parts of [lo, hi], in level order."""
    v0, v1, err = f(lo, hi)
    d = df(lo, hi)[0]
    mid = 0.5 * (lo + hi)
    if _proven(d, err):
        parts.append((v0, v1, d, err))
    elif depth and lo < mid < hi and v0 == v0:
        # a NaN value bound (an inv node) stays NaN on every half; a
        # NaN derivative bound alone (acos at +-1) may not
        _prove(f, df, lo, mid, depth - 1, parts)
        _prove(f, df, mid, hi, depth - 1, parts)
    else:
        parts.append((v0, v1, None, None))


def _proven(d, err):
    """A derivative floor d that keeps slopes finite and, against the
    rounding bound err, keeps the two scans within TOL."""
    return d > TOL and d * TOL > 4.0 * err


# the singular points of each number, found once: left and right are
# never reassigned, and the entry goes when the number does
_POINTS = weakref.WeakKeyDictionary()


def classify_points(fz):
    """All membership singular points strictly inside the support."""
    pts = _POINTS.get(fz)
    if pts is None:
        sup = fz.support
        pts = []
        for x in candidate_points(fz):
            if x - sup.lo <= TOL or sup.hi - x <= TOL:
                continue
            p = singular_at(fz, x)
            if p is not None:
                pts.append(p)
        _POINTS[fz] = pts
    return list(pts)


def _base_run_end(curve):
    """Index of the first segment past the leading constant base run."""
    segs = curve.segments
    if segs[0].mono != "const" and segs[0].width > 0.0:
        return 0
    base_x = segs[0].fn(segs[0].lo)
    i = 0
    while i < len(segs) and (segs[i].width == 0.0 or
                             segs[i].mono == "const") \
            and abs(segs[i].fn(segs[i].lo) - base_x) <= TOL:
        i += 1
    return i


def _strictly_monotone_above_base(curve):
    """No constant runs above the base level (no membership jumps)."""
    for s in curve.segments[_base_run_end(curve):]:
        if s.mono == "const" and s.width > 0.0:
            return False
    return True


def _has_cut_jump(curve):
    """Any level where the cut endpoint differs from its right limit."""
    for b in curve.breakpoints():
        if abs(curve.right_limit(b) - curve.value(b)) > TOL:
            return True
    return False


def class_membership(fz):
    """Class flags for the four families."""
    pts = classify_points(fz)
    in_fc = (_strictly_monotone_above_base(fz.left)
             and _strictly_monotone_above_base(fz.right))
    in_fn = not any(p.branch in ("left", "right") for p in pts)
    in_ft = (in_fn and not _has_cut_jump(fz.left)
             and not _has_cut_jump(fz.right))
    in_fd = in_fc and not pts and fz.support.width > 0.0
    return ClassFlags(in_ft, in_fn, in_fc, in_fd)


def _golden_max(f, a, b, iters=90):
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 1e-13:
            break
    return fc if fc >= fd else fd


def sup_metric(u, v):
    """(sup endpoint deviation, certified residual bound)."""
    best = 0.0
    gap = 0.0
    for cu, cv in ((u.left, v.left), (u.right, v.right)):
        knots = sorted(set([0.0, 1.0]
                           + cu.breakpoints() + cv.breakpoints()))
        for a in knots:
            best = max(best, abs(cu.value(a) - cv.value(a)))
            if a < 1.0:
                best = max(best,
                           abs(cu.right_limit(a) - cv.right_limit(a)))
        for a, b in zip(knots, knots[1:]):
            if b <= a:
                continue
            n = 128
            h = (b - a) / n
            diff = lambda t: abs(cu.value(t) - cv.value(t))
            seq = [abs(cu.right_limit(a) - cv.right_limit(a))]
            seq.extend(diff(a + h * k) for k in range(1, n))
            seq.append(abs(cu.left_limit(b) - cv.left_limit(b)))
            mloc = max(seq)
            best = max(best, mloc)
            k = seq.index(mloc)
            lo = a + h * max(0, k - 1)
            hi = a + h * min(n, k + 1)
            if hi > lo:
                best = max(best, _golden_max(diff, lo, hi))
            smax = 0.0
            for f0, f1 in zip(seq, seq[1:]):
                if math.isfinite(f0) and math.isfinite(f1):
                    smax = max(smax, abs(f1 - f0) / h)
            gap = max(gap, 0.5 * smax * h)
    return best, gap


def _min_abs_deriv(fn, lo, hi):
    n = 64
    h = (hi - lo) / n
    pts = [lo + h * k for k in range(n + 1)]
    vals = [abs(fn.deriv(t)) for t in pts]
    m = min(vals)
    k = vals.index(m)
    a = pts[max(0, k - 1)]
    b = pts[min(n, k + 1)]
    if b > a:
        refined = -_golden_max(lambda t: -abs(fn.deriv(t)), a, b)
        m = min(m, refined)
    return m


def lipschitz_estimate(fz):
    """Smallest slope bound of the membership on its support, or inf."""
    if not class_membership(fz).in_FC:
        return math.inf
    best = 0.0
    for curve in (fz.left, fz.right):
        for s in curve.segments[_base_run_end(curve):]:
            if s.width == 0.0 or s.mono == "const":
                continue
            dmin = _min_abs_deriv(s.fn, s.lo, s.hi)
            if dmin <= 0.0 or not math.isfinite(1.0 / dmin):
                return math.inf
            best = max(best, 1.0 / dmin)
    return best
