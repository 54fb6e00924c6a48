"""Piecewise-monotone level curves and the fuzzy-number value type.

A fuzzy number is stored by its two cut curves: the left endpoint
u^-(alpha) (nondecreasing) and the right endpoint u^+(alpha)
(nonincreasing), each a list of segments covering [0,1].  Every
segment function is an ExprFn: a closed-form expression in the level,
or one built on inv, the bisection inverse of a membership expression
(expr.InverseFn, re-exported here), so every curve has a text form and
shifts, scalings and sums stay expressions.
"""

from ..errors import StructuralError
from . import expr as ex
from .expr import InverseFn  # noqa: F401  (inv nodes solve through it)
from .tolerance import BISECT_STEPS, LEVEL_TOL

MONO_TAGS = ("inc", "dec", "const")


class ExprFn:
    """Segment function backed by a symbolic expression in the level."""

    def __init__(self, e):
        if isinstance(e, str):
            e = ex.parse(e)
        self.expr = e
        self._f = ex.compiled(e)
        self._df = None  # the compiled derivative, built on first use

    def __call__(self, alpha):
        return self._f(alpha)

    def deriv(self, alpha):
        df = self._df
        if df is None:
            df = self._df = ex.compiled(ex.derivative(self.expr))
        return df(alpha)

    def text(self, varname="a"):
        return ex.to_text(self.expr, varname)

    def __repr__(self):
        return "ExprFn(%s)" % self.text()


class Segment:
    """One piece of a cut curve on the level interval [lo, hi].

    own_right says whether the segment's value is the curve value at
    hi; setting it False hands the point to the next segment, which
    is how discontinuity conventions that break the representation
    axioms are written down for negative tests.
    """

    def __init__(self, lo, hi, fn, mono, own_right=True):
        if not (0.0 <= lo <= hi <= 1.0):
            raise StructuralError(
                "segment levels must satisfy 0 <= lo <= hi <= 1, got "
                "[%r, %r]" % (lo, hi))
        if mono not in MONO_TAGS:
            raise StructuralError("unknown monotonicity tag %r" % (mono,))
        if isinstance(fn, (str, ex.Expr)):
            fn = ExprFn(fn)
        self.lo = float(lo)
        self.hi = float(hi)
        self.fn = fn
        self.mono = mono
        self.own_right = bool(own_right)

    @property
    def width(self):
        return self.hi - self.lo

    def check_mono(self):
        """Raise if the sampled derivative contradicts the tag.

        The tolerance is 1e-9 times the value's magnitude, at least 1,
        so scaling a segment by c > 0 never makes it fail where the
        value is at least 1 in magnitude or c is at most 1.
        """
        if self.width == 0.0:
            return
        pts = [self.lo + self.width * t for t in
               (0.1, 0.3, 0.5, 0.7, 0.9)]
        for a in pts:
            d = self.fn.deriv(a)
            if self.mono == "inc":
                bad, what = -d, "decreases"
            elif self.mono == "dec":
                bad, what = d, "increases"
            else:
                bad, what = abs(d), "varies"
            if bad > 1e-9 and bad > 1e-9 * max(1.0, abs(self.fn(a))):
                raise StructuralError(
                    "segment tagged %s %s at level %r" % (self.mono, what, a))

    def __repr__(self):
        return "Segment[%g, %g] %s: %s" % (
            self.lo, self.hi, self.mono, self.fn.text())


class CutCurve:
    """Segments covering [0,1] with explicit point ownership.

    Ownership: the first segment owns its lo; every segment owns its
    hi when own_right is set (the last one always does); a segment
    owns its lo when the previous segment declined its hi.
    """

    def __init__(self, segments):
        segs = list(segments)
        if not segs:
            raise StructuralError("cut curve needs at least one segment")
        if segs[0].lo != 0.0:
            raise StructuralError("first segment must start at level 0")
        if segs[-1].hi != 1.0:
            raise StructuralError("last segment must end at level 1")
        for i in range(len(segs) - 1):
            if segs[i].hi != segs[i + 1].lo:
                raise StructuralError(
                    "segment gap or overlap at level %r vs %r" % (
                        segs[i].hi, segs[i + 1].lo))
        for i, s in enumerate(segs):
            if s.width == 0.0:
                if i > 0 and segs[i - 1].own_right:
                    raise StructuralError(
                        "zero-width segment at level %r is unreachable: "
                        "previous segment owns the point" % (s.lo,))
                if not s.own_right and i < len(segs) - 1:
                    raise StructuralError(
                        "zero-width segment at level %r owns nothing"
                        % (s.lo,))
            s.check_mono()
        self.segments = segs

    def owner_index(self, alpha):
        segs = self.segments
        last = len(segs) - 1
        for i, s in enumerate(segs):
            if s.lo < alpha < s.hi:
                return i
            if alpha == s.hi and (s.own_right or i == last):
                return i
            if alpha == s.lo and (i == 0 or not segs[i - 1].own_right):
                return i
        raise StructuralError("level %r not covered" % (alpha,))

    def value(self, alpha):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("level %r outside [0, 1]" % (alpha,))
        return self.segments[self.owner_index(alpha)].fn(alpha)

    def right_limit(self, alpha):
        """Limit of the curve value from above the level; needs alpha < 1."""
        if not 0.0 <= alpha < 1.0:
            raise ValueError("right limit needs a level in [0, 1)")
        for s in self.segments:
            if s.hi > alpha:
                return s.fn(max(alpha, s.lo))
        raise StructuralError("level %r not covered" % (alpha,))

    def left_limit(self, alpha):
        """Limit of the curve value from below the level; needs alpha > 0."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError("left limit needs a level in (0, 1]")
        for s in reversed(self.segments):
            if s.lo < alpha:
                return s.fn(min(alpha, s.hi))
        raise StructuralError("level %r not covered" % (alpha,))

    def deriv_above(self, alpha):
        """One-sided level derivative from above; needs alpha < 1."""
        if not 0.0 <= alpha < 1.0:
            raise ValueError("derivative from above needs a level in [0, 1)")
        for s in self.segments:
            if s.hi > alpha:
                return s.fn.deriv(max(alpha, s.lo))
        raise StructuralError("level %r not covered" % (alpha,))

    def deriv_below(self, alpha):
        """One-sided level derivative from below; needs alpha > 0."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError("derivative from below needs a level in (0, 1]")
        for s in reversed(self.segments):
            if s.lo < alpha:
                return s.fn.deriv(min(alpha, s.hi))
        raise StructuralError("level %r not covered" % (alpha,))

    def strong_value(self, alpha):
        if alpha >= 1.0:
            return self.value(1.0)
        return self.right_limit(alpha)

    def breakpoints(self):
        """Interior junction levels, ascending, without duplicates."""
        out = []
        for s in self.segments[:-1]:
            if 0.0 < s.hi < 1.0 and (not out or out[-1] != s.hi):
                out.append(s.hi)
        return out

    def shifted(self, c):
        return CutCurve([
            Segment(s.lo, s.hi, ex.sub(s.fn.expr, ex.const(c)), s.mono,
                    s.own_right)
            for s in self.segments])

    def scaled(self, c):
        if c <= 0.0:
            raise ValueError("scaled() needs a positive factor")
        return CutCurve([
            Segment(s.lo, s.hi, ex.scal(c, s.fn.expr), s.mono, s.own_right)
            for s in self.segments])

    def negated(self):
        """The curve of -x: every value negated, inc and dec swapped."""
        flip = {"inc": "dec", "dec": "inc", "const": "const"}
        return CutCurve([
            Segment(s.lo, s.hi, ex.neg(s.fn.expr), flip[s.mono], s.own_right)
            for s in self.segments])

    def __repr__(self):
        return "CutCurve(%r)" % (self.segments,)


class Interval:
    def __init__(self, lo, hi):
        self.lo = float(lo)
        self.hi = float(hi)

    def __iter__(self):
        return iter((self.lo, self.hi))

    def __eq__(self, other):
        if isinstance(other, Interval):
            return self.lo == other.lo and self.hi == other.hi
        if isinstance(other, tuple) and len(other) == 2:
            return (self.lo, self.hi) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self):
        return self.hi - self.lo

    def __repr__(self):
        return "Interval(%r, %r)" % (self.lo, self.hi)


class FuzzyNum:
    """A fuzzy number as its pair of cut curves."""

    def __init__(self, left, right, name=None, doc=None):
        self.left = left
        self.right = right
        self.name = name
        self.doc = doc
        # left and right are never reassigned, so the base and top
        # cuts and the mirror are computed once, on first read
        self._support = None
        self._core = None
        self._mirror = None

    @property
    def support(self):
        if self._support is None:
            self._support = Interval(self.left.value(0.0),
                                     self.right.value(0.0))
        return self._support

    @property
    def core(self):
        if self._core is None:
            self._core = Interval(self.left.value(1.0),
                                  self.right.value(1.0))
        return self._core

    @property
    def mirror(self):
        """The fuzzy number -u, whose left branch is u's right branch.

        Negation is exact, so a right-branch query on u is answered
        bitwise as the mirrored left-branch query on -u at -x.  The
        mirror keeps no reference back to u: a cycle would keep every
        number alive until the cyclic collector runs.
        """
        if self._mirror is None:
            self._mirror = FuzzyNum(self.right.negated(),
                                    self.left.negated())
        return self._mirror

    def is_crisp_point(self):
        s = self.support
        return s.lo == s.hi

    def __repr__(self):
        return "FuzzyNum(%s)" % (self.name or "unnamed")


class ValidationReport:
    """Verdicts for the four cut-representation conditions.

    i: left curve nondecreasing and left-continuous on (0,1];
    ii: right curve nonincreasing and left-continuous on (0,1];
    iii: both curves right-continuous at 0;
    iv: left core endpoint does not exceed the right one.
    """

    def __init__(self):
        self.conditions = {}

    def set(self, key, verdict, witness=None):
        self.conditions[key] = {"verdict": verdict, "witness": witness}

    @property
    def ok(self):
        return all(c["verdict"] == "pass" for c in self.conditions.values())

    def failures(self):
        return [k for k, c in self.conditions.items()
                if c["verdict"] == "fail"]

    def lines(self):
        out = []
        for key in ("i", "ii", "iii", "iv"):
            c = self.conditions[key]
            if c["witness"] is None:
                out.append("%-4s %s" % (key, c["verdict"]))
            else:
                out.append("%-4s %s (level %.17g)" % (
                    key, c["verdict"], c["witness"]))
        return out

    def __repr__(self):
        return "ValidationReport(%s)" % ", ".join(
            "%s=%s" % (k, v["verdict"]) for k, v in self.conditions.items())


def _check_direction(curve, nondecreasing, tol):
    """Return a witness level where monotonicity fails, or None."""
    for s in curve.segments:
        bad = s.mono == ("dec" if nondecreasing else "inc")
        if bad and s.width > 0.0:
            return s.lo
    for i in range(len(curve.segments) - 1):
        a = curve.segments[i]
        b = curve.segments[i + 1]
        va = a.fn(a.hi)
        vb = b.fn(b.lo)
        if nondecreasing and vb < va - tol:
            return a.hi
        if not nondecreasing and vb > va + tol:
            return a.hi
    return None


def _check_left_continuity(curve, tol):
    for s in curve.segments[1:]:
        c = s.lo
        if c == 0.0:
            continue
        if abs(curve.value(c) - curve.left_limit(c)) > tol:
            return c
    return None


def validate(fz, tol=LEVEL_TOL):
    """Check the representation conditions; structural errors raise."""
    rep = ValidationReport()

    w = _check_direction(fz.left, True, tol)
    if w is None:
        w = _check_left_continuity(fz.left, tol)
    rep.set("i", "fail" if w is not None else "pass", w)

    w = _check_direction(fz.right, False, tol)
    if w is None:
        w = _check_left_continuity(fz.right, tol)
    rep.set("ii", "fail" if w is not None else "pass", w)

    w = None
    for curve in (fz.left, fz.right):
        if abs(curve.value(0.0) - curve.right_limit(0.0)) > tol:
            w = 0.0
    rep.set("iii", "fail" if w is not None else "pass", w)

    bad_iv = fz.left.value(1.0) > fz.right.value(1.0) + tol
    rep.set("iv", "fail" if bad_iv else "pass", 1.0 if bad_iv else None)
    return rep


def alpha_cut(fz, alpha):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("level %r outside [0, 1]" % (alpha,))
    return Interval(fz.left.value(alpha), fz.right.value(alpha))


def strong_cut(fz, alpha):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("level %r outside [0, 1]" % (alpha,))
    return Interval(fz.left.strong_value(alpha),
                    fz.right.strong_value(alpha))


def _scan(curve, x, strict):
    """sup of levels whose value on a left curve sits at or below x.

    strict=True computes sup{level : value < x} instead, which is the
    membership limit from the left at x.  Right-branch scans run on the
    mirror's left curve at -x.
    """
    best = 0.0
    for s in curve.segments:
        if s.width == 0.0:
            v = s.fn(s.lo)
            if (v < x) if strict else (v <= x):
                best = max(best, s.lo)
                continue
            break
        flo = s.fn(s.lo)
        fhi = s.fn(s.hi)
        if (fhi < x) if strict else (fhi <= x):
            best = s.hi
            continue
        if strict and fhi == x and s.mono != "const":
            # strictly increasing piece: every lower level is below x,
            # so the supremum is the junction level itself, exactly
            best = s.hi
            continue
        if (flo >= x) if strict else (flo > x):
            break
        if s.mono == "const":
            # constant run equal to x under the strict scan stops here
            break
        if not strict and flo == x:
            # a strictly monotone piece leaves x immediately, so the
            # supremum is the start level itself; bisection would creep
            # a few ulps past it through cancellation in fn
            best = max(best, s.lo)
            break
        best = max(best, _bisect(s.fn, s.lo, s.hi, x, strict, BISECT_STEPS))
        break
    return best


def _bisect(fn, lo, hi, x, strict, n):
    """Halve [lo, hi] at most n times, keeping fn(lo) <= x (< x if strict)."""
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = fn(mid)
        if v < x or (v == x and not strict):
            lo = mid
        else:
            hi = mid
    return lo


def _scan_pair(curve, x):
    """(_scan(curve, x, False), _scan(curve, x, True)) from one walk.

    The predicates v <= x and v < x agree wherever v != x, so the two
    scans make the same decisions until a compared value equals x.  A
    bisection midpoint with fn(mid) == x parts them: the non-strict
    scan goes on in [mid, hi] and the strict one in [lo, mid], each
    with the halvings it has left.  A segment end or zero-width value
    equal to x takes the two plain scans instead.
    """
    best = 0.0
    for s in curve.segments:
        if s.width == 0.0:
            v = s.fn(s.lo)
            if v == x:
                return _scan(curve, x, False), _scan(curve, x, True)
            if v < x:
                best = max(best, s.lo)
                continue
            return best, best
        flo = s.fn(s.lo)
        fhi = s.fn(s.hi)
        if flo == x or fhi == x:
            return _scan(curve, x, False), _scan(curve, x, True)
        if fhi < x:
            best = s.hi
            continue
        if flo > x or s.mono == "const":
            return best, best
        fn = s.fn
        lo, hi = s.lo, s.hi
        for i in range(BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            v = fn(mid)
            if v == x:
                n = BISECT_STEPS - 1 - i
                return (max(best, _bisect(fn, mid, hi, x, False, n)),
                        max(best, _bisect(fn, lo, mid, x, True, n)))
            if v < x:
                lo = mid
            else:
                hi = mid
        return max(best, lo), max(best, lo)
    return best, best


def membership(fz, x):
    """Membership level of x, exact at stored breakpoint images."""
    sup = fz.support
    if x < sup.lo or x > sup.hi:
        return 0.0
    core = fz.core
    if core.lo <= x <= core.hi:
        return 1.0
    if x < core.lo:
        return _scan(fz.left, x, strict=False)
    return _scan(fz.mirror.left, -x, strict=False)


def membership_outer_limit(fz, x):
    """Membership limit at x from the side away from the core.

    On the left branch this is the limit from the left, on the right
    branch the limit from the right; it is the level written lambda
    in jump classifications.
    """
    sup = fz.support
    core = fz.core
    if x <= sup.lo or x >= sup.hi:
        return 0.0
    if x <= core.lo:
        return _scan(fz.left, x, strict=True)
    if x >= core.hi:
        return _scan(fz.mirror.left, -x, strict=True)
    return 1.0


def membership_pair(fz, x):
    """(membership(fz, x), membership_outer_limit(fz, x)), bitwise.

    Off the core and inside the support both levels scan the same left
    curve, so one shared walk answers both; elsewhere this is the two
    calls.
    """
    sup = fz.support
    core = fz.core
    if sup.lo < x < core.lo:
        return _scan_pair(fz.left, x)
    if core.hi < x < sup.hi:
        return _scan_pair(fz.mirror.left, -x)
    return membership(fz, x), membership_outer_limit(fz, x)


def sample(fz, grid):
    levels = sorted(set(float(a) for a in grid))
    if not levels:
        raise ValueError("sample needs a nonempty level grid")
    if levels[0] < 0.0 or levels[-1] > 1.0:
        raise ValueError("sample grid must lie in [0, 1]")
    merged = set(levels)
    merged.update(fz.left.breakpoints())
    merged.update(fz.right.breakpoints())
    rows = []
    for a in sorted(merged):
        rows.append((a, fz.left.value(a), fz.right.value(a)))
    return rows
