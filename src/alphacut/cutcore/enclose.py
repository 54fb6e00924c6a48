"""Outward-rounded interval enclosures of expression trees.

enclosed(e), also reachable as expr.enclosed, turns an Expr into a
closure over level intervals, the way expr.compiled turns it into one
over levels; the closure is kept on the node.  Each grammar kind has
its textbook interval extension (Moore, Kearfott and Cloud,
Introduction to Interval Analysis, SIAM 2009, ch. 5).
"""

import math

from ..errors import ParseError

_NAN3 = (math.nan, math.nan, math.inf)
# one ulp at 1: twice the rounding of one operation, so the error bounds
# also absorb the rounding of their own arithmetic
_EPS = 2.0 ** -52
_TAU = 2.0 * math.pi


def enclosed(e):
    """The closure (lo, hi) -> (lo, hi, err) enclosing e, built once per node.

    For every float level t in [lo, hi], both the exact value of e at t
    and what expr.compiled(e) returns at t lie in the returned [lo, hi],
    and err bounds the distance between those two.  Bounds are rounded
    outward with math.nextafter, libm results (sin, cos, asin, acos,
    **) are widened by two ulps, and the point evaluator's conventions
    hold: half powers clamp the base at 0, asin and acos clamp their
    argument to [-1, 1], 0 to a negative power is inf.  A NaN bound
    means nothing is proven; so does every interval where a negative
    power meets 0, a power overflows or a trig argument passes 1e6, and
    every inv or dinv node.
    """
    fn = e._iv
    if fn is None:
        fn = e._iv = _enclose(e)
    return fn


def _rounded(lo, hi, err, ulps=1):
    """Bounds computed to nearest, widened outward by ulps; NaN-checked."""
    if not lo <= hi:
        return _NAN3
    for _ in range(ulps):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return lo, hi, err + ulps * _EPS * max(-lo, hi)


def _enclose_sum(f, g, sign):
    def enc(lo, hi):
        a0, a1, ea = f(lo, hi)
        b0, b1, eb = g(lo, hi)
        if sign > 0:
            return _rounded(a0 + b0, a1 + b1, ea + eb)
        return _rounded(a0 - b1, a1 - b0, ea + eb)
    return enc


def _enclose_mul(f, g):
    def enc(lo, hi):
        a0, a1, ea = f(lo, hi)
        b0, b1, eb = g(lo, hi)
        ps = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
        if any(p != p for p in ps):
            return _NAN3
        # |af*bf - at*bt| <= |af|*|bf - bt| + |bt|*|af - at|
        return _rounded(min(ps), max(ps),
                        max(-a0, a1) * eb + max(-b0, b1) * ea)
    return enc


def _enclose_scal(c, f):
    def enc(lo, hi):
        a0, a1, ea = f(lo, hi)
        if c < 0.0:
            a0, a1 = a1, a0
        return _rounded(c * a0, c * a1, abs(c) * ea)
    return enc


def _enclose_power(f, num, den):
    p = num if den == 1 else num / 2.0

    def enc(lo, hi):
        a0, a1, ea = f(lo, hi)
        if den == 2:
            a0, a1 = max(a0, 0.0), max(a1, 0.0)
        if not a0 <= a1:
            return _NAN3
        straddles = a0 <= 0.0 <= a1
        small = 0.0 if straddles else min(abs(a0), abs(a1))
        if p < 0 and small == 0.0:
            return _NAN3
        try:
            y0, y1 = a0 ** p, a1 ** p
            # the largest |p * b^(p-1)| between the base's bounds
            if p >= 1:
                lip = p * max(-a0, a1) ** (p - 1)
            else:
                lip = abs(p) * small ** (p - 1) if small else math.inf
        except (OverflowError, ZeroDivisionError):
            return _NAN3
        lo, hi = min(y0, y1), max(y0, y1)
        if straddles and num % 2 == 0:
            lo = 0.0
        err = lip * ea if ea else 0.0
        if p == 0.5:
            err = min(err, ea ** 0.5)
        return _rounded(lo, hi, err, 2)
    return enc


def _enclose_trig(f, fn, peak):
    """sin or cos, whose maxima sit at peak + k*tau, minima half a turn on."""
    def enc(lo, hi):
        a0, a1, ea = f(lo, hi)
        if not -1e6 < a0 <= a1 < 1e6:
            return _NAN3
        y0, y1 = fn(a0), fn(a1)
        lo, hi = min(y0, y1), max(y0, y1)
        # include an extremum that may lie inside, with slack for the
        # rounding of the turn counts
        if _may_hold(a0, a1, peak):
            hi = 1.0
        if _may_hold(a0, a1, peak + math.pi):
            lo = -1.0
        return _rounded(lo, hi, min(ea, 2.0), 2)
    return enc


def _may_hold(a0, a1, c):
    """True when c + k*tau may lie in [a0, a1] for some integer k."""
    return (math.floor((a1 - c) / _TAU + 1e-9)
            >= math.ceil((a0 - c) / _TAU - 1e-9))


def _enclose_arc(f, fn, increasing):
    def enc(lo, hi):
        a0, a1, ea = f(lo, hi)
        if not a0 <= a1:
            return _NAN3
        c0, c1 = min(1.0, max(-1.0, a0)), min(1.0, max(-1.0, a1))
        y0, y1 = fn(c0), fn(c1)
        if not increasing:
            y0, y1 = y1, y0
        err = 0.0
        if ea:
            # Lipschitz away from +-1, and |asin a - asin b| <=
            # pi * sqrt(|a - b| / 2) everywhere
            m = max(-c0, c1)
            err = math.pi * (ea / 2.0) ** 0.5
            if m < 1.0:
                err = min(err, ea / ((1.0 - m) * (1.0 + m)) ** 0.5)
        return _rounded(y0, y1, err, 2)
    return enc


def _enclose(e):
    k = e.kind
    if k == "const":
        c = e.value
        return lambda lo, hi: (c, c, 0.0)
    if k == "var":
        return lambda lo, hi: (lo, hi, 0.0)
    if k in ("add", "sub"):
        return _enclose_sum(enclosed(e.args[0]), enclosed(e.args[1]),
                            1 if k == "add" else -1)
    if k == "mul":
        return _enclose_mul(enclosed(e.args[0]), enclosed(e.args[1]))
    if k in ("inv", "dinv"):
        # a bisection inverse and its slope prove nothing
        return lambda lo, hi: _NAN3
    f = enclosed(e.args[0])
    if k == "scal":
        return _enclose_scal(e.value, f)
    if k == "rpow":
        return _enclose_power(f, *e.value)
    if k == "sqrt":
        return _enclose_power(f, 1, 2)
    if k == "sin":
        return _enclose_trig(f, math.sin, 0.5 * math.pi)
    if k == "cos":
        return _enclose_trig(f, math.cos, 0.0)
    if k in ("asin", "acos"):
        return _enclose_arc(f, getattr(math, k), k == "asin")
    raise ParseError("unknown expression kind %r" % (k,))
