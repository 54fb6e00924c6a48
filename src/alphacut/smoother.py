"""Smoother candidates: condition checks, stock families, synthesis.

A smoother is a fuzzy number w whose convolution with u removes the
non-differentiable points of u.  The checker evaluates the zero-slope
conditions that the supporting results require, names the weakest
result whose premises hold, and reports every verdict.  The
synthesizer builds a smoother from half-cosine membership steps whose
knots sit exactly at the levels u makes dangerous.
"""

import math

from .calculus import (as_left_slope, class_membership, classify_points,
                       singular_at)
from .cutcore import expr as ex
from .cutcore.build import from_membership_pieces, unit_affine
from .cutcore.curve import (CutCurve, FuzzyNum, Segment, membership,
                            membership_outer_limit)
from .cutcore.tolerance import MIN_DESCENT, TOL, TOL_SLOPE
from .errors import SmootherConditionError

CONDITION_KEYS = ("i", "ii-1", "ii-2", "iii-1", "iii-2",
                  "iv-1", "iv-2", "v-1", "v-2")

THEOREMS = ("differentiable-branches", "continuous", "general", "none")


class ConditionReport:
    """Verdicts for the smoother conditions plus the applicable result.

    theorem names the weakest guarantee whose premises hold:
    'differentiable-branches' when u has differentiable branch
    membership, 'continuous' when u is merely continuous, 'general'
    for any u, 'none' when some required condition fails.
    """

    def __init__(self):
        self.conditions = {
            k: {"verdict": "not-applicable", "levels": ()}
            for k in CONDITION_KEYS}
        self.theorem = "none"
        self.candidate_in_FD = False

    def set(self, key, verdict, levels=()):
        self.conditions[key] = {"verdict": verdict,
                                "levels": tuple(levels)}

    def verdict(self, key):
        return self.conditions[key]["verdict"]

    def passes(self, *keys):
        return all(self.verdict(k) != "fail" for k in keys)

    def failing(self):
        return [k for k in CONDITION_KEYS if self.verdict(k) == "fail"]

    def lines(self):
        out = []
        for k in CONDITION_KEYS:
            c = self.conditions[k]
            if c["levels"]:
                lv = ", ".join("%.17g" % v for v in c["levels"])
                out.append("%-6s %s (level %s)" % (k, c["verdict"], lv))
            else:
                out.append("%-6s %s" % (k, c["verdict"]))
        out.append("candidate-in-FD: %s"
                   % ("true" if self.candidate_in_FD else "false"))
        out.append("theorem: %s" % self.theorem)
        return out

    def __repr__(self):
        return "ConditionReport(theorem=%s)" % self.theorem


def _zero_above(curve, level):
    if level >= 1.0:
        return False
    return abs(as_left_slope(curve.deriv_above(level))) <= TOL


def _zero_below_top(curve):
    return abs(as_left_slope(curve.deriv_below(1.0))) <= TOL


def _requirement_levels(u):
    """Levels on each branch of u that force zero slope in a smoother.

    Returns {"left": ..., "right": ...}, each a dict with the base
    level, the interior defect levels, the jump limit levels, whether
    the core endpoint is defective, and the base strong-endpoint level
    when that point is defective.  The right branch is read as the left
    branch of the mirror -u.
    """
    points = classify_points(u)
    reqs = {}
    for branch, m in (("left", u), ("right", u.mirror)):
        sup = m.support
        x_core = m.core.lo
        base = membership(m, sup.lo)
        interior = set()
        limits = set()
        for pt in points:
            if pt.branch == branch:
                interior.add(pt.level)
                if pt.kind == "jump":
                    limits.add(pt.outer_limit)
        core_inside = sup.lo + TOL < x_core < sup.hi - TOL
        core_defect = core_inside and singular_at(m, x_core) is not None
        if core_inside:
            lam = membership_outer_limit(m, x_core)
            if 1.0 - lam > TOL:
                limits.add(lam)
        base_strong = None
        if base < 1.0:
            x_str = m.left.strong_value(base)
            if sup.lo + TOL < x_str < sup.hi - TOL and \
                    singular_at(m, x_str) is not None:
                base_strong = base
        reqs[branch] = {"base": base, "interior": sorted(interior),
                        "limits": sorted(limits), "core_defect": core_defect,
                        "base_strong": base_strong}
    return reqs


def _check_levels(w_curve, levels):
    """Split levels into (passing, failing) zero-slope checks on w."""
    good, bad = [], []
    for lv in levels:
        (good if _zero_above(w_curve, lv) else bad).append(lv)
    return good, bad


def check_smoother_conditions(u, w):
    """Evaluate every smoother condition of w against u.

    Conditions ending in -1 read the left branches, those ending in -2
    the right branches, each read as the left branch of the mirror.
    There w's level derivatives are exactly the negated ones, and the
    zero-slope checks read only their magnitude.
    """
    rep = ConditionReport()
    reqs = _requirement_levels(u)
    bases = []
    for n, req, m in (("1", reqs["left"], w), ("2", reqs["right"], w.mirror)):
        wc = m.left
        wb = membership(m, m.support.lo)
        bases.append((wb, req["base"]))
        if req["core_defect"]:
            rep.set("ii-" + n, "pass" if _zero_below_top(wc) else "fail",
                    (1.0,))
        if req["base_strong"] is not None:
            # the requirement lives at w's own base level
            ok = wb >= 1.0 or _zero_above(wc, wb)
            rep.set("iii-" + n, "pass" if ok else "fail",
                    (req["base_strong"],))
        for key, levels in (("iv-", req["interior"]), ("v-", req["limits"])):
            if levels:
                good, bad = _check_levels(wc, levels)
                rep.set(key + n, "fail" if bad else "pass", bad or good)
    base_ok = all(abs(wb - ub) <= TOL for wb, ub in bases)
    rep.set("i", "pass" if base_ok else "fail",
            () if base_ok else [ub for _, ub in bases])

    rep.candidate_in_FD = class_membership(w).in_FD

    uf = class_membership(u)
    i_ok = rep.passes("i")
    ii_ok = rep.passes("ii-1", "ii-2")
    iv_ok = rep.passes("iv-1", "iv-2")
    v_ok = rep.passes("v-1", "v-2")
    if not rep.candidate_in_FD:
        rep.theorem = "none"
    elif uf.in_FN and uf.in_FC and i_ok and ii_ok:
        rep.theorem = "differentiable-branches"
    elif uf.in_FC and i_ok and ii_ok and iv_ok:
        rep.theorem = "continuous"
    elif i_ok and ii_ok and iv_ok and v_ok:
        rep.theorem = "general"
    else:
        rep.theorem = "none"
    return rep


class SmootherFamilySpec:
    """Names one stock smoother construction and its parameters."""

    FAMILIES = ("parabola", "generator", "clipped", "two-generator",
                "synthesized")

    def __init__(self, family, p=1.0, l=0.0, r=0.0, f=None, g=None,
                 knots=None):
        if family not in self.FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        self.family = family
        self.p = float(p)
        self.l = float(l)
        self.r = float(r)
        self.f = f
        self.g = g
        self.knots = knots

    def __repr__(self):
        return "SmootherFamilySpec(%r, p=%r)" % (self.family, self.p)


def _parabola_cuts(p, l=0.0, r=0.0):
    """Cut curves of the parabola bump, optionally base-clipped."""
    def left(clip):
        segs = [Segment(clip, 1.0, ex.scal(-p, ex.sqrt(ex.sub(
            ex.const(1.0), ex.var()))), "inc")]
        if clip > 0.0:
            segs.insert(0, Segment(0.0, clip, ex.const(
                -p * math.sqrt(1.0 - clip)), "const"))
        return CutCurve(segs)
    return left(l), left(r).negated()


def _as_expr(f, varname="a"):
    if isinstance(f, str):
        return ex.parse(f, varname=varname)
    return f


def _validate_generator(fe):
    """Check the level-generator hypotheses, naming the violated one."""
    f0 = ex.evaluate(fe, 0.0)
    f1 = ex.evaluate(fe, 1.0)
    if abs(f0 - 1.0) > TOL:
        raise ValueError("generator must satisfy f(0) = 1, got %r" % (f0,))
    if abs(f1) > TOL:
        raise ValueError("generator must satisfy f(1) = 0, got %r" % (f1,))
    d = ex.derivative(fe)
    for k in range(1, 32):
        a = k / 32.0
        if ex.evaluate(d, a) > -MIN_DESCENT:
            raise ValueError(
                "generator must be strictly decreasing on [0, 1]; "
                "slope fails at %r" % (a,))
    probes = [abs(ex.evaluate(d, 1.0 - h)) for h in (1e-4, 1e-7, 1e-10)]
    if not (probes[0] < probes[1] < probes[2] and probes[2] > 1e4):
        raise ValueError(
            "generator slope must diverge at level 1 so the smoother "
            "flattens at its core")


def _generator_cuts(p, fe):
    _validate_generator(fe)
    left = CutCurve([Segment(0.0, 1.0, ex.scal(-p, fe), "inc")])
    return left, left.negated()


def _two_generator(spec):
    """Plateau smoother from two membership generators.

    f rises from the left base level l to 1 with zero slope at 1;
    g falls from 1 to the right base level r with zero slope at 0.
    knots give the four support multipliers a < b <= c < d scaled
    by p, with b..c the plateau.
    """
    p = spec.p
    fe = _as_expr(spec.f, varname="x")
    ge = _as_expr(spec.g, varname="x")
    if spec.knots is None:
        raise ValueError("two-generator family needs knots (a, b, c, d)")
    ka, kb, kc, kd = [float(t) for t in spec.knots]
    if not (ka < kb <= kc < kd):
        raise ValueError("knots must satisfy a < b <= c < d")
    xa, xb, xc, xd = ka * p, kb * p, kc * p, kd * p
    f0 = ex.evaluate(fe, 0.0)
    f1 = ex.evaluate(fe, 1.0)
    g0 = ex.evaluate(ge, 0.0)
    g1 = ex.evaluate(ge, 1.0)
    if abs(f0 - spec.l) > TOL or abs(f1 - 1.0) > TOL:
        raise ValueError(
            "rising generator must map 0 to the left base level and "
            "1 to 1, got f(0)=%r f(1)=%r" % (f0, f1))
    if abs(g0 - 1.0) > TOL or abs(g1 - spec.r) > TOL:
        raise ValueError(
            "falling generator must map 0 to 1 and 1 to the right "
            "base level, got g(0)=%r g(1)=%r" % (g0, g1))
    if abs(ex.evaluate(ex.derivative(fe), 1.0)) > TOL_SLOPE:
        raise ValueError("rising generator needs zero slope at 1")
    if abs(ex.evaluate(ex.derivative(ge), 0.0)) > TOL_SLOPE:
        raise ValueError("falling generator needs zero slope at 0")
    sub_f = ex.scal(1.0 / (xb - xa), ex.sub(ex.var(), ex.const(xa)))
    sub_g = ex.scal(1.0 / (xd - xc), ex.sub(ex.var(), ex.const(xc)))
    pieces = [(xa, xb, ex.substitute(fe, sub_f), "inc")]
    if xb < xc:
        pieces.append((xb, xc, ex.const(1.0), "const"))
    pieces.append((xc, xd, ex.substitute(ge, sub_g), "dec"))
    return from_membership_pieces(pieces, name="two-generator")


def family(spec):
    """Instantiate a stock smoother family from its spec."""
    if not 0.0 < spec.p < math.inf:
        raise ValueError("family spread p must be finite and positive, "
                         "got %r" % (spec.p,))
    if spec.family == "parabola":
        left, right = _parabola_cuts(spec.p)
        return FuzzyNum(left, right, name="parabola(p=%r)" % spec.p)
    if spec.family == "generator":
        if spec.f is None:
            raise ValueError("generator family needs a level function f")
        left, right = _generator_cuts(spec.p, _as_expr(spec.f))
        return FuzzyNum(left, right, name="generator(p=%r)" % spec.p)
    if spec.family == "clipped":
        if not (0.0 <= spec.l < 1.0 and 0.0 <= spec.r < 1.0):
            raise ValueError("clip levels must sit in [0, 1)")
        left, right = _parabola_cuts(spec.p, spec.l, spec.r)
        return FuzzyNum(left, right,
                        name="clipped(p=%r, l=%r, r=%r)"
                        % (spec.p, spec.l, spec.r))
    if spec.family == "two-generator":
        return _two_generator(spec)
    raise ValueError(
        "family 'synthesized' is built per target; call "
        "synthesize_smoother(u, p) instead")


def _branch_step_levels(req):
    """Knot levels for one synthesized branch: base, defects, top."""
    base = req["base"]
    inner = sorted(set(req["interior"]) | set(req["limits"]))
    levels = [base]
    for lv in inner:
        if lv > levels[-1] + TOL and lv < 1.0 - TOL:
            levels.append(lv)
    levels.append(1.0)
    return levels


def _cosine_step(s0, s1, x0, dx, rising, last):
    """Segment tracing a half-cosine membership step on [s0, s1].

    The inverse is x0 +- (dx/pi) * acos(z) with z affine from +1 at
    s0 to -1 at s1; the arc ends are anchored bitwise because acos
    has unbounded slope there.  The last step per branch is anchored
    at the core end instead so the curve hits 0 exactly at level 1.
    """
    z = unit_affine(s0, s1, 1.0, -1.0)
    if z is None:
        slope = -2.0 / (s1 - s0)
        z = ex.add(ex.const(-1.0),
                   ex.scal(slope, ex.sub(ex.var(), ex.const(s1))))
    c = dx / math.pi
    arc, pi = ex.acos(z), ex.const(math.pi)
    if last:
        body = ex.scal(c, ex.sub(arc, pi) if rising else ex.sub(pi, arc))
    else:
        body = ex.add(ex.const(x0), ex.scal(c if rising else -c, arc))
    return Segment(s0, s1, body, "inc" if rising else "dec")


def _synth_branch(req, branch, p, lipschitz_cap):
    """One cut curve of the synthesized smoother."""
    levels = _branch_step_levels(req)
    base = levels[0]
    if base >= 1.0 - TOL:
        # this side of u is already crisp; pin the branch at zero
        return CutCurve([Segment(0.0, 1.0, ex.const(0.0), "const")])
    m = len(levels) - 1
    half = p
    if lipschitz_cap is not None:
        ds_max = max(b - a for a, b in zip(levels, levels[1:]))
        half = max(half, math.pi * m * ds_max / (2.0 * lipschitz_cap))
    dx = half / m
    segs = []
    rising = branch == "left"
    start = -half if rising else half
    if base > 0.0:
        segs.append(Segment(0.0, base, ex.const(start), "const"))
    for j in range(m):
        x0 = start + j * dx if rising else start - j * dx
        segs.append(_cosine_step(levels[j], levels[j + 1], x0, dx,
                                 rising, j == m - 1))
    return CutCurve(segs)


def synthesize_smoother(u, p, preserve_core=False, lipschitz_cap=None):
    """Build a smoother tailored to u with halfwidth roughly p.

    Raises SmootherConditionError when no smoother can satisfy the
    request, which happens only for crisp u with preserve_core set.
    """
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError("smoother halfwidth p must be finite and positive, "
                         "got %r" % (p,))
    if lipschitz_cap is not None and not 0.0 < lipschitz_cap < math.inf:
        raise ValueError("lipschitz_cap must be finite and positive, got %r"
                         % (lipschitz_cap,))
    base_l = membership(u, u.support.lo)
    base_r = membership(u, u.support.hi)
    if base_l >= 1.0 - TOL and base_r >= 1.0 - TOL:
        # crisp target: only the wide indicator matches its base levels
        if preserve_core:
            raise SmootherConditionError(
                "a crisp target admits only indicator smoothers, whose "
                "core cannot shrink to a point; core preservation is "
                "impossible")
        left = CutCurve([Segment(0.0, 1.0, ex.const(-p), "const")])
        return FuzzyNum(left, left.negated(),
                        name="synthesized(p=%r)" % (p,))
    reqs = _requirement_levels(u)
    left = _synth_branch(reqs["left"], "left", p, lipschitz_cap)
    right = _synth_branch(reqs["right"], "right", p, lipschitz_cap)
    w = FuzzyNum(left, right, name="synthesized(p=%r)" % (p,))
    if preserve_core:
        w = core_preserving_shift(w)
    rep = check_smoother_conditions(u, w)
    if rep.theorem == "none":
        raise SmootherConditionError(
            "synthesized smoother failed its own conditions: %s"
            % (rep.failing(),), report=rep)
    return w


def core_preserving_shift(w):
    """Shift each branch so the core collapses onto zero."""
    return FuzzyNum(w.left.shifted(w.left.value(1.0)),
                    w.right.shifted(w.right.value(1.0)),
                    name=w.name)
