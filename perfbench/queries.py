"""query-mix: one op is one library query over a pool loaded up front.

The pool holds the ten fixtures, a smoothed step of each singular
fixture, seeded cut-form numbers and seeded membership-form numbers
(one inverted symbolically, two with x^3 pieces that the builder can
only invert by bisection).  A round asks each of the thirteen query
kinds once of every pool member, plus sup_metric on the fixed pair of
ROADMAP item 4, whose certified gap is not a bound: that op fails on
every run until the metric is mended.  Rounds repeat the same seeded
queries, so the mix is the same in every run.
"""

import math
import random

import checks
import gen
import oracles
from common import Op

WHOLE_ROUNDS = True
TRACE_ROUNDS = 2
CHILDREN = False
STEP_P = 0.5
SEEDED_CUTS = 4
SAMPLE_GRID = [k / 16 for k in range(17)]
SCALES = (-2.0, -0.5, 0.5, 3.0)
FD_STEP = 1e-7
LIPSCHITZ_TOL = 1e-5
DENSE_N = 2048

class StepShape:
    """Closed form of u + p*w from u's closed form and w's cuts."""

    def __init__(self, A, u_shape, w, p, breaks):
        self.A = A
        self.u = u_shape
        self.w = w
        self.p = p
        self.breaks = breaks
        self.singular = []
        self.mu = None

    def cut(self, a):
        lo, hi = self.u.cut(a)
        wlo, whi = self.A.alpha_cut(self.w, a)
        return lo + self.p * wlo, hi + self.p * whi

    def strong(self, a):
        lo, hi = self.u.strong(a)
        wlo, whi = self.A.strong_cut(self.w, a)
        return lo + self.p * wlo, hi + self.p * whi

    @property
    def support(self):
        return self.cut(0.0)


class Member:
    def __init__(self, name, fz, shape, flags, lipschitz):
        self.name = name
        self.fz = fz
        self.shape = shape
        self.flags = flags
        self.lipschitz = lipschitz


def build(ctx):
    A = ctx.A
    pool = []
    for n, shape in oracles.FIXTURES.items():
        pool.append(Member(n, A.cli.load_document(ctx.fixture(n)), shape,
                           oracles.FLAGS[n], oracles.LIPSCHITZ[n]))
    for n in oracles.SINGULAR:
        u = pool[list(oracles.FIXTURES).index(n)].fz
        w = A.synthesize_smoother(u, 0.5)
        step = A.convolve(u, A.scale(STEP_P, w))
        breaks = sorted(set(oracles.FIXTURES[n].breaks)
                        | set(w.left.breakpoints())
                        | set(w.right.breakpoints()))
        pool.append(Member("step:" + n, step,
                           StepShape(A, oracles.FIXTURES[n], w, STEP_P,
                                     breaks), None, None))
    for num in gen.cut_numbers(ctx.seed, SEEDED_CUTS, tag="qm"):
        pool.append(Member(num.name, ctx.load_text(num.name, num.text()),
                           num, (False, False, False, False), math.inf))
    for doc in gen.membership_docs(ctx.seed):
        flags = ((False, False, True, False) if doc.kind == "quad"
                 else (True, True, True, False))
        pool.append(Member(doc.name, ctx.load_text(doc.name, doc.text()),
                           doc, flags, doc.lipschitz))
    left = [A.Segment(0.0, 1.0, t, "inc") for t in oracles.METRIC_PAIR_TEXT]
    right = A.CutCurve([A.Segment(0.0, 1.0, "1 - a", "dec")])
    pair = [A.FuzzyNum(A.CutCurve([s]), right, name="item4-%d" % i)
            for i, s in enumerate(left)]
    return {"pool": pool, "pair": pair}


def _breaks(m):
    return getattr(m.shape, "breaks", ())


def _dense_metric(u, v):
    """Dense-grid sup distance between two closed-form numbers."""
    knots = sorted(set(_breaks(u)) | set(_breaks(v)))
    best = 0.0
    for side in (0, 1):
        def diff(a):
            return abs(u.shape.cut(a)[side] - v.shape.cut(a)[side])
        best = max(best, oracles.dense_sup(diff, knots, n=DENSE_N))
    return best


def _secant_lipschitz(shape, n=4096):
    """Largest membership slope of a smoothed step: the largest secant
    level/abscissa ratio of its cut curves on a dense level grid."""
    best = 0.0
    for side in (0, 1):
        prev = shape.cut(0.0)[side]
        for k in range(1, n + 1):
            x = shape.cut(k / n)[side]
            if x != prev:
                best = max(best, (1.0 / n) / abs(x - prev))
            prev = x
    return best


def _fd_slope(mu, x, side):
    h = -FD_STEP if side == "left" else FD_STEP
    return (mu(x + h) - mu(x)) / h


def _pick_x(rng, m):
    """A seeded abscissa inside the support, away from singular points."""
    lo, hi = m.shape.support
    if lo == hi:
        return lo
    while True:
        x = lo + (hi - lo) * (0.02 + 0.96 * rng.random())
        if all(abs(x - p[0]) > 1e-4 for p in m.shape.singular):
            return x


def expect(ctx, state):
    """Draw each round's query arguments and their expected answers."""
    A = ctx.A
    pool = state["pool"]
    rng = random.Random("query-mix-%d" % ctx.seed)
    plan = []
    for i, m in enumerate(pool):
        # a fixed partner, so that the costly pairings (a bisection-inverse
        # number against a many-segment step) do not vary with the seed
        partner = pool[(i + 1) % len(pool)]
        args = {"x": _pick_x(rng, m), "level": rng.random(),
                "levels": [rng.random() for _ in range(3)],
                "partner": partner, "r": rng.choice(SCALES)}
        lo, hi = m.shape.support
        if lo == hi:
            # a crisp point: membership jumps from 0 to 1 and back at lo
            args["point"] = (lo, "jump", "core-endpoint")
            args["slopes"] = (math.inf, -math.inf)
        elif m.shape.singular:
            args["point"] = rng.choice(m.shape.singular)
        else:
            args["point"] = (_pick_x(rng, m), None, None)
        if "slopes" in args:
            pass
        elif m.shape.mu is not None:
            args["slopes"] = (_fd_slope(m.shape.mu, args["x"], "left"),
                              _fd_slope(m.shape.mu, args["x"], "right"))
        else:
            args["slopes"] = (A.right_deriv(m.fz, args["x"]).value,
                              A.left_deriv(m.fz, args["x"]).value)
        args["dense"] = _dense_metric(m, partner)
        args["lipschitz"] = (m.lipschitz if m.lipschitz is not None
                             else _secant_lipschitz(m.shape))
        plan.append((m, args))
    state["plan"] = plan
    state["item4_dense"] = oracles.dense_sup(oracles.metric_pair_left_gap,
                                             [], n=8192)


def _ops_for(A, m, args):
    fz, sh = m.fz, m.shape
    x, level = args["x"], args["level"]
    partner = args["partner"]

    def check_mu(got):
        if sh.mu is not None:
            return checks.value(got, sh.mu(x), "membership at %r" % (x,))
        # a smoothed step: x lies in the cut at its level and leaves the
        # cuts just above it
        lo, hi = A.alpha_cut(fz, got)
        if not lo - 1e-9 <= x <= hi + 1e-9:
            return "x=%r outside the cut [%r, %r] at its level" % (x, lo, hi)
        if got < 1.0:
            lo, hi = A.alpha_cut(fz, min(1.0, got + 1e-6))
            if lo <= x <= hi:
                return "x=%r still inside the cut above level %r" % (x, got)
        return None

    def check_point(got):
        px, kind, branch = args["point"]
        if kind is None:
            return None if got is None else "unexpected %r" % (got,)
        if got is None:
            return "no singular point at %r" % (px,)
        return checks.singular([(got.x, got.kind, got.branch)],
                               [args["point"]])

    def check_flags(got):
        have = (got.in_FT, got.in_FN, got.in_FC, got.in_FD)
        if m.flags is None:
            # a smoothed step is differentiable, which implies in_FN, in_FC
            return checks.flags(have[1:], (True, True, True))
        return checks.flags(have, m.flags)

    def check_lip(got):
        return checks.value(got, args["lipschitz"], "Lipschitz estimate",
                            LIPSCHITZ_TOL)

    def check_conv(out):
        for a in args["levels"]:
            bad = checks.levelwise_sum(A.alpha_cut(out, a), sh.cut(a),
                                       partner.shape.cut(a))
            if bad:
                return bad
        return None

    def check_scale(out):
        for a in args["levels"]:
            bad = checks.levelwise_scale(A.alpha_cut(out, a), args["r"],
                                         sh.cut(a))
            if bad:
                return bad
        return None

    def check_sample(rows):
        return checks.sample_rows(rows, SAMPLE_GRID, _breaks(m), sh.cut)

    def check_slope(side):
        def run(got):
            want = args["slopes"][0 if side == "left" else 1]
            if sh.mu is None:
                # differentiable: the other one-sided slope, from setup
                return checks.smooth_point(got.value, want)
            return checks.slope(got.value, want, "%s slope" % side)
        return run

    dense = args["dense"]
    px = args["point"][0]
    return [
        ("membership", lambda: A.membership(fz, x), check_mu),
        ("alpha_cut", lambda: A.alpha_cut(fz, level),
         lambda got: checks.interval(got, sh.cut(level))),
        ("strong_cut", lambda: A.strong_cut(fz, level),
         lambda got: checks.interval(got, sh.strong(level), "strong cut")),
        ("left_deriv", lambda: A.left_deriv(fz, x), check_slope("left")),
        ("right_deriv", lambda: A.right_deriv(fz, x), check_slope("right")),
        ("singular_at", lambda: A.singular_at(fz, px), check_point),
        ("classify_points", lambda: A.classify_points(fz),
         lambda got: checks.singular([(p.x, p.kind, p.branch) for p in got],
                                     sh.singular)),
        ("class_membership", lambda: A.class_membership(fz), check_flags),
        ("sup_metric", lambda: A.sup_metric(fz, partner.fz),
         lambda got: checks.metric(got[0], got[1], dense)),
        ("lipschitz_estimate", lambda: A.lipschitz_estimate(fz), check_lip),
        ("convolve", lambda: A.convolve(fz, partner.fz), check_conv),
        ("scale", lambda: A.scale(args["r"], fz), check_scale),
        ("sample", lambda: A.sample(fz, SAMPLE_GRID), check_sample),
    ]


def round_ops(ctx, state):
    A = ctx.A
    ops = []
    for m, args in state["plan"]:
        for kind, fn, check in _ops_for(A, m, args):
            ops.append(Op("%s(%s)" % (kind, m.name), fn, check))
    u, v = state["pair"]
    dense = state["item4_dense"]
    ops.append(Op("sup_metric(item4 pair)", lambda: A.sup_metric(u, v),
                  lambda got: checks.metric(got[0], got[1], dense)))
    return ops


def rounds(ctx, state):
    ops = round_ops(ctx, state)
    while True:
        yield ops


def warm_up(ctx, state):
    for op in round_ops(ctx, state):
        try:
            op.fn()
        except Exception:  # failures are counted in the timed rounds
            pass
