"""verified-schedule: one op is one certified smoothing step.

An op runs approximate(u, w, [p]) with smoothness verification on and
then preservation_report for that step.  The pairs (u, w) are the five
singular fixtures and seeded piecewise-affine numbers, each with a
synthesized smoother in plain, core-preserving and Lipschitz-capped
form; pass k of the op sequence uses p = 1/k, so every pair walks the
default schedule 1, 1/2, 1/3, ...
"""

import random

import checks
import gen
import oracles
from common import Op

HALFWIDTH = 0.5
LIPSCHITZ_CAP = 2.0
SEEDED_TARGETS = 3
VARIANTS = (("plain", {}), ("core", {"preserve_core": True}),
            ("lip", {"lipschitz_cap": LIPSCHITZ_CAP}))
DENSE_LEVELS = 1024
CHECK_LEVELS = 5
WHOLE_ROUNDS = False      # no op is expected to fail, so a run may stop
TRACE_ROUNDS = 1          # the traced run does one pass over the pairs
CHILDREN = False


class Pair:
    def __init__(self, name, u, shape, w):
        self.name = name
        self.u = u
        self.shape = shape      # closed-form cuts of u
        self.w = w
        self.levels = ()        # seeded check levels


def build(ctx):
    A = ctx.A
    targets = [(n, A.cli.load_document(ctx.fixture(n)), oracles.FIXTURES[n])
               for n in oracles.SINGULAR]
    for num in gen.cut_numbers(ctx.seed, SEEDED_TARGETS, tag="vs"):
        targets.append((num.name, ctx.load_text(num.name, num.text()), num))
    pairs = []
    for name, u, shape in targets:
        for vname, kw in VARIANTS:
            w = A.synthesize_smoother(u, HALFWIDTH, **kw)
            pairs.append(Pair("%s/%s" % (name, vname), u, shape, w))
    return pairs


def expect(ctx, pairs):
    rng = random.Random("verified-schedule-%d" % ctx.seed)
    for pair in pairs:
        pair.levels = [0.0, 1.0] + [rng.random() for _ in range(CHECK_LEVELS)]


def warm_up(ctx, pairs):
    """Nothing to fill: every step builds its curves afresh."""


def rounds(ctx, pairs):
    k = 1
    while True:
        p = 1.0 / k
        yield [_op(ctx.A, pair, p) for pair in pairs]
        k += 1


def dense_distance(A, step, shape, levels=DENSE_LEVELS):
    """sup over a dense level grid of the endpoint distance step vs u."""
    best = 0.0
    for k in range(levels + 1):
        a = k / levels
        lo, hi = A.alpha_cut(step, a)
        ulo, uhi = shape.cut(a)
        best = max(best, abs(lo - ulo), abs(hi - uhi))
        if a < 1.0:
            lo, hi = A.strong_cut(step, a)
            ulo, uhi = shape.strong(a)
            best = max(best, abs(lo - ulo), abs(hi - uhi))
    return best


def check_step(A, pair, p, step, row, pres):
    """Every property the paper's construction promises for one step."""
    for a in pair.levels:
        bad = checks.levelwise_sum(A.alpha_cut(step, a), pair.shape.cut(a),
                                   tuple(A.alpha_cut(pair.w, a)), p,
                                   "step cut at %r" % (a,))
        if bad:
            return bad
    wlo, whi = A.alpha_cut(pair.w, 0.0)
    bound = p * max(abs(wlo), abs(whi))
    bad = checks.within_bound(dense_distance(A, step, pair.shape), bound,
                              "dense distance to u")
    if bad:
        return bad
    bad = checks.true(row.get("smooth"), "smooth")
    if bad:
        return bad
    if pair.name.endswith("/core"):
        bad = (checks.interval(A.alpha_cut(step, 1.0), pair.shape.core,
                               "step core")
               or checks.true(pres.rows[0]["core_ok"], "core_ok"))
        if bad:
            return bad
    if pres.premises_hold:
        return checks.true(pres.rows[0]["lip_ok"], "lip_ok")
    return None


def _op(A, pair, p):
    def fn():
        steps, report = A.approximate(pair.u, pair.w, [p])
        pres = A.preservation_report(pair.u, steps, pair.w, [p])
        return steps[0], report.rows[0], pres

    return Op("%s p=%.4g" % (pair.name, p), fn,
              lambda result: check_step(A, pair, p, *result))
