"""Closed-form answers for the ten stored fixtures, written from the shapes.

Nothing here imports alphacut.  Each fixture is described by its two
cut curves as plain functions of the level, its membership function as
a plain function of the abscissa, and the list of singular points that
classify_points must report strictly inside the support.  The formulas
follow the shape named in each fixture's source line, not the library's
expression text.
"""

import math

PI = math.pi


class Shape:
    """One fuzzy number in closed form.

    left(a) and right(a) are the cut endpoints at level a in [0, 1];
    left_above(a) and right_above(a) give their limits from above,
    which differ from the values only at cut jumps.  mu(x) is
    the membership function.  singular lists (x, kind, branch) for
    the points strictly inside the support.
    """

    def __init__(self, name, left, right, mu, singular, breaks=(),
                 left_above=None, right_above=None):
        self.name = name
        self.left = left
        self.right = right
        self.mu = mu
        self.singular = list(singular)
        self.breaks = tuple(breaks)
        self.left_above = left_above or left
        self.right_above = right_above or right

    def cut(self, a):
        return self.left(a), self.right(a)

    def strong(self, a):
        """Strong cut: the limits of the cut endpoints from above."""
        if a >= 1.0:
            return self.cut(1.0)
        return self.left_above(a), self.right_above(a)

    @property
    def support(self):
        return self.left(0.0), self.right(0.0)

    @property
    def core(self):
        return self.left(1.0), self.right(1.0)


def _triangle():
    return Shape(
        "triangle", lambda a: a - 1.0, lambda a: 1.0 - a,
        lambda x: max(0.0, 1.0 - abs(x)),
        [(0.0, "kink", "core-endpoint")])


def _parabola():
    return Shape(
        "parabola", lambda a: -math.sqrt(1.0 - a),
        lambda a: math.sqrt(1.0 - a),
        lambda x: max(0.0, 1.0 - x * x), [])


def _clipped_parabola():
    # the unit parabola cut off below level 1/2: base level 1/2 on
    # [-sqrt(1/2), sqrt(1/2)], smooth inside
    edge = math.sqrt(0.5)

    def left(a):
        return -math.sqrt(1.0 - max(a, 0.5))

    def mu(x):
        if abs(x) > edge:
            return 0.0
        return 1.0 - x * x

    return Shape("clipped-parabola", left, lambda a: -left(a), mu, [],
                 breaks=(0.5,))


def _plateau_quadratic():
    # quadratic shoulders meeting a plateau at level 1/2 on both sides
    # with zero slope; the peak at 0 is a kink between slopes 2 and -2
    def left(a):
        if a <= 0.5:
            return -1.0 - math.sqrt(1.0 - 2.0 * a)
        return -0.5 + math.sqrt(0.5 * a - 0.25)

    def left_above(a):
        if a < 0.5:
            return left(a)
        return -0.5 + math.sqrt(max(0.5 * a - 0.25, 0.0))

    def mu(x):
        t = abs(x)
        if t > 2.0:
            return 0.0
        if t > 1.0:
            return -0.5 * (t * t - 2.0 * t)
        if t >= 0.5:
            return 0.5
        return 2.0 * t * t - 2.0 * t + 1.0

    return Shape("plateau-quadratic", left, lambda a: -left(a), mu,
                 [(0.0, "kink", "core-endpoint")], breaks=(0.5,),
                 left_above=left_above,
                 right_above=lambda a: -left_above(a))


def _split_peak():
    # linear flanks reaching level 1/2 only; the peak is a lone point
    def left(a):
        return 2.0 * a - 1.0 if a <= 0.5 else 0.0

    def mu(x):
        if abs(x) > 1.0:
            return 0.0
        if x == 0.0:
            return 1.0
        return 0.5 - 0.5 * abs(x)

    return Shape("split-peak", left, lambda a: -left(a), mu,
                 [(0.0, "jump", "core-endpoint")], breaks=(0.5,))


def _asymmetric_kink():
    # left flank slope 1 up to level 1/2, then slope 1/2; right flank
    # slope -1 from the core at 1 down to 2
    def left(a):
        return a - 0.5 if a <= 0.5 else 2.0 * a - 1.0

    def mu(x):
        if x < -0.5 or x > 2.0:
            return 0.0
        if x <= 0.0:
            return x + 0.5
        if x <= 1.0:
            return 0.5 * (x + 1.0)
        return 2.0 - x

    return Shape("asymmetric-kink", left, lambda a: 2.0 - a, mu,
                 [(0.0, "kink", "left"), (1.0, "kink", "core-endpoint")],
                 breaks=(0.5,))


def _tail_jump():
    # left flank a + 1; right flank falls 2 -> 2.5 over levels 1..1/2,
    # stays at 2.5 down to level 0.3 (membership drop), then runs out
    # to 2.8
    def right(a):
        if a <= 0.3:
            return 2.8 - a
        if a <= 0.5:
            return 2.5
        return 3.0 - a

    def mu(x):
        if x < 1.0 or x > 2.8:
            return 0.0
        if x <= 2.0:
            return x - 1.0
        if x <= 2.5:
            return 3.0 - x
        return 2.8 - x

    return Shape("tail-jump", lambda a: a + 1.0, right, mu,
                 [(2.0, "kink", "core-endpoint"), (2.5, "jump", "right")],
                 breaks=(0.3, 0.5))


def _sine_bridge():
    # parabolic cap below level 1/2, a sine run up to the core, and a
    # parabolic right flank; every joint is tangent
    def left(a):
        if a <= 0.5:
            return -PI / 2.0 - math.sqrt(0.5 - a)
        return math.asin(_unit(4.0 * a - 3.0))

    def mu(x):
        if x < -PI / 2.0 - math.sqrt(0.5) or x > PI / 2.0 + 1.0:
            return 0.0
        if x <= -PI / 2.0:
            return 0.5 - (x + PI / 2.0) ** 2
        if x <= PI / 2.0:
            return (math.sin(x) + 3.0) / 4.0
        return 1.0 - (x - PI / 2.0) ** 2

    return Shape("sine-bridge", left,
                 lambda a: PI / 2.0 + math.sqrt(1.0 - a), mu, [],
                 breaks=(0.5,))


def _unit(z):
    return min(1.0, max(-1.0, z))


def _cosine_tail():
    # parabolic left flank; the right flank is a cosine run to level
    # 1/2 at 0.3*pi, a faster cosine run to level 0.3 at 0.4*pi, then
    # a parabolic tail; all joints are tangent
    def right(a):
        if a <= 0.3:
            return 0.4 * PI + math.sqrt(0.3 - a)
        if a <= 0.5:
            return 0.3 * PI + 0.1 * math.acos(_unit(10.0 * a - 4.0))
        return 0.3 * math.acos(_unit(4.0 * a - 3.0))

    def mu(x):
        if x < -2.0 or x > 0.4 * PI + math.sqrt(0.3):
            return 0.0
        if x <= 0.0:
            return 1.0 - x * x / 4.0
        if x <= 0.3 * PI:
            return (math.cos(x / 0.3) + 3.0) / 4.0
        if x <= 0.4 * PI:
            return (math.cos((x - 0.3 * PI) / 0.1) + 4.0) / 10.0
        return 0.3 - (x - 0.4 * PI) ** 2

    return Shape("cosine-tail", lambda a: -2.0 * math.sqrt(1.0 - a), right,
                 mu, [], breaks=(0.3, 0.5))


def _point():
    return Shape("point", lambda a: 0.0, lambda a: 0.0,
                 lambda x: 1.0 if x == 0.0 else 0.0, [])


FIXTURES = {s.name: s for s in (
    _triangle(), _parabola(), _clipped_parabola(), _plateau_quadratic(),
    _split_peak(), _asymmetric_kink(), _tail_jump(), _sine_bridge(),
    _cosine_tail(), _point())}

# class flags (in_FT, in_FN, in_FC, in_FD) and Lipschitz constants of the
# fixtures, from their shapes:
# a kink keeps in_FD false, a membership jump keeps in_FC false, a
# left- or right-branch singular point keeps in_FN false, a cut jump
# (plateau) keeps in_FT false
FLAGS = {
    "triangle": (True, True, True, False),
    "parabola": (True, True, True, True),
    "clipped-parabola": (True, True, True, True),
    "plateau-quadratic": (False, True, True, False),
    "split-peak": (True, True, False, False),
    "asymmetric-kink": (False, False, True, False),
    "tail-jump": (False, False, False, False),
    "sine-bridge": (True, True, True, True),
    "cosine-tail": (True, True, True, True),
    "point": (True, True, True, False),
}
LIPSCHITZ = {
    "triangle": 1.0, "parabola": 2.0, "clipped-parabola": math.sqrt(2.0),
    "plateau-quadratic": 2.0, "split-peak": math.inf,
    "asymmetric-kink": 1.0, "tail-jump": math.inf, "sine-bridge": 2.0,
    "cosine-tail": 2.0 * math.sqrt(0.3),
    "point": 0.0,   # constant on its one-point support
}

# the five fixtures with singular points: the paper's worked examples
SINGULAR = ("triangle", "plateau-quadratic", "asymmetric-kink",
            "tail-jump", "split-peak")

# ROADMAP item 4: two left curves whose true sup distance is 9.25e-5
# although the library reports 1e-6 with a "certified" gap of 3.9e-9
METRIC_PAIR_TEXT = (
    "a - 1",
    "a - 1 + 1e-4*a^40*sin(804.247719318987*a)^2 + 1e-6*(1 - a)")


def metric_pair_left_gap(a):
    """|difference| of the two item-4 left curves at level a."""
    return abs(1e-4 * a ** 40 * math.sin(2.0 * PI * 128.0 * a) ** 2
               + 1e-6 * (1.0 - a))


def dense_sup(diff, knots, n=8192, refine=64):
    """Largest |difference| on a dense level grid, refined at its peak.

    diff(a) is the absolute curve difference; knots are the junction
    levels, sampled together with a point just above each so that
    limits at cut jumps are seen.  The grid maximum is refined on a
    finer grid between its two neighbours.
    """
    pts = set(k / n for k in range(n + 1))
    for b in knots:
        pts.add(b)
        if b < 1.0:
            pts.add(min(1.0, b + 1e-12))
    grid = sorted(pts)
    vals = [diff(a) for a in grid]
    best = max(vals)
    i = vals.index(best)
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    for k in range(1, refine):
        best = max(best, diff(lo + (hi - lo) * k / refine))
    return best
