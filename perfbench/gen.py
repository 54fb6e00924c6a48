"""Seeded inputs: piecewise-affine cut-form numbers and .fz documents.

Everything is built from random.Random(seed) and dyadic parameters, so
a seed gives the same numbers bit for bit, and each generated number
carries its own closed forms (cuts, membership, singular points) for
the checkers.  Nothing here imports alphacut.
"""

import math
import random

_KNOTS = (0.25, 0.375, 0.5, 0.625, 0.75)
_SLOPES = (0.5, 1.0, 2.0)


def _lin(x0, rate, lo, var="a"):
    """Text of x0 + rate*(var - lo) in the .fz expression grammar."""
    shift = var if lo == 0.0 else "(%s - %r)" % (var, lo)
    sign = "-" if rate < 0.0 else "+"
    return "%r %s %r*%s" % (x0, sign, abs(rate), shift)


def _shifted(var, c):
    if c == 0.0:
        return var
    if c < 0.0:
        return "(%s + %r)" % (var, -c)
    return "(%s - %r)" % (var, c)


class CutNumber:
    """A piecewise-affine fuzzy number with a kink, a jump and a plateau.

    The left curve has two rising pieces of different slopes (a kink
    on the left branch).  The right curve falls, stays constant over a
    level run (a membership jump) and then restarts lower (a cut jump,
    which is a membership plateau).  segs[c] lists (lo, hi, x_at_lo,
    rate) per curve; every segment owns its upper level.
    """

    def __init__(self, rng, name):
        self.name = name
        x0 = rng.choice((-2.0, -1.5, -1.0, -0.5))
        k1 = rng.choice(_KNOTS)
        s1, s2 = rng.sample(_SLOPES, 2)
        left = [(0.0, k1, x0, s1), (k1, 1.0, x0 + s1 * k1, s2)]
        top = x0 + s1 * k1 + s2 * (1.0 - k1)
        corew = rng.choice((0.0, 0.5))
        r1 = rng.choice((0.125, 0.25, 0.375))
        r2 = rng.choice((0.5, 0.625, 0.75))
        t1, t2 = rng.choice(_SLOPES), rng.choice(_SLOPES)
        gap = rng.choice((0.25, 0.5))
        inner = top + corew                    # right(1)
        low = inner + t2 * (1.0 - r2)          # right(r2+)
        plateau = low + gap                    # right on (r1, r2]
        right = [(0.0, r1, plateau + t1 * r1, -t1),
                 (r1, r2, plateau, 0.0),
                 (r2, 1.0, low, -t2)]
        self.segs = {"left": left, "right": right}
        self.core = (top, inner)
        self.support = (x0, plateau + t1 * r1)
        self.breaks = tuple(sorted({k1, r1, r2}))
        core_pts = ([(top, "kink", "core-endpoint")] if corew == 0.0 else
                    [(top, "kink", "core-endpoint"),
                     (inner, "kink", "core-endpoint")])
        self.singular = sorted(
            [(x0 + s1 * k1, "kink", "left")] + core_pts
            + [(low, "kink", "right"), (plateau, "jump", "right")])

    def text(self):
        rows = ["name: %s" % self.name, "representation: cuts"]
        for label in ("left", "right"):
            for i, (lo, hi, x, rate) in enumerate(self.segs[label]):
                mono = ("const" if rate == 0.0 else
                        "inc" if rate > 0.0 else "dec")
                fn = repr(x) if rate == 0.0 else _lin(x, rate, lo)
                rows.append("%s %s%r, %r] %s: %s" % (
                    label, "[" if i == 0 else "(", lo, hi, mono, fn))
        return "\n".join(rows) + "\n"

    def _value(self, label, a, above):
        for lo, hi, x, rate in self.segs[label]:
            if (a < hi) if above else (a <= hi):
                return x + rate * (a - lo)
        lo, hi, x, rate = self.segs[label][-1]
        return x + rate * (a - lo)

    def cut(self, a):
        return self._value("left", a, False), self._value("right", a, False)

    def strong(self, a):
        if a >= 1.0:
            return self.cut(1.0)
        return self._value("left", a, True), self._value("right", a, True)

    def mu(self, x):
        lo, hi = self.support
        if x < lo or x > hi:
            return 0.0
        if self.core[0] <= x <= self.core[1]:
            return 1.0
        best = 0.0
        if x < self.core[0]:
            # sup of levels whose left endpoint is at or below x
            for a0, a1, x0, rate in self.segs["left"]:
                if x0 + rate * (a1 - a0) <= x:
                    best = a1
                elif x0 <= x:
                    best = max(best, a0 + (x - x0) / rate)
            return best
        for a0, a1, x0, rate in self.segs["right"]:
            if x0 + rate * (a1 - a0) >= x:
                best = a1
            elif x0 >= x:
                best = max(best, a0 + (x - x0) / rate)
        return best


class MembershipDoc:
    """A membership-form document with closed-form membership and cuts.

    kind "quad": affine rise to level 1/2, quadratic rise to the core
    (vertex at the core), affine fall; the builder inverts every piece
    symbolically.  kind "cubic": (x - x0)^3 rise and 1 - (x - x1)^3
    fall, which the builder can only invert by bisection.
    """

    def __init__(self, kind, name, xs):
        self.kind = kind
        self.name = name
        self.xs = xs
        if kind == "quad":
            x0, x1, x2, x3 = xs
            self.c1 = 0.5 / (x1 - x0)
            self.c2 = 0.5 / (x2 - x1) ** 2
            self.c3 = 1.0 / (x3 - x2)
            self.singular = [(x1, "kink", "left"),
                             (x2, "kink", "core-endpoint")]
            self.lipschitz = max(self.c1, 2.0 * self.c2 * (x2 - x1), self.c3)
            self.breaks = (0.5,)
        else:
            x0, x1, x2 = xs
            self.c1 = 1.0 / (x1 - x0) ** 3
            self.c3 = 1.0 / (x2 - x1) ** 3
            self.singular = [(x1, "kink", "core-endpoint")]
            self.lipschitz = max(3.0 / (x1 - x0), 3.0 / (x2 - x1))
            self.breaks = ()
        self.support = (xs[0], xs[-1])
        self.core = (xs[-2], xs[-2])

    def pieces(self):
        """(xlo, xhi, text in x, mono) rows."""
        xs = self.xs
        if self.kind == "quad":
            x0, x1, x2, x3 = xs
            return [
                (x0, x1, "%r*%s" % (self.c1, _shifted("x", x0)), "inc"),
                (x1, x2, "1 - %r*%s^2" % (self.c2, _shifted("x", x2)),
                 "inc"),
                (x2, x3, "1 - %r*%s" % (self.c3, _shifted("x", x2)), "dec")]
        x0, x1, x2 = xs
        return [(x0, x1, "%r*%s^3" % (self.c1, _shifted("x", x0)), "inc"),
                (x1, x2, "1 - %r*%s^3" % (self.c3, _shifted("x", x1)),
                 "dec")]

    def text(self):
        rows = ["name: %s" % self.name, "representation: membership"]
        for i, (lo, hi, body, mono) in enumerate(self.pieces()):
            rows.append("piece %s%r, %r] %s: %s" % (
                "[" if i == 0 else "(", lo, hi, mono, body))
        return "\n".join(rows) + "\n"

    def mu(self, x):
        xs = self.xs
        if x < xs[0] or x > xs[-1]:
            return 0.0
        if self.kind == "quad":
            x0, x1, x2, x3 = xs
            if x <= x1:
                return self.c1 * (x - x0)
            if x <= x2:
                return 1.0 - self.c2 * (x - x2) ** 2
            return 1.0 - self.c3 * (x - x2)
        x0, x1, x2 = xs
        if x <= x1:
            return self.c1 * (x - x0) ** 3
        return 1.0 - self.c3 * (x - x1) ** 3

    def cut(self, a):
        xs = self.xs
        if self.kind == "quad":
            x0, x1, x2, x3 = xs
            lo = (x0 + a / self.c1 if a <= 0.5
                  else x2 - math.sqrt((1.0 - a) / self.c2))
            return lo, x2 + (1.0 - a) / self.c3
        x0, x1, x2 = xs
        return (x0 + (a / self.c1) ** (1.0 / 3.0),
                x1 + ((1.0 - a) / self.c3) ** (1.0 / 3.0))

    strong = cut


def cut_numbers(seed, count, tag="cut"):
    rng = random.Random("cut-%d" % seed)
    return [CutNumber(rng, "%s%d" % (tag, i)) for i in range(count)]


def membership_docs(seed):
    """One symbolic (quad) and two bisection (cubic) membership docs."""
    rng = random.Random("membership-%d" % seed)
    out = []
    x0 = rng.choice((-2.0, -1.5, -1.0))
    w = [rng.choice((0.5, 1.0, 2.0)) for _ in range(3)]
    while w[1] == 2.0 * w[0]:
        # equal slopes at the affine/quadratic joint would hide the kink
        w[1] = rng.choice((0.5, 1.0, 2.0))
    xs = [x0]
    for width in w:
        xs.append(xs[-1] + width)
    out.append(MembershipDoc("quad", "quad0", tuple(xs)))
    # the bisection inverses dominate the cost of their queries, so the
    # seed only moves these two along the axis and leaves their widths
    for i, (rise, fall) in enumerate(((1.0, 1.0), (0.5, 2.0))):
        x0 = rng.choice((-1.5, -1.0, -0.5))
        out.append(MembershipDoc("cubic", "cubic%d" % i,
                                 (x0, x0 + rise, x0 + rise + fall)))
    return out


# a fixed document that passes validate but cannot be saved after
# convolve or scale: its cut curves are bisection inverses
UNSAVEABLE = MembershipDoc("cubic", "unsaveable", (-1.0, 0.0, 1.0))

MALFORMED_KINDS = ("number", "line", "expr", "bracket")


def malformed(number, kind, lineno):
    """Break one cut row of a generated document.

    Returns (text, reported line).  Header lines come first, so the
    rows start at line 3.
    """
    lines = number.text().splitlines()
    i = lineno - 1
    row = lines[i]
    if kind == "number":
        head, rest = row.split(",", 1)
        row = head + "x," + rest
    elif kind == "line":
        row = "middle " + row.split(" ", 1)[1]
    elif kind == "expr":
        row = row + " * * 2"
    else:
        row = row.replace("[", "(", 1) if "[" in row else \
            row.replace("(", "[", 1)
    lines[i] = row
    return "\n".join(lines) + "\n", lineno
