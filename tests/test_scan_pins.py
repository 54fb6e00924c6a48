"""Membership scans pinned bit for bit on every kind of curve.

membership, membership_outer_limit and membership_pair walk the stored
segments and bisect inside one of them, so each value they return
records every comparison the walk made.  This pins, per number, a
digest of the float.hex of all three at: a grid over the support, the
candidate points, and the value at each segment's ends and level
midpoint (where a bisection first compares), each also 1 ulp either
side; on u and on -u.  A second digest per number pins the level
lookups of both cut curves, right_limit, left_limit, deriv_above,
deriv_below and strong_value, at each segment end, 1 ulp either side
of it and at each level midpoint, with sup_metric and the document
text of convolve against two fixed partners.  A third pins
lipschitz_estimate of the number and of its convolution with each
partner.  The numbers are every fixture with its smoother and one
smoothing step, hand-built curves with zero-width segments, const runs
and own_right=False, an x^3 number and seeded draws from the plan of
conftest.fuzzy_numbers.  A refactor of the scans, the level lookups
or the sampled estimates must reproduce every digest.

The digests live in scan_pins.json next to this file.  Rerecord them
only for an intended change of the scans, lookups or estimates:

    PYTHONPATH=src python tests/test_scan_pins.py
"""

import hashlib
import json
import math
import os
import random

import pytest

from alphacut import (CutCurve, FuzzyNum, Segment, convolve,
                      from_membership_pieces, lipschitz_estimate,
                      membership, membership_outer_limit, scale,
                      sup_metric, synthesize_smoother)
from alphacut.calculus import candidate_points
from alphacut.cli import document_text
from alphacut.cutcore.curve import membership_pair

from conftest import (FIXTURE_NAMES, _GAPS, _KNOTS, _SLOPES,
                      _curve_from_plan, load_fixture)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "scan_pins.json")

# left-curve specs (lo, hi, text, mono, own_right); a hand-built number
# takes one as its left curve and the negation of another as its right
HAND = {
    "zero-width": [
        (0.0, 0.25, "a - 2", "inc", False),
        (0.25, 0.25, "-1.5", "const", True),
        (0.25, 0.5, "-1.5", "const", True),
        (0.5, 0.75, "-1.5 + 2*(a - 0.5)", "inc", True),
        (0.75, 1.0, "-0.5 + (a - 0.75)^2", "inc", True),
    ],
    "declined-run": [
        (0.0, 0.5, "a*a - 3", "inc", True),
        (0.5, 0.625, "-2.5", "const", False),
        (0.625, 0.625, "-2.25", "const", True),
        (0.625, 1.0, "-2.25 + (a - 0.625)", "inc", True),
    ],
    "zero-width-ends": [
        (0.0, 0.0, "-3", "const", True),
        (0.0, 0.5, "-2.5 + a", "inc", True),
        (0.5, 1.0, "-2 + (a - 0.5)", "inc", False),
        (1.0, 1.0, "-1", "const", True),
    ],
    "runs": [
        (0.0, 0.125, "-2", "const", True),
        (0.125, 0.375, "-2 + 4*(a - 0.125)", "inc", True),
        (0.375, 0.625, "-1", "const", False),
        (0.625, 1.0, "-1 + sin(a - 0.625)", "inc", True),
    ],
    # not nondecreasing: the piece after the zero-width point starts
    # below its value and passes it again at its first midpoint
    "dip": [
        (0.0, 0.25, "a - 2", "inc", False),
        (0.25, 0.25, "-1.5", "const", True),
        (0.25, 0.75, "-2 + a", "inc", True),
        (0.75, 1.0, "-1.25 + (a - 0.75)", "inc", True),
    ],
}

HAND_PAIRS = (("zero-width", "declined-run"), ("declined-run", "zero-width"),
              ("zero-width-ends", "runs"), ("runs", "zero-width-ends"),
              ("dip", "zero-width"), ("zero-width-ends", "dip"))

X3_PIECES = [(-1.0, 0.0, "(x + 1)^3", "inc"), (0.0, 1.0, "1 - x^3", "dec")]

SEEDS = range(64)

# the fixed partners of sup_metric, convolve and the estimates: one
# continuous, one with cut jumps
PARTNERS = ("triangle", "tail-jump")


def _hand_curve(spec):
    return CutCurve([Segment(lo, hi, text, mono, own)
                     for lo, hi, text, mono, own in spec])


def _seeded_plan(rng):
    """One branch plan drawn as conftest._branch_plan draws it."""
    inner = rng.sample(_KNOTS, rng.randint(0, 2))
    knots = [0.0] + sorted(inner) + [1.0]
    plan = []
    for i in range(len(knots) - 1):
        kind = rng.choice(("move", "move", "move", "const"))
        slope = rng.choice(_SLOPES) if kind == "move" else 0.0
        gap = rng.choice(_GAPS) if i > 0 else 0.0
        plan.append((knots[i], knots[i + 1], slope, gap))
    return plan


def _seeded_number(seed):
    rng = random.Random(seed)
    lplan, rplan = _seeded_plan(rng), _seeded_plan(rng)
    start = rng.choice((-2.0, -1.0, 0.0, 1.0))
    left, ltop = _curve_from_plan(lplan, start, 1.0)
    corew = rng.choice((0.0, 0.0, 0.5))
    rise = sum(gap + slope * (hi - lo) for lo, hi, slope, gap in rplan)
    right, _ = _curve_from_plan(rplan, ltop + corew + rise, -1.0)
    return FuzzyNum(left, right)


def _numbers():
    for name in FIXTURE_NAMES:
        u = load_fixture(name)
        w = synthesize_smoother(u, 0.5)
        yield "fixture/" + name, u
        yield "smoother/" + name, w
        yield "step/" + name, convolve(u, scale(0.5, w))
    for lname, rname in HAND_PAIRS:
        yield "hand/%s/%s" % (lname, rname), FuzzyNum(
            _hand_curve(HAND[lname]), _hand_curve(HAND[rname]).negated())
    yield "x3", from_membership_pieces(X3_PIECES)
    for seed in SEEDS:
        yield "seed-%d" % seed, _seeded_number(seed)


def _probes(fz):
    sup = fz.support
    xs = [sup.lo + (sup.hi - sup.lo) * (k / 32) for k in range(33)]
    xs += candidate_points(fz)
    for curve in (fz.left, fz.right):
        for s in curve.segments:
            xs += [s.fn(s.lo), s.fn(s.hi), s.fn(0.5 * (s.lo + s.hi))]
    out = set()
    for x in xs:
        if x == x:
            out.update((math.nextafter(x, -math.inf), x,
                        math.nextafter(x, math.inf)))
    return sorted(out)


def _digest(fz):
    h = hashlib.sha256()
    for num in (fz, scale(-1.0, fz)):
        for x in _probes(num):
            vals = (x, membership(num, x), membership_outer_limit(num, x))
            vals += membership_pair(num, x)
            h.update((" ".join(v.hex() for v in vals) + "\n").encode())
    return h.hexdigest()


def _hexes(vals):
    return " ".join(v.hex() for v in vals)


def _lookup_lines(fz, partners):
    """The level lookups, sup_metric and convolution text, as lines."""
    levels = set()
    for curve in (fz.left, fz.right):
        for s in curve.segments:
            for a in (s.lo, s.hi):
                levels.update((math.nextafter(a, -math.inf), a,
                               math.nextafter(a, math.inf)))
            levels.add(0.5 * (s.lo + s.hi))
    for a in sorted(t for t in levels if 0.0 <= t <= 1.0):
        for curve in (fz.left, fz.right):
            vals = [a]
            if a < 1.0:
                vals += [curve.right_limit(a), curve.deriv_above(a)]
            if a > 0.0:
                vals += [curve.left_limit(a), curve.deriv_below(a)]
            vals.append(curve.strong_value(a))
            yield _hexes(vals)
    for p in partners:
        yield _hexes(sup_metric(fz, p))
        yield document_text(convolve(fz, p))


def _estimate_lines(fz, partners):
    """lipschitz_estimate of fz and of its convolution with each partner."""
    yield _hexes([lipschitz_estimate(fz)])
    for p in partners:
        yield _hexes([lipschitz_estimate(convolve(fz, p))])


def _lines_digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


def _digests():
    partners = [load_fixture(name) for name in PARTNERS]
    return {key: {"scans": _digest(fz),
                  "lookups": _lines_digest(_lookup_lines(fz, partners)),
                  "estimates": _lines_digest(_estimate_lines(fz, partners))}
            for key, fz in _numbers()}


@pytest.fixture(scope="module")
def digests():
    return _digests()


def _check_pins(got, kind):
    with open(PINS_PATH) as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key][kind] == want[key][kind], key


def test_scans_are_pinned(digests):
    _check_pins(digests, "scans")


def test_level_lookups_are_pinned(digests):
    _check_pins(digests, "lookups")


def test_sampled_estimates_are_pinned(digests):
    _check_pins(digests, "estimates")


if __name__ == "__main__":
    with open(PINS_PATH, "w") as fh:
        json.dump(_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
