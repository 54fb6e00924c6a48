"""Saved text of every number the builders write, pinned byte for byte.

The builders write cut curves symbolically, so a number's saved text is
the exact record of what they built.  This pins document_text of: the
synthesized smoothers of every fixture (plain, core-preserving and
Lipschitz-capped), with their condition lines and one smoothing step
each; the four stock smoother families; crisp points; and membership
builds whose pieces invert as affine, quadratic, sinusoid and inv
segments on both branches, with jumps, base levels and point
declarations.  A refactor of a builder must reproduce every text.

The values live in saved_text.json next to this file.  Rerecord them
only for an intended change of the saved text:

    PYTHONPATH=src python tests/test_saved_text.py
"""

import json
import math
import os
import random

from alphacut import (SmootherConditionError, SmootherFamilySpec,
                      check_smoother_conditions, convolve, crisp_point,
                      family, from_membership_pieces, scale,
                      synthesize_smoother)
from alphacut.cli import document_text

from conftest import FIXTURE_NAMES, load_fixture

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "saved_text.json")

VARIANTS = {"plain": {}, "core": {"preserve_core": True},
            "lip": {"lipschitz_cap": 2.0}}

HPI_X = "1.5707963267948966*x"

FAMILIES = {
    "parabola": SmootherFamilySpec("parabola", p=1.5),
    "generator": SmootherFamilySpec("generator", p=1.5, f="sqrt(1 - a)"),
    "clipped": SmootherFamilySpec("clipped", p=2.0, l=0.19, r=0.36),
    "two-generator": SmootherFamilySpec(
        "two-generator", p=2.0, f="sin(%s)" % HPI_X, g="cos(%s)" % HPI_X,
        knots=(-2.0, -1.0, 1.0, 2.0)),
}

# every inversion on each branch: affine, quadratic, sinusoid and inv
# (x^3 has no closed-form inverse here), with membership jumps, a base
# level above 0 and point declarations at the jumps
BUILDS = {
    "left-closed-forms": [
        (-3.0, -2.0, "0.25*(x + 3)", "inc"),
        (-2.0, -2.0, "0.5", "const"),
        (-2.0, -1.0, "0.5 + 0.25*(x + 2)^2", "inc"),
        (-1.0, 0.0, "0.75 + 0.25*sin(%s)" % HPI_X.replace("x", "(x + 1)"),
         "inc"),
        (0.0, 1.0, "1", "const"),
        (1.0, 2.0, "1 - 0.25*(x - 1)^3", "dec"),
        (2.0, 2.0, "0.75", "const"),
        (2.0, 3.0, "0.5 - 0.5*(x - 2)", "dec"),
    ],
    "right-closed-forms": [
        (0.0, 1.0, "0.2 + 0.3*x^3", "inc"),
        (1.0, 1.0, "0.6", "const"),
        (1.0, 2.0, "1 - 0.4*cos(%s)" % HPI_X.replace("x", "(x - 1)"), "inc"),
        (2.0, 3.0, "1 - 0.5*(x - 2)^2", "dec"),
        (3.0, 3.0, "0.5", "const"),
        (3.0, 4.0, "0.4 - 0.4*(x - 3)", "dec"),
    ],
    "plateaus": [
        (-2.0, -1.0, "0.5*(x + 2)", "inc"),
        (-1.0, 0.0, "0.5", "const"),
        (0.0, 1.0, "0.5 + 0.5*x^2", "inc"),
        (1.0, 2.0, "0.75 + 0.25*cos(%s)" % HPI_X.replace("x", "(x - 1)"),
         "dec"),
        (2.0, 3.0, "0.5", "const"),
        (3.0, 4.0, "0.5*(4 - x)^3", "dec"),
    ],
}

# random two-branch builds: each branch a chain of pieces of random
# kinds from the support end to a point core at 0, jumping up at some
# junctions, on a base level of 0 or 0.1
KINDS = ("affine", "quadratic", "sine", "cubic")


def _rising(kind, t, h, lo, hi):
    """Membership rising from lo to hi as t, a text in x, goes 0 -> h."""
    d = hi - lo
    if kind == "affine":
        return "%r + %r*%s" % (lo, d / h, t)
    if kind == "quadratic":
        return "%r + %r*%s^2" % (lo, d / (h * h), t)
    if kind == "sine":
        return "%r + %r*sin(%r*%s)" % (lo, d, 0.5 * math.pi / h, t)
    return "%r + %r*%s^3" % (lo, d / (h * h * h), t)


def _random_pieces(seed):
    rng = random.Random(seed)
    pieces = []
    for side in ("left", "right"):
        n = rng.randint(1, 3)
        levels = ([rng.choice((0.0, 0.1))]
                  + sorted(rng.uniform(0.15, 0.95) for _ in range(n - 1))
                  + [1.0])
        widths = [rng.choice((0.5, 1.0, 1.5)) for _ in range(n)]
        outer = sum(widths)
        for j, h in enumerate(widths):
            lo, hi = levels[j], levels[j + 1]
            if j and rng.random() < 0.4:
                lo = 0.5 * (lo + hi)  # a jump up at this junction
            kind = rng.choice(KINDS)
            if side == "left":
                xa = -outer
                pieces.append((xa, xa + h, _rising(
                    kind, "(x - (%r))" % xa, h, lo, hi), "inc"))
            else:
                xb = outer
                pieces.append((xb - h, xb, _rising(
                    kind, "(%r - x)" % xb, h, lo, hi), "dec"))
            outer -= h
    return pieces


SEEDS = range(16)


def _texts():
    out = {}
    for name in FIXTURE_NAMES:
        u = load_fixture(name)
        for variant, kw in VARIANTS.items():
            try:
                w = synthesize_smoother(u, 0.5, **kw)
            except SmootherConditionError:
                continue  # a crisp point admits no core-preserving smoother
            key = "synthesized/%s/%s" % (name, variant)
            out[key] = document_text(w)
            out[key + "/conditions"] = check_smoother_conditions(u, w).lines()
            out[key + "/step"] = document_text(convolve(u, scale(0.5, w)))
    for name, spec in FAMILIES.items():
        w = family(spec)
        out["family/" + name] = document_text(w)
        out["family/%s/conditions" % name] = [
            check_smoother_conditions(load_fixture(u), w).lines()
            for u in FIXTURE_NAMES]
    for x in (0.0, -2.5):
        out["crisp/%r" % x] = document_text(crisp_point(x))
    for name, pieces in BUILDS.items():
        out["build/" + name] = document_text(
            from_membership_pieces(pieces, name=name))
    for seed in SEEDS:
        out["build/seed-%d" % seed] = document_text(
            from_membership_pieces(_random_pieces(seed)))
    return out


def load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


def test_saved_text_is_pinned():
    got = _texts()
    want = load_pins()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    with open(PINS_PATH, "w") as fh:
        json.dump(_texts(), fh, indent=1, sort_keys=True)
        fh.write("\n")
