"""Building fuzzy numbers from monotone membership pieces."""

import math
import random

import pytest

from alphacut import (ExprFn, alpha_cut, convolve, from_membership_pieces,
                      membership, scale)
from alphacut.errors import RepresentationError
from conftest import load_fixture

import oracles

HPI = math.pi / 2
SQ05 = math.sqrt(0.5)
SQ03 = math.sqrt(0.3)

# membership pieces for every fixture, in the document grammar
PIECES = {
    "triangle": [
        (-1.0, 0.0, "x + 1", "inc"),
        (0.0, 1.0, "1 - x", "dec"),
    ],
    "parabola": [
        (-1.0, 0.0, "1 - x^2", "inc"),
        (0.0, 1.0, "1 - x^2", "dec"),
    ],
    "clipped-parabola": [
        (-SQ05, 0.0, "1 - x^2", "inc"),
        (0.0, SQ05, "1 - x^2", "dec"),
    ],
    "plateau-quadratic": [
        (-2.0, -1.0, "-0.5*(x^2 + 2*x)", "inc"),
        (-1.0, -0.5, "0.5", "const"),
        (-0.5, 0.0, "2*x^2 + 2*x + 1", "inc"),
        (0.0, 0.5, "2*x^2 - 2*x + 1", "dec"),
        (0.5, 1.0, "0.5", "const"),
        (1.0, 2.0, "-0.5*(x^2 - 2*x)", "dec"),
    ],
    "split-peak": [
        (-1.0, 0.0, "0.5*x + 0.5", "inc"),
        (0.0, 0.0, "1", "const"),
        (0.0, 1.0, "-0.5*x + 0.5", "dec"),
    ],
    "asymmetric-kink": [
        (-0.5, 0.0, "x + 0.5", "inc"),
        (0.0, 1.0, "0.5*x + 0.5", "inc"),
        (1.0, 2.0, "2 - x", "dec"),
    ],
    "tail-jump": [
        (1.0, 2.0, "x - 1", "inc"),
        (2.0, 2.5, "3 - x", "dec"),
        (2.5, 2.8, "2.8 - x", "dec"),
    ],
    "sine-bridge": [
        (-HPI - SQ05, -HPI,
         "0.5 - (x + 1.5707963267948966)^2", "inc"),
        (-HPI, HPI, "0.25*sin(x) + 0.75", "inc"),
        (HPI, 1.0 + HPI,
         "1 - (x - 1.5707963267948966)^2", "dec"),
    ],
    "cosine-tail": [
        (-2.0, 0.0, "1 - 0.25*x^2", "inc"),
        (0.0, 0.3 * math.pi,
         "0.25*cos(3.3333333333333335*x) + 0.75", "dec"),
        (0.3 * math.pi, 0.4 * math.pi,
         "0.4 + 0.1*cos(10*(x - 0.9424777960769379))", "dec"),
        (0.4 * math.pi, 0.4 * math.pi + SQ03,
         "0.3 - (x - 1.2566370614359172)^2", "dec"),
    ],
    "point": [
        (0.0, 0.0, "1", "const"),
    ],
}


def test_triangular_pieces_give_affine_cuts():
    fz = from_membership_pieces(PIECES["triangle"])
    for k in range(11):
        a = k / 10.0
        assert fz.left.value(a) == pytest.approx(a - 1.0, abs=1e-15)
        assert fz.right.value(a) == pytest.approx(1.0 - a, abs=1e-15)


def test_two_slope_pieces_give_two_affine_cuts():
    fz = from_membership_pieces(PIECES["asymmetric-kink"])
    assert fz.left.value(0.25) == pytest.approx(-0.25, abs=1e-15)
    assert fz.left.value(0.5) == pytest.approx(0.0, abs=1e-15)
    assert fz.left.value(0.75) == pytest.approx(0.5, abs=1e-15)
    assert fz.left.breakpoints() == [0.5]


def test_plateau_becomes_cut_jump():
    fz = from_membership_pieces(PIECES["plateau-quadratic"])
    assert fz.left.value(0.5) == pytest.approx(-1.0, abs=1e-12)
    assert fz.left.right_limit(0.5) == pytest.approx(-0.5, abs=1e-12)


def test_membership_jump_becomes_cut_plateau():
    fz = from_membership_pieces(PIECES["tail-jump"])
    seg_levels = [(s.lo, s.hi, s.mono) for s in fz.right.segments]
    # the run lives at the level the outer piece reaches at x=2.5
    assert (2.8 - 2.5, 0.5, "const") in seg_levels
    assert membership(fz, 2.5) == 0.5


@pytest.mark.parametrize("name", sorted(PIECES))
def test_round_trip_membership(name):
    fz = from_membership_pieces(PIECES[name], name=name)
    mu = oracles.MEMBERSHIPS[name]
    lo, hi = oracles.SUPPORTS[name]
    rng = random.Random(hash(name) & 0xFFFF)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(lo, hi) if hi > lo else lo
        worst = max(worst, abs(membership(fz, x) - mu(x)))
    assert worst <= 1e-12, "%s: worst %g" % (name, worst)


@pytest.mark.parametrize("name", sorted(PIECES))
def test_built_cuts_match_fixture_cuts(name):
    built = from_membership_pieces(PIECES[name], name=name)
    stored = load_fixture(name)
    for k in range(21):
        a = k / 20.0
        cb, cs = alpha_cut(built, a), alpha_cut(stored, a)
        assert cb.lo == pytest.approx(cs.lo, abs=1e-9)
        assert cb.hi == pytest.approx(cs.hi, abs=1e-9)


def test_arc_anchors_are_exact():
    sb = from_membership_pieces(PIECES["sine-bridge"])
    assert sb.left.value(0.5) == -HPI
    assert sb.left.value(0.75) == 0.0
    assert sb.left.value(1.0) == HPI
    ct = from_membership_pieces(PIECES["cosine-tail"])
    assert ct.right.value(0.5) == 0.3 * math.pi
    assert ct.right.value(0.3) == pytest.approx(0.4 * math.pi, abs=1e-15)


def test_bisection_fallback_round_trip():
    pieces = [
        (0.0, 1.0, "x^3", "inc"),
        (1.0, 2.0, "2 - x", "dec"),
    ]
    fz = from_membership_pieces(pieces)
    rng = random.Random(7)
    for _ in range(50):
        x = rng.uniform(0.0, 2.0)
        want = x ** 3 if x <= 1.0 else 2.0 - x
        assert membership(fz, x) == pytest.approx(want, abs=1e-9)


def test_bisection_segments_are_expressions():
    """Inverses, mirrors, multiples and sums of them are all ExprFn."""
    fz = from_membership_pieces([(0.0, 1.0, "x^3", "inc"),
                                 (1.0, 2.0, "2 - x", "dec")])
    assert fz.left.segments[-1].fn.expr.kind == "inv"
    for num in (fz, fz.mirror, scale(-0.5, fz), convolve(fz, fz)):
        for s in num.left.segments + num.right.segments:
            assert isinstance(s.fn, ExprFn)


def test_point_declaration_must_take_upper_value():
    bad = [
        (1.0, 2.0, "x - 1", "inc"),
        (2.0, 2.5, "3 - x", "dec"),
        (2.5, 2.5, "0.3", "const"),
        (2.5, 2.8, "2.8 - x", "dec"),
    ]
    with pytest.raises(RepresentationError):
        from_membership_pieces(bad)
    ok = [
        (1.0, 2.0, "x - 1", "inc"),
        (2.0, 2.5, "3 - x", "dec"),
        (2.5, 2.5, "0.5", "const"),
        (2.5, 2.8, "2.8 - x", "dec"),
    ]
    fz = from_membership_pieces(ok)
    assert membership(fz, 2.5) == 0.5


def test_rejects_values_outside_unit_interval():
    with pytest.raises(RepresentationError) as err:
        from_membership_pieces([(0.0, 1.0, "2*x", "inc"),
                                (1.0, 2.0, "2 - x", "dec")])
    assert "outside" in str(err.value)


def test_rejects_empty_core():
    with pytest.raises(RepresentationError) as err:
        from_membership_pieces([(0.0, 1.0, "0.5*x", "inc"),
                                (1.0, 2.0, "0.5 - 0.5*(x - 1)", "dec")])
    assert "core" in str(err.value)


def test_rejects_rise_after_core():
    bad = [
        (0.0, 1.0, "x", "inc"),
        (1.0, 2.0, "2 - x", "dec"),
        (2.0, 3.0, "x - 2", "inc"),
    ]
    with pytest.raises(RepresentationError):
        from_membership_pieces(bad)


def test_rejects_tiling_gap():
    bad = [
        (0.0, 1.0, "x", "inc"),
        (1.5, 2.5, "2.5 - x", "dec"),
    ]
    with pytest.raises(RepresentationError) as err:
        from_membership_pieces(bad)
    assert "tile" in str(err.value)


def test_rejects_wrong_monotone_tags():
    with pytest.raises(RepresentationError):
        from_membership_pieces([(0.0, 1.0, "x", "dec"),
                                (1.0, 2.0, "2 - x", "dec")])
    with pytest.raises(RepresentationError):
        from_membership_pieces([(0.0, 1.0, "x", "const"),
                                (1.0, 2.0, "2 - x", "dec")])
    with pytest.raises(RepresentationError):
        from_membership_pieces([(0.0, 1.0, "x", "up"),
                                (1.0, 2.0, "2 - x", "dec")])


def test_rejects_piece_spanning_parabola_vertex():
    # endpoints rise but the parabola dips at x=0 inside the piece
    bad = [
        (-0.5, 1.0, "0.5 + 0.5*x^2", "inc"),
        (1.0, 2.0, "2 - x", "dec"),
    ]
    with pytest.raises(RepresentationError) as err:
        from_membership_pieces(bad)
    assert "vertex" in str(err.value)


def test_crisp_point_build():
    fz = from_membership_pieces(PIECES["point"])
    assert fz.support == (0.0, 0.0)
    assert fz.core == (0.0, 0.0)
    assert membership(fz, 0.0) == 1.0
    assert membership(fz, 0.1) == 0.0
