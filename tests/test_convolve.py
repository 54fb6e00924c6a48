"""Sup-min convolution, scaling, endpoint rule, derivative predictor."""

import itertools
import math
import random

import pytest

from alphacut import (CutCurve, EndpointSpec, FuzzyNum, Segment,
                      StructuralError, alpha_cut, class_membership, convolve,
                      crisp_point, endpoint_value, left_deriv, membership,
                      predicted_derivative, right_deriv, scale, strong_cut,
                      validate)
from conftest import FIXTURE_NAMES, load_fixture

import oracles

SQ05 = math.sqrt(0.5)
LEVELS = [k / 20.0 for k in range(21)]


@pytest.mark.parametrize("order", ["bad-first", "bad-second"])
def test_convolve_refuses_a_falling_left_curve(order):
    """A left curve with a dec segment is not a fuzzy number's; its sum
    with a crisp point, either way round, must be refused."""
    bad = FuzzyNum(CutCurve([Segment(0.0, 0.5, "a", "inc"),
                             Segment(0.5, 1.0, "1 - a", "dec")]),
                   CutCurve([Segment(0.0, 1.0, "2 - a", "dec")]))
    pair = (bad, crisp_point(0.0))
    if order == "bad-second":
        pair = pair[::-1]
    with pytest.raises(StructuralError):
        convolve(*pair)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_crisp_zero_is_the_identity(name):
    u = load_fixture(name)
    g = convolve(u, crisp_point(0.0))
    assert validate(g).ok
    for a in LEVELS:
        assert alpha_cut(g, a) == alpha_cut(u, a)
    assert g.support == u.support
    assert g.core == u.core


@pytest.mark.parametrize("a,b", list(itertools.combinations(FIXTURE_NAMES,
                                                            2))[::3])
def test_cut_additivity_is_exact(a, b):
    u, v = load_fixture(a), load_fixture(b)
    g = convolve(u, v)
    for lv in LEVELS:
        cu, cv, cg = alpha_cut(u, lv), alpha_cut(v, lv), alpha_cut(g, lv)
        assert cg.lo == cu.lo + cv.lo
        assert cg.hi == cu.hi + cv.hi
        su, sv, sg = strong_cut(u, lv), strong_cut(v, lv), strong_cut(g, lv)
        assert sg.lo == su.lo + sv.lo
        assert sg.hi == su.hi + sv.hi


def test_plateau_smoothing_matches_closed_form_cuts():
    g = convolve(load_fixture("plateau-quadratic"), load_fixture("parabola"))
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        lo, hi = oracles.conv_plateau_quadratic_w1_cut(a)
        got = alpha_cut(g, a)
        assert got.lo == pytest.approx(lo, abs=1e-12)
        assert got.hi == pytest.approx(hi, abs=1e-12)


def test_kink_smoothing_matches_closed_form_membership():
    g = convolve(load_fixture("asymmetric-kink"), load_fixture("parabola"))
    mu = oracles.conv_asymmetric_kink_w1
    rng = random.Random(31)
    for _ in range(200):
        x = rng.uniform(-1.5, 3.0)
        assert membership(g, x) == pytest.approx(mu(x), abs=1e-9)


def test_split_peak_smoothing_matches_closed_form_membership():
    g = convolve(load_fixture("split-peak"), load_fixture("parabola"))
    mu = oracles.conv_split_peak_w1
    rng = random.Random(32)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0)
        assert membership(g, x) == pytest.approx(mu(x), abs=1e-9)


def test_kink_and_arc_convolution_matches_closed_form_cuts():
    g = convolve(load_fixture("asymmetric-kink"), load_fixture("sine-bridge"))
    for a in LEVELS:
        lo, hi = oracles.conv_asymmetric_kink_sine_bridge_cut(a)
        got = alpha_cut(g, a)
        assert got.lo == pytest.approx(lo, abs=1e-12)
        assert got.hi == pytest.approx(hi, abs=1e-12)


@pytest.mark.parametrize("a,b", [("triangle", "parabola"),
                                 ("plateau-quadratic", "triangle"),
                                 ("asymmetric-kink", "sine-bridge")])
def test_membership_against_brute_supmin(a, b):
    u, v = load_fixture(a), load_fixture(b)
    g = convolve(u, v)
    mu = oracles.MEMBERSHIPS[a]
    mv = oracles.MEMBERSHIPS[b]
    usup = oracles.SUPPORTS[a]
    gsup = g.support
    rng = random.Random(33)
    for _ in range(50):
        x = rng.uniform(gsup.lo, gsup.hi)
        brute = oracles.grid_supmin(mu, usup, mv, x, n=10001)
        got = membership(g, x)
        assert got >= brute - 1e-9
        assert got - brute <= 1e-3


@pytest.mark.parametrize("a,b", list(itertools.combinations(FIXTURE_NAMES,
                                                            2))[::5])
def test_convolution_commutes_exactly(a, b):
    u, v = load_fixture(a), load_fixture(b)
    g1, g2 = convolve(u, v), convolve(v, u)
    for lv in LEVELS:
        assert alpha_cut(g1, lv) == alpha_cut(g2, lv)


@pytest.mark.parametrize("a,b,c", [
    ("triangle", "parabola", "plateau-quadratic"),
    ("asymmetric-kink", "sine-bridge", "point"),
    ("tail-jump", "split-peak", "triangle"),
])
def test_convolution_associates(a, b, c):
    u, v, w = load_fixture(a), load_fixture(b), load_fixture(c)
    g1 = convolve(convolve(u, v), w)
    g2 = convolve(u, convolve(v, w))
    for lv in LEVELS:
        c1, c2 = alpha_cut(g1, lv), alpha_cut(g2, lv)
        assert c1.lo == pytest.approx(c2.lo, abs=1e-12)
        assert c1.hi == pytest.approx(c2.hi, abs=1e-12)


def test_scale_doubles_triangle_cuts():
    g = scale(2.0, load_fixture("triangle"))
    for a in LEVELS:
        got = alpha_cut(g, a)
        assert got.lo == 2.0 * (a - 1.0)
        assert got.hi == 2.0 * (1.0 - a)


def test_scale_builds_the_parabola_family():
    w = load_fixture("parabola")
    wp = scale(0.5, w)
    for a in LEVELS:
        assert alpha_cut(wp, a).lo == 0.5 * alpha_cut(w, a).lo
        assert alpha_cut(wp, a).hi == 0.5 * alpha_cut(w, a).hi
    assert membership(wp, 0.25) == pytest.approx(1.0 - 0.25 ** 2 / 0.25,
                                                 abs=1e-12)


def test_scale_by_zero_collapses_to_crisp_zero():
    g = scale(0.0, load_fixture("tail-jump"))
    assert g.is_crisp_point()
    assert g.support == (0.0, 0.0)
    assert membership(g, 0.0) == 1.0


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_scale_rejects_non_finite_factor(r):
    with pytest.raises(ValueError) as err:
        scale(r, load_fixture("parabola"))
    assert "scale factor r" in str(err.value)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_crisp_point_rejects_non_finite_abscissa(x):
    with pytest.raises(ValueError) as err:
        crisp_point(x)
    assert "crisp point x" in str(err.value)


def test_scale_keeps_a_number_that_validates():
    """A slope inside the monotonicity tolerance stays inside it when
    the values scale with it."""
    u = FuzzyNum(CutCurve([Segment(0.0, 1.0, "-5e-10*a - 1", "inc")]),
                 CutCurve([Segment(0.0, 1.0, "2 - a", "dec")]))
    assert validate(u).ok
    g = scale(10.0, u)
    assert validate(g).ok
    for a in LEVELS:
        assert alpha_cut(g, a).lo == 10.0 * alpha_cut(u, a).lo


def test_scale_by_one_is_identity():
    u = load_fixture("asymmetric-kink")
    g = scale(1.0, u)
    for a in LEVELS:
        assert alpha_cut(g, a) == alpha_cut(u, a)


def test_negative_scale_mirrors_cuts():
    u = load_fixture("asymmetric-kink")
    g = scale(-1.0, u)
    assert validate(g).ok
    for a in LEVELS:
        cu, cg = alpha_cut(u, a), alpha_cut(g, a)
        assert cg.lo == -cu.hi
        assert cg.hi == -cu.lo


def test_scale_composes():
    u = load_fixture("plateau-quadratic")
    g1 = scale(0.5, scale(3.0, u))
    g2 = scale(1.5, u)
    for a in LEVELS:
        c1, c2 = alpha_cut(g1, a), alpha_cut(g2, a)
        assert c1.lo == pytest.approx(c2.lo, abs=1e-12)
        assert c1.hi == pytest.approx(c2.hi, abs=1e-12)


def test_endpoint_value_at_the_support_edge():
    u = load_fixture("triangle")
    w = load_fixture("clipped-parabola")
    spec = EndpointSpec("left", "cut", 0.0)
    val = endpoint_value(u, w, spec)
    assert val == 0.0
    g = convolve(u, w)
    assert membership(g, -1.0 - SQ05) == 0.0


def test_endpoint_value_at_the_core_is_one():
    u = load_fixture("plateau-quadratic")
    v = load_fixture("sine-bridge")
    for branch in ("left", "right"):
        assert endpoint_value(u, v, EndpointSpec(branch, "cut", 1.0)) == 1.0


def test_endpoint_value_matches_direct_membership():
    rng = random.Random(34)
    names = FIXTURE_NAMES
    for _ in range(500):
        u = load_fixture(rng.choice(names))
        v = load_fixture(rng.choice(names))
        branch = rng.choice(("left", "right"))
        kind = rng.choice(("cut", "strong-cut"))
        level = rng.choice(LEVELS)
        spec = EndpointSpec(branch, kind, level)
        cu = u.left if branch == "left" else u.right
        cv = v.left if branch == "left" else v.right
        if kind == "cut":
            x = cu.value(level) + cv.value(level)
        else:
            x = cu.strong_value(level) + cv.strong_value(level)
        got = endpoint_value(u, v, spec)
        direct = membership(convolve(u, v), x)
        assert abs(got - direct) <= 1e-12


def test_endpoint_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        EndpointSpec("middle", "cut", 0.5)
    with pytest.raises(ValueError):
        EndpointSpec("left", "open", 0.5)
    with pytest.raises(ValueError):
        EndpointSpec("left", "cut", 1.5)


def test_predictor_halves_symmetric_slopes():
    u = scale(0.5, load_fixture("triangle"))
    spec = EndpointSpec("left", "cut", 0.5)
    got = predicted_derivative(u, u, spec, "left")
    assert got.value == pytest.approx(1.0, abs=1e-12)
    g = convolve(u, u)
    x = g.left.value(0.5)
    assert float(left_deriv(g, x)) == pytest.approx(1.0, abs=1e-12)
    inner = predicted_derivative(u, u, spec, "right")
    assert inner.value == pytest.approx(1.0, abs=1e-12)
    assert float(right_deriv(g, x)) == pytest.approx(1.0, abs=1e-12)


def test_predictor_zero_absorption():
    u = load_fixture("triangle")
    v = load_fixture("plateau-quadratic")
    spec = EndpointSpec("left", "cut", 0.5)
    got = predicted_derivative(u, v, spec, "left")
    assert got.value == 0.0
    g = convolve(u, v)
    assert float(left_deriv(g, -1.5)) == pytest.approx(0.0, abs=1e-9)


def test_predictor_harmonic_combination():
    u = load_fixture("triangle")
    w = load_fixture("parabola")
    spec = EndpointSpec("left", "cut", 0.75)
    got = predicted_derivative(u, w, spec, "left")
    assert got.value == pytest.approx(0.5, abs=1e-12)
    g = convolve(u, w)
    assert float(left_deriv(g, -0.75)) == pytest.approx(0.5, abs=1e-12)
    assert float(right_deriv(g, -0.75)) == pytest.approx(0.5, abs=1e-12)


def test_predictor_passes_slope_through_a_jump():
    u = load_fixture("tail-jump")
    v = load_fixture("triangle")
    spec = EndpointSpec("right", "cut", 0.5)
    got = predicted_derivative(u, v, spec, "right")
    assert got.value == pytest.approx(-1.0, abs=1e-12)
    g = convolve(u, v)
    assert float(right_deriv(g, 3.0)) == pytest.approx(-1.0, abs=1e-12)


def test_predictor_declines_at_a_summed_membership_jump():
    u = load_fixture("split-peak")
    spec = EndpointSpec("left", "cut", 0.5)
    assert predicted_derivative(u, u, spec, "left") is None


def test_predictor_rejects_bad_side():
    u = load_fixture("triangle")
    with pytest.raises(ValueError):
        predicted_derivative(u, u, EndpointSpec("left", "cut", 0.5), "up")


def test_predictions_are_sound_on_random_specs():
    rng = random.Random(35)
    names = FIXTURE_NAMES
    checked = 0
    for _ in range(150):
        u = load_fixture(rng.choice(names))
        v = load_fixture(rng.choice(names))
        spec = EndpointSpec(rng.choice(("left", "right")),
                            rng.choice(("cut", "strong-cut")),
                            rng.choice(LEVELS))
        side = rng.choice(("left", "right"))
        got = predicted_derivative(u, v, spec, side)
        if got is None:
            continue
        g = convolve(u, v)
        cu = g.left if spec.branch == "left" else g.right
        x = (cu.value(spec.level) if spec.kind == "cut"
             else cu.strong_value(spec.level))
        meas = left_deriv(g, x) if side == "left" else right_deriv(g, x)
        assert abs(got.value - meas.value) <= 1e-6 * (1.0 + abs(got.value)), (
            "%r vs %r for %r %s" % (got, meas, spec, side))
        checked += 1
    assert checked >= 30


def _base_level(curve):
    lvl = 0.0
    for s in curve.segments:
        if s.mono != "const":
            break
        lvl = s.hi
    return lvl


def test_continuity_is_preserved_on_qualifying_pairs():
    for a, b in itertools.product(FIXTURE_NAMES, repeat=2):
        u, v = load_fixture(a), load_fixture(b)
        if not class_membership(u).in_FC:
            continue
        if _base_level(u.left) > _base_level(v.left):
            continue
        if _base_level(u.right) > _base_level(v.right):
            continue
        g = convolve(u, v)
        assert class_membership(g).in_FC, "%s * %s" % (a, b)
