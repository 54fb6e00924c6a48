"""One-sided slopes, singular points, class flags, metric, Lipschitz."""

import itertools
import math
import random

import pytest

from alphacut import (CutCurve, FuzzyNum, Segment, alpha_cut, calculus,
                      class_membership, classify_points, convolve,
                      from_membership_pieces, left_deriv,
                      lipschitz_estimate, membership,
                      membership_outer_limit, numeric_slope, right_deriv,
                      scale, singular_at, strong_cut, sup_metric)
from alphacut.cutcore.curve import membership_pair
from conftest import EXAMPLE_NAMES, FIXTURE_NAMES, load_fixture

import oracles

SQ05 = math.sqrt(0.5)

# (in_FT, in_FN, in_FC, in_FD) for every fixture
EXPECTED_FLAGS = {
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

# (x, kind, branch, level) for every singular point, ascending in x
EXPECTED_SINGULAR = {
    "triangle": [(0.0, "kink", "core-endpoint", 1.0)],
    "plateau-quadratic": [(0.0, "kink", "core-endpoint", 1.0)],
    "asymmetric-kink": [(0.0, "kink", "left", 0.5),
                        (1.0, "kink", "core-endpoint", 1.0)],
    "tail-jump": [(2.0, "kink", "core-endpoint", 1.0),
                  (2.5, "jump", "right", 0.5)],
    "split-peak": [(0.0, "jump", "core-endpoint", 1.0)],
}


def test_one_sided_slopes_triangle():
    fz = load_fixture("triangle")
    assert float(left_deriv(fz, -0.5)) == pytest.approx(1.0, abs=1e-12)
    assert float(right_deriv(fz, -0.5)) == pytest.approx(1.0, abs=1e-12)
    assert float(left_deriv(fz, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(right_deriv(fz, 0.0)) == pytest.approx(-1.0, abs=1e-12)


def test_one_sided_slopes_at_branch_kink():
    fz = load_fixture("asymmetric-kink")
    assert float(left_deriv(fz, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(right_deriv(fz, 0.0)) == pytest.approx(0.5, abs=1e-12)


def test_parabola_vertex_slopes_vanish():
    fz = load_fixture("parabola")
    assert float(left_deriv(fz, 0.0)) == 0.0
    assert float(right_deriv(fz, 0.0)) == 0.0


def test_vertical_membership_reports_infinite_slope():
    # cut derivative vanishes at the top, so membership climbs vertically
    fz = from_membership_pieces([
        (-1.0, 0.0, "1 - sqrt(-x)", "inc"),
        (0.0, 1.0, "1 - sqrt(x)", "dec"),
    ])
    assert math.isinf(float(left_deriv(fz, 0.0)))
    assert not left_deriv(fz, 0.0).is_finite()


def test_slope_outside_support_is_an_error():
    fz = load_fixture("triangle")
    with pytest.raises(ValueError):
        left_deriv(fz, 5.0)
    with pytest.raises(ValueError):
        right_deriv(fz, -5.0)


@pytest.mark.parametrize("query", [membership, membership_outer_limit,
                                   membership_pair, singular_at,
                                   left_deriv, right_deriv])
@pytest.mark.parametrize("name", ["triangle", "tail-jump", "point"])
def test_nan_abscissa_is_an_error(query, name):
    """Every comparison with NaN is false, so no boundary rule holds."""
    with pytest.raises(ValueError, match="nan"):
        query(load_fixture(name), math.nan)


def test_smoothed_kink_slopes_match_closed_form():
    u = load_fixture("asymmetric-kink")
    w = load_fixture("parabola")
    g = convolve(u, w)
    x = -SQ05
    assert float(left_deriv(g, x)) == pytest.approx(2.0 - math.sqrt(2.0),
                                                    abs=1e-12)
    assert float(right_deriv(g, x)) == pytest.approx(
        (4.0 - math.sqrt(2.0)) / 7.0, abs=1e-12)


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "point"])
def test_numeric_route_agrees_with_symbolic(name):
    fz = load_fixture(name)
    sup = fz.support
    avoid = [p.x for p in classify_points(fz)] + [sup.lo, sup.hi]
    for curve in (fz.left, fz.right):
        for b in [0.0] + curve.breakpoints() + [1.0]:
            avoid.append(curve.value(b))
            avoid.append(curve.right_limit(b) if b < 1.0
                         else curve.value(b))
    rng = random.Random(hash(name) & 0xFFFF)
    checked = 0
    while checked < 200:
        x = rng.uniform(sup.lo, sup.hi)
        if min(abs(x - a) for a in avoid) < 2.5e-3:
            continue
        checked += 1
        for slope, side in ((left_deriv(fz, x), "left"),
                            (right_deriv(fz, x), "right")):
            if not slope.is_finite():
                continue
            num = numeric_slope(fz, x, side)
            tol = 1e-6 * (1.0 + abs(slope.value))
            assert abs(slope.value - num) <= tol, (
                "%s at x=%r (%s): sym %r vs num %r"
                % (name, x, side, slope.value, num))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_singular_sets_on_example_fixtures(name):
    pts = classify_points(load_fixture(name))
    got = [(p.x, p.kind, p.branch, p.level) for p in pts]
    want = EXPECTED_SINGULAR[name]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == pytest.approx(w[0], abs=1e-9)
        assert g[1:3] == w[1:3]
        assert g[3] == pytest.approx(w[3], abs=1e-12)


@pytest.mark.parametrize("name", ["parabola", "clipped-parabola",
                                  "sine-bridge", "cosine-tail", "point"])
def test_smooth_fixtures_have_no_singular_points(name):
    assert classify_points(load_fixture(name)) == []


def test_singular_point_records_slopes_and_limits():
    p = singular_at(load_fixture("plateau-quadratic"), 0.0)
    assert p.kind == "kink"
    assert p.left_slope == pytest.approx(2.0, abs=1e-9)
    assert p.right_slope == pytest.approx(-2.0, abs=1e-9)

    j = singular_at(load_fixture("tail-jump"), 2.5)
    assert j.kind == "jump"
    assert j.level == 0.5
    assert j.outer_limit == pytest.approx(0.3, abs=1e-12)

    s = singular_at(load_fixture("split-peak"), 0.0)
    assert s.kind == "jump"
    assert s.level == 1.0
    assert s.outer_limit == pytest.approx(0.5, abs=1e-12)

    assert singular_at(load_fixture("parabola"), 0.5) is None


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_class_flags(name):
    assert class_membership(load_fixture(name)) == EXPECTED_FLAGS[name]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_class_flag_implications(name):
    f = class_membership(load_fixture(name))
    assert not f.in_FD or f.in_FC
    assert not f.in_FT or f.in_FN


@pytest.fixture(scope="module")
def metric_matrix():
    fz = {n: load_fixture(n) for n in FIXTURE_NAMES}
    d = {}
    for a, b in itertools.product(FIXTURE_NAMES, repeat=2):
        d[a, b] = sup_metric(fz[a], fz[b])
    return d


def test_metric_identity(metric_matrix):
    for n in FIXTURE_NAMES:
        assert metric_matrix[n, n][0] == 0.0


def test_metric_symmetry(metric_matrix):
    for a, b in itertools.combinations(FIXTURE_NAMES, 2):
        assert metric_matrix[a, b][0] == metric_matrix[b, a][0]


def test_metric_triangle_inequality(metric_matrix):
    for a, b, c in itertools.permutations(FIXTURE_NAMES, 3):
        dac, gac = metric_matrix[a, c]
        dab, gab = metric_matrix[a, b]
        dbc, gbc = metric_matrix[b, c]
        assert dac <= dab + dbc + gab + gbc + 1e-12


@pytest.mark.parametrize("name", ["triangle", "plateau-quadratic",
                                  "tail-jump"])
def test_metric_of_pure_shift(name):
    u = load_fixture(name)
    bump = from_membership_pieces([(0.3, 0.3, "1", "const")])
    v = convolve(u, bump)
    val, gap = sup_metric(u, v)
    assert val == pytest.approx(0.3, abs=1e-12)
    assert gap <= 1e-9


@pytest.mark.parametrize("a,b", [("triangle", "parabola"),
                                 ("plateau-quadratic", "triangle"),
                                 ("asymmetric-kink", "sine-bridge")])
def test_metric_against_level_grid(a, b):
    u, v = load_fixture(a), load_fixture(b)
    val, gap = sup_metric(u, v)
    grid = oracles.grid_metric(lambda t: alpha_cut(u, t),
                               lambda t: alpha_cut(v, t), 10001)
    assert grid <= val + gap + 1e-12
    assert val - grid <= 2e-3


def test_one_ulp_knot_interval_reads_its_own_segments():
    """On the piece [0.5, b] one ulp wide, sample levels round onto its
    ends; the metric and the convolution must still read the segments
    that hold the piece.  The left curves differ by 4 up to level 0.5
    and by 0 above it, so the residual bound is 0, and the sum above
    0.5 is (a + 3) + (a + 3)."""
    b = math.nextafter(0.5, 1.0)
    right = CutCurve([Segment(0.0, 1.0, "9 - a", "dec")])
    u = FuzzyNum(CutCurve([Segment(0.0, 0.5, "a - 1", "inc"),
                           Segment(0.5, b, "a + 3", "inc", own_right=False),
                           Segment(b, 1.0, "a + 3", "inc")]), right)
    v = FuzzyNum(CutCurve([Segment(0.0, 1.0, "a + 3", "inc")]), right)
    assert sup_metric(u, v) == (4.0, 0.0)
    assert convolve(u, v).left.value(b) == 7.0


def test_lipschitz_constants():
    assert lipschitz_estimate(load_fixture("triangle")) == 1.0
    assert lipschitz_estimate(load_fixture("parabola")) == 2.0
    w_half = scale(0.5, load_fixture("parabola"))
    assert lipschitz_estimate(w_half) == pytest.approx(4.0, abs=1e-12)
    assert lipschitz_estimate(load_fixture("plateau-quadratic")) == (
        pytest.approx(2.0, abs=1e-9))
    assert lipschitz_estimate(load_fixture("cosine-tail")) == (
        pytest.approx(2.0 * math.sqrt(0.3), abs=1e-9))
    assert lipschitz_estimate(load_fixture("point")) == 0.0


def test_lipschitz_of_discontinuous_inputs_is_infinite():
    assert math.isinf(lipschitz_estimate(load_fixture("tail-jump")))
    assert math.isinf(lipschitz_estimate(load_fixture("split-peak")))


def test_smoothing_keeps_lipschitz_bound():
    g = convolve(load_fixture("asymmetric-kink"), load_fixture("parabola"))
    assert lipschitz_estimate(g) <= 2.0 + 1e-6


def _golden_max(f, a, b):
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a <= 1e-13:
            break
    return max(fc, fd)


def _slope_route_estimate(fz):
    """Lipschitz bound from pointwise membership slopes.

    Independent of the segmentwise cut-derivative minimization: walks
    abscissa spans and maximizes the larger one-sided slope magnitude.
    """
    sup = fz.support

    def mag(x):
        x = min(max(x, sup.lo), sup.hi)
        vals = [abs(s.value) for s in (left_deriv(fz, x),
                                       right_deriv(fz, x))
                if s.is_finite()]
        return max(vals) if vals else 0.0

    best = 0.0
    for curve in (fz.left, fz.right):
        for s in curve.segments:
            if s.mono == "const" or s.width == 0.0:
                continue
            xa, xb = sorted((s.fn(s.lo), s.fn(s.hi)))
            if xb <= xa:
                continue
            pts = [xa + (xb - xa) * k / 16.0 for k in range(17)]
            vals = [mag(t) for t in pts]
            k = vals.index(max(vals))
            lo = pts[max(0, k - 1)]
            hi = pts[min(16, k + 1)]
            best = max(best, max(vals), _golden_max(mag, lo, hi))
    return best


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES
                                  if EXPECTED_FLAGS[n][2]])
def test_lipschitz_routes_agree(name):
    fz = load_fixture(name)
    est = lipschitz_estimate(fz)
    alt = _slope_route_estimate(fz)
    assert abs(est - alt) <= 1e-9, "%s: %r vs %r" % (name, est, alt)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cut_continuity_iff_strong_cut_equality(name):
    fz = load_fixture(name)
    for curve, side in ((fz.left, "lo"), (fz.right, "hi")):
        for b in curve.breakpoints():
            cont = curve.value(b) == curve.right_limit(b)
            reg = getattr(alpha_cut(fz, b), side)
            strong = getattr(strong_cut(fz, b), side)
            assert cont == (reg == strong)


def test_classify_points_is_found_once_per_number(monkeypatch):
    """A second classify_points(u) probes nothing and hands out an equal
    list of its own."""
    u = convolve(load_fixture("tail-jump"), load_fixture("parabola"))
    first = classify_points(u)
    assert first
    calls = []
    real = calculus.singular_at
    monkeypatch.setattr(calculus, "singular_at",
                        lambda fz, x: calls.append(x) or real(fz, x))
    second = classify_points(u)
    assert calls == []
    assert second == first and second is not first
    second.clear()
    assert classify_points(u) == first
