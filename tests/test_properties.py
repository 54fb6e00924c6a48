"""Property tests over randomized fuzzy numbers."""

import math

from hypothesis import given, settings, strategies as st

from alphacut import (alpha_cut, class_membership, classify_points, convolve,
                      lipschitz_estimate, membership, membership_outer_limit,
                      scale, strong_cut, sup_metric, synthesize_smoother,
                      validate)
from alphacut.convolve import EndpointSpec, predicted_derivative
from alphacut.calculus import candidate_points, left_deriv, right_deriv
from alphacut.cutcore.curve import membership_pair

import oracles
from conftest import fuzzy_numbers, fuzzy_pairs, load_fixture

LEVELS = [k / 16 for k in range(17)]


@given(fuzzy_numbers())
def test_random_draws_are_valid(fz):
    rep = validate(fz)
    assert rep.ok, rep.lines()
    sup, core = fz.support, fz.core
    assert sup.lo <= core.lo <= core.hi <= sup.hi


@given(fuzzy_numbers())
def test_cuts_nest_downward(fz):
    """Raising the level can only shrink the cut."""
    prev = alpha_cut(fz, 0.0)
    for a in LEVELS[1:]:
        cur = alpha_cut(fz, a)
        assert prev.lo <= cur.lo <= cur.hi <= prev.hi
        prev = cur


@given(fuzzy_numbers())
def test_strong_cut_sits_inside_cut(fz):
    for a in LEVELS:
        iv = alpha_cut(fz, a)
        sv = strong_cut(fz, a)
        assert iv.lo <= sv.lo <= sv.hi <= iv.hi


@given(fuzzy_numbers())
def test_strong_equals_cut_exactly_off_jumps(fz):
    """The two cuts agree at a level iff neither curve jumps there."""
    levels = set(fz.left.breakpoints()) | set(fz.right.breakpoints())
    levels.update((0.1, 0.3, 0.7))
    for b in sorted(levels):
        if b >= 1.0:
            continue
        jumped = (fz.left.right_limit(b) != fz.left.value(b)
                  or fz.right.right_limit(b) != fz.right.value(b))
        assert (strong_cut(fz, b) != alpha_cut(fz, b)) == jumped


@given(fuzzy_numbers(), st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
def test_membership_agrees_with_cut_scan(fz, frac):
    """mu(x) matches the highest grid level whose cut still holds x."""
    sup = fz.support
    x = sup.lo + (sup.hi - sup.lo) * frac
    got = membership(fz, x)
    ref = oracles.brute_membership_from_cuts(
        lambda a: tuple(alpha_cut(fz, a)), x, n=2001)
    assert ref - 1e-12 <= got <= ref + 1.0 / 2000 + 1e-12


@given(fuzzy_pairs())
def test_convolve_adds_cuts_bitwise(pair):
    u, v = pair
    w = convolve(u, v)
    for a in LEVELS:
        cu, cv, cw = alpha_cut(u, a), alpha_cut(v, a), alpha_cut(w, a)
        assert cw.lo == cu.lo + cv.lo
        assert cw.hi == cu.hi + cv.hi
        su, sv, sw = strong_cut(u, a), strong_cut(v, a), strong_cut(w, a)
        assert sw.lo == su.lo + sv.lo
        assert sw.hi == su.hi + sv.hi


@given(fuzzy_pairs())
def test_convolve_commutes_bitwise(pair):
    u, v = pair
    uv, vu = convolve(u, v), convolve(v, u)
    for a in LEVELS:
        assert alpha_cut(uv, a) == alpha_cut(vu, a)


@given(fuzzy_numbers())
def test_convolve_associates_with_fixture(fz):
    tri = load_fixture("triangle")
    par = load_fixture("parabola")
    left = convolve(convolve(fz, tri), par)
    right = convolve(fz, convolve(tri, par))
    for a in LEVELS:
        la, ra = alpha_cut(left, a), alpha_cut(right, a)
        assert math.isclose(la.lo, ra.lo, abs_tol=1e-12)
        assert math.isclose(la.hi, ra.hi, abs_tol=1e-12)


@given(fuzzy_numbers(), st.sampled_from((0.5, 2.0, 4.0)))
def test_scale_round_trips_bitwise(fz, c):
    """Powers of two scale exactly both ways."""
    back = scale(1.0 / c, scale(c, fz))
    for a in LEVELS:
        assert alpha_cut(back, a) == alpha_cut(fz, a)


@given(fuzzy_numbers())
def test_negation_mirrors_membership_and_slopes_bitwise(fz):
    """-u answers at -x what u answers at x; the right branch relies on it."""
    n = scale(-1.0, fz)
    sup = fz.support
    for k in range(33):
        x = sup.lo + (sup.hi - sup.lo) * (k / 32)
        assert membership(n, -x) == membership(fz, x)
        assert membership_outer_limit(n, -x) == \
            membership_outer_limit(fz, x)
        assert float(right_deriv(fz, x)) == -float(left_deriv(n, -x))
        assert float(left_deriv(fz, x)) == -float(right_deriv(n, -x))


def _pair_probes(fz):
    """Grid, candidate points, core and support ends, 1 ulp either side."""
    sup, core = fz.support, fz.core
    xs = [sup.lo + (sup.hi - sup.lo) * (k / 32) for k in range(33)]
    xs += candidate_points(fz) + [sup.lo, sup.hi, core.lo, core.hi]
    out = set()
    for x in xs:
        out.update((math.nextafter(x, -math.inf), x,
                    math.nextafter(x, math.inf)))
    return sorted(out)


def _assert_pair_is_both_scans(fz, x):
    got = membership_pair(fz, x)
    want = (membership(fz, x), membership_outer_limit(fz, x))
    assert [v.hex() for v in got] == [v.hex() for v in want], x


@given(fuzzy_numbers())
def test_membership_pair_is_both_scans_bitwise(fz):
    """membership_pair answers what membership and membership_outer_limit
    answer, bitwise, at every probe on u and -u."""
    neg = scale(-1.0, fz)
    for x in _pair_probes(fz):
        _assert_pair_is_both_scans(fz, x)
        _assert_pair_is_both_scans(neg, -x)


@given(st.sampled_from(["tail-jump", "split-peak", "cosine-tail",
                        "asymmetric-kink"]))
def test_membership_pair_is_both_scans_on_smoothing_steps(name):
    """The same on curved segments: a fixture and its smoothing step."""
    u = load_fixture(name)
    step = convolve(u, scale(0.5, synthesize_smoother(u, 0.5)))
    for fz in (u, step):
        for x in _pair_probes(fz):
            _assert_pair_is_both_scans(fz, x)


@given(fuzzy_numbers())
def test_scale_by_zero_collapses(fz):
    z = scale(0.0, fz)
    assert z.support.lo == 0.0 and z.support.hi == 0.0
    assert membership(z, 0.0) == 1.0


@given(fuzzy_numbers())
def test_class_flag_implications(fz):
    flags = class_membership(fz)
    pts = classify_points(fz)
    if flags.in_FT:
        assert flags.in_FN
    if flags.in_FD:
        assert flags.in_FC
        assert pts == []
    if any(p.branch in ("left", "right") for p in pts):
        assert not flags.in_FN


@given(fuzzy_pairs())
def test_metric_is_a_metric_on_random_draws(pair):
    u, v = pair
    duu, _ = sup_metric(u, u)
    duv, gap_uv = sup_metric(u, v)
    dvu, _ = sup_metric(v, u)
    assert duu == 0.0
    assert duv == dvu
    assert duv >= 0.0
    grid = oracles.grid_metric(
        lambda a: tuple(alpha_cut(u, a)), lambda a: tuple(alpha_cut(v, a)),
        n=501)
    assert grid <= duv + gap_uv + 1e-12


@given(fuzzy_pairs(), st.sampled_from((0.25, 0.5, 0.75)))
def test_supmin_grid_never_beats_convolution(pair, frac):
    u, v = pair
    w = convolve(u, v)
    sup = w.support
    x = sup.lo + (sup.hi - sup.lo) * frac
    got = membership(w, x)
    usup = u.support
    brute = oracles.grid_supmin(
        lambda y: membership(u, y) if usup.lo <= y <= usup.hi else 0.0,
        (usup.lo, usup.hi),
        lambda y: membership(v, y) if v.support.lo <= y <= v.support.hi
        else 0.0,
        x, n=801)
    assert got >= brute - 1e-9


@given(fuzzy_pairs(), st.sampled_from(("left", "right")),
       st.sampled_from((0.25, 0.5, 0.75)))
def test_predicted_slopes_match_measured(pair, branch, q):
    """Predictions agree with a measured derivative of the sum curve."""
    u, v = pair
    w = convolve(u, v)
    for side in ("left", "right"):
        spec = EndpointSpec(branch, "cut", q)
        got = predicted_derivative(u, v, spec, side)
        if got is None:
            continue
        curve = w.left if branch == "left" else w.right
        x = curve.value(q)
        meas = left_deriv(w, x) if side == "left" else right_deriv(w, x)
        assert abs(got.value - meas.value) <= 1e-6 * (1.0 + abs(got.value))


@settings(max_examples=50)
@given(fuzzy_numbers())
def test_synthesis_smooths_every_random_draw(fz):
    """A synthesized smoother always removes every singular point."""
    w = synthesize_smoother(fz, 0.5)
    rep = validate(w)
    assert rep.ok
    assert math.isfinite(lipschitz_estimate(w))
    out = convolve(fz, w)
    assert classify_points(out) == []
    assert class_membership(out).in_FD
