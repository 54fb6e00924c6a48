"""Cut curves: ownership, limits, validation, cuts, membership scans."""

import gc
import math
import weakref

import pytest

from alphacut import (CutCurve, FuzzyNum, Interval, Segment, alpha_cut,
                      convolve, membership, membership_outer_limit, sample,
                      scale, strong_cut, synthesize_smoother, validate)
from alphacut.calculus import singular_at
from alphacut.cutcore.curve import membership_pair
from alphacut.errors import StructuralError
from conftest import load_fixture


def _jump_curve():
    # nondecreasing with a legal jump at level 0.5: the first segment
    # owns the junction, so the value stays left-continuous
    return CutCurve([
        Segment(0.0, 0.5, "a - 1", "inc"),
        Segment(0.5, 1.0, "a", "inc"),
    ])


def _plateau_membership_number():
    left = _jump_curve()
    right = CutCurve([Segment(0.0, 1.0, "3 - a", "dec")])
    return FuzzyNum(left, right, name="jumpy")


def test_segment_rejects_bad_levels_and_tags():
    with pytest.raises(StructuralError):
        Segment(-0.1, 0.5, "a", "inc")
    with pytest.raises(StructuralError):
        Segment(0.6, 0.5, "a", "inc")
    with pytest.raises(StructuralError):
        Segment(0.0, 1.0, "a", "up")


def test_segment_monotonicity_is_checked():
    with pytest.raises(StructuralError):
        CutCurve([Segment(0.0, 1.0, "1 - a", "inc")])
    with pytest.raises(StructuralError):
        CutCurve([Segment(0.0, 1.0, "a", "const")])


def test_curve_coverage_rules():
    with pytest.raises(StructuralError):
        CutCurve([])
    with pytest.raises(StructuralError):
        CutCurve([Segment(0.1, 1.0, "a", "inc")])
    with pytest.raises(StructuralError):
        CutCurve([Segment(0.0, 0.9, "a", "inc")])
    with pytest.raises(StructuralError):
        CutCurve([Segment(0.0, 0.4, "a", "inc"),
                  Segment(0.5, 1.0, "a", "inc")])


def test_zero_width_segment_reachability():
    # unreachable: previous segment owns the shared point
    with pytest.raises(StructuralError):
        CutCurve([Segment(0.0, 0.5, "a", "inc", own_right=True),
                  Segment(0.5, 0.5, "0.5", "const"),
                  Segment(0.5, 1.0, "a", "inc")])
    ok = CutCurve([Segment(0.0, 0.5, "a", "inc", own_right=False),
                   Segment(0.5, 0.5, "0.75", "const"),
                   Segment(0.5, 1.0, "a", "inc")])
    assert ok.value(0.5) == 0.75


def test_jump_value_and_limits():
    c = _jump_curve()
    assert c.value(0.5) == -0.5
    assert c.left_limit(0.5) == -0.5
    assert c.right_limit(0.5) == 0.5
    assert c.value(0.75) == 0.75
    assert c.deriv_below(0.5) == 1.0
    assert c.deriv_above(0.5) == 1.0
    assert c.breakpoints() == [0.5]


def test_strong_value_versus_value():
    c = _jump_curve()
    assert c.strong_value(0.5) == 0.5
    assert c.strong_value(1.0) == c.value(1.0) == 1.0


def test_validate_passes_all_fixtures():
    for name in ("triangle", "parabola", "clipped-parabola",
                 "plateau-quadratic", "split-peak", "asymmetric-kink",
                 "tail-jump", "sine-bridge", "cosine-tail", "point"):
        rep = validate(load_fixture(name))
        assert rep.ok, "%s: %s" % (name, rep.failures())


def test_validate_core_order_failure():
    left = CutCurve([Segment(0.0, 1.0, "a + 1", "inc")])
    right = CutCurve([Segment(0.0, 1.0, "1 - a", "dec")])
    rep = validate(FuzzyNum(left, right))
    assert rep.failures() == ["iv"]
    assert rep.conditions["iv"]["witness"] == 1.0


def test_validate_left_continuity_failure():
    # stored junction value taken from above breaks left-continuity
    left = CutCurve([
        Segment(0.0, 0.5, "a - 1", "inc", own_right=False),
        Segment(0.5, 1.0, "a", "inc"),
    ])
    right = CutCurve([Segment(0.0, 1.0, "3 - a", "dec")])
    rep = validate(FuzzyNum(left, right))
    assert "i" in rep.failures()
    assert rep.conditions["i"]["witness"] == 0.5


def test_validate_monotone_direction_failure():
    left = CutCurve([Segment(0.0, 0.5, "a - 2", "inc"),
                     Segment(0.5, 1.0, "-a", "dec")])
    right = CutCurve([Segment(0.0, 1.0, "3 - a", "dec")])
    rep = validate(FuzzyNum(left, right))
    assert "i" in rep.failures()


def test_validate_report_lines_format():
    rep = validate(load_fixture("triangle"))
    lines = rep.lines()
    assert len(lines) == 4
    assert all(("pass" in ln) or ("fail" in ln) for ln in lines)


def test_cuts_and_domain_errors():
    fz = load_fixture("parabola")
    cut = alpha_cut(fz, 0.19)
    want = math.sqrt(1 - 0.19)
    assert cut.lo == -want and cut.hi == want
    with pytest.raises(ValueError):
        alpha_cut(fz, 1.5)
    with pytest.raises(ValueError):
        strong_cut(fz, -0.01)


def test_cut_nesting_on_fixture():
    fz = load_fixture("plateau-quadratic")
    levels = [k / 20.0 for k in range(21)]
    for a, b in zip(levels, levels[1:]):
        ca, cb = alpha_cut(fz, a), alpha_cut(fz, b)
        assert ca.lo <= cb.lo and cb.hi <= ca.hi
        sc = strong_cut(fz, a)
        assert ca.lo <= sc.lo and sc.hi <= ca.hi


def test_strong_cut_on_plateau_number():
    fz = load_fixture("plateau-quadratic")
    assert alpha_cut(fz, 0.5).lo == -1.0
    assert strong_cut(fz, 0.5).lo == -0.5
    assert strong_cut(fz, 1.0) == fz.core


def test_membership_examples():
    tri = load_fixture("triangle")
    assert membership(tri, 0.5) == 0.5
    assert membership(tri, -2.0) == 0.0
    assert membership(tri, 0.0) == 1.0
    plateau = load_fixture("plateau-quadratic")
    assert membership(plateau, -0.75) == 0.5
    tail = load_fixture("tail-jump")
    assert membership(tail, 2.5) == 0.5
    assert abs(membership_outer_limit(tail, 2.5) - 0.3) <= 1e-12


def test_membership_on_cut_jump_gap():
    # the plateau [value, right_limit) at the jump level has exactly
    # that membership on the whole gap
    fz = _plateau_membership_number()
    for x in (-0.5, -0.25, 0.0, 0.4999):
        assert membership(fz, x) == 0.5
    assert membership(fz, 0.5) == 0.5
    assert membership(fz, 0.6) > 0.5


def test_membership_at_support_and_core_edges():
    fz = load_fixture("asymmetric-kink")
    sup = fz.support
    assert membership(fz, sup.lo) == 0.0
    assert membership(fz, sup.hi) == 0.0
    assert membership(fz, 1.0) == 1.0


def test_outer_limit_semantics():
    fz = load_fixture("split-peak")
    # membership at the singleton core is 1; both one-sided limits 0.5
    assert membership(fz, 0.0) == 1.0
    assert membership_outer_limit(fz, -1e-9) == pytest.approx(0.5, abs=1e-8)
    assert membership_outer_limit(fz, 0.0) in (0.5, 1.0)


def _square_number():
    return FuzzyNum(CutCurve([Segment(0.0, 1.0, "a*a - 1", "inc")]),
                    CutCurve([Segment(0.0, 1.0, "1 - a*a", "dec")]))


def test_pair_scan_parts_at_the_first_halving():
    """fn(mid) == x at the first midpoint: the two levels part at once."""
    fz = _square_number()
    s = fz.left.segments[0]
    x = s.fn(0.5 * (s.lo + s.hi))
    assert x == -0.75
    for num, at in ((fz, x), (fz.mirror, -x)):
        level, outer = membership_pair(num, at)
        assert level.hex() == membership(num, at).hex()
        assert outer.hex() == membership_outer_limit(num, at).hex()
        # the non-strict level keeps the midpoint, the strict one stays
        # below it
        assert level == 0.5
        assert outer < level


class _Counted:
    """A segment function that counts its values."""

    def __init__(self, fn, tally):
        self.fn = fn
        self.tally = tally

    def __call__(self, alpha):
        self.tally[0] += 1
        return self.fn(alpha)

    def deriv(self, alpha):
        return self.fn.deriv(alpha)


def test_singular_at_scans_each_probe_once():
    """A probe costs about one scan; two scans would cost about 2x."""
    u = load_fixture("tail-jump")
    step = convolve(u, scale(0.5, synthesize_smoother(u, 0.5)))
    tally = [0]
    for curve in (step.left, step.right, step.mirror.left, step.mirror.right):
        for seg in curve.segments:
            seg.fn = _Counted(seg.fn, tally)
    sup = step.support
    xs = [sup.lo + sup.width * k / 200 for k in range(1, 200)]
    for x in xs:
        membership(step, x)
    alone = tally[0]
    tally[0] = 0
    for x in xs:
        singular_at(step, x)
    assert alone > 0
    assert tally[0] < 1.3 * alone, (tally[0], alone)


def test_interval_type():
    iv = Interval(1.0, 3.0)
    assert iv == (1.0, 3.0)
    assert iv.width == 2.0
    assert tuple(iv) == (1.0, 3.0)
    assert Interval(0, 1) == Interval(0.0, 1.0)


def test_support_core_crisp():
    pt = load_fixture("point")
    assert pt.support == (0.0, 0.0)
    assert pt.core == (0.0, 0.0)
    assert pt.is_crisp_point()
    assert not load_fixture("triangle").is_crisp_point()


def test_sample_augments_breakpoints():
    fz = load_fixture("plateau-quadratic")
    rows = sample(fz, [0.0, 1.0])
    levels = [r[0] for r in rows]
    assert 0.5 in levels
    assert levels == sorted(levels)
    for a, lo, hi in rows:
        assert lo == fz.left.value(a) and hi == fz.right.value(a)


def test_sample_validates_grid():
    fz = load_fixture("triangle")
    with pytest.raises(ValueError):
        sample(fz, [])
    with pytest.raises(ValueError):
        sample(fz, [-0.2, 0.5])


def test_sample_of_crisp_point():
    rows = sample(load_fixture("point"), [0.0, 0.5, 1.0])
    assert all(lo == 0.0 and hi == 0.0 for _, lo, hi in rows)


def test_scaled_and_shifted_curves():
    c = _jump_curve()
    s = c.scaled(2.0)
    assert s.value(0.25) == 2.0 * c.value(0.25)
    sh = c.shifted(1.0)
    assert sh.value(0.25) == c.value(0.25) - 1.0
    with pytest.raises(ValueError):
        c.scaled(-1.0)


def test_negated_curve_and_mirror():
    c = _jump_curve()
    n = c.negated()
    assert [s.mono for s in n.segments] == ["dec", "dec"]
    assert [s.own_right for s in n.segments] == \
        [s.own_right for s in c.segments]
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert n.value(a) == -c.value(a)
    fz = _plateau_membership_number()
    m = fz.mirror
    assert fz.mirror is m
    assert m.support == (-fz.support.hi, -fz.support.lo)
    assert m.core == (-fz.core.hi, -fz.core.lo)
    assert validate(m).ok


def test_mirror_keeps_no_reference_to_its_number():
    """Without a cycle, a number is freed as soon as its last user lets go."""
    fz = _plateau_membership_number()
    m = fz.mirror
    want = fz.left.value(0.5)
    gone = weakref.ref(fz)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del fz
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
    assert m.mirror.left.value(0.5) == want


def test_level_query_domains():
    c = _jump_curve()
    with pytest.raises(ValueError):
        c.value(1.2)
    with pytest.raises(ValueError):
        c.right_limit(1.0)
    with pytest.raises(ValueError):
        c.left_limit(0.0)
    with pytest.raises(ValueError):
        c.deriv_above(1.0)
    with pytest.raises(ValueError):
        c.deriv_below(0.0)
