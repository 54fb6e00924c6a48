"""Approximation schedules, error bounds, smoothness verification."""

import math

import pytest
from hypothesis import given, settings

from alphacut import (CutCurve, FuzzyNum, Segment, SmootherConditionError,
                      SmootherFamilySpec, alpha_cut, approx, approximate,
                      calculus, class_membership, convolve,
                      core_preserving_shift, crisp_point, default_schedule,
                      family, left_deriv, lipschitz_estimate,
                      preservation_report, right_deriv, scale,
                      synthesize_smoother, verify_smoothness)
from conftest import FIXTURE_NAMES, fuzzy_numbers, fuzzy_pairs, load_fixture

import oracles

SQ05 = math.sqrt(0.5)
HPI_X = "1.5707963267948966*x"


def _plateau_smoother(p=1.0):
    return family(SmootherFamilySpec(
        "two-generator", p=p, f="sin(%s)" % HPI_X, g="cos(%s)" % HPI_X,
        knots=(-2.0, -1.0, 1.0, 2.0)))


def test_verifier_passes_the_parabola():
    rep = verify_smoothness(load_fixture("parabola"))
    assert rep.overall
    assert rep.failures == []
    assert rep.probed > 900


def test_verifier_finds_the_surviving_kinks():
    g = convolve(load_fixture("split-peak"), load_fixture("parabola"))
    rep = verify_smoothness(g)
    assert not rep.overall
    xs = sorted(p.x for p in rep.failures)
    assert len(xs) == 2
    assert xs[0] == pytest.approx(-SQ05, abs=1e-9)
    assert xs[1] == pytest.approx(SQ05, abs=1e-9)


def test_verifier_passes_the_smoothed_kink():
    g = convolve(load_fixture("asymmetric-kink"),
                 load_fixture("sine-bridge"))
    rep = verify_smoothness(g)
    assert rep.overall
    x = -0.5 * math.pi
    assert float(left_deriv(g, x)) == pytest.approx(0.0, abs=1e-9)
    assert float(right_deriv(g, x)) == pytest.approx(0.0, abs=1e-9)


def test_verifier_grid_size_is_tunable():
    rep = verify_smoothness(load_fixture("parabola"), grid=50)
    assert rep.overall
    assert rep.probed < 100


def _probe_everything(fz, grid=1000):
    """verify_smoothness as it reads without proofs: every abscissa
    goes through singular_at."""
    sup = fz.support
    xs = set(x for x in calculus.candidate_points(fz)
             if x - sup.lo > 1e-9 and sup.hi - x > 1e-9)
    if sup.width > 0.0:
        for k in range(1, grid):
            x = sup.lo + sup.width * k / grid
            if x - sup.lo > 1e-9 and sup.hi - x > 1e-9:
                xs.add(x)
    found = (calculus.singular_at(fz, x) for x in sorted(xs))
    failures = [p for p in found if p is not None]
    overall = not failures and class_membership(fz).in_FD
    return _bits(len(xs), failures, overall)


def _bits(probed, failures, overall):
    """A report as exact text: repr keeps every float bit and -0.0."""
    return (probed, overall, [repr((p.x, p.kind, p.branch, p.level,
                                    p.outer_limit, p.left_slope,
                                    p.right_slope)) for p in failures])


def _report_bits(fz):
    rep = verify_smoothness(fz)
    return _bits(rep.probed, rep.failures, rep.overall)


VARIANTS = {"plain": {}, "core": {"preserve_core": True},
            "lip": {"lipschitz_cap": 2.0}}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_proofs_leave_every_report_bitwise_unchanged(name):
    """Skipping proven abscissas gives the full probe's report, on u,
    each synthesized smoother and each smoothing step."""
    u = load_fixture(name)
    assert _report_bits(u) == _probe_everything(u)
    for kw in VARIANTS.values():
        try:
            w = synthesize_smoother(u, 0.5, **kw)
        except SmootherConditionError:
            continue  # a crisp point admits no core-preserving smoother
        assert _report_bits(w) == _probe_everything(w)
        for p in (1.0, 0.5, 1.0 / 7.0, 1.0 / 20.0):
            step = convolve(u, scale(p, w))
            assert _report_bits(step) == _probe_everything(step), (kw, p)


@settings(max_examples=25)
@given(fuzzy_numbers())
def test_proofs_match_the_full_probe_on_random_numbers(fz):
    assert _report_bits(fz) == _probe_everything(fz)


@settings(max_examples=15)
@given(fuzzy_pairs())
def test_proofs_match_the_full_probe_on_random_sums(pair):
    g = convolve(*pair)
    assert _report_bits(g) == _probe_everything(g)


def _edges(fz):
    """Abscissas just inside each proven interval's ends, and its middle."""
    for lo, hi in calculus.regular_intervals(fz):
        yield math.nextafter(lo, math.inf)
        yield 0.5 * (lo + hi)
        yield math.nextafter(hi, -math.inf)


@settings(max_examples=40)
@given(fuzzy_numbers())
def test_proven_intervals_are_regular_to_their_ends(fz):
    for x in _edges(fz):
        assert calculus.singular_at(fz, x) is None, x


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_proven_intervals_of_steps_are_regular_to_their_ends(name):
    u = load_fixture(name)
    w = synthesize_smoother(u, 0.5)
    for fz in (u, w, convolve(u, scale(1.0 / 7.0, w))):
        for x in _edges(fz):
            assert calculus.singular_at(fz, x) is None, x


def test_rounding_error_keeps_a_float_staircase_unproven():
    """(a + 2^42) - 2^42 moves in steps of 2^-10: a slope of 1 on paper,
    flat runs in floats.  Its rounding bound dwarfs TOL_X times the
    slope, so the jumps a probe finds at the steps' values stay found."""
    u = FuzzyNum(CutCurve([Segment(0.0, 1.0, "(a + 4398046511104) - "
                                   "4398046511104 - 1", "inc")]),
                 CutCurve([Segment(0.0, 1.0, "1 - a", "dec")]))
    assert _report_bits(u) == _probe_everything(u)
    jumps = [p.x for p in verify_smoothness(u).failures if p.kind == "jump"]
    assert jumps == [-0.75, -0.5, -0.25]


def test_proofs_spare_the_tail_jump_step_its_probes(monkeypatch):
    """A proof that silently failed would fall back to probing: about
    1,000 singular_at calls instead of a handful."""
    u = load_fixture("tail-jump")
    step = convolve(u, scale(0.5, synthesize_smoother(u, 0.5)))
    calls = []
    real = calculus.singular_at

    def counted(fz, x):
        calls.append(x)
        return real(fz, x)
    monkeypatch.setattr(calculus, "singular_at", counted)
    monkeypatch.setattr(approx, "singular_at", counted)
    rep = verify_smoothness(step)
    assert rep.probed > 900
    assert len(calls) < 50


def test_approximate_produces_certified_steps():
    u = load_fixture("triangle")
    w = load_fixture("parabola")
    steps, rep = approximate(u, w, schedule=[1.0, 0.5, 0.25])
    assert len(steps) == 3
    assert rep.all_within_bound
    assert rep.monotone
    for row in rep.rows:
        assert row["smooth"]
        assert row["measured"] <= row["bound"] + max(row["gap"], 1e-12)
    for step in steps:
        flags = class_membership(step)
        assert flags.in_FD and flags.in_FC


def test_error_shrinks_along_the_reciprocal_schedule():
    u = load_fixture("plateau-quadratic")
    w = load_fixture("parabola")
    sched = default_schedule(12)
    steps, rep = approximate(u, w, schedule=sched, verify=False)
    assert rep.all_within_bound
    assert rep.monotone
    for row, p in zip(rep.rows, sched):
        assert row["bound"] == p
        assert row["measured"] <= p + max(row["gap"], 1e-12)


def test_error_report_lines_are_printable():
    u = load_fixture("triangle")
    steps, rep = approximate(u, load_fixture("parabola"),
                             schedule=[1.0, 0.5], verify=False)
    lines = rep.lines()
    assert len(lines) == 2
    assert all("measured=" in ln and "bound=" in ln for ln in lines)


def test_approximate_refuses_an_unfit_smoother():
    u = load_fixture("asymmetric-kink")
    with pytest.raises(SmootherConditionError) as err:
        approximate(u, load_fixture("parabola"), schedule=[1.0])
    assert "iv-1" in str(err.value)


def test_approximate_refuses_a_degenerate_smoother():
    with pytest.raises(SmootherConditionError):
        approximate(load_fixture("triangle"), crisp_point(0.0),
                    schedule=[1.0])


def test_schedule_validation():
    u = load_fixture("triangle")
    w = load_fixture("parabola")
    with pytest.raises(ValueError):
        approximate(u, w, schedule=[])
    with pytest.raises(ValueError):
        approximate(u, w, schedule=[1.0, -0.5])
    with pytest.raises(ValueError):
        approximate(u, w, schedule=[0.5, 0.5])
    with pytest.raises(ValueError):
        approximate(u, w, schedule=[0.25, 0.5])
    assert default_schedule(5) == [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]


@pytest.mark.parametrize("schedule", [[math.nan], [math.inf], [-math.inf],
                                      [1.0, math.nan], [math.inf, 0.5]])
def test_schedule_rejects_non_finite_entries(schedule):
    """nan compares false and inf passes as positive; both are refused."""
    u = load_fixture("triangle")
    w = synthesize_smoother(u, 0.5)
    with pytest.raises(ValueError) as err:
        approximate(u, w, schedule=schedule)
    assert "schedule" in str(err.value)


def test_measured_error_agrees_with_grid_metric():
    u = load_fixture("triangle")
    w = load_fixture("parabola")
    steps, rep = approximate(u, w, schedule=[1.0, 0.5], verify=False)
    for step, row in zip(steps, rep.rows):
        grid = oracles.grid_metric(lambda a: alpha_cut(step, a),
                                   lambda a: alpha_cut(u, a))
        assert grid <= row["measured"] + row["gap"] + 1e-12
        assert row["measured"] - grid <= 1e-3


@pytest.mark.parametrize("a,b", [("triangle", "parabola"),
                                 ("tail-jump", "clipped-parabola"),
                                 ("plateau-quadratic", "split-peak")])
def test_core_algebra_is_exact(a, b):
    u, w = load_fixture(a), load_fixture(b)
    g = convolve(u, w)
    assert g.core.lo == u.core.lo + w.core.lo
    assert g.core.hi == u.core.hi + w.core.hi


def test_core_algebra_with_a_plateau_core():
    u = load_fixture("tail-jump")
    w = _plateau_smoother(p=1.0)
    g = convolve(u, w)
    assert g.core == (u.core.lo + w.core.lo, u.core.hi + w.core.hi)


def test_preservation_with_a_core_shifted_smoother():
    u = load_fixture("asymmetric-kink")
    w = core_preserving_shift(synthesize_smoother(u, 1.0))
    sched = [1.0, 0.5, 0.25]
    steps, _ = approximate(u, w, schedule=sched, verify=False)
    rep = preservation_report(u, steps, w, sched)
    assert rep.premises_hold
    assert rep.core_preserved
    assert rep.lipschitz_ok
    assert math.isfinite(rep.smoother_constant)
    for row, p in zip(rep.rows, sched):
        assert row["core_ok"]
        assert row["k_bound"] == rep.smoother_constant / p
        assert row["k_step"] <= row["k_bound"] + 1e-6


def test_preservation_flags_an_unshifted_plateau_core():
    u = load_fixture("triangle")
    w = _plateau_smoother(p=1.0)
    sched = [1.0, 0.5]
    steps, _ = approximate(u, w, schedule=sched, verify=False)
    rep = preservation_report(u, steps, w, sched)
    assert not rep.core_preserved
    assert rep.premises_hold
    assert rep.lipschitz_ok


def test_preservation_premises_can_fail():
    u = load_fixture("triangle")
    w = load_fixture("clipped-parabola")
    steps = [convolve(u, scale(1.0, w))]
    rep = preservation_report(u, steps, w, [1.0])
    assert not rep.premises_hold
    assert rep.lipschitz_ok is None
    assert rep.rows[0]["lip_ok"] is None

    jumpy = load_fixture("tail-jump")
    rep2 = preservation_report(u, [convolve(u, jumpy)], jumpy, [1.0])
    assert not rep2.premises_hold
    assert math.isinf(rep2.smoother_constant)


def test_preservation_rejects_length_mismatch():
    u = load_fixture("triangle")
    w = load_fixture("parabola")
    steps, _ = approximate(u, w, schedule=[1.0, 0.5], verify=False)
    with pytest.raises(ValueError):
        preservation_report(u, steps, w, [1.0])


def test_lipschitz_bound_scales_with_the_family():
    u = load_fixture("triangle")
    w = load_fixture("parabola")
    sched = [1.0, 0.5, 0.2]
    steps, _ = approximate(u, w, schedule=sched, verify=False)
    rep = preservation_report(u, steps, w, sched)
    assert rep.smoother_constant == 2.0
    for row, p in zip(rep.rows, sched):
        assert lipschitz_estimate(scale(p, w)) == pytest.approx(
            2.0 / p, abs=1e-9)
        assert row["k_step"] <= 2.0 / p + 1e-6
