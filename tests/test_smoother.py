"""Smoother conditions, stock families, synthesis, core shift."""

import math
import random

import pytest

from alphacut import (SmootherConditionError, SmootherFamilySpec, alpha_cut,
                      check_smoother_conditions, class_membership,
                      classify_points, convolve, core_preserving_shift,
                      family, from_membership_pieces, lipschitz_estimate,
                      membership, right_deriv, scale, synthesize_smoother,
                      validate)
from alphacut import calculus, smoother
from conftest import EXAMPLE_NAMES, load_fixture

LEVELS = [k / 20.0 for k in range(21)]


def test_mismatched_base_levels_fail_condition_i():
    rep = check_smoother_conditions(load_fixture("triangle"),
                                    load_fixture("clipped-parabola"))
    assert rep.verdict("i") == "fail"
    assert rep.failing() == ["i"]
    assert rep.theorem == "none"


def test_plain_parabola_misses_the_branch_kink():
    rep = check_smoother_conditions(load_fixture("asymmetric-kink"),
                                    load_fixture("parabola"))
    assert rep.failing() == ["iv-1"]
    assert rep.conditions["iv-1"]["levels"] == (0.5,)
    assert rep.theorem == "none"


def test_arc_candidate_covers_the_branch_kink():
    rep = check_smoother_conditions(load_fixture("asymmetric-kink"),
                                    load_fixture("sine-bridge"))
    assert rep.failing() == []
    assert rep.verdict("iv-1") == "pass"
    assert rep.theorem == "continuous"


def test_parabola_smooths_a_core_kink():
    rep = check_smoother_conditions(load_fixture("triangle"),
                                    load_fixture("parabola"))
    assert rep.failing() == []
    assert rep.verdict("ii-1") == "pass"
    assert rep.theorem == "differentiable-branches"


def test_report_lines_name_every_condition():
    rep = check_smoother_conditions(load_fixture("triangle"),
                                    load_fixture("parabola"))
    text = "\n".join(rep.lines())
    for key in ("i", "ii-1", "v-2", "theorem:"):
        assert key in text


def test_parabola_family_membership():
    w = family(SmootherFamilySpec("parabola", p=1.0))
    assert validate(w).ok
    assert class_membership(w).in_FD
    assert w.support == (-1.0, 1.0)
    rng = random.Random(41)
    for _ in range(50):
        t = rng.uniform(-1.0, 1.0)
        assert membership(w, t) == pytest.approx(1.0 - t * t, abs=1e-12)


def test_clipped_family_support_and_base_levels():
    w = family(SmootherFamilySpec("clipped", p=2.0, l=0.19, r=0.36))
    lo, hi = w.support
    assert lo == pytest.approx(-2.0 * math.sqrt(0.81), abs=1e-15)
    assert hi == pytest.approx(2.0 * math.sqrt(0.64), abs=1e-15)
    assert membership(w, lo) == pytest.approx(0.19, abs=1e-12)
    assert membership(w, hi) == pytest.approx(0.36, abs=1e-12)
    assert validate(w).ok
    assert class_membership(w).in_FD


def test_generator_family_reduces_to_the_parabola():
    wg = family(SmootherFamilySpec("generator", p=1.5, f="sqrt(1 - a)"))
    wp = family(SmootherFamilySpec("parabola", p=1.5))
    for a in LEVELS:
        assert alpha_cut(wg, a) == alpha_cut(wp, a)


def test_generator_hypotheses_are_named_when_violated():
    with pytest.raises(ValueError) as err:
        family(SmootherFamilySpec("generator", p=1.0, f="2 - 2*a"))
    assert "f(0) = 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        family(SmootherFamilySpec("generator", p=1.0, f="1 - a^2"))
    assert "diverge" in str(err.value)
    with pytest.raises(ValueError) as err:
        family(SmootherFamilySpec("generator", p=1.0, f="a"))
    assert "f(0)" in str(err.value) or "decreasing" in str(err.value)


HPI_X = "1.5707963267948966*x"


def test_two_generator_family_builds_a_plateau():
    spec = SmootherFamilySpec("two-generator", p=2.0,
                              f="sin(%s)" % HPI_X, g="cos(%s)" % HPI_X,
                              knots=(-2.0, -1.0, 1.0, 2.0))
    w = family(spec)
    assert validate(w).ok
    assert class_membership(w).in_FD
    assert w.support == (-4.0, 4.0)
    assert w.core == (-2.0, 2.0)
    assert membership(w, 0.0) == 1.0


def test_two_generator_rejects_bad_parameters():
    with pytest.raises(ValueError) as err:
        family(SmootherFamilySpec("two-generator", p=1.0,
                                  f="sin(%s)" % HPI_X, g="cos(%s)" % HPI_X))
    assert "knots" in str(err.value)
    with pytest.raises(ValueError):
        family(SmootherFamilySpec("two-generator", p=1.0,
                                  f="sin(%s)" % HPI_X, g="cos(%s)" % HPI_X,
                                  knots=(2.0, 1.0, -1.0, -2.0)))
    with pytest.raises(ValueError) as err:
        family(SmootherFamilySpec("two-generator", p=1.0,
                                  f="x", g="cos(%s)" % HPI_X,
                                  knots=(-2.0, -1.0, 1.0, 2.0)))
    assert "zero slope" in str(err.value) or "rising" in str(err.value)


def test_family_rejects_bad_specs():
    with pytest.raises(ValueError):
        SmootherFamilySpec("magic")
    with pytest.raises(ValueError):
        family(SmootherFamilySpec("parabola", p=0.0))
    with pytest.raises(ValueError):
        family(SmootherFamilySpec("synthesized"))
    with pytest.raises(ValueError):
        family(SmootherFamilySpec("generator", p=1.0))


@pytest.mark.parametrize("p", [0.1, 0.5, 2.0])
def test_scaling_family_members_is_exact(p):
    for fam, kw in (("parabola", {}),
                    ("clipped", {"l": 0.25, "r": 0.4})):
        base = family(SmootherFamilySpec(fam, p=1.0, **kw))
        direct = family(SmootherFamilySpec(fam, p=p, **kw))
        scaled = scale(p, base)
        for a in LEVELS:
            assert alpha_cut(scaled, a) == alpha_cut(direct, a)


@pytest.mark.parametrize("p", [0.1, 0.5, 2.0])
def test_checker_verdict_is_scale_invariant(p):
    pairs = [("triangle", "parabola"),
             ("asymmetric-kink", "sine-bridge"),
             ("asymmetric-kink", "parabola"),
             ("plateau-quadratic", "parabola")]
    for a, b in pairs:
        u, w = load_fixture(a), load_fixture(b)
        r1 = check_smoother_conditions(u, w)
        r2 = check_smoother_conditions(u, scale(p, w))
        assert r1.theorem == r2.theorem
        assert r1.failing() == r2.failing()


def test_synthesis_covers_a_branch_kink():
    u = load_fixture("asymmetric-kink")
    w = synthesize_smoother(u, 1.0)
    rep = check_smoother_conditions(u, w)
    assert rep.theorem == "continuous"
    assert rep.verdict("iv-1") == "pass"
    assert rep.conditions["iv-1"]["levels"] == (0.5,)


def test_synthesis_covers_a_jump_and_its_limit_level():
    u = load_fixture("tail-jump")
    w = synthesize_smoother(u, 1.0)
    rep = check_smoother_conditions(u, w)
    assert rep.theorem == "general"
    assert rep.verdict("iv-2") == "pass"
    assert rep.conditions["iv-2"]["levels"] == (0.5,)
    assert rep.verdict("v-2") == "pass"
    assert rep.conditions["v-2"]["levels"] == (0.3,)


def test_synthesis_for_a_smooth_target_is_trivial():
    u = load_fixture("parabola")
    w = synthesize_smoother(u, 1.0)
    rep = check_smoother_conditions(u, w)
    assert rep.theorem == "differentiable-branches"
    for key in ("ii-1", "ii-2", "iii-1", "iii-2", "iv-1", "iv-2",
                "v-1", "v-2"):
        assert rep.verdict(key) == "not-applicable"
    assert w.support == (-1.0, 1.0)


def test_synthesis_for_a_crisp_target_is_an_indicator():
    u = load_fixture("point")
    w = synthesize_smoother(u, 0.5)
    assert w.support == (-0.5, 0.5)
    assert w.core == (-0.5, 0.5)
    rep = check_smoother_conditions(u, w)
    assert rep.theorem != "none"
    with pytest.raises(SmootherConditionError):
        synthesize_smoother(u, 0.5, preserve_core=True)


def test_synthesis_rejects_bad_parameters():
    u = load_fixture("triangle")
    with pytest.raises(ValueError):
        synthesize_smoother(u, 0.0)
    with pytest.raises(ValueError):
        synthesize_smoother(u, 1.0, lipschitz_cap=-1.0)


def test_requirement_levels_share_one_classification(monkeypatch):
    """Both branches' requirement levels read one classify_points(u)."""
    seen = []
    real = calculus.classify_points

    def counted(fz):
        seen.append(fz)
        return real(fz)
    monkeypatch.setattr(calculus, "classify_points", counted)
    monkeypatch.setattr(smoother, "classify_points", counted)
    u = load_fixture("tail-jump")
    w = synthesize_smoother(u, 0.5)
    # synthesis, then the check's requirement levels and u's class flags
    assert [id(fz) for fz in seen].count(id(u)) == 3
    del seen[:]
    check_smoother_conditions(u, w)
    assert sorted(map(id, seen)) == sorted((id(u), id(u), id(w)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected_by_name(bad):
    """A non-finite p or cap is a ValueError naming it, not a failed check."""
    u = load_fixture("triangle")
    with pytest.raises(ValueError) as err:
        synthesize_smoother(u, bad)
    assert "halfwidth p" in str(err.value)
    with pytest.raises(ValueError) as err:
        synthesize_smoother(u, 0.5, lipschitz_cap=bad)
    assert "lipschitz_cap" in str(err.value)
    for name in ("parabola", "clipped"):
        with pytest.raises(ValueError) as err:
            family(SmootherFamilySpec(name, p=bad))
        assert "spread p" in str(err.value)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_synthesis_yields_a_working_smoother(name):
    u = load_fixture(name)
    w = synthesize_smoother(u, 0.8)
    assert validate(w).ok
    rep = check_smoother_conditions(u, w)
    assert rep.theorem != "none"
    assert classify_points(convolve(u, w)) == []


def test_synthesis_with_core_preservation():
    u = load_fixture("asymmetric-kink")
    w = synthesize_smoother(u, 1.0, preserve_core=True)
    assert w.core == (0.0, 0.0)
    g = convolve(u, w)
    assert alpha_cut(g, 1.0) == alpha_cut(u, 1.0)


def test_synthesis_respects_a_lipschitz_cap():
    u = load_fixture("tail-jump")
    w = synthesize_smoother(u, 0.5, lipschitz_cap=2.0)
    assert lipschitz_estimate(w) <= 2.0 + 1e-6
    assert check_smoother_conditions(u, w).theorem != "none"


def test_strong_base_endpoint_forces_flat_start():
    # the base level is attained on a plateau whose far end is a kink,
    # so the smoother must start flat at its own support edge
    u = from_membership_pieces([
        (0.0, 0.5, "0.3", "const"),
        (0.5, 1.0, "0.3 + 1.4*(x - 0.5)", "inc"),
        (1.0, 2.0, "2 - x", "dec"),
    ])
    w = synthesize_smoother(u, 1.0)
    rep = check_smoother_conditions(u, w)
    assert rep.verdict("iii-1") == "pass"
    assert rep.theorem != "none"
    x0 = w.support.lo
    assert float(right_deriv(w, x0)) == pytest.approx(0.0, abs=1e-9)


def test_core_shift_is_identity_when_core_is_zero():
    w = load_fixture("parabola")
    v = core_preserving_shift(w)
    for a in LEVELS:
        assert alpha_cut(v, a) == alpha_cut(w, a)


def test_core_shift_collapses_a_plateau_core():
    spec = SmootherFamilySpec("two-generator", p=1.0,
                              f="sin(%s)" % HPI_X, g="cos(%s)" % HPI_X,
                              knots=(-2.0, -1.0, 1.0, 2.0))
    w = family(spec)
    v = core_preserving_shift(w)
    assert v.core == (0.0, 0.0)
    assert validate(v).ok
    rep_w = check_smoother_conditions(load_fixture("triangle"), w)
    rep_v = check_smoother_conditions(load_fixture("triangle"), v)
    assert rep_w.theorem == rep_v.theorem


def test_shifted_smoother_preserves_the_core_through_convolution():
    u = load_fixture("plateau-quadratic")
    w = core_preserving_shift(synthesize_smoother(u, 1.0))
    for p in (1.0, 0.25):
        g = convolve(u, scale(p, w))
        assert alpha_cut(g, 1.0) == alpha_cut(u, 1.0)
