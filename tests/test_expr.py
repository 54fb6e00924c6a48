"""Expression tree: parsing, printing, evaluation, differentiation."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from alphacut.cutcore import expr as ex
from alphacut.cutcore.curve import ExprFn, InverseFn
from alphacut.errors import ParseError

from oracles import richardson_one_sided


GRAMMAR_SAMPLES = [
    "1 - a^2",
    "sqrt(1 - a)",
    "0.5 - (a + 1.5707963267948966)^2",
    "asin(4*a - 3) + 2*a - 1",
    "0.3*acos(4*a - 3)",
    "cos(2*a) * (1 - a)",
    "sin(a)^2 + 1",
    "-(a - 1)",
    "2*a - 1",
    "a^3",
    "(1 - a)^3*0.25",
    "inv(x^3, 0, 1)",
    "2*inv(1 - x^3, -1, 1.5) + a",
    "dinv(x^3 + x, 0, 1)",
]


@pytest.mark.parametrize("text", GRAMMAR_SAMPLES)
def test_parse_print_round_trip(text):
    e = ex.parse(text)
    printed = ex.to_text(e, "a")
    again = ex.parse(printed)
    for k in range(21):
        t = 0.02 + 0.96 * k / 20.0
        assert ex.evaluate(e, t) == ex.evaluate(again, t)


@pytest.mark.parametrize("text", GRAMMAR_SAMPLES)
def test_symbolic_derivative_matches_central_difference(text):
    e = ex.parse(text)
    d = ex.derivative(e)
    h = 1e-6
    for k in range(9):
        t = 0.1 + 0.8 * k / 8.0
        want = (ex.evaluate(e, t + h) - ex.evaluate(e, t - h)) / (2 * h)
        got = ex.evaluate(d, t)
        assert abs(got - want) <= 1e-6 * (1.0 + abs(got))


def test_evaluation_values():
    assert ex.evaluate(ex.parse("1 - a^2"), 0.5) == 0.75
    assert ex.evaluate(ex.parse("sqrt(1 - a)"), 0.75) == 0.5
    assert ex.evaluate(ex.parse("2*a - 1"), 0.25) == -0.5
    assert ex.evaluate(ex.parse("acos(2*a - 1)"), 0.0) == math.pi
    assert ex.evaluate(ex.parse("asin(2*a - 1)"), 1.0) == math.pi / 2


def test_domain_edges_are_clamped():
    # 1-ulp overshoot outside sqrt/acos domains must not produce NaN
    e = ex.parse("sqrt(1 - a)")
    above = 1.0 + 2.220446049250313e-16
    assert ex.evaluate(e, above) == 0.0
    f = ex.parse("acos(a)")
    assert ex.evaluate(f, above) == 0.0
    g = ex.parse("asin(-a)")
    assert ex.evaluate(g, above) == -math.pi / 2
    assert ex.evaluate(ex.parse("acos(-a)"), above) == math.pi
    assert ex.evaluate(ex.parse("sqrt(a)"), math.nextafter(0.0, -1.0)) == 0.0


def test_exact_addition():
    a = ex.parse("1 - a^2")
    b = ex.parse("sqrt(1 - a)")
    s = ex.add(a, b)
    for k in range(11):
        t = k / 10.0
        assert ex.evaluate(s, t) == ex.evaluate(a, t) + ex.evaluate(b, t)


def test_scalar_helpers():
    e = ex.parse("a")
    assert ex.evaluate(ex.scal(3.0, e), 2.0) == 6.0
    assert ex.evaluate(ex.neg(e), 2.0) == -2.0
    assert ex.evaluate(ex.sub(ex.const(1.0), e), 0.25) == 0.75
    assert ex.evaluate(ex.mul(e, e), 3.0) == 9.0


def test_rational_power_rules():
    e = ex.parse("a")
    # even/2 reduces to an integer power
    sq = ex.rpow(e, 2, 2)
    assert sq.kind in ("var", "rpow", "mul")
    assert ex.evaluate(sq, 3.0) == 3.0
    half = ex.rpow(e, 1, 2)
    assert ex.evaluate(half, 4.0) == 2.0
    assert ex.evaluate(ex.rpow(e, 3, 2), 4.0) == 8.0
    with pytest.raises(ParseError):
        ex.rpow(e, 1, 3)


def test_power_zero_base_negative_exponent_is_infinite():
    d = ex.derivative(ex.parse("sqrt(a)"))
    assert ex.evaluate(d, 0.0) == math.inf
    assert ex.evaluate(ex.parse("a^(-1)"), 0.0) == math.inf
    assert ex.evaluate(ex.parse("a^(-1/2)"), 0) == math.inf


@pytest.mark.parametrize("text,value", [
    ("0^(-1)", math.inf),
    ("0^(-2)", math.inf),
    ("0^(-1/2)", math.inf),
    ("(0 - 1)^(3/2)", 0.0),
    ("(0 - 4)^(-3/2)", math.inf),
    ("4^(3/2)", 8.0),
    ("(0 - 2)^3", -8.0),
])
def test_constant_powers_fold_as_evaluated(text, value):
    """Folding clamps half powers and sends 0^negative to inf."""
    e = ex.parse(text)
    assert e.kind == "const"
    assert e.value == value


@pytest.mark.parametrize("text", ["a + 1e999", "a + 0^(-1)", "a - 1e999",
                                  "-1e999*a", "inv(x, 0, 1) + 1e999"])
def test_infinite_constants_print_and_read_back(text):
    """0^(-1) folds to inf on purpose, so a tree may hold an infinite
    constant; its text reads back as the same tree."""
    e = ex.parse(text)
    assert repr(e) == "Expr(%s)" % ex.to_text(e)
    assert ex.parse(ex.to_text(e)) == e


@pytest.mark.parametrize("text", ["1e999 - 1e999 + a", "(1e999 - 1e999)*a",
                                  "a - (1e999 - 1e999)", "a*(0*1e999)",
                                  "inv(x, 0, 1)*(1e999 - 1e999)"])
def test_nan_constants_print_and_read_back(text):
    """inf - inf folds to a NaN constant; its text reads back as a NaN
    constant in the same place, so the tree prints the same again."""
    e = ex.parse(text)
    out = ex.to_text(e)
    back = ex.parse(out)
    assert ex.to_text(back) == out
    assert repr(e) == "Expr(%s)" % out
    assert math.isnan(ex.evaluate(back, 0.5))


@pytest.mark.parametrize("text", ["sqrt(0)", "sqrt(0 - 1)",
                                  "sqrt(2)*sqrt(0)", "sqrt(0)^3 + 1"])
def test_derivative_of_constant_subterm_is_zero(text):
    d = ex.derivative(ex.parse(text))
    assert d.kind == "const"
    assert d.value == 0.0


def test_derivative_beside_a_constant_subterm():
    d = ex.derivative(ex.parse("a - 1 + sqrt(0)"))
    assert ex.evaluate(d, 0.5) == 1.0
    d = ex.derivative(ex.parse("a*sqrt(2)"))
    assert ex.evaluate(d, 0.5) == math.sqrt(2.0)


def test_parse_errors_carry_position():
    for bad in ["1 +", "sqrt(", "a^b", "foo(a)", "1..2", "a^(1/3)", ")", ""]:
        with pytest.raises(ParseError):
            ex.parse(bad)


def test_parse_error_names_the_bad_token():
    try:
        ex.parse("1 + @")
    except ParseError as err:
        assert "@" in str(err)
    else:
        raise AssertionError("expected a parse error")


def test_substitute():
    e = ex.parse("1 - a^2")
    inner = ex.parse("2*a")
    composed = ex.substitute(e, inner)
    for k in range(6):
        t = k / 10.0
        assert composed is not None
        assert ex.evaluate(composed, t) == 1.0 - (2.0 * t) ** 2


@pytest.mark.parametrize("m,increasing", [("x^3", True), ("1 - x^3", False)])
def test_inv_is_the_inverse_fn_it_names(m, increasing):
    """inv and its derivative are InverseFn's value and slope, bitwise."""
    e = ex.parse("inv(%s, 0, 1)" % m)
    ref = ex.InverseFn(ex.parse(m, "x"), 0.0, 1.0, increasing)
    d = ex.derivative(e)
    assert d.kind == "dinv"
    for k in range(101):
        t = k / 100
        assert ex.evaluate(e, t).hex() == ref(t).hex()
        assert ex.evaluate(d, t).hex() == ref.deriv(t).hex()
    # m'(0) = 0: an infinite level slope, signed by the direction
    at_zero = 0.0 if increasing else 1.0
    assert ex.evaluate(d, at_zero) == (math.inf if increasing else -math.inf)


def test_every_solve_goes_through_inverse_fn_call(monkeypatch):
    """A wrapper put on InverseFn.__call__ after compiling sees each solve."""
    fn = ExprFn(ex.parse("inv(x^3, 0, 1)"))
    fn.deriv(0.5)
    seen = []
    real = InverseFn.__call__

    def counted(self, alpha):
        seen.append(alpha)
        return real(self, alpha)
    monkeypatch.setattr(InverseFn, "__call__", counted)
    fn(0.25)
    fn.deriv(0.5)
    assert seen == [0.25, 0.5]


def test_inv_substitutes_and_proves_nothing():
    e = ex.parse("inv(x^3, 0, 1)")
    composed = ex.substitute(e, ex.parse("a^2"))
    assert ex.to_text(composed) == "inv(x^3, 0, 1, a^2)"
    assert ex.parse(ex.to_text(composed)) == composed
    assert ex.evaluate(composed, 0.5) == ex.evaluate(e, 0.25)
    for node in (e, composed, ex.derivative(e), ex.parse("2*inv(x, 0, 1)")):
        lo, hi, _ = ex.enclosed(node)(0.25, 0.5)
        assert lo != lo and hi != hi


def test_poly_coeffs_affine():
    c = ex.poly_coeffs(ex.parse("3*a - 2"))
    assert c is not None
    assert c[0] == -2.0 and c[1] == 3.0
    assert ex.poly_coeffs(ex.parse("sin(a)")) is None


def test_is_affine():
    # An argument is affine when poly_coeffs gives c2 == 0.0; trig_decompose
    # matches sin or cos of such an argument and nothing else.
    assert ex.poly_coeffs(ex.parse("2*a + 1")) == [1.0, 2.0, 0.0]
    assert ex.poly_coeffs(ex.parse("a^2"))[2] != 0.0
    assert ex.trig_decompose(ex.parse("sin(2*a + 1)")) == (
        "sin", 1.0, 2.0, 1.0, 0.0)
    assert ex.trig_decompose(ex.parse("sin(a^2)")) is None


def test_one_sided_derivative_oracle_agrees():
    e = ex.parse("0.3*acos(4*a - 3)")
    d = ex.derivative(e)
    f = lambda t: ex.evaluate(e, t)
    got = ex.evaluate(d, 0.8)
    want = richardson_one_sided(f, 0.8, "right", h0=1e-4)
    assert abs(got - want) <= 1e-5 * (1 + abs(got))


# --- the compiled evaluator against a plain recursive walk ---------------


def reference_evaluate(e, t):
    """The grammar's definition, walked node by node.

    Half powers clamp their base at 0, asin and acos clamp their
    argument to [-1, 1], and 0 to a negative power is inf.
    """
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        return t
    if k in ("add", "sub", "mul"):
        a = reference_evaluate(e.args[0], t)
        b = reference_evaluate(e.args[1], t)
        return a + b if k == "add" else a - b if k == "sub" else a * b
    if k == "scal":
        return e.value * reference_evaluate(e.args[0], t)
    v = reference_evaluate(e.args[0], t)
    if k in ("rpow", "sqrt"):
        num, den = e.value if k == "rpow" else (1, 2)
        p = num
        if den == 2:
            v, p = max(v, 0.0), num / 2.0
        if v == 0.0 and p < 0:
            return math.inf
        return v ** p
    if k in ("asin", "acos"):
        v = min(1.0, max(-1.0, v))
    return getattr(math, k)(v)


def _outcome(fn, e, t):
    """Type and bits of the result, or the type of the error raised."""
    try:
        v = fn(e, t)
    except (ArithmeticError, ValueError) as err:
        return ("raises", type(err))
    return (type(v), float(v).hex())  # every NaN prints as "nan"


_LEAVES = st.sampled_from(["a", "a", "a", "0", "1", "2", "0.5", "3.25", "pi"])
_EXPONENTS = ["2", "3", "(-1)", "(-2)", "(1/2)", "(3/2)", "(-1/2)", "(-3/2)"]


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(
            lambda p: "(%s %s %s)" % p),
        st.tuples(st.sampled_from(ex._FUNCS), inner).map(
            lambda p: "%s(%s)" % p),
        st.tuples(inner, st.sampled_from(_EXPONENTS)).map(
            lambda p: "(%s)^%s" % p),
        st.tuples(st.sampled_from(["2", "0.5", "-1.5"]), inner).map(
            lambda p: "%s*%s" % p),
        inner.map(lambda c: "-(%s)" % c),
        inner.map(lambda c: "(%s)/4" % c),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=16)
_LEVELS = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
                   min_size=1, max_size=6)
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_BELOW_MINUS_ONE = math.nextafter(-1.0, -2.0)
_BELOW_ZERO = math.nextafter(0.0, -1.0)


@settings(max_examples=500)
@given(_EXPRESSIONS, _LEVELS)
@example("sqrt(a)", [_BELOW_ZERO])
@example("sqrt(1 - a)", [_ABOVE_ONE])
@example("asin(a)", [_ABOVE_ONE])
@example("asin(-a)", [_ABOVE_ONE])
@example("acos(a)", [_ABOVE_ONE])
@example("acos(-a)", [_ABOVE_ONE])
@example("asin(a - 2)", [_BELOW_ZERO + 1.0])
@example("acos(2*a)", [_BELOW_MINUS_ONE / 2.0])
@example("a^(-1)", [0.0])
@example("a^(-1/2)", [0.0])
@example("a^(-1)", [0])
@example("a^(-1/2)", [0])
@example("sqrt(a)*a", [0.0])
@example("sqrt(a^(-1)*a)", [0.0])  # NaN inside each clamp
@example("(a^(-1)*a)^(-3/2)", [0.0])
@example("asin(a^(-1)*a)", [0.0])
@example("acos(a^(-1)*a)", [0.0])
@example("sqrt(a)*a + asin(a)", [1])
def test_compiled_evaluator_matches_reference_bitwise(text, levels):
    try:
        e = ex.parse(text)
        nodes = (e, ex.derivative(e))
    except OverflowError:
        # a constant power past the float range overflows while folding,
        # as it would while evaluating
        reject()
    for node in nodes:
        for t in levels:
            assert _outcome(ex.evaluate, node, t) == \
                _outcome(reference_evaluate, node, t), (ex.to_text(node), t)


# operands of every shape, built directly: the constructors fold some
# of these (a product with a constant becomes a scalar product)
_OPERANDS = {"f": ex.parse("sin(a) - 0.25"), "c": ex.const(0.75),
             "t": ex.var()}
_RIGHT_OPERANDS = {"f": ex.parse("a^2 + 0.5"), "c": ex.const(-0.375),
                   "t": ex.var()}


@pytest.mark.parametrize("shape", [a + b for a in "fct" for b in "fct"])
@pytest.mark.parametrize("kind", ["add", "sub", "mul"])
def test_every_operand_shape_matches_reference(kind, shape):
    e = ex.Expr(kind, (_OPERANDS[shape[0]], _RIGHT_OPERANDS[shape[1]]))
    for t in (0, 1, 0.0, -0.0, 0.3, 1.0):
        assert _outcome(ex.evaluate, e, t) == \
            _outcome(reference_evaluate, e, t)


@pytest.mark.parametrize("shape", "fct")
def test_every_scalar_operand_matches_reference(shape):
    e = ex.Expr("scal", (_OPERANDS[shape],), -2.5)
    for t in (0, 1, 0.0, -0.0, 0.3, 1.0):
        assert _outcome(ex.evaluate, e, t) == \
            _outcome(reference_evaluate, e, t)


def test_compiled_closure_is_built_once_per_node():
    e = ex.parse("sqrt(1 - a) + a^2")
    f = ex.compiled(e)
    assert ex.compiled(e) is f
    inner = e.args[0]
    assert ex.compiled(inner) is ex.compiled(inner)


# --- interval enclosures against the point evaluator --------------------


@settings(max_examples=500)
@given(_EXPRESSIONS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example("sqrt(a)", 0.0, 0.5)
@example("a^(-1)", 0.0, 0.25)
@example("(a - 0.5)^(-2)", 0.5, 0.75)
@example("asin(2*a - 1)", 1.0, 0.0)
@example("acos(4*a)", 0.5, 0.0)
@example("sin(3.25*a)*cos(2*a)", 0.5, 0.25)
@example("(a^(-1)*a)^(3/2)", 0.0, 1.0)
@example("sqrt(a)*a + asin(a)", 1.0, 1.0)
def test_enclosure_holds_the_point_value(text, t, s):
    """The value at t lies in the enclosure of [t, t] and of every
    interval around t, or the enclosure is NaN."""
    try:
        e = ex.parse(text)
        nodes = (e, ex.derivative(e))
    except OverflowError:
        reject()
    for node in nodes:
        try:
            v = reference_evaluate(node, t)
        except (ArithmeticError, ValueError):
            continue
        for lo, hi in ((t, t), (min(t, s), max(t, s))):
            elo, ehi, err = ex.enclosed(node)(lo, hi)
            assert elo <= v <= ehi or math.isnan(elo), \
                (ex.to_text(node), lo, hi, v, elo, ehi)
            assert not err < 0.0


def _exact(e, t):
    """e at the rational t in exact arithmetic (no functions)."""
    if e.kind == "const":
        return Fraction(e.value)
    if e.kind == "var":
        return t
    if e.kind == "scal":
        return Fraction(e.value) * _exact(e.args[0], t)
    if e.kind == "rpow":
        return _exact(e.args[0], t) ** e.value[0]
    a, b = (_exact(x, t) for x in e.args)
    return a + b if e.kind == "add" else a - b if e.kind == "sub" else a * b


@pytest.mark.parametrize("text", [
    "1000000*a + 1 - 1000000*a",
    "(a + 4398046511104) - 4398046511104",
    "(a - 0.1)*(a + 0.3) - a^2",
    "(3.25 - a)^3 - 2*a^(-1)",
    "0.1*a + 0.2*a^2 + 0.3",
])
def test_enclosure_error_bounds_the_rounding(text):
    """err bounds how far the computed value strays from the exact one."""
    e = ex.parse(text)
    for k in range(1, 50):
        t = k / 50.0
        lo, hi, err = ex.enclosed(e)(t, t)
        exact = _exact(e, Fraction(t))
        assert Fraction(lo) <= exact <= Fraction(hi)
        assert abs(Fraction(ex.evaluate(e, t)) - exact) <= Fraction(err)


def test_enclosure_closure_is_built_once_per_node():
    e = ex.parse("sqrt(1 - a) + a^2")
    assert ex.enclosed(e) is ex.enclosed(e)
    assert ex.enclosed(e.args[0]) is ex.enclosed(e.args[0])
