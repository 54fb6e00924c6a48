"""Symbolic expressions for one-variable curve formulas.

The grammar is deliberately small: constants, one variable, +, -,
scalar and general products, integer and half-integer powers, sqrt,
sin, cos, asin, acos, and inv, the numeric inverse of a monotone
expression on a bracket, with dinv, its derivative.  It is closed under
differentiation, which is what the slope machinery relies on.
"""

import math

from ..errors import ParseError
from .enclose import enclosed  # noqa: F401  (part of this module's API)
from .tolerance import BISECT_STEPS

_FUNCS = ("sqrt", "sin", "cos", "asin", "acos")


class Expr:
    """Immutable expression node.

    kind is one of: const, var, add, sub, scal, mul, rpow, sqrt, sin,
    cos, asin, acos, inv, dinv.  args holds child Expr nodes; value
    holds the float payload for const/scal, the (num, den) pair for
    rpow and the (m, xlo, xhi) triple for inv/dinv.
    """

    __slots__ = ("kind", "args", "value", "_fn", "_iv")

    def __init__(self, kind, args=(), value=None):
        self.kind = kind
        self.args = tuple(args)
        self.value = value
        self._fn = None  # the compiled closure, built on first evaluation
        self._iv = None  # the enclosure closure, built on first use

    def __repr__(self):
        return "Expr(%s)" % to_text(self)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.kind == other.kind and self.value == other.value
                and self.args == other.args)

    def __hash__(self):
        return hash((self.kind, self.value, self.args))

    def __call__(self, t):
        return evaluate(self, t)


def const(c):
    return Expr("const", value=float(c))


def var():
    return Expr("var")


def _is_const(e, c=None):
    if e.kind != "const":
        return False
    return c is None or e.value == c


def add(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr("add", (a, b))


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    return Expr("sub", (a, b))


def scal(c, e):
    c = float(c)
    if _is_const(e):
        return const(c * e.value)
    if c == 1.0:
        return e
    if c == 0.0:
        return const(0.0)
    if e.kind == "scal":
        return scal(c * e.value, e.args[0])
    return Expr("scal", (e,), c)


def mul(a, b):
    if _is_const(a):
        return scal(a.value, b)
    if _is_const(b):
        return scal(b.value, a)
    return Expr("mul", (a, b))


def rpow(e, num, den=1):
    if den not in (1, 2):
        raise ParseError("power denominator must be 1 or 2, got %r" % (den,))
    num = int(num)
    den = int(den)
    if den == 2 and num % 2 == 0:
        num, den = num // 2, 1
    if den == 1:
        if num == 0:
            return const(1.0)
        if num == 1:
            return e
    if den == 2 and num == 1:
        return Expr("sqrt", (e,))
    node = Expr("rpow", (e,), (num, den))
    if _is_const(e):
        # fold to what evaluation gives: half powers clamp the base at
        # 0, and 0 to a negative power is inf
        return const(compiled(node)(0.0))
    return node


def sqrt(e):
    return rpow(e, 1, 2)


def _unary(kind, fn):
    def make(e):
        if _is_const(e):
            return const(fn(e.value))
        return Expr(kind, (e,))
    return make


sin = _unary("sin", math.sin)
cos = _unary("cos", math.cos)
asin = _unary("asin", lambda v: math.asin(min(1.0, max(-1.0, v))))
acos = _unary("acos", lambda v: math.acos(min(1.0, max(-1.0, v))))


def neg(e):
    return scal(-1.0, e)


def inv(m, xlo, xhi, e=None):
    """The abscissa x in [xlo, xhi] where the monotone m(x) equals e.

    m is an expression in its own variable, written x; e defaults to
    the variable.  Nothing is evaluated here: the direction of m is
    read from its values at the bracket ends on first evaluation.
    """
    return _inverse_node("inv", m, xlo, xhi, e)


def _inverse_node(kind, m, xlo, xhi, e):
    # dinv, the derivative of inv, takes the same payload
    xlo, xhi = float(xlo), float(xhi)
    for end in (xlo, xhi):
        if not math.isfinite(end):
            raise ParseError("%s bracket end %r is not finite" % (kind, end))
    if not xlo < xhi:
        raise ParseError("%s bracket [%r, %r] is reversed or empty"
                         % (kind, xlo, xhi))
    return Expr(kind, (var() if e is None else e,), (m, xlo, xhi))


def evaluate(e, t):
    """Evaluate e at t.

    Arguments slightly outside the domains of sqrt/asin/acos are
    clamped; this absorbs 1-ulp dust at interval endpoints.
    """
    return compiled(e)(t)


def compiled(e):
    """The one-argument closure that evaluates e, built once per node.

    Each node becomes a closure over the closures of its children, with
    constant and variable operands of +, -, * and scalar products
    inlined.  Every float operation takes its operands in the order of
    the grammar's definition, so results are bitwise those of a plain
    recursive walk of the tree.
    """
    fn = e._fn
    if fn is None:
        fn = e._fn = _compile(e)
    return fn


def _identity(t):
    return t


# binary nodes by operand shape: f a compiled child, c a constant, t
# the variable itself; the shapes the constructors never build (two
# leaves, a product with a constant) go through "ff"
_BINARY = {
    "add": {
        "ff": lambda f, g: lambda t: f(t) + g(t),
        "fc": lambda f, c: lambda t: f(t) + c,
        "ft": lambda f, _: lambda t: f(t) + t,
        "cf": lambda c, g: lambda t: c + g(t),
        "tf": lambda _, g: lambda t: t + g(t),
        "ct": lambda c, _: lambda t: c + t,
        "tc": lambda _, c: lambda t: t + c,
    },
    "sub": {
        "ff": lambda f, g: lambda t: f(t) - g(t),
        "fc": lambda f, c: lambda t: f(t) - c,
        "ft": lambda f, _: lambda t: f(t) - t,
        "cf": lambda c, g: lambda t: c - g(t),
        "tf": lambda _, g: lambda t: t - g(t),
        "ct": lambda c, _: lambda t: c - t,
        "tc": lambda _, c: lambda t: t - c,
    },
    "mul": {
        "ff": lambda f, g: lambda t: f(t) * g(t),
        "ft": lambda f, _: lambda t: f(t) * t,
        "tf": lambda _, g: lambda t: t * g(t),
    },
}


def _compile_binary(e):
    table = _BINARY[e.kind]
    (sa, a), (sb, b) = _operand(e.args[0]), _operand(e.args[1])
    make = table.get(sa + sb)
    if make is None:
        return table["ff"](compiled(e.args[0]), compiled(e.args[1]))
    return make(a, b)


def _operand(e):
    if e.kind == "const":
        return "c", e.value
    if e.kind == "var":
        return "t", None
    return "f", compiled(e)


_UNARY = {
    "sqrt": lambda f: lambda t: max(f(t), 0.0) ** 0.5,
    "sin": lambda f: lambda t: math.sin(f(t)),
    "cos": lambda f: lambda t: math.cos(f(t)),
    "asin": lambda f: lambda t: math.asin(min(1.0, max(-1.0, f(t)))),
    "acos": lambda f: lambda t: math.acos(min(1.0, max(-1.0, f(t)))),
}


def _compile(e):
    k = e.kind
    if k == "const":
        c = e.value
        return lambda t: c
    if k == "var":
        return _identity
    if k in _BINARY:
        return _compile_binary(e)
    if k == "scal":
        c = e.value
        if e.args[0].kind == "var":
            return lambda t: c * t
        f = compiled(e.args[0])
        return lambda t: c * f(t)
    if k == "rpow":
        return _compile_rpow(compiled(e.args[0]), *e.value)
    if k in _UNARY:
        return _UNARY[k](compiled(e.args[0]))
    if k in ("inv", "dinv"):
        return _compile_inverse(e)
    raise ParseError("unknown expression kind %r" % (k,))


def _compile_inverse(e):
    m, xlo, xhi = e.value
    mf = compiled(m)
    inverse = InverseFn(m, xlo, xhi, mf(xlo) < mf(xhi))
    f = compiled(e.args[0])
    # call the instance on every evaluation, so that each solve goes
    # through InverseFn.__call__
    if e.kind == "inv":
        return lambda t: inverse(f(t))
    return lambda t: inverse.deriv(f(t))


def _compile_rpow(f, num, den):
    # half powers clamp their base at 0 first
    if den == 2:
        p = num / 2.0
        if p < 0:
            return lambda t: _neg_power(max(f(t), 0.0), p)
        return lambda t: max(f(t), 0.0) ** p
    if num < 0:
        return lambda t: _neg_power(f(t), num)
    return lambda t: f(t) ** num


def _neg_power(v, p):
    # 0 to a negative power is an infinite slope, not an error
    if v == 0.0:
        return math.inf
    return v ** p


class InverseFn:
    """Generalized inverse of a monotone membership expression.

    Solves m(x) = alpha for x on [xlo, xhi] by bisection to an
    absolute abscissa tolerance of 1e-12 (at most BISECT_STEPS halvings).
    This is how inv and dinv nodes evaluate.
    """

    def __init__(self, m_expr, xlo, xhi, increasing):
        self.m = m_expr
        self.xlo = float(xlo)
        self.xhi = float(xhi)
        self.increasing = bool(increasing)
        self._mf = compiled(m_expr)
        self._mdf = compiled(derivative(m_expr))

    def __call__(self, alpha):
        m = self._mf
        lo, hi = self.xlo, self.xhi
        flo = m(lo)
        fhi = m(hi)
        if alpha <= flo if self.increasing else alpha >= flo:
            return lo
        if alpha >= fhi if self.increasing else alpha <= fhi:
            return hi
        for _ in range(BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            v = m(mid)
            below = v < alpha if self.increasing else v > alpha
            if below:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12:
                break
        return 0.5 * (lo + hi)

    def deriv(self, alpha):
        x = self(alpha)
        slope = self._mdf(x)
        if slope == 0.0:
            return math.inf if self.increasing else -math.inf
        return 1.0 / slope


def _is_constant(e):
    """True when the variable occurs nowhere in e."""
    return e.kind != "var" and all(_is_constant(a) for a in e.args)


def derivative(e):
    """Symbolic derivative; the result stays inside the grammar."""
    k = e.kind
    if k == "const":
        return const(0.0)
    if k == "var":
        return const(1.0)
    if k == "add":
        return add(derivative(e.args[0]), derivative(e.args[1]))
    if k == "sub":
        return sub(derivative(e.args[0]), derivative(e.args[1]))
    if k == "scal":
        return scal(e.value, derivative(e.args[0]))
    if k == "mul":
        a, b = e.args
        return add(mul(derivative(a), b), mul(a, derivative(b)))
    inner = e.args[0]
    if _is_constant(inner):
        # the constructors leave sqrt(c) unfolded, so an unfolded
        # constant can sit here; its chain rule could give 0 * inf
        return const(0.0)
    di = derivative(inner)
    if k == "rpow":
        num, den = e.value
        outer = scal(num / den, rpow(inner, num - den, den))
        return mul(outer, di)
    if k == "sqrt":
        return mul(scal(0.5, rpow(inner, -1, 2)), di)
    if k == "sin":
        return mul(cos(inner), di)
    if k == "cos":
        return mul(scal(-1.0, sin(inner)), di)
    if k == "asin":
        return mul(rpow(sub(const(1.0), rpow(inner, 2)), -1, 2), di)
    if k == "acos":
        return mul(scal(-1.0, rpow(sub(const(1.0), rpow(inner, 2)), -1, 2)),
                   di)
    if k == "inv":
        return mul(Expr("dinv", e.args, e.value), di)
    if k == "dinv":
        # (1/m'(x))' = -m''(x) * x' / m'(x)^2 = -m''(x) * dinv^3
        at = Expr("inv", e.args, e.value)
        ddm = substitute(derivative(derivative(e.value[0])), at)
        return mul(scal(-1.0, mul(ddm, rpow(e, 3))), di)
    raise ParseError("unknown expression kind %r" % (k,))


def _fmt_num(v):
    if abs(v) < 1e16 and v == int(v):
        return repr(int(v))
    if math.isinf(v):
        # parse reads 1e999 back as inf, and could not read "inf"
        return "-1e999" if v < 0 else "1e999"
    return repr(v)


# precedence levels: 0 add/sub, 1 mul/scal, 2 pow, 3 atom/function
def _render(e, varname):
    k = e.kind
    if k == "const":
        if e.value < 0:
            return "(%s)" % _fmt_num(e.value), 3
        return _fmt_num(e.value), 3
    if k == "var":
        return varname, 3
    if k == "add":
        # right side must reparse as one operand, not reassociate
        l = _paren(e.args[0], 0, varname)
        r = _paren(e.args[1], 1, varname)
        return "%s + %s" % (l, r), 0
    if k == "sub":
        l = _paren(e.args[0], 0, varname)
        r = _paren(e.args[1], 1, varname)
        return "%s - %s" % (l, r), 0
    if k == "scal":
        r = _paren(e.args[0], 2, varname)
        if e.value < 0:
            return "(%s)*%s" % (_fmt_num(e.value), r), 1
        return "%s*%s" % (_fmt_num(e.value), r), 1
    if k == "mul":
        l = _paren(e.args[0], 1, varname)
        r = _paren(e.args[1], 2, varname)
        return "%s*%s" % (l, r), 1
    if k == "rpow":
        num, den = e.value
        base = _paren(e.args[0], 3, varname)
        if den == 1:
            return "%s^%d" % (base, num), 2
        return "%s^(%d/2)" % (base, num), 2
    if k in _FUNCS:
        inner, _ = _render(e.args[0], varname)
        return "%s(%s)" % (k, inner), 3
    if k in ("inv", "dinv"):
        # the level argument is written only when it is not the variable
        m, xlo, xhi = e.value
        parts = [to_text(m, "x"), _fmt_num(xlo), _fmt_num(xhi)]
        if e.args[0].kind != "var":
            parts.append(to_text(e.args[0], varname))
        return "%s(%s)" % (k, ", ".join(parts)), 3
    raise ParseError("unknown expression kind %r" % (k,))


def _paren(e, need, varname):
    text, prec = _render(e, varname)
    if prec < need:
        return "(%s)" % text
    return text


def to_text(e, varname="a"):
    return _render(e, varname)[0]


class _Tokens:
    def __init__(self, text):
        self.items = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, want):
        tok = self.take()
        if tok != want:
            raise ParseError("expected %r, got %r" % (want, tok))


def _tokenize(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            out.append(c)
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE"
                             or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                num = float(text[i:j])
            except ValueError:
                raise ParseError("bad number %r at position %d" % (
                    text[i:j], i))
            out.append(("num", num))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError("bad character %r in expression" % (c,))
    return out


def parse(text, varname="a"):
    toks = _Tokens(text)
    e = _parse_sum(toks, varname)
    if toks.peek() is not None:
        raise ParseError("trailing input after expression: %r" % (
            toks.peek(),))
    return e


def _parse_sum(toks, varname):
    e = _parse_product(toks, varname)
    while toks.peek() in ("+", "-"):
        op = toks.take()
        rhs = _parse_product(toks, varname)
        e = add(e, rhs) if op == "+" else sub(e, rhs)
    return e


def _parse_product(toks, varname):
    e = _parse_factor(toks, varname)
    while toks.peek() in ("*", "/"):
        op = toks.take()
        rhs = _parse_factor(toks, varname)
        if op == "*":
            e = mul(e, rhs)
        else:
            if rhs.kind != "const" or rhs.value == 0.0:
                raise ParseError("division only by nonzero constants")
            e = scal(1.0 / rhs.value, e)
    return e


def _parse_factor(toks, varname):
    if toks.peek() == "-":
        toks.take()
        return neg(_parse_factor(toks, varname))
    if toks.peek() == "+":
        toks.take()
        return _parse_factor(toks, varname)
    e = _parse_power(toks, varname)
    return e


def _parse_power(toks, varname):
    base = _parse_atom(toks, varname)
    if toks.peek() == "^":
        toks.take()
        num, den = _parse_exponent(toks)
        return rpow(base, num, den)
    return base


def _parse_exponent(toks):
    if toks.peek() == "(":
        toks.take()
        sign = 1
        if toks.peek() == "-":
            toks.take()
            sign = -1
        tok = toks.take()
        if not (isinstance(tok, tuple) and tok[0] == "num"):
            raise ParseError("expected number in exponent")
        num = tok[1]
        den = 1
        if toks.peek() == "/":
            toks.take()
            dtok = toks.take()
            if not (isinstance(dtok, tuple) and dtok[0] == "num"):
                raise ParseError("expected number in exponent denominator")
            den = dtok[1]
        toks.expect(")")
        if num != int(num) or den != int(den):
            raise ParseError("exponent parts must be integers")
        return sign * int(num), int(den)
    tok = toks.take()
    sign = 1
    if tok == "-":
        sign = -1
        tok = toks.take()
    if not (isinstance(tok, tuple) and tok[0] == "num"):
        raise ParseError("expected number after ^")
    if tok[1] != int(tok[1]):
        raise ParseError("bare exponent must be an integer")
    return sign * int(tok[1]), 1


def _parse_atom(toks, varname):
    tok = toks.take()
    if tok == "(":
        e = _parse_sum(toks, varname)
        toks.expect(")")
        return e
    if isinstance(tok, tuple) and tok[0] == "num":
        return const(tok[1])
    if isinstance(tok, tuple) and tok[0] == "name":
        name = tok[1]
        if name == varname:
            return var()
        if name == "pi":
            return const(math.pi)
        if name in _FUNCS:
            toks.expect("(")
            inner = _parse_sum(toks, varname)
            toks.expect(")")
            return {"sqrt": sqrt, "sin": sin, "cos": cos,
                    "asin": asin, "acos": acos}[name](inner)
        if name in ("inv", "dinv"):
            return _parse_inverse(toks, name, varname)
        raise ParseError("unknown name %r (variable is %r)" % (
            name, varname))
    raise ParseError("unexpected token %r" % (tok,))


def _parse_inverse(toks, kind, varname):
    """The rest of kind(m, xlo, xhi[, level]); m is written in x."""
    toks.expect("(")
    m = _parse_sum(toks, "x")
    ends = []
    for _ in range(2):
        toks.expect(",")
        end = _parse_sum(toks, varname)
        if end.kind != "const":
            raise ParseError("%s bracket ends must be constants" % (kind,))
        ends.append(end.value)
    level = None
    if toks.peek() == ",":
        toks.take()
        level = _parse_sum(toks, varname)
    toks.expect(")")
    return _inverse_node(kind, m, ends[0], ends[1], level)


def substitute(e, replacement):
    """Replace the variable with another expression."""
    if e.kind == "var":
        return replacement
    if e.kind == "const":
        return e
    args = tuple(substitute(a, replacement) for a in e.args)
    if e.kind == "add":
        return add(*args)
    if e.kind == "sub":
        return sub(*args)
    if e.kind == "scal":
        return scal(e.value, args[0])
    if e.kind == "mul":
        return mul(*args)
    if e.kind == "rpow":
        return rpow(args[0], *e.value)
    if e.kind in ("inv", "dinv"):
        return Expr(e.kind, args, e.value)
    return {"sqrt": sqrt, "sin": sin, "cos": cos,
            "asin": asin, "acos": acos}[e.kind](args[0])


def poly_coeffs(e):
    """Return [c0, c1, c2] if e is a polynomial of degree <= 2, else None."""
    k = e.kind
    if k == "const":
        return [e.value, 0.0, 0.0]
    if k == "var":
        return [0.0, 1.0, 0.0]
    if k in ("add", "sub"):
        a = poly_coeffs(e.args[0])
        b = poly_coeffs(e.args[1])
        if a is None or b is None:
            return None
        s = 1.0 if k == "add" else -1.0
        return [a[i] + s * b[i] for i in range(3)]
    if k == "scal":
        a = poly_coeffs(e.args[0])
        if a is None:
            return None
        return [e.value * c for c in a]
    if k == "mul":
        a = poly_coeffs(e.args[0])
        b = poly_coeffs(e.args[1])
        if a is None or b is None:
            return None
        prod = [0.0] * 5
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
        if any(c != 0.0 for c in prod[3:]):
            return None
        return prod[:3]
    if k == "rpow":
        num, den = e.value
        if den != 1 or num not in (0, 1, 2):
            return None
        a = poly_coeffs(e.args[0])
        if a is None:
            return None
        if num == 0:
            return [1.0, 0.0, 0.0]
        if num == 1:
            return a
        if a[2] != 0.0:
            return None
        return [a[0] * a[0], 2.0 * a[0] * a[1], a[1] * a[1]]
    return None


def trig_decompose(e):
    """Match e against A*trig(omega*x + c) + B.

    Returns (trig, A, omega, c, B) with trig in {"sin", "cos"}, or None.
    """
    amp, core, shift = _split_affine_wrap(e)
    if core is None or core.kind not in ("sin", "cos"):
        return None
    inner = is_affine(core.args[0])
    if inner is None or inner[0] == 0.0:
        return None
    return (core.kind, amp, inner[0], inner[1], shift)


def _split_affine_wrap(e):
    """Decompose e as amp*f + shift with f a non-affine core node."""
    if e.kind in ("sin", "cos"):
        return 1.0, e, 0.0
    if e.kind == "scal":
        amp, core, shift = _split_affine_wrap(e.args[0])
        return e.value * amp, core, e.value * shift
    if e.kind in ("add", "sub"):
        a, b = e.args
        sgn = 1.0 if e.kind == "add" else -1.0
        if _is_const(a):
            amp, core, shift = _split_affine_wrap(b)
            return sgn * amp, core, a.value + sgn * shift
        if _is_const(b):
            amp, core, shift = _split_affine_wrap(a)
            return amp, core, shift + sgn * b.value
    return 0.0, None, 0.0


def is_affine(e):
    """Return (slope, intercept) if e is affine in the variable, else None."""
    k = e.kind
    if k == "const":
        return (0.0, e.value)
    if k == "var":
        return (1.0, 0.0)
    if k in ("add", "sub"):
        a = is_affine(e.args[0])
        b = is_affine(e.args[1])
        if a is None or b is None:
            return None
        if k == "add":
            return (a[0] + b[0], a[1] + b[1])
        return (a[0] - b[0], a[1] - b[1])
    if k == "scal":
        a = is_affine(e.args[0])
        if a is None:
            return None
        return (e.value * a[0], e.value * a[1])
    if k == "mul":
        a = is_affine(e.args[0])
        b = is_affine(e.args[1])
        if a is None or b is None:
            return None
        if a[0] == 0.0:
            return (a[1] * b[0], a[1] * b[1])
        if b[0] == 0.0:
            return (b[1] * a[0], b[1] * a[1])
        return None
    return None
