"""Output checkers.  Each returns None when the output is right.

A checker compares an output with a value the benchmark computed
itself (oracles.py, gen.py) or with a property the method must have.
The self-check in selfcheck.py feeds every checker a deliberately wrong
answer, so none of them passes vacuously.
"""

import math

TOL = 1e-9          # cut endpoints, memberships: relative to 1 + |want|
SLOPE_TOL = 1e-4    # one-sided slopes against a finite difference
SMOOTH_TOL = 1e-6   # left and right slopes of a smoothed step


def _off(got, want, tol):
    if math.isinf(want) or math.isinf(got):
        return got != want
    return not abs(got - want) <= tol * (1.0 + abs(want))


def value(got, want, what="value", tol=TOL):
    if _off(got, want, tol):
        return "%s %.17g, expected %.17g" % (what, got, want)
    return None


def interval(got, want, what="cut", tol=TOL):
    lo, hi = got
    if _off(lo, want[0], tol) or _off(hi, want[1], tol):
        return "%s [%.17g, %.17g], expected [%.17g, %.17g]" % (
            what, lo, hi, want[0], want[1])
    return None


def levelwise_sum(got, a, b, p=1.0, what="cut"):
    """[u + p*w]_alpha = [u]_alpha + p*[w]_alpha (sup-min convolution)."""
    return interval(got, (a[0] + p * b[0], a[1] + p * b[1]), what)


def levelwise_scale(got, r, a, what="cut"):
    """[r*u]_alpha = r*[u]_alpha, ends swapped for r < 0."""
    lo, hi = r * a[0], r * a[1]
    return interval(got, (min(lo, hi), max(lo, hi)), what)


def singular(got, want):
    """got, want: lists of (x, kind, branch), ascending in x."""
    if len(got) != len(want) or any(
            _off(g[0], w[0], TOL) or tuple(g[1:]) != tuple(w[1:])
            for g, w in zip(got, want)):
        return "singular points %r, expected %r" % (got, want)
    return None


def flags(got, want):
    if got != want:
        return "class flags %r, expected %r" % (got, want)
    return None


def slope(got, want, what="slope"):
    return value(got, want, what, SLOPE_TOL)


def smooth_point(left, right):
    """A smoothed step is differentiable: both one-sided slopes agree."""
    if not (math.isfinite(left) and math.isfinite(right)) or \
            abs(left - right) > SMOOTH_TOL * (1.0 + abs(left)):
        return "one-sided slopes %r and %r differ" % (left, right)
    return None


def metric(measured, gap, dense, tol=1e-7):
    """The dense-grid distance must lie in [measured, measured + gap].

    Above the certified range the reported gap is not a bound, which
    is the op failing its promise; below it the distance is overstated.
    """
    if dense > measured + gap + tol:
        return ("failed", "dense distance %.6g above measured %.6g + "
                "certified gap %.3g" % (dense, measured, gap))
    if dense < measured - tol:
        return ("incorrect", "dense distance %.6g below measured %.6g"
                % (dense, measured))
    return None


def within_bound(dist, bound, what="distance"):
    if not dist <= bound + 1e-12:
        return "%s %.17g exceeds bound %.17g" % (what, dist, bound)
    return None


def true(flag, what):
    return None if flag is True else "%s is %r, expected True" % (what, flag)


def exit_code(got, want, stderr="", line=None):
    if got != want:
        return "exit code %r, expected %r (%s)" % (got, want,
                                                    stderr.strip()[-200:])
    if line is not None and "line %d" % line not in stderr:
        return "error message %r does not name line %d" % (
            stderr.strip(), line)
    return None


def csv_rows(text, header):
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        return None
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]


def sample_rows(rows, levels, breaks, cut):
    """Rows (alpha, lo, hi) hold every grid and breakpoint level and
    agree with cut(alpha)."""
    if rows is None:
        return "no CSV header"
    have = {r[0] for r in rows}
    for a in list(levels) + list(breaks):
        if a not in have:
            return "level %r missing from the sample" % (a,)
    for a, lo, hi in rows:
        bad = interval((lo, hi), cut(a), "sample row at %r" % (a,))
        if bad:
            return bad
    return None


def svg_curves(text, ncurves, minpts=512):
    curves = [seg.split('"', 1)[0].split()
              for seg in text.split('points="')[1:]]
    if len(curves) != ncurves:
        return "%d polylines, expected %d" % (len(curves), ncurves)
    short = [len(c) for c in curves if len(c) < minpts]
    if short:
        return "polyline with %d points, expected at least %d" % (
            short[0], minpts)
    return None
