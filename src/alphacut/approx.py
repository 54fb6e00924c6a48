"""Approximation schedules: smoothing steps, error and quality reports.

approximate() convolves the target with a shrinking smoother and
certifies each step: the sup metric against its a priori bound, the
absence of non-differentiable points, and optionally core and
Lipschitz preservation.
"""

import bisect
import math

from .calculus import (candidate_points, class_membership,
                       lipschitz_estimate, regular_intervals, singular_at,
                       sup_metric)
from .convolve import convolve, scale
from .cutcore.curve import membership
from .cutcore.tolerance import TOL
from .errors import SmootherConditionError
from .smoother import check_smoother_conditions


class DifferentiabilityReport:
    """Pointwise smoothness audit of one fuzzy number.

    probed counts the abscissas audited, whether proven regular by
    regular_intervals or probed by singular_at; failures lists the
    singular points found, in ascending x.
    """

    def __init__(self, probed, failures, overall):
        self.probed = probed
        self.failures = failures
        self.overall = overall

    def __repr__(self):
        return "DifferentiabilityReport(probed=%d, failures=%d, ok=%s)" % (
            self.probed, len(self.failures), self.overall)


def verify_smoothness(fz, grid=1000):
    """Audit structural candidates plus a uniform grid for defects.

    An abscissa inside one of regular_intervals(fz) is proven regular
    and skipped; every other one goes through singular_at.  The report
    is the one probing every abscissa would give, bitwise.
    """
    sup = fz.support
    xs = set()
    for x in candidate_points(fz):
        if x - sup.lo > TOL and sup.hi - x > TOL:
            xs.add(x)
    if sup.width > 0.0:
        for k in range(1, grid):
            x = sup.lo + sup.width * k / grid
            if x - sup.lo > TOL and sup.hi - x > TOL:
                xs.add(x)
    probes = sorted(xs)
    regular = regular_intervals(fz)
    starts = [lo for lo, _ in regular]
    failures = []
    for x in probes:
        i = bisect.bisect_left(starts, x) - 1
        if i >= 0 and x < regular[i][1]:
            continue
        pt = singular_at(fz, x)
        if pt is not None:
            failures.append(pt)
    overall = not failures and class_membership(fz).in_FD
    return DifferentiabilityReport(len(probes), failures, overall)


class ErrorReport:
    """Per-step distances, bounds, and smoothness verdicts."""

    def __init__(self, rows):
        self.rows = rows

    @property
    def monotone(self):
        """Nonincreasing measured error, within the certified gaps."""
        for a, b in zip(self.rows, self.rows[1:]):
            slack = a["gap"] + b["gap"] + 1e-12
            if b["measured"] > a["measured"] + slack:
                return False
        return True

    @property
    def all_within_bound(self):
        return all(r["ok"] for r in self.rows)

    def lines(self):
        out = []
        for r in self.rows:
            out.append(
                "p=%.17g measured=%.17g bound=%.17g gap=%.17g %s" % (
                    r["p"], r["measured"], r["bound"], r["gap"],
                    "ok" if r["ok"] else "EXCEEDED"))
        return out


def default_schedule(n=20):
    return [1.0 / k for k in range(1, n + 1)]


def approximate(u, smoother, schedule=None, verify=True):
    """Smoothing steps convolve(u, scale(p, smoother)) along a schedule.

    Returns (steps, ErrorReport).  Refuses targets the smoother cannot
    handle and malformed schedules.
    """
    if schedule is None:
        schedule = default_schedule()
    schedule = [float(p) for p in schedule]
    if not schedule:
        raise ValueError("schedule must not be empty")
    for p in schedule:
        if not 0.0 < p < math.inf:
            raise ValueError("schedule entries must be finite and positive, "
                             "got %r" % (p,))
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    rep = check_smoother_conditions(u, smoother)
    if rep.theorem == "none":
        raise SmootherConditionError(
            "smoother fails conditions %s for this target"
            % (rep.failing(),), report=rep)
    zsup = smoother.support
    reach = max(abs(zsup.lo), abs(zsup.hi))
    steps = []
    rows = []
    for p in schedule:
        step = convolve(u, scale(p, smoother))
        measured, gap = sup_metric(step, u)
        bound = p * reach
        row = {
            "p": p,
            "measured": measured,
            "gap": gap,
            "bound": bound,
            "ok": measured <= bound + max(gap, 1e-12),
        }
        if verify:
            row["smooth"] = verify_smoothness(step).overall
        steps.append(step)
        rows.append(row)
    return steps, ErrorReport(rows)


class PreservationReport:
    """Core and Lipschitz preservation audit for smoothing steps."""

    def __init__(self, rows, premises_hold, smoother_constant):
        self.rows = rows
        self.premises_hold = premises_hold
        self.smoother_constant = smoother_constant

    @property
    def core_preserved(self):
        return all(r["core_ok"] for r in self.rows)

    @property
    def lipschitz_ok(self):
        if not self.premises_hold:
            return None
        return all(r["lip_ok"] for r in self.rows)


def preservation_report(u, steps, smoother, schedule):
    """Check per step that the core survives and the constant is kept.

    The Lipschitz comparison only binds when the scaled smoother's
    base levels do not exceed the target's and its constant is finite;
    otherwise the rows carry the raw estimates and lip_ok is None.
    """
    if len(steps) != len(schedule):
        raise ValueError("steps and schedule lengths differ")
    k_w = lipschitz_estimate(smoother)
    zb_l = membership(smoother, smoother.support.lo)
    zb_r = membership(smoother, smoother.support.hi)
    ub_l = membership(u, u.support.lo)
    ub_r = membership(u, u.support.hi)
    premises = (math.isfinite(k_w)
                and zb_l <= ub_l + TOL and zb_r <= ub_r + TOL)
    ucore = u.core
    rows = []
    for step, p in zip(steps, schedule):
        k_bound = k_w / p if math.isfinite(k_w) else math.inf
        k_step = lipschitz_estimate(step)
        row = {
            "p": p,
            "core_ok": step.core == ucore,
            "k_step": k_step,
            "k_bound": k_bound,
            "lip_ok": (k_step <= k_bound + 1e-6) if premises else None,
        }
        rows.append(row)
    return PreservationReport(rows, premises, k_w)
