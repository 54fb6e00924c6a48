"""Bitwise golden values for every fixture and its smoothing steps.

For each fixture u with w = synthesize_smoother(u, 0.5) this pins, as
float.hex strings: the approximate() rows for p = 1, 1/2 and 1/4, the
verify_smoothness() probe count and failures of each step,
classify_points(u), sup_metric(step, u) and lipschitz_estimate(step).
It also pins the queries of both branches: predicted_derivative() and
endpoint_value() of u against scale(0.5, w) for every branch, cut kind
and side; membership, its outer limit, both one-sided slopes and
singular_at() on a grid and at the candidate points; the cuts and
saved text of scale(r, u) for negative r; and the smoother-condition
lines of w.  A faster evaluation path or a refactor must reproduce
every value exactly.

The values live in golden.json next to this file.  Rerecord them only
for an intended change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from alphacut import (EndpointSpec, alpha_cut, approximate,
                      check_smoother_conditions, classify_points,
                      endpoint_value, left_deriv, lipschitz_estimate,
                      membership, membership_outer_limit,
                      predicted_derivative, right_deriv, scale, singular_at,
                      sup_metric, synthesize_smoother)
from alphacut.approx import verify_smoothness
from alphacut.cli import document_text

from conftest import FIXTURE_NAMES, load_fixture

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

SCHEDULE = [1.0, 0.5, 0.25]

LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]

NEGATIVE_FACTORS = (-0.5, -1.0, -2.0)


def pin(v):
    """A JSON value that compares equal only for bitwise-equal results."""
    if isinstance(v, float):
        return float.hex(v)
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [pin(x) for x in v]
    if isinstance(v, dict):
        return {k: pin(x) for k, x in v.items()}
    # ExtendedSlope, SingularPoint
    return {k: pin(x) for k, x in vars(v).items()}


def snapshot(name):
    u = load_fixture(name)
    w = synthesize_smoother(u, 0.5)
    # verify=False plus one verify_smoothness per step gives the same
    # rows as verify=True without probing every step twice
    steps, report = approximate(u, w, SCHEDULE, verify=False)
    verdicts = [verify_smoothness(step) for step in steps]
    rows = [dict(row, smooth=rep.overall)
            for row, rep in zip(report.rows, verdicts)]
    return pin({
        "rows": rows,
        "verify": [{"probed": rep.probed, "failures": rep.failures}
                   for rep in verdicts],
        "classify": classify_points(u),
        "sup_metric": [sup_metric(step, u) for step in steps],
        "lipschitz": [lipschitz_estimate(step) for step in steps],
        "branches": branch_queries(u, w),
    })


def abscissas(u):
    """17 grid points across the support, then the breakpoint images
    of both curves and the core endpoints."""
    sup = u.support
    xs = [sup.lo + (sup.hi - sup.lo) * (k / 16.0) for k in range(17)]
    for curve in (u.left, u.right):
        for b in curve.breakpoints():
            xs.extend((curve.value(b), curve.right_limit(b)))
    xs.extend(u.core)
    return xs


def branch_queries(u, w):
    v = scale(0.5, w)
    levels = sorted(set(LEVELS + u.left.breakpoints()
                        + u.right.breakpoints()))
    endpoints = []
    for branch in ("left", "right"):
        for kind in ("cut", "strong-cut"):
            for q in levels:
                spec = EndpointSpec(branch, kind, q)
                endpoints.append({
                    "spec": [branch, kind, q],
                    "value": endpoint_value(u, v, spec),
                    "left": predicted_derivative(u, v, spec, "left"),
                    "right": predicted_derivative(u, v, spec, "right"),
                })
    points = [{
        "x": x,
        "membership": membership(u, x),
        "outer_limit": membership_outer_limit(u, x),
        "left_deriv": left_deriv(u, x),
        "right_deriv": right_deriv(u, x),
        "singular": singular_at(u, x),
    } for x in abscissas(u)]
    scaled = []
    for r in NEGATIVE_FACTORS:
        n = scale(r, u)
        scaled.append({
            "factor": r,
            "cuts": [list(alpha_cut(n, a)) for a in levels],
            "text": document_text(n),
        })
    return {
        "endpoints": endpoints,
        "points": points,
        "negative_scale": scaled,
        "conditions": check_smoother_conditions(u, w).lines(),
    }


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_results_are_bitwise_golden(name):
    assert snapshot(name) == load_golden()[name]


if __name__ == "__main__":
    data = {name: snapshot(name) for name in FIXTURE_NAMES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
