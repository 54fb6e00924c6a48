"""Bitwise golden values for every fixture and its smoothing steps.

For each fixture u with w = synthesize_smoother(u, 0.5) this pins, as
float.hex strings: the approximate() rows for p = 1, 1/2 and 1/4, the
verify_smoothness() probe count and failures of each step,
classify_points(u), sup_metric(step, u) and lipschitz_estimate(step).
A faster evaluation path must reproduce every value exactly.

The values live in golden.json next to this file.  Rerecord them only
for an intended change of results:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest

from alphacut import (approximate, classify_points, lipschitz_estimate,
                      sup_metric, synthesize_smoother)
from alphacut.approx import verify_smoothness

from conftest import FIXTURE_NAMES, load_fixture

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

SCHEDULE = [1.0, 0.5, 0.25]


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
    })


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
