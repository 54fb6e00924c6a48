"""Every output checker must reject a deliberately wrong answer.

    python3 perfbench/selfcheck.py

Feeds each checker of checks.py a right answer (it must pass) and a
wrong one: a cut moved by 1e-6, a flipped class flag, a wrong exit
code, a missing sample level and so on (it must object).  Then runs
one op of each workload for real and checks the workload-level judges
the same way, with the op's own output perturbed.  Exits 1 on the first
checker that lets a wrong answer through.
"""

import math
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import checks  # noqa: E402

FAILURES = []


def expect(name, right, wrong):
    """right must be None (accepted); wrong must not be (rejected)."""
    if right is not None:
        FAILURES.append("%s rejects a right answer: %r" % (name, right))
    if wrong is None:
        FAILURES.append("%s accepts a wrong answer" % (name,))


def unit_checks():
    d = 1e-6
    expect("value", checks.value(0.25, 0.25), checks.value(0.25 + d, 0.25))
    expect("interval", checks.interval((-1.0, 2.0), (-1.0, 2.0)),
           checks.interval((-1.0 + d, 2.0), (-1.0, 2.0)))
    expect("levelwise_sum",
           checks.levelwise_sum((0.5, 3.5), (0.0, 3.0), (1.0, 1.0), 0.5),
           checks.levelwise_sum((0.5, 3.5 + d), (0.0, 3.0), (1.0, 1.0), 0.5))
    expect("levelwise_scale", checks.levelwise_scale((-4.0, 2.0), -2.0,
                                                     (-1.0, 2.0)),
           checks.levelwise_scale((-2.0, 4.0), -2.0, (-1.0, 2.0)))
    want = [(0.0, "kink", "left"), (2.5, "jump", "right")]
    expect("singular", checks.singular(list(want), want),
           checks.singular([(0.0, "kink", "left"), (2.5 + d, "jump",
                                                    "right")], want))
    expect("singular kind", None,
           checks.singular([(0.0, "jump", "left"), want[1]], want))
    expect("singular missing", None, checks.singular(want[:1], want))
    expect("flags", checks.flags((True, False), (True, False)),
           checks.flags((True, True), (True, False)))
    expect("slope", checks.slope(2.0, 2.0 + 1e-7), checks.slope(2.001, 2.0))
    expect("slope inf", checks.slope(math.inf, math.inf),
           checks.slope(1e7, math.inf))
    expect("smooth_point", checks.smooth_point(0.5, 0.5),
           checks.smooth_point(0.5, 0.5001))
    expect("metric", checks.metric(1e-3, 1e-9, 1e-3),
           checks.metric(1e-6, 3.9e-9, 9.25e-5))
    if checks.metric(1e-6, 3.9e-9, 9.25e-5)[0] != "failed":
        FAILURES.append("an uncertified gap must count the op as failed")
    expect("metric overstated", None, checks.metric(2e-3, 0.0, 1e-3))
    expect("within_bound", checks.within_bound(0.5, 0.5),
           checks.within_bound(0.5 + 1e-9, 0.5))
    expect("true", checks.true(True, "smooth"), checks.true(False, "smooth"))
    expect("true None", None, checks.true(None, "lip_ok"))
    expect("exit_code", checks.exit_code(2, 2, "line 4: bad number", 4),
           checks.exit_code(1, 2, "line 4: bad number", 4))
    expect("exit_code line", None,
           checks.exit_code(2, 2, "line 3: bad number", 4))
    rows = [(0.0, -1.0, 1.0), (0.5, -0.5, 0.5), (1.0, 0.0, 0.0)]

    def tri(a):
        return a - 1.0, 1.0 - a
    expect("sample_rows", checks.sample_rows(rows, [0.0, 1.0], [0.5], tri),
           checks.sample_rows(rows[:1] + rows[2:], [0.0, 1.0], [0.5], tri))
    moved = [(0.5, -0.5 + d, 0.5) if r[0] == 0.5 else r for r in rows]
    expect("sample_rows value", None,
           checks.sample_rows(moved, [0.0, 1.0], [0.5], tri))
    pts = " ".join("%d,%d" % (k, k) for k in range(512))
    svg = '<polyline points="%s"/>' % pts
    expect("svg_curves", checks.svg_curves(svg * 2, 2),
           checks.svg_curves(svg + '<polyline points="1,1 2,2"/>', 2))


def workload_checks():
    """One real op per workload, judged as is and with a perturbed output."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import alphacut
    import alphacut.cli
    import common
    import queries
    import run
    import schedule

    workdir = os.path.join(HERE, "out", "selfcheck-%d" % os.getpid())
    ctx = run.Context(alphacut, 7, False, workdir)
    try:
        pairs = schedule.build(ctx)[:1]
        schedule.expect(ctx, pairs)
        pair = pairs[0]
        op = next(schedule.rounds(ctx, pairs))[0]
        step, row, pres = op.fn()
        expect("verified-schedule step", op.check((step, row, pres)),
               schedule.check_step(alphacut, pair, 1.0 + 1e-6, step, row,
                                   pres))
        expect("verified-schedule smooth", None,
               schedule.check_step(alphacut, pair, 1.0, step,
                                   dict(row, smooth=False), pres))

        state = queries.build(ctx)
        queries.expect(ctx, state)
        for op in queries.round_ops(ctx, state):
            got = op.fn()
            verdict = common.judge(op, got)
            if op.label == "sup_metric(item4 pair)":
                expect("item-4 metric counts as failed", None, verdict)
                continue
            bad = _perturbed(got)
            if bad is _SKIP:
                continue
            expect("query-mix " + op.label, verdict, common.judge(op, bad))
    finally:
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)
    documents_checks(alphacut)


_SKIP = object()


def _perturbed(got):
    """The same answer made wrong: numbers moved, flags flipped."""
    import alphacut
    if got is None:
        return 0.0
    if isinstance(got, float):
        return got * 1.05 + 1e-3 if math.isfinite(got) else 1.0
    if isinstance(got, alphacut.Interval):
        return alphacut.Interval(got.lo + 1e-6, got.hi)
    if isinstance(got, alphacut.ExtendedSlope):
        v = got.value + 1e-2 if math.isfinite(got.value) else 0.0
        return alphacut.ExtendedSlope(v, got.side)
    if isinstance(got, alphacut.SingularPoint):
        return None
    if isinstance(got, alphacut.ClassFlags):
        return alphacut.ClassFlags(got.in_FT, got.in_FN, got.in_FC,
                                   not got.in_FD)
    if isinstance(got, tuple):        # sup_metric: overstate the distance
        return (got[0] + 1e-3, got[1])
    if isinstance(got, alphacut.FuzzyNum):      # shifted by 1e-6
        return alphacut.convolve(got, alphacut.crisp_point(1e-6))
    if isinstance(got, list) and got and isinstance(got[0], tuple):
        return [(a, lo + 1e-6, hi) for a, lo, hi in got]
    if isinstance(got, list):         # classify_points
        return got[1:] if got else [None]
    return _SKIP


def _moved(out):
    """Printed output made wrong: a flag flipped, or every number moved
    by 1e-3."""
    if "true" in out:
        return out.replace("true", "false", 1)
    if not re.search(r"\d", out):
        return out + "x"
    return re.sub(r"-?\d+(\.\d*)?(e[-+]?\d+)?",
                  lambda m: repr(float(m.group(0)) + 1e-3), out)


def documents_checks(A):
    """CLI judges: a wrong exit code and moved numbers are rejected."""
    import common
    import documents
    import run
    workdir = os.path.join(HERE, "out", "selfcheck-cli-%d" % os.getpid())
    ctx = run.Context(A, 7, True, workdir)
    try:
        docs = documents.build(ctx)
        documents.expect(ctx, docs)
        for op in next(documents.rounds(ctx, docs)):
            code, out, err = op.fn()
            verdict = common.judge(op, (code, out, err))
            if "-x3 [" in op.label:
                expect(op.label + " counts as failed", None, verdict)
                continue
            expect("cli %s exit code" % op.label, verdict,
                   common.judge(op, (code + 1, out, err)))
            if op.label.split()[0] not in (
                    "validate-malformed", "smooth-check-accept",
                    "smooth-check-reject", "plot"):
                expect("cli %s output" % op.label, None,
                       common.judge(op, (code, _moved(out), err)))
    finally:
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    unit_checks()
    workload_checks()
    for line in FAILURES:
        print("selfcheck: " + line, file=sys.stderr)
    print("selfcheck: %s" % ("ok" if not FAILURES else
                             "%d problems" % len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
