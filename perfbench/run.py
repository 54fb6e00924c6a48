"""Benchmark of alphacut: three workloads, one command, one JSON line.

    python3 perfbench/run.py --workload verified-schedule --seed 1 \
        --seconds 32 --trace 0

Run it from the root of a checkout.  --trace 0 measures the end-to-end
metrics with nothing wrapped; --trace 1 wraps every module's public
functions from outside (tracer.py), runs one set-up and a fixed number
of rounds, prints the per-layer metrics and writes counts, inclusive
and self times and all spans to perfbench/out/.  The last line of
standard output is the result object.
"""

import argparse
import json
import os
import shutil
import sys
import time

_T0 = time.perf_counter()
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import documents  # noqa: E402
import queries  # noqa: E402
import schedule  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = {"verified-schedule": schedule, "query-mix": queries,
             "cli-documents": documents}


class Context:
    """What a workload needs: the library, its seed and a work dir."""

    def __init__(self, A, seed, trace, workdir):
        self.A = A
        self.seed = seed
        self.trace = trace
        self.root = ROOT
        self.workdir = workdir

    def fixture(self, name):
        return os.path.join("fixtures", name + ".fz")

    def subdir(self, name):
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def write(self, name, text):
        path = os.path.join(self.subdir("docs"), name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def load_text(self, name, text):
        return self.A.cli.load_document(self.write(name + ".fz", text))


def measure(mod, ctx, seconds, import_s):
    """Set up SETUP_REPEATS times, then run the timed rounds untraced."""
    def setup():
        t0 = time.perf_counter()
        state = mod.build(ctx)
        t1 = time.perf_counter()
        mod.expect(ctx, state)          # the benchmark's own oracle work
        t2 = time.perf_counter()
        mod.warm_up(ctx, state)
        return state, (t1 - t0) + (time.perf_counter() - t2)

    setup_s, state = common.timed_setup(setup)
    tally = common.run_rounds(lambda: mod.rounds(ctx, state), seconds,
                              mod.WHOLE_ROUNDS)
    rss = common.peak_rss_mb(children=mod.CHILDREN)
    return tally, common.end_to_end(tally, import_s + setup_s, rss)


def traced(mod, ctx, workload):
    """One traced set-up, untraced oracle work, then a fixed amount of
    traced work; returns the tally and the per-layer metrics."""
    tr = tracer.Tracer()
    tr.install()
    state = mod.build(ctx)
    tr.remove()
    mod.expect(ctx, state)
    tr.install()
    mod.warm_up(ctx, state)
    results = []
    gen = mod.rounds(ctx, state)
    t0 = time.perf_counter()
    for _ in range(mod.TRACE_ROUNDS):
        for op in next(gen):
            t = time.perf_counter()
            try:
                res, err = op.fn(), None
            except Exception as exc:
                res, err = None, exc
            results.append((op, res, err, time.perf_counter() - t))
    traced_s = time.perf_counter() - t0
    tr.remove()
    tally = common.Tally()
    for op, res, err, dt in results:
        tally.record(op, res, err, dt)
    tally.timed = traced_s
    startup = documents.startup_ms(ROOT)
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "trace-%s-seed%d.json" % (workload, ctx.seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": ctx.seed,
                   "ops": tally.attempted, "traced_ops_s": traced_s,
                   "startup_ms": startup, "layers": tr.summary(),
                   "spans": tr.spans_table()}, fh)
    return tally, tr.printed(startup)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join(ROOT, "src", "alphacut", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "fixtures"))):
        print("perfbench: no alphacut sources (src/alphacut) and fixtures "
              "under %s" % (ROOT,), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import alphacut
    import alphacut.cli
    import_s = time.perf_counter() - _T0

    mod = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "out", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(alphacut, args.seed, bool(args.trace), workdir)
    try:
        if args.trace:
            tally, metrics = traced(mod, ctx, args.workload)
        else:
            tally, metrics = measure(mod, ctx, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    common.report_problems(tally)
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
