"""cli-documents: one op is one `python -m alphacut.cli ...` run.

A round is a fixed list of 23 commands on fixtures, seeded cut and
membership documents and one seeded malformed document; the seed picks
the documents, fixtures, levels and abscissas.  Two commands of every
round save a convolution and a scaling of a membership document with
x^3 pieces: that document passes validate, but its bisection-inverse
cut curves have no closed form to save, so both ops fail on every run
until ROADMAP item 3 is done.

Children run one at a time with an environment the benchmark sets
itself: PYTHONPATH points at the checkout's src and no bytecode is
written, so every command compiles the package from source, as on a
machine whose environment sets PYTHONDONTWRITEBYTECODE=1.
"""

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time

import checks
import gen
import oracles
from common import Op

WHOLE_ROUNDS = True
TRACE_ROUNDS = 1
CHILDREN = True           # peak RSS is that of the largest CLI child
SAMPLE_GRID = 64
NO_CLOSED_FORM = "has no closed form to save"


def child_env(root):
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8"}


def run_child(root, argv, code=None):
    """Run the CLI (or `python -c code`) in a child; (exit, out, err)."""
    cmd = [sys.executable] + (["-c", code] if code is not None
                              else ["-m", "alphacut.cli"] + list(argv))
    proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(A, argv):
    """The same command through alphacut.cli.main, for the traced run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = A.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def startup_ms(root, repeats=5):
    """Median bare interpreter start, and `import alphacut.cli` beyond it."""
    def median_ms(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run_child(root, (), code)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)
    bare = median_ms("pass")
    return {"cli.interpreter_ms": bare,
            "cli.import_ms": median_ms("import alphacut.cli") - bare}


def _numbers(text):
    return [float(t) for t in text.split()]


class Docs:
    """The seeded documents of one run, written under the work dir."""

    def __init__(self, ctx):
        rng = random.Random("cli-documents-%d" % ctx.seed)
        self.rng = rng
        self.cut_a, self.cut_b = gen.cut_numbers(ctx.seed, 2, tag="cd")
        self.quad, self.cubic0, self.cubic1 = gen.membership_docs(ctx.seed)
        self.paths = {}
        for d in (self.cut_a, self.cut_b, self.quad, self.cubic0,
                  self.cubic1, gen.UNSAVEABLE):
            self.paths[d.name] = ctx.write(d.name + ".fz", d.text())
        kind = rng.choice(gen.MALFORMED_KINDS)
        line = rng.randrange(3, 3 + len(self.cut_a.text().splitlines()) - 2)
        text, self.bad_line = gen.malformed(self.cut_a, kind, line)
        self.paths["malformed"] = ctx.write("malformed.fz", text)
        self.out = ctx.subdir("o")

    def path(self, d):
        return self.paths[d.name]


def build(ctx):
    return Docs(ctx)


def expect(ctx, docs):
    """Seeded command lines with the checks of their outputs."""
    A = ctx.A
    rng = docs.rng
    fx = sorted(oracles.FIXTURES)
    ops = []

    def add(label, argv, check):
        ops.append((label, argv, check))

    def exit_ok(want=0):
        def run(res):
            return checks.exit_code(res[0], want, res[2])
        return run

    add("validate", ["validate", docs.path(docs.cut_a)],
        lambda r: exit_ok()(r) or (None if r[1].splitlines()[-1] == "ok"
                                   else "validate printed %r" % r[1]))
    add("validate-malformed", ["validate", docs.paths["malformed"]],
        lambda r: checks.exit_code(r[0], 2, r[2], docs.bad_line))

    def cut_check(shape, level, strong=False):
        want = shape.strong(level) if strong else shape.cut(level)
        return lambda r: exit_ok()(r) or checks.interval(
            _numbers(r[1]), want, "printed cut")

    name = rng.choice(fx)
    level = rng.random()
    add("cut-fixture", ["cut", ctx.fixture(name), repr(level)],
        cut_check(oracles.FIXTURES[name], level))
    level = rng.random()
    add("cut-strong", ["cut", docs.path(docs.cut_b), repr(level), "--strong"],
        cut_check(docs.cut_b, level, True))
    level = rng.random()
    add("cut-membership-doc", ["cut", docs.path(docs.quad), repr(level)],
        cut_check(docs.quad, level))

    def mu_check(shape, x):
        return lambda r: exit_ok()(r) or checks.value(
            float(r[1]), shape.mu(x), "printed membership")

    name = rng.choice([n for n in fx if n != "point"])
    shape = oracles.FIXTURES[name]
    lo, hi = shape.support
    x = lo + (hi - lo) * rng.random()
    add("membership-fixture", ["membership", ctx.fixture(name), repr(x)],
        mu_check(shape, x))
    lo, hi = docs.cubic0.support
    x = lo + (hi - lo) * rng.random()
    add("membership-cubic", ["membership", docs.path(docs.cubic0), repr(x)],
        mu_check(docs.cubic0, x))

    def classify_check(want):
        def run(r):
            bad = exit_ok()(r)
            if bad:
                return bad
            got = []
            for line in r[1].splitlines():
                if line == "none":
                    continue
                f = dict(t.split("=", 1) for t in line.split())
                got.append((float(f["x"]), f["kind"], f["branch"]))
            return checks.singular(got, want)
        return run

    name = rng.choice(oracles.SINGULAR)
    add("classify-fixture", ["classify", ctx.fixture(name)],
        classify_check(oracles.FIXTURES[name].singular))
    add("classify-seeded", ["classify", docs.path(docs.cut_a)],
        classify_check(docs.cut_a.singular))
    add("classify-cubic", ["classify", docs.path(docs.cubic1)],
        classify_check(docs.cubic1.singular))

    name = rng.choice(fx)
    flags = dict(zip(("in_FT", "in_FN", "in_FC", "in_FD"),
                     oracles.FLAGS[name]))
    add("class", ["class", ctx.fixture(name)],
        lambda r: exit_ok()(r) or checks.flags(
            {k: v == "true" for k, v in
             (t.split("=") for t in r[1].split())}, flags))

    na, nb = rng.sample(fx, 2)
    sa, sb = oracles.FIXTURES[na], oracles.FIXTURES[nb]
    knots = sorted(set(sa.breaks) | set(sb.breaks))
    dense = max(oracles.dense_sup(
        lambda a, s=s: abs(sa.cut(a)[s] - sb.cut(a)[s]), knots)
        for s in (0, 1))

    def metric_check(r):
        bad = exit_ok()(r)
        if bad:
            return bad
        f = dict(t.split("=") for t in r[1].split())
        return checks.metric(float(f["d"]), float(f["gap"]), dense)
    add("metric", ["metric", ctx.fixture(na), ctx.fixture(nb)], metric_check)

    levels = [rng.random() for _ in range(3)] + [0.0, 1.0]

    def saved_check(expected_cut):
        """Exit 0, the saved document reloads with the expected cuts,
        and saving it again reproduces it byte for byte."""
        def run(r):
            bad = exit_ok()(r)
            if bad:
                return bad
            path = r[1].splitlines()[0]
            fz = A.cli.load_document(path)
            with open(path) as fh:
                text = fh.read()
            if A.cli.document_text(fz) != text:
                return "re-saving %s changes it" % (path,)
            for a in levels:
                bad = checks.interval(A.alpha_cut(fz, a), expected_cut(a),
                                      "saved cut at %r" % (a,))
                if bad:
                    return bad
            return None
        return run

    def summed(u, v):
        return lambda a: tuple(p + q for p, q in zip(u.cut(a), v.cut(a)))

    name = rng.choice(fx)
    add("convolve-cuts", ["convolve", docs.path(docs.cut_a), ctx.fixture(name),
                          "--out", docs.out],
        saved_check(summed(docs.cut_a, oracles.FIXTURES[name])))
    add("convolve-membership", ["convolve", docs.path(docs.quad),
                                docs.path(docs.cut_b), "--out", docs.out],
        saved_check(summed(docs.quad, docs.cut_b)))

    def kept_failure(expected_cut):
        ok = saved_check(expected_cut)

        def run(r):
            if r[0] == 1 and NO_CLOSED_FORM in r[2]:
                return ("failed", r[2].strip())
            return ok(r)
        return run

    tri = oracles.FIXTURES["triangle"]
    add("convolve-x3", ["convolve", docs.paths["unsaveable"],
                        ctx.fixture("triangle"), "--out", docs.out],
        kept_failure(summed(gen.UNSAVEABLE, tri)))

    def scaled(u, r):
        return lambda a: tuple(sorted(r * c for c in u.cut(a)))

    r = rng.choice((-2.0, -0.5, 0.5, 3.0))
    add("scale", ["scale", docs.path(docs.cut_b), repr(r), "--out", docs.out],
        saved_check(scaled(docs.cut_b, r)))
    add("scale-x3", ["scale", docs.paths["unsaveable"], "2.0", "--out",
                     docs.out], kept_failure(scaled(gen.UNSAVEABLE, 2.0)))

    # sine-bridge is flat at level 1/2 on its left branch, the level of
    # asymmetric-kink's kink, and differentiable: an accepted smoother
    add("smooth-check-accept", ["smooth-check", ctx.fixture("asymmetric-kink"),
                                ctx.fixture("sine-bridge")],
        lambda r: exit_ok(0)(r) or (
            None if r[1].splitlines()[-1] != "theorem: none"
            else "accepted smoother printed theorem: none"))
    # a smoother with a kink is never differentiable, so it is rejected
    add("smooth-check-reject", ["smooth-check", docs.path(docs.cut_a),
                                ctx.fixture("triangle")],
        lambda r: exit_ok(1)(r) or (
            None if r[1].splitlines()[-1] == "theorem: none"
            else "rejected smoother printed %r" % r[1].splitlines()[-1]))

    def synth_check(target, core):
        def run(r):
            bad = exit_ok()(r)
            if bad:
                return bad
            path = r[1].splitlines()[0]
            w = A.cli.load_document(path)
            with open(path) as fh:
                if A.cli.document_text(w) != fh.read():
                    return "re-saving %s changes it" % (path,)
            u = A.cli.load_document(target)
            if A.check_smoother_conditions(u, w).theorem == "none":
                return "saved smoother fails its own conditions"
            if core:
                return checks.interval(A.alpha_cut(w, 1.0), (0.0, 0.0),
                                       "smoother core")
            return None
        return run

    target = ctx.fixture(rng.choice(oracles.SINGULAR))
    p = rng.choice((0.25, 0.5, 1.0))
    core = rng.random() < 0.5
    add("synthesize", ["synthesize", target, repr(p), "--out", docs.out]
        + (["--preserve-core"] if core else []), synth_check(target, core))

    def sample_check(shape):
        grid = [k / SAMPLE_GRID for k in range(SAMPLE_GRID + 1)]
        return lambda r: exit_ok()(r) or checks.sample_rows(
            checks.csv_rows(r[1], "alpha,lo,hi"), grid, shape.breaks,
            shape.cut)

    name = rng.choice(fx)
    add("sample-cuts", ["sample", ctx.fixture(name), "--grid",
                        str(SAMPLE_GRID)], sample_check(oracles.FIXTURES[name]))

    def mu_rows(r):
        bad = exit_ok()(r)
        if bad:
            return bad
        rows = checks.csv_rows(r[1], "x,mu")
        if rows is None or len(rows) < 512:
            return "membership CSV has %s rows" % (rows and len(rows))
        for x, mu in rows:
            bad = checks.value(mu, docs.quad.mu(x), "sampled mu at %r" % x)
            if bad:
                return bad
        return None
    add("sample-membership", ["sample", docs.path(docs.quad),
                              "--membership", "--grid", str(SAMPLE_GRID)],
        mu_rows)

    name = rng.choice(fx)
    svg = os.path.join(docs.out, "plot.svg")

    def plot_check(r):
        bad = exit_ok()(r)
        if bad:
            return bad
        with open(svg) as fh:
            return checks.svg_curves(fh.read(), 2)
    add("plot", ["plot", ctx.fixture(name), docs.path(docs.quad), "--out",
                 svg], plot_check)
    docs.ops = ops


def rounds(ctx, docs):
    ops = []
    for label, argv, check in docs.ops:
        if ctx.trace:
            fn = (lambda argv=argv: run_inprocess(ctx.A, argv))
        else:
            fn = (lambda argv=argv: run_child(ctx.root, argv))

        ops.append(Op("%s [%s]" % (label, " ".join(argv)), fn, check))
    while True:
        yield ops


def warm_up(ctx, docs):
    for argv in (["validate", ctx.fixture("triangle")],
                 ["cut", ctx.fixture("triangle"), "0.5"]):
        if ctx.trace:
            run_inprocess(ctx.A, argv)
        else:
            run_child(ctx.root, argv)
