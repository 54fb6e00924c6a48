"""Re-measure the single-case reference figures of ROADMAP item 1.

    python3 perfbench/reference.py

Each figure is the median of a few repeats on the tail-jump fixture,
the case ROADMAP item 1 quotes: the 20-step approximate() with and
without verification, verify_smoothness of one smoothed step,
membership, alpha_cut, convolve and sup_metric of that step against
u, and `import alphacut.cli` in a fresh interpreter beyond its bare
start.  They are context for the README, not benchmark metrics.
"""

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    os.chdir(ROOT)
    import alphacut as A
    import alphacut.cli
    import documents

    u = alphacut.cli.load_document("fixtures/tail-jump.fz")
    w = A.synthesize_smoother(u, 0.5)
    step = A.convolve(u, A.scale(0.5, w))
    xs = [1.0 + 1.8 * k / 64 for k in range(1, 64)]
    rows = [
        ("approximate, 20 steps, verify on (s)",
         median_s(lambda: A.approximate(u, w), 1)),
        ("approximate, 20 steps, verify off (ms)",
         1e3 * median_s(lambda: A.approximate(u, w, verify=False), 5)),
        ("verify_smoothness, one step (ms)",
         1e3 * median_s(lambda: A.verify_smoothness(step), 3)),
        ("membership (us per call)",
         1e6 * median_s(lambda: [A.membership(u, x) for x in xs], 50)
         / len(xs)),
        ("alpha_cut (us per call)",
         1e6 * median_s(lambda: [A.alpha_cut(u, k / 64) for k in range(64)],
                        50) / 64),
        ("convolve (ms)",
         1e3 * median_s(lambda: A.convolve(u, A.scale(0.5, w)), 50)),
        ("sup_metric, step vs u (ms)",
         1e3 * median_s(lambda: A.sup_metric(step, u), 20)),
    ]
    rows += sorted(documents.startup_ms(ROOT, repeats=9).items())
    for name, value in rows:
        print("%-40s %10.3f" % (name, value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
