"""The closed measuring loop shared by the workloads, and its summary.

One caller runs one op at a time.  Each op is timed alone; its output
is checked after the clock stops, so check time is not charged to the
timed phase.  An op that raises, or whose checker says the program broke
its own promise, counts as failed and leaves the latency samples; an op
whose output is wrong counts against `correct`.
"""

import resource
import statistics
import sys
import time

# the tail is the 75th percentile: a 32 s verified-schedule run holds
# about 47 ops of 0.7 s, and p75 is the highest round percentile that
# keeps at least ten of them beyond it on every workload
TAIL_PERCENTILE = 75
SETUP_REPEATS = 3


class Op:
    """One unit of work: fn() runs it, check(result) judges it.

    check returns None when the output is right, ("failed", why) when
    the program broke its own promise (the op counts as failed), and
    ("incorrect", why) or just why when the output is wrong.
    """

    __slots__ = ("label", "fn", "check")

    def __init__(self, label, fn, check):
        self.label = label
        self.fn = fn
        self.check = check


class Tally:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = {}
        self.timed = 0.0

    def record(self, op, result, err, seconds):
        """Judge one op's output (or exception) and count it."""
        self.attempted += 1
        verdict = (("failed", "%s: %r" % (type(err).__name__, err))
                   if err is not None else judge(op, result))
        if verdict is not None and verdict[0] == "failed":
            self.failed += 1
            self.failures.setdefault(op.label, verdict[1])
            return
        self.latencies.append(seconds)
        if verdict is not None:
            self.problems.append("%s: %s" % (op.label, verdict[1]))


def run_rounds(rounds, seconds, whole_rounds):
    """Run ops from rounds() until the timed phase reaches `seconds`.

    rounds() yields one list of Op per round.  With whole_rounds the
    run stops only between rounds, so every run attempts the same ops
    in the same proportions; otherwise it may stop after any op.
    """
    tally = Tally()
    clock = time.perf_counter
    mark = clock()
    for ops in rounds():
        for op in ops:
            t0 = clock()
            try:
                result = op.fn()
                err = None
            except Exception as exc:  # an op that raises counts as failed
                result, err = None, exc
            t1 = clock()
            tally.timed += t1 - mark
            tally.record(op, result, err, t1 - t0)
            mark = clock()
            if not whole_rounds and tally.timed >= seconds:
                return tally
        if tally.timed >= seconds:
            return tally
    return tally


def judge(op, result):
    """op.check(result) as a verdict; an unreadable output is wrong."""
    try:
        out = op.check(result)
    except Exception as exc:  # unreadable output is a wrong output
        return ("incorrect", "unreadable output: %s: %r"
                % (type(exc).__name__, exc))
    return ("incorrect", out) if isinstance(out, str) else out


def timed_setup(setup):
    """Run setup() SETUP_REPEATS times; (median seconds, last state).

    setup() returns (state, seconds it spent on the program's set-up).
    """
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        state, spent = setup()
        times.append(spent)
    return statistics.median(times), state


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(tally, setup_s, rss_mb):
    lat = sorted(tally.latencies)
    if len(lat) >= 2:
        tail = statistics.quantiles(lat, n=100,
                                    method="inclusive")[TAIL_PERCENTILE - 1]
    else:
        tail = lat[0] if lat else 0.0
    ok = tally.attempted - tally.failed
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ok / tally.timed if tally.timed else 0.0,
                      "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3
                           if lat else 0.0, "unit": "ms"},
        "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def report_problems(tally, out=sys.stderr):
    for label, why in sorted(tally.failures.items()):
        print("failed op %s: %s" % (label, why), file=out)
    for line in tally.problems[:20]:
        print("wrong output %s" % (line,), file=out)
