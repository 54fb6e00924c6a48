"""Per-module call counts and times, taken by wrapping alphacut from outside.

Each wrapper replaces the function wherever its name is looked up: the
defining module, every alphacut module that imported it by name, and
the package namespaces.  Functions called once per expression node or
per curve evaluation only count calls; coarser ones also record a span
(name, start, end, parent) kept in memory, from which inclusive and
self times are computed when the run ends.
"""

import sys
import time

# (metric prefix, module, attribute); a dotted attribute is a method
# or property of a class in that module
COUNTED = (
    ("expr.evaluate", "alphacut.cutcore.expr", "evaluate"),
    ("curve.exprfn", "alphacut.cutcore.curve", "ExprFn.__call__"),
    ("curve.exprfn.deriv", "alphacut.cutcore.curve", "ExprFn.deriv"),
    ("build.inversefn", "alphacut.cutcore.curve", "InverseFn.__call__"),
    ("curve.value", "alphacut.cutcore.curve", "CutCurve.value"),
    ("curve.support", "alphacut.cutcore.curve", "FuzzyNum.support"),
    ("curve.core", "alphacut.cutcore.curve", "FuzzyNum.core"),
)

SPANNED = (
    ("approx.approximate", "alphacut.approx", "approximate"),
    ("approx.verify_smoothness", "alphacut.approx", "verify_smoothness"),
    ("approx.preservation_report", "alphacut.approx",
     "preservation_report"),
    ("calculus.singular_at", "alphacut.calculus", "singular_at"),
    ("calculus.classify_points", "alphacut.calculus", "classify_points"),
    ("calculus.class_membership", "alphacut.calculus", "class_membership"),
    ("calculus.sup_metric", "alphacut.calculus", "sup_metric"),
    ("calculus.lipschitz_estimate", "alphacut.calculus",
     "lipschitz_estimate"),
    ("curve.membership", "alphacut.cutcore.curve", "membership"),
    ("curve.membership_outer_limit", "alphacut.cutcore.curve",
     "membership_outer_limit"),
    ("curve.validate", "alphacut.cutcore.curve", "validate"),
    ("build.from_membership_pieces", "alphacut.cutcore.build",
     "from_membership_pieces"),
    ("convolve.convolve", "alphacut.convolve", "convolve"),
    ("convolve.scale", "alphacut.convolve", "scale"),
    ("smoother.synthesize_smoother", "alphacut.smoother",
     "synthesize_smoother"),
    ("smoother.check_smoother_conditions", "alphacut.smoother",
     "check_smoother_conditions"),
    ("cli.main", "alphacut.cli", "main"),
    ("cli.load_document", "alphacut.cli", "load_document"),
    ("cli.save_document", "alphacut.cli", "save_document"),
    ("expr.parse", "alphacut.cutcore.expr", "parse"),
)

# the per-layer metrics printed by a traced run; the trace file holds
# calls, inclusive and self times for every wrapped name
PRINTED = (
    ("approx.verify_smoothness.calls", "count"),
    ("approx.verify_smoothness.ms", "ms"),
    ("approx.probes", "count"),
    ("approx.approximate.ms", "ms"),
    ("approx.preservation_report.ms", "ms"),
    ("calculus.singular_at.calls", "count"),
    ("calculus.singular_at.ms", "ms"),
    ("curve.membership.calls", "count"),
    ("curve.membership.ms", "ms"),
    ("curve.membership_outer_limit.calls", "count"),
    ("curve.membership_outer_limit.ms", "ms"),
    ("curve.support.calls", "count"),
    ("curve.core.calls", "count"),
    ("curve.value.calls", "count"),
    ("expr.evaluate.calls", "count"),
    ("curve.exprfn.calls", "count"),
    ("curve.exprfn.deriv.calls", "count"),
    ("build.inversefn.calls", "count"),
    ("build.from_membership_pieces.ms", "ms"),
    ("calculus.sup_metric.calls", "count"),
    ("calculus.sup_metric.ms", "ms"),
    ("calculus.classify_points.ms", "ms"),
    ("calculus.class_membership.ms", "ms"),
    ("calculus.lipschitz_estimate.ms", "ms"),
    ("convolve.convolve.ms", "ms"),
    ("convolve.scale.ms", "ms"),
    ("curve.validate.ms", "ms"),
    ("smoother.synthesize_smoother.ms", "ms"),
    ("smoother.check_smoother_conditions.ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.load_document.ms", "ms"),
    ("cli.save_document.ms", "ms"),
    ("expr.parse.calls", "count"),
    ("expr.parse.ms", "ms"),
)


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs the wrappers, records spans, and removes them again."""

    def __init__(self):
        self.names = [name for name, _, _ in COUNTED + SPANNED]
        self.counts = [0] * len(self.names)
        self.spans = []
        self.stack = []
        self.probes = 0
        self._undo = []

    def _counting(self, fn, i):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, fn, i, on_result=None):
        counts, spans, stack = self.counts, self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[i] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (i, t0, t1, parent)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _replace(self, module, attr, make):
        owner, name = _resolve(module, attr)
        raw = owner.__dict__[name]
        if isinstance(raw, property):
            new = property(make(raw.fget))
            self._undo.append((owner, name, raw))
            setattr(owner, name, new)
            return
        if isinstance(owner, type):
            self._undo.append((owner, name, raw))
            setattr(owner, name, make(raw))
            return
        # a module-level function: rebind it in every module that holds it
        wrapped = make(raw)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "alphacut"
                                   or mname.startswith("alphacut.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)

    def install(self):
        """Wrap everything; install and remove may alternate."""
        for i, (name, module, attr) in enumerate(COUNTED):
            self._replace(module, attr, lambda fn, i=i: self._counting(fn, i))
        for i, (name, module, attr) in enumerate(SPANNED, len(COUNTED)):
            hook = None
            if name == "approx.verify_smoothness":
                hook = self._add_probes
            self._replace(module, attr,
                          lambda fn, i=i, h=hook: self._spanning(fn, i, h))

    def _add_probes(self, report):
        self.probes += report.probed

    def remove(self):
        for owner, key, raw in reversed(self._undo):
            setattr(owner, key, raw)
        self._undo = []

    def summary(self):
        """Per name: calls, inclusive ms (outermost calls), self ms."""
        out = {n: {"calls": c, "ms": 0.0, "self_ms": 0.0}
               for n, c in zip(self.names, self.counts)}
        child = [0.0] * len(self.spans)
        for i, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (i, t0, t1, parent) in enumerate(self.spans):
            row = out[self.names[i]]
            row["self_ms"] += (t1 - t0 - child[idx]) * 1e3
            p = parent
            while p >= 0 and self.spans[p][0] != i:
                p = self.spans[p][3]
            if p < 0:
                row["ms"] += (t1 - t0) * 1e3
        return out

    def spans_table(self):
        return [(self.names[i], t0, t1, parent)
                for i, t0, t1, parent in self.spans]

    def printed(self, cli_ms):
        """The per-layer metrics, from the summary and the CLI timings."""
        summ = self.summary()
        vals = dict(cli_ms)
        vals["approx.probes"] = self.probes
        for name, row in summ.items():
            vals[name + ".calls"] = row["calls"]
            vals[name + ".ms"] = row["ms"]
        return {m: {"value": vals[m], "unit": u} for m, u in PRINTED}
