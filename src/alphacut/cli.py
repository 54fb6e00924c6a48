"""Command line front end and the .fz document format.

A document stores one fuzzy number either as its two cut curves or as
monotone membership pieces.  Cut rows carry explicit level intervals
whose brackets encode which segment owns a shared junction level:

    name: example
    representation: cuts
    left [0, 0.5] inc: a - 0.5
    left (0.5, 1] inc: 2*a - 1
    right [0, 1] dec: 3 - 2*a

Membership rows use the abscissa variable x instead:

    representation: membership
    piece [-1, 0] inc: 0.5 + 0.5*x
    piece (0, 1] dec: 0.5 - 0.5*x

Saving always emits the cuts form with repr-exact floats, so saving a
loaded canonical document reproduces it byte for byte.
"""

import argparse
import json
import math
import os
import re
import sys

from . import approx, calculus, smoother
from .convolve import convolve as _convolve, scale as _scale
from .cutcore import build, expr as ex
from .cutcore.curve import (CutCurve, ExprFn, FuzzyNum, Segment,
                            alpha_cut, membership, sample, strong_cut,
                            validate)
from .cutcore.tolerance import LEVEL_TOL
from .errors import (AlphacutError, ParseError, RepresentationError,
                     SmootherConditionError, StructuralError)

_ROW = re.compile(
    r"^(left|right|piece)\s*([\[(])\s*([^,\s]+)\s*,\s*([^\])\s]+)\s*"
    r"([\])])\s*(inc|dec|const)\s*:\s*(.+)$")
_HEAD = re.compile(r"^(name|source|representation)\s*:\s*(.*)$")


def _num(text, lineno):
    try:
        return float(text)
    except ValueError:
        raise ParseError("line %d: bad number %r" % (lineno, text))


def _parse_rows(lines):
    head = {}
    rows = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ROW.match(line)
        if m:
            rows.append((lineno,) + m.groups())
            continue
        m = _HEAD.match(line)
        if m:
            key, val = m.group(1), m.group(2).strip()
            if key in head:
                raise ParseError("line %d: duplicate %s" % (lineno, key))
            head[key] = val
            continue
        raise ParseError("line %d, column 1: unrecognized line %r"
                         % (lineno, line))
    return head, rows


def _formula(text, varname, lineno):
    """Parse one row's formula; every constant in it must be finite."""
    try:
        e = ex.parse(text, varname=varname)
    except ParseError as err:
        raise ParseError("line %d: %s" % (lineno, err))
    nodes = [e]
    while nodes:
        n = nodes.pop()
        if n.kind in ("const", "scal") and not math.isfinite(n.value):
            raise ParseError("line %d: constant %r is not finite"
                             % (lineno, n.value))
        if n.kind in ("inv", "dinv"):
            # the parser checks the bracket ends; m is walked here
            nodes.append(n.value[0])
        nodes.extend(n.args)
    return e


def _curve_from_rows(rows, which):
    segs = []
    prev_owned = None
    for lineno, kind, ob, lo_s, hi_s, cb, mono, text in rows:
        lo = _num(lo_s, lineno)
        hi = _num(hi_s, lineno)
        if hi < lo:
            raise ParseError(
                "line %d: level interval [%r, %r] runs backwards"
                % (lineno, lo, hi))
        if segs and lo < segs[-1].hi:
            raise ParseError(
                "line %d: level interval overlaps the previous row"
                % (lineno,))
        if segs and lo > segs[-1].hi:
            raise ParseError(
                "line %d: gap in levels before %r" % (lineno, lo))
        want_open = "[" if prev_owned in (None, False) else "("
        if ob != want_open:
            raise ParseError(
                "line %d: expected %r to open this level interval"
                % (lineno, want_open))
        e = _formula(text, "a", lineno)
        segs.append(Segment(lo, hi, ExprFn(e), mono, cb == "]"))
        prev_owned = cb == "]"
    if not segs:
        raise ParseError("no %s rows in cuts document" % (which,))
    return CutCurve(segs)


def load_document(path, check=True):
    """Read a .fz document; check=False skips condition validation."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head, rows = _parse_rows(lines)
    rep = head.get("representation")
    if rep not in ("cuts", "membership"):
        raise ParseError("missing or bad representation header")
    name = head.get("name") or os.path.splitext(os.path.basename(path))[0]
    source = head.get("source")
    if rep == "cuts":
        lrows = [r for r in rows if r[1] == "left"]
        rrows = [r for r in rows if r[1] == "right"]
        bad = [r for r in rows if r[1] == "piece"]
        if bad:
            raise ParseError(
                "line %d: piece rows belong to membership documents"
                % (bad[0][0],))
        try:
            fz = FuzzyNum(_curve_from_rows(lrows, "left"),
                          _curve_from_rows(rrows, "right"),
                          name=name, doc=source)
        except StructuralError as err:
            raise RepresentationError(str(err))
    else:
        pieces = []
        for lineno, kind, ob, lo_s, hi_s, cb, mono, text in rows:
            if kind != "piece":
                raise ParseError(
                    "line %d: cut rows belong to cuts documents"
                    % (lineno,))
            lo = _num(lo_s, lineno)
            hi = _num(hi_s, lineno)
            pieces.append((lo, hi, _formula(text, "x", lineno), mono))
        fz = build.from_membership_pieces(pieces, name=name, doc=source)
    if check:
        rep_v = validate(fz)
        if not rep_v.ok:
            raise RepresentationError(
                "document violates representation conditions %s"
                % (rep_v.failures(),))
    return fz


def document_text(fz):
    """Canonical cuts-form document text for a fuzzy number."""
    out = ["name: %s" % (fz.name or "unnamed")]
    if fz.doc:
        out.append("source: %s" % (fz.doc,))
    out.append("representation: cuts")
    for label, curve in (("left", fz.left), ("right", fz.right)):
        prev_owned = None
        last = len(curve.segments) - 1
        for i, s in enumerate(curve.segments):
            ob = "[" if prev_owned in (None, False) else "("
            owned = s.own_right or i == last
            cb = "]" if owned else ")"
            out.append("%s %s%r, %r%s %s: %s"
                       % (label, ob, s.lo, s.hi, cb, s.mono, s.fn.text()))
            prev_owned = owned
    return "\n".join(out) + "\n"


def _write_atomic(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_document(fz, path):
    _write_atomic(path, document_text(fz))


def _g(x):
    return "%.17g" % (x,)


def emit_csv_cuts(fz, grid):
    lines = ["alpha,lo,hi"]
    for alpha, lo, hi in sample(fz, [k / grid for k in range(grid + 1)]):
        lines.append("%s,%s,%s" % (_g(alpha), _g(lo), _g(hi)))
    return "\n".join(lines) + "\n"


def _membership_points(fz, grid):
    sup = fz.support
    span = sup.width or 1.0
    pad = 0.05 * span
    lo, hi = sup.lo - pad, sup.hi + pad
    xs = set()
    n = max(grid, 512)
    for k in range(n + 1):
        xs.add(lo + (hi - lo) * k / n)
    for x in calculus.candidate_points(fz):
        xs.add(x)
        xs.add(math.nextafter(x, -math.inf))
        xs.add(math.nextafter(x, math.inf))
    pts = []
    for x in sorted(xs):
        pts.append((x, membership(fz, x)))
    return pts


def emit_csv_membership(fz, grid):
    lines = ["x,mu"]
    for x, mu in _membership_points(fz, grid):
        lines.append("%s,%s" % (_g(x), _g(mu)))
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b")


def emit_svg(fzs, grid):
    """Membership plot; every curve carries at least 512 points."""
    width, height = 800.0, 500.0
    mx, my = 60.0, 40.0
    los, his = [], []
    for fz in fzs:
        sup = fz.support
        span = sup.width or 1.0
        los.append(sup.lo - 0.05 * span)
        his.append(sup.hi + 0.05 * span)
    xlo, xhi = min(los), max(his)
    xspan = xhi - xlo or 1.0

    def sx(x):
        return mx + (x - xlo) / xspan * (width - 2 * mx)

    def sy(mu):
        return height - my - mu * (height - 2 * my)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="0 0 %g %g">' % (width, height),
        '<rect width="%g" height="%g" fill="white"/>' % (width, height),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#999"/>'
        % (mx, sy(0.0), width - mx, sy(0.0)),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#999"/>'
        % (mx, sy(0.0), mx, sy(1.0)),
        '<text x="%g" y="%g" font-size="12">0</text>'
        % (mx - 14, sy(0.0) + 4),
        '<text x="%g" y="%g" font-size="12">1</text>'
        % (mx - 14, sy(1.0) + 4),
    ]
    for i, fz in enumerate(fzs):
        pts = _membership_points(fz, grid)
        coords = " ".join(
            "%.3f,%.3f" % (sx(x), sy(mu)) for x, mu in pts)
        parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="1.5" '
            'points="%s"/>' % (_PALETTE[i % len(_PALETTE)], coords))
        label = fz.name or "curve %d" % (i + 1)
        parts.append(
            '<text x="%g" y="%g" font-size="12" fill="%s">%s</text>'
            % (mx + 8, my + 16 * (i + 1),
               _PALETTE[i % len(_PALETTE)], label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _out_path(args, name):
    """The path of file name under --out (default "."), made if missing."""
    outdir = getattr(args, "out", None) or "."
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _save_result(args, fz, name):
    """Name fz, save it under --out and print the path; the file name
    has "_" for each path separator, the name header keeps the name."""
    fz.name = name
    for sep in filter(None, (os.sep, os.altsep)):
        name = name.replace(sep, "_")
    path = _out_path(args, name + ".fz")
    save_document(fz, path)
    print(path)


def _cmd_validate(args):
    fz = load_document(args.file, check=False)
    rep = validate(fz, tol=args.tol)
    for line in rep.lines():
        print(line)
    print("ok" if rep.ok else "invalid")
    return 0 if rep.ok else 1


def _cmd_cut(args):
    fz = load_document(args.file)
    iv = (strong_cut if args.strong else alpha_cut)(fz, args.level)
    print("%s %s" % (_g(iv.lo), _g(iv.hi)))
    return 0


def _cmd_membership(args):
    fz = load_document(args.file)
    print(_g(membership(fz, args.x)))
    return 0


def _cmd_classify(args):
    fz = load_document(args.file)
    pts = calculus.classify_points(fz)
    if not pts:
        print("none")
        return 0
    for p in pts:
        limit = "-" if p.outer_limit is None else _g(p.outer_limit)
        print("x=%s kind=%s branch=%s level=%s limit=%s"
              % (_g(p.x), p.kind, p.branch, _g(p.level), limit))
    return 0


def _cmd_class(args):
    fz = load_document(args.file)
    flags = calculus.class_membership(fz)
    print(" ".join("%s=%s" % (k, "true" if v else "false")
                   for k, v in flags.as_dict().items()))
    return 0


def _cmd_metric(args):
    a = load_document(args.file_a)
    b = load_document(args.file_b)
    d, gap = calculus.sup_metric(a, b)
    print("d=%s gap=%s" % (_g(d), _g(gap)))
    return 0


def _cmd_convolve(args):
    a = load_document(args.file_a)
    b = load_document(args.file_b)
    _save_result(args, _convolve(a, b), "conv_%s_%s" % (a.name, b.name))
    return 0


def _cmd_scale(args):
    fz = load_document(args.file)
    _save_result(args, _scale(args.factor, fz),
                 "scale_%r_%s" % (args.factor, fz.name))
    return 0


def _cmd_smooth_check(args):
    u = load_document(args.target)
    w = load_document(args.smoother)
    rep = smoother.check_smoother_conditions(u, w)
    for line in rep.lines():
        print(line)
    return 0 if rep.theorem != "none" else 1


def _cmd_synthesize(args):
    u = load_document(args.target)
    w = smoother.synthesize_smoother(
        u, args.p, preserve_core=args.preserve_core,
        lipschitz_cap=args.lipschitz_cap)
    _save_result(args, w, "smoother_%s" % (u.name,))
    rep = smoother.check_smoother_conditions(u, w)
    print("theorem: %s" % rep.theorem)
    return 0


def _cmd_approximate(args):
    u = load_document(args.target)
    if args.smoother:
        w = load_document(args.smoother)
    elif args.synthesize:
        w = smoother.synthesize_smoother(
            u, args.p, preserve_core=args.preserve_core)
    else:
        raise ValueError("give a smoother document or --synthesize")
    schedule = approx.default_schedule(args.steps)
    steps, report = approx.approximate(u, w, schedule)
    pres = approx.preservation_report(u, steps, w, schedule)
    paths = []
    for i, step in enumerate(steps, 1):
        step.name = "step_%03d" % (i,)
        path = _out_path(args, step.name + ".fz")
        save_document(step, path)
        paths.append(path)
    doc = {
        "target": u.name,
        "smoother": w.name,
        "schedule": schedule,
        "rows": report.rows,
        "monotone": report.monotone,
        "all_within_bound": report.all_within_bound,
        "preservation": {
            "premises_hold": pres.premises_hold,
            "smoother_constant": _json_num(pres.smoother_constant),
            "core_preserved": pres.core_preserved,
            "lipschitz_ok": pres.lipschitz_ok,
            "rows": [
                {k: _json_num(v) for k, v in row.items()}
                for row in pres.rows],
        },
        "steps": paths,
    }
    rpath = _out_path(args, "report.json")
    _write_atomic(rpath, json.dumps(doc, indent=2) + "\n")
    for line in report.lines():
        print(line)
    print(rpath)
    return 0


def _json_num(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def _cmd_sample(args):
    fz = load_document(args.file)
    text = (emit_csv_membership(fz, args.grid) if args.membership
            else emit_csv_cuts(fz, args.grid))
    if args.out:
        _write_atomic(args.out, text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plot(args):
    fzs = [load_document(f) for f in args.files]
    text = emit_svg(fzs, args.grid)
    out = args.out or "plot.svg"
    _write_atomic(out, text)
    print(out)
    return 0


def _finite(text):
    """argparse type: a finite float."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % (text,))
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(
            "must be a finite number, got %r" % (text,))
    return v


def _positive_int(text):
    """argparse type: an integer of at least 1 (grid size, step count)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))
    if n < 1:
        raise argparse.ArgumentTypeError(
            "must be an integer >= 1, got %r" % (text,))
    return n


def build_parser():
    ap = argparse.ArgumentParser(
        prog="alphacut",
        description="exact alpha-cut calculus for fuzzy numbers")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check representation conditions")
    p.add_argument("file")
    p.add_argument("--tol", type=_finite, default=LEVEL_TOL)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("cut", help="cut interval at a level")
    p.add_argument("file")
    p.add_argument("level", type=_finite)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=_cmd_cut)

    p = sub.add_parser("membership", help="membership at an abscissa")
    p.add_argument("file")
    p.add_argument("x", type=_finite)
    p.set_defaults(fn=_cmd_membership)

    p = sub.add_parser("classify", help="list non-differentiable points")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("class", help="regularity class flags")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_class)

    p = sub.add_parser("metric", help="sup distance with certified gap")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_metric)

    p = sub.add_parser("convolve", help="sup-min convolution")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("scale", help="scalar multiple")
    p.add_argument("file")
    p.add_argument("factor", type=_finite)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scale)

    p = sub.add_parser("smooth-check", help="smoother conditions report")
    p.add_argument("target")
    p.add_argument("smoother")
    p.set_defaults(fn=_cmd_smooth_check)

    p = sub.add_parser("synthesize", help="build a tailored smoother")
    p.add_argument("target")
    p.add_argument("p", type=_finite)
    p.add_argument("--preserve-core", action="store_true")
    p.add_argument("--lipschitz-cap", type=_finite)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("approximate", help="run a smoothing schedule")
    p.add_argument("target")
    p.add_argument("smoother", nargs="?")
    p.add_argument("--synthesize", action="store_true")
    p.add_argument("--steps", type=_positive_int, default=20)
    p.add_argument("--p", type=_finite, default=1.0)
    p.add_argument("--preserve-core", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_approximate)

    p = sub.add_parser("sample", help="CSV of cuts or membership")
    p.add_argument("file")
    p.add_argument("--grid", type=_positive_int, default=1025)
    p.add_argument("--membership", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("plot", help="SVG membership plot")
    p.add_argument("files", nargs="+")
    p.add_argument("--grid", type=_positive_int, default=1025)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_plot)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print("alphacut: parse: %s" % (err,), file=sys.stderr)
        return 2
    except RepresentationError as err:
        print("alphacut: representation: %s" % (err,), file=sys.stderr)
        return 1
    except SmootherConditionError as err:
        print("alphacut: smoother-condition: %s" % (err,), file=sys.stderr)
        return 1
    except StructuralError as err:
        print("alphacut: structure: %s" % (err,), file=sys.stderr)
        return 1
    except AlphacutError as err:
        print("alphacut: error: %s" % (err,), file=sys.stderr)
        return 1
    except ValueError as err:
        print("alphacut: value: %s" % (err,), file=sys.stderr)
        return 1
    except OSError as err:
        print("alphacut: io: %s" % (err,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
