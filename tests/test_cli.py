"""End to end checks of the command line front end and the .fz format."""

import json
import math
import os
import re
import subprocess

import pytest

from alphacut.cli import (document_text, emit_svg, load_document, main,
                          save_document)
from alphacut.convolve import convolve, scale
from alphacut.errors import ParseError, RepresentationError
from alphacut.cutcore.curve import alpha_cut, strong_cut
from alphacut.smoother import synthesize_smoother

from conftest import EXAMPLE_NAMES, FIXTURE_DIR, FIXTURE_NAMES, load_fixture

LEVELS = [k / 20 for k in range(21)]


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name + ".fz")


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_doc(tmp_path, text, name="doc.fz"):
    path = os.path.join(str(tmp_path), name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------- documents

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_files_are_canonical(name):
    """Stored fixtures already use the canonical save form."""
    path = fixture_path(name)
    with open(path) as fh:
        raw = fh.read()
    assert raw == document_text(load_document(path))


# membership pieces with no closed-form inverse: the cut curves are inv
# expressions, solved by bisection
CUBIC_DOC = ("name: cubic\nrepresentation: membership\n"
             "piece [-1, 0] inc: (x + 1)^3\npiece (0, 1] dec: 1 - x^3\n")

CUBIC_NAMES = ["cubic", "cubic+triangle", "cubic*2.0", "cubic*-0.5"]


def round_trip_number(name, tmp_path):
    """A fixture, or the x^3 number, its sum with triangle or a multiple."""
    if name in FIXTURE_NAMES:
        return load_fixture(name)
    u = load_document(write_doc(tmp_path, CUBIC_DOC, "cubic.fz"))
    if name == "cubic+triangle":
        return convolve(u, load_fixture("triangle"))
    if "*" in name:
        return scale(float(name.split("*")[1]), u)
    return u


@pytest.mark.parametrize("name", FIXTURE_NAMES + CUBIC_NAMES)
def test_save_load_round_trip_is_exact(name, tmp_path):
    """Save then reload reproduces bytes, segment values and cuts bitwise."""
    fz = round_trip_number(name, tmp_path)
    path = os.path.join(str(tmp_path), "saved.fz")
    save_document(fz, path)
    with open(path) as fh:
        text1 = fh.read()
    back = load_document(path)
    assert document_text(back) == text1
    for ca, cb in ((fz.left, back.left), (fz.right, back.right)):
        assert len(ca.segments) == len(cb.segments)
        for sa, sb in zip(ca.segments, cb.segments):
            assert (sa.lo, sa.hi, sa.mono, sa.own_right) == \
                (sb.lo, sb.hi, sb.mono, sb.own_right)
            for k in range(11):
                t = sa.lo + (sa.hi - sa.lo) * k / 10
                assert sa.fn(t) == sb.fn(t)
    for k in range(101):
        a = k / 100
        assert [v.hex() for v in alpha_cut(back, a)] == \
            [v.hex() for v in alpha_cut(fz, a)]
    assert not [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")]


def test_membership_document_loads_to_same_cuts(tmp_path):
    path = write_doc(tmp_path, (
        "name: tri\n"
        "representation: membership\n"
        "piece [-1, 0] inc: 1 + x\n"
        "piece (0, 1] dec: 1 - x\n"))
    fz = load_document(path)
    ref = load_fixture("triangle")
    for a in LEVELS:
        assert alpha_cut(fz, a) == alpha_cut(ref, a)


PARSE_CASES = [
    ("left [0, 1] inc: a - 1\nwhat is this\nright [0, 1] dec: 1 - a\n",
     "line 4, column 1: unrecognized line"),
    ("left [0.5, 0.2] inc: a\nright [0, 1] dec: 1 - a\n",
     "runs backwards"),
    ("left [0, 0.6] inc: a - 1\nleft [0.5, 1] inc: a - 1\n"
     "right [0, 1] dec: 1 - a\n",
     "overlaps the previous row"),
    ("left [0, 0.4] inc: a - 1\nleft (0.6, 1] inc: a - 1\n"
     "right [0, 1] dec: 1 - a\n",
     "gap in levels before"),
    ("left [0, 0.5] inc: a - 1\nleft [0.5, 1] inc: a - 1\n"
     "right [0, 1] dec: 1 - a\n",
     "expected '(' to open this level interval"),
    ("left [zero, 1] inc: a - 1\nright [0, 1] dec: 1 - a\n",
     "bad number 'zero'"),
    ("piece [-1, 0] inc: 1 + x\nright [0, 1] dec: 1 - a\n",
     "piece rows belong to membership documents"),
    ("right [0, 1] dec: 1 - a\n",
     "no left rows in cuts document"),
    ("left [0, 1] inc: a ** 2\nright [0, 1] dec: 1 - a\n",
     "unexpected token"),
    ("left [0, 1] inc: a - 1 + 0^(-1)\nright [0, 1] dec: 1 - a\n",
     "line 3: constant inf is not finite"),
    ("left [0, 1] inc: a - 1\nright [0, 1] dec: 1 - 1e300*1e300*a\n",
     "line 4: constant inf is not finite"),
]


@pytest.mark.parametrize("body,fragment", PARSE_CASES)
def test_parse_errors_carry_positions(body, fragment, tmp_path):
    path = write_doc(tmp_path, "name: t\nrepresentation: cuts\n" + body)
    with pytest.raises(ParseError, match=re.escape(fragment)):
        load_document(path)


def test_membership_piece_with_infinite_constant_is_located(tmp_path):
    path = write_doc(tmp_path, (
        "name: t\nrepresentation: membership\n"
        "piece [-1, 0] inc: 1 + x\npiece (0, 1] dec: 1 - x + 0^(-1/2)\n"))
    with pytest.raises(ParseError,
                       match=re.escape("line 4: constant inf is not finite")):
        load_document(path)


@pytest.mark.parametrize("formula", ["a - 1 + sqrt(0)",
                                     "a - 1 + (0 - 1)^(3/2)"])
def test_constant_subterms_validate(formula, tmp_path, capsys):
    path = write_doc(tmp_path, (
        "name: t\nrepresentation: cuts\n"
        "left [0, 1] inc: %s\nright [0, 1] dec: 1 - a\n" % formula))
    code, out, err = run(["validate", path], capsys)
    assert (code, err) == (0, "")
    assert out.rstrip().splitlines()[-1] == "ok"


def test_infinite_constant_exits_2_via_cli(tmp_path, capsys):
    path = write_doc(tmp_path, (
        "name: t\nrepresentation: cuts\n"
        "left [0, 1] inc: a - 1 + 0^(-1)\nright [0, 1] dec: 1 - a\n"))
    code, out, err = run(["validate", path], capsys)
    assert code == 2
    assert err.startswith("alphacut: parse: line 3:")


@pytest.mark.parametrize("formula,code,fragment", [
    ("inv(1e999*x, 0, 1) - 1", 2, "line 3: constant inf is not finite"),
    ("inv(x, 0, 1e999) - 1", 2, "line 3: inv bracket end inf is not finite"),
    ("inv(x, 1, 0) - 1", 2, "line 3: inv bracket [1.0, 0.0] is reversed"),
    ("inv(x, 0, 0) - 1", 2, "line 3: inv bracket [0.0, 0.0] is reversed"),
    ("inv(x, a, 1) - 1", 2, "line 3: inv bracket ends must be constants"),
    # x^2 falls then rises on [-1, 2]: the solve sticks at x = -1, where
    # the level slope 1/m'(-1) is negative on a row tagged inc
    ("inv(x^2, -1, 2)", 1, "segment tagged inc decreases"),
], ids=["infinite-in-m", "infinite-end", "reversed", "empty",
        "variable-end", "not-monotone"])
def test_inv_rows_reject_outside_input(formula, code, fragment, tmp_path,
                                       capsys):
    path = write_doc(tmp_path, (
        "name: t\nrepresentation: cuts\n"
        "left [0, 1] inc: %s\nright [0, 1] dec: 3 - a\n" % formula))
    got, out, err = run(["validate", path], capsys)
    assert got == code
    assert fragment in err
    assert "Traceback" not in err


def test_parse_error_duplicate_header(tmp_path):
    path = write_doc(tmp_path, (
        "name: t\nname: u\nrepresentation: cuts\n"
        "left [0, 1] inc: a - 1\nright [0, 1] dec: 1 - a\n"))
    with pytest.raises(ParseError, match="line 2: duplicate name"):
        load_document(path)


def test_parse_error_missing_representation(tmp_path):
    path = write_doc(tmp_path,
                     "name: t\nleft [0, 1] inc: a - 1\n"
                     "right [0, 1] dec: 1 - a\n")
    with pytest.raises(ParseError, match="missing or bad representation"):
        load_document(path)


def test_parse_error_cut_row_in_membership_doc(tmp_path):
    path = write_doc(tmp_path, (
        "name: t\nrepresentation: membership\n"
        "left [0, 1] inc: a - 1\n"))
    with pytest.raises(ParseError, match="cut rows belong to cuts"):
        load_document(path)


def test_invalid_document_names_failed_condition(tmp_path):
    """Curves that cross load only with check=False."""
    path = write_doc(tmp_path, (
        "name: crossed\nrepresentation: cuts\n"
        "left [0, 1] inc: a\nright [0, 1] dec: -1 - a\n"))
    with pytest.raises(RepresentationError, match="'iv'"):
        load_document(path)
    fz = load_document(path, check=False)
    assert fz.left.value(1.0) > fz.right.value(1.0)


def test_parse_error_exits_2_via_cli(tmp_path, capsys):
    path = write_doc(tmp_path, "representation: cuts\nnonsense\n")
    code, out, err = run(["validate", path], capsys)
    assert code == 2
    assert err.startswith("alphacut: parse:")
    assert "unrecognized line" in err


def test_representation_error_exits_1_via_cli(tmp_path, capsys):
    path = write_doc(tmp_path, (
        "name: crossed\nrepresentation: cuts\n"
        "left [0, 1] inc: a\nright [0, 1] dec: -1 - a\n"))
    code, out, err = run(["cut", path, "0.5"], capsys)
    assert code == 1
    assert err.startswith("alphacut: representation:")
    assert "iv" in err


def test_missing_file_exits_1_with_io_prefix(capsys):
    code, out, err = run(["class", "/nonexistent/nowhere.fz"], capsys)
    assert code == 1
    assert err.startswith("alphacut: io:")


def test_usage_errors_raise_systemexit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# Each bad number is rejected by argparse: exit 2 and a usage message
# that names the argument, never a traceback or a silent answer.
BAD_NUMBERS = [
    pytest.param(["sample", "--grid", "0"], "--grid", id="sample-grid-0"),
    pytest.param(["sample", "--grid", "-4"], "--grid", id="sample-grid-neg"),
    pytest.param(["plot", "--grid", "0", "--out", "{tmp}/p.svg"], "--grid",
                 id="plot-grid-0"),
    pytest.param(["scale", "inf", "--out", "{tmp}"], "factor",
                 id="scale-inf"),
    pytest.param(["scale", "nan", "--out", "{tmp}"], "factor",
                 id="scale-nan"),
    pytest.param(["membership", "nan"], "x", id="membership-nan"),
    pytest.param(["membership", "inf"], "x", id="membership-inf"),
    pytest.param(["cut", "nan"], "level", id="cut-nan"),
    pytest.param(["synthesize", "nan", "--out", "{tmp}"], "p",
                 id="synthesize-nan"),
    pytest.param(["synthesize", "0.5", "--lipschitz-cap", "inf",
                  "--out", "{tmp}"], "--lipschitz-cap",
                 id="synthesize-cap-inf"),
    pytest.param(["approximate", "--synthesize", "--p", "nan",
                  "--out", "{tmp}"], "--p", id="approximate-p-nan"),
    pytest.param(["validate", "--tol", "nan"], "--tol", id="validate-tol-nan"),
    pytest.param(["approximate", "--synthesize", "--steps", "0",
                  "--out", "{tmp}"], "--steps", id="approximate-steps-0"),
    pytest.param(["approximate", "--synthesize", "--steps", "-3",
                  "--out", "{tmp}"], "--steps", id="approximate-steps-neg"),
]


@pytest.mark.parametrize("argv,name", BAD_NUMBERS)
def test_bad_numbers_exit_2_naming_the_argument(argv, name, tmp_path,
                                                capsys):
    command, rest = argv[0], argv[1:]
    argv = [command, fixture_path("triangle")] + [
        a.replace("{tmp}", str(tmp_path)) for a in rest]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: alphacut %s" % command in err
    assert "error: argument %s:" % name in err
    assert not os.listdir(str(tmp_path))


# ------------------------------------------------------------- subcommands

def test_validate_fixture_ok(capsys):
    code, out, err = run(["validate", fixture_path("tail-jump")], capsys)
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "ok"


def test_validate_reports_invalid_with_exit_1(tmp_path, capsys):
    path = write_doc(tmp_path, (
        "name: crossed\nrepresentation: cuts\n"
        "left [0, 1] inc: a\nright [0, 1] dec: -1 - a\n"))
    code, out, err = run(["validate", path], capsys)
    assert code == 1
    assert out.rstrip().splitlines()[-1] == "invalid"
    assert "iv" in out


def test_cut_prints_endpoints(capsys):
    code, out, err = run(["cut", fixture_path("triangle"), "0.5"], capsys)
    assert code == 0
    assert out.strip() == "-0.5 0.5"


def test_cut_strong_differs_on_plateau(capsys):
    path = fixture_path("plateau-quadratic")
    _, plain, _ = run(["cut", path, "0.5"], capsys)
    _, strong, _ = run(["cut", path, "0.5", "--strong"], capsys)
    assert plain.strip() == "-1 1"
    assert strong.strip() == "-0.5 0.5"


def test_cut_level_outside_range_exits_1(capsys):
    code, out, err = run(["cut", fixture_path("triangle"), "1.5"], capsys)
    assert code == 1
    assert err.startswith("alphacut: value:")


def test_membership_prints_value(capsys):
    code, out, err = run(
        ["membership", fixture_path("tail-jump"), "2.5"], capsys)
    assert code == 0
    assert out.strip() == "0.5"


def test_class_prints_flags(capsys):
    code, out, err = run(["class", fixture_path("split-peak")], capsys)
    assert code == 0
    assert out.strip() == "in_FT=true in_FN=true in_FC=false in_FD=false"


def test_classify_smooth_fixture_prints_none(capsys):
    code, out, err = run(["classify", fixture_path("parabola")], capsys)
    assert code == 0
    assert out.strip() == "none"


def test_classify_lists_points_with_kind_and_limit(capsys):
    code, out, err = run(["classify", fixture_path("tail-jump")], capsys)
    assert code == 0
    lines = out.rstrip().splitlines()
    assert len(lines) == 2
    assert "x=2 kind=kink branch=core-endpoint level=1 limit=-" == lines[0]
    assert lines[1].startswith("x=2.5 kind=jump branch=right level=0.5")
    limit = float(lines[1].split("limit=")[1])
    assert limit == 0.3


def test_metric_prints_value_and_gap(capsys):
    code, out, err = run(
        ["metric", fixture_path("triangle"), fixture_path("parabola")],
        capsys)
    assert code == 0
    m = re.match(r"d=(\S+) gap=(\S+)$", out.strip())
    assert m
    assert float(m.group(1)) == 0.25
    assert 0.0 < float(m.group(2)) < 1.0


def test_convolve_writes_loadable_document(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        ["convolve", fixture_path("asymmetric-kink"),
         fixture_path("parabola"), "--out", out_dir], capsys)
    assert code == 0
    path = out.strip()
    assert path == os.path.join(out_dir, "conv_asymmetric-kink_parabola.fz")
    got = load_document(path)
    ref = convolve(load_fixture("asymmetric-kink"), load_fixture("parabola"))
    for a in LEVELS:
        assert alpha_cut(got, a) == alpha_cut(ref, a)
        assert strong_cut(got, a) == strong_cut(ref, a)


def test_scale_writes_loadable_document(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        ["scale", fixture_path("triangle"), "2.0", "--out", out_dir], capsys)
    assert code == 0
    path = out.strip()
    assert os.path.basename(path) == "scale_2.0_triangle.fz"
    got = load_document(path)
    ref = scale(2.0, load_fixture("triangle"))
    for a in LEVELS:
        assert alpha_cut(got, a) == alpha_cut(ref, a)


@pytest.mark.parametrize("argv", [["convolve", "{doc}", "{triangle}"],
                                  ["scale", "{doc}", "2.0"]],
                         ids=["convolve", "scale"])
def test_bisection_numbers_save_after_convolve_and_scale(argv, tmp_path,
                                                         capsys):
    """A membership document with x^3 pieces gives saveable results."""
    doc = write_doc(tmp_path, CUBIC_DOC, "cubic.fz")
    argv = [a.format(doc=doc, triangle=fixture_path("triangle"))
            for a in argv]
    code, out, err = run(argv + ["--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    got = load_document(out.strip())
    u = load_document(doc)
    ref = (convolve(u, load_fixture("triangle")) if argv[0] == "convolve"
           else scale(2.0, u))
    for a in LEVELS:
        assert alpha_cut(got, a) == alpha_cut(ref, a)


# each saving command on a document named "a/b": argv, the saved name
# and the number it must hold, built from the loaded document
SLASH_NAME_RUNS = {
    "convolve": (["convolve", "{doc}", "{triangle}"], "conv_a/b_triangle",
                 lambda u: convolve(u, load_fixture("triangle"))),
    "scale": (["scale", "{doc}", "2.0"], "scale_2.0_a/b",
              lambda u: scale(2.0, u)),
    "synthesize": (["synthesize", "{doc}", "0.5"], "smoother_a/b",
                   lambda u: synthesize_smoother(u, 0.5)),
}


@pytest.mark.parametrize("command", sorted(SLASH_NAME_RUNS))
def test_name_with_a_path_separator_saves_directly_in_out(command, tmp_path,
                                                          capsys):
    """The file name replaces the separator; the name header keeps it."""
    with open(fixture_path("triangle")) as fh:
        text = fh.read().replace("name: triangle", "name: a/b")
    doc = write_doc(tmp_path, text)
    out_dir = os.path.join(str(tmp_path), "o")
    argv, name, build = SLASH_NAME_RUNS[command]
    argv = [a.format(doc=doc, triangle=fixture_path("triangle"))
            for a in argv]
    code, out, err = run(argv + ["--out", out_dir], capsys)
    assert (code, err) == (0, "")
    path = out.splitlines()[0]
    fname = name.replace("/", "_") + ".fz"
    assert path == os.path.join(out_dir, fname)
    assert os.listdir(out_dir) == [fname]
    got = load_document(path)
    assert got.name == name
    ref = build(load_document(doc))
    for a in LEVELS:
        assert alpha_cut(got, a) == alpha_cut(ref, a)
        assert strong_cut(got, a) == strong_cut(ref, a)


def test_smooth_check_failing_pair_exits_1_and_names_condition(capsys):
    code, out, err = run(
        ["smooth-check", fixture_path("asymmetric-kink"),
         fixture_path("parabola")], capsys)
    assert code == 1
    assert re.search(r"^iv-1\s+fail", out, re.M)
    assert out.rstrip().splitlines()[-1] == "theorem: none"


def test_smooth_check_passing_pair_exits_0(capsys):
    code, out, err = run(
        ["smooth-check", fixture_path("triangle"), fixture_path("parabola")],
        capsys)
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "theorem: differentiable-branches"


def test_synthesize_writes_smoother_and_reports_theorem(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        ["synthesize", fixture_path("tail-jump"), "0.5", "--out", out_dir],
        capsys)
    assert code == 0
    lines = out.rstrip().splitlines()
    path = lines[0]
    assert os.path.basename(path) == "smoother_tail-jump.fz"
    assert lines[1] == "theorem: general"
    w = load_document(path)
    assert w.support.lo <= -0.0 <= 0.0 <= w.support.hi


def test_synthesize_preserve_core_centers_the_core(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        ["synthesize", fixture_path("plateau-quadratic"), "0.5",
         "--preserve-core", "--out", out_dir], capsys)
    assert code == 0
    w = load_document(out.rstrip().splitlines()[0])
    assert w.core.lo == 0.0 and w.core.hi == 0.0


def test_approximate_with_explicit_smoother(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        ["approximate", fixture_path("triangle"), fixture_path("parabola"),
         "--steps", "3", "--out", out_dir], capsys)
    assert code == 0
    rpath = out.rstrip().splitlines()[-1]
    assert rpath == os.path.join(out_dir, "report.json")
    with open(rpath) as fh:
        doc = json.load(fh)
    assert doc["target"] == "triangle"
    assert doc["smoother"] == "parabola"
    assert doc["schedule"] == [1.0, 0.5, 1.0 / 3.0]
    assert doc["monotone"] is True
    assert doc["all_within_bound"] is True
    assert len(doc["rows"]) == 3
    for row, path in zip(doc["rows"], doc["steps"]):
        assert row["measured"] <= row["bound"] + row["gap"] + 1e-12
        assert row["ok"] is True
        assert row["smooth"] is True
        step = load_document(path)
        assert step.support.width > 0.0
    pres = doc["preservation"]
    assert pres["premises_hold"] is True
    assert pres["smoother_constant"] == 2.0
    assert pres["core_preserved"] is True
    assert pres["lipschitz_ok"] is True


def test_approximate_synthesize_route(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, err = run(
        ["approximate", fixture_path("tail-jump"), "--synthesize",
         "--steps", "2", "--out", out_dir], capsys)
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["report.json", "step_001.fz", "step_002.fz"]
    with open(os.path.join(out_dir, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["all_within_bound"] is True
    assert len(doc["rows"]) == 2
    assert "preservation" in doc


def test_approximate_without_smoother_exits_1(tmp_path, capsys):
    code, out, err = run(
        ["approximate", fixture_path("triangle"), "--out", str(tmp_path)],
        capsys)
    assert code == 1
    assert err.startswith("alphacut: value:")
    assert "--synthesize" in err


def test_approximate_refuses_unsuitable_smoother(tmp_path, capsys):
    code, out, err = run(
        ["approximate", fixture_path("asymmetric-kink"),
         fixture_path("parabola"), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("alphacut: smoother-condition:")
    assert "iv-1" in err


# ------------------------------------------------------------ exports

def test_sample_csv_is_deterministic(capsys):
    args = ["sample", fixture_path("plateau-quadratic"), "--grid", "64"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second
    assert first.splitlines()[0] == "alpha,lo,hi"
    assert "\r" not in first
    assert first.endswith("\n")


def test_sample_includes_breakpoint_levels(capsys):
    """A uniform grid of 3 misses 0.5; the plateau row must still appear."""
    code, out, err = run(
        ["sample", fixture_path("plateau-quadratic"), "--grid", "3"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.rstrip().splitlines()[1:]]
    levels = [float(r[0]) for r in rows]
    assert 0.5 in levels
    at_half = rows[levels.index(0.5)]
    assert float(at_half[1]) == -1.0 and float(at_half[2]) == 1.0


def test_sample_rows_parse_back_to_cuts(capsys):
    code, out, err = run(
        ["sample", fixture_path("sine-bridge"), "--grid", "16"], capsys)
    fz = load_fixture("sine-bridge")
    for line in out.rstrip().splitlines()[1:]:
        a_s, lo_s, hi_s = line.split(",")
        iv = alpha_cut(fz, float(a_s))
        assert float(lo_s) == iv.lo
        assert float(hi_s) == iv.hi


def test_sample_membership_csv(tmp_path, capsys):
    out_file = os.path.join(str(tmp_path), "tri.csv")
    code, out, err = run(
        ["sample", fixture_path("triangle"), "--membership",
         "--grid", "32", "--out", out_file], capsys)
    assert code == 0
    with open(out_file) as fh:
        lines = fh.read().rstrip().splitlines()
    assert lines[0] == "x,mu"
    assert len(lines) >= 513
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)
    mus = [float(l.split(",")[1]) for l in lines[1:]]
    by_x = dict(zip(xs, mus))
    assert by_x[0.0] == 1.0
    assert mus[0] == 0.0 and mus[-1] == 0.0
    assert all(0.0 <= m <= 1.0 for m in mus)


def test_plot_svg_shape(tmp_path, capsys):
    out_file = os.path.join(str(tmp_path), "both.svg")
    code, out, err = run(
        ["plot", fixture_path("triangle"), fixture_path("parabola"),
         "--grid", "32", "--out", out_file], capsys)
    assert code == 0
    assert out.strip() == out_file
    with open(out_file) as fh:
        svg = fh.read()
    assert svg.startswith("<svg")
    assert svg.endswith("\n")
    polylines = re.findall(r'<polyline[^>]*points="([^"]+)"', svg)
    assert len(polylines) == 2
    for pts in polylines:
        assert len(pts.split()) >= 513
    assert "triangle" in svg and "parabola" in svg


def test_plot_is_deterministic(tmp_path, capsys):
    a = os.path.join(str(tmp_path), "a.svg")
    b = os.path.join(str(tmp_path), "b.svg")
    for out_file in (a, b):
        run(["plot", fixture_path("split-peak"), "--out", out_file], capsys)
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()


def test_console_script_is_installed():
    proc = subprocess.run(
        ["alphacut", "cut", fixture_path("triangle"), "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-0.5 0.5"
