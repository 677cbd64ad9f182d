import io
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from slopenorm import (
    NOT_APPLICABLE,
    VerifyReport,
    document_text,
    fig8_dataset,
    from_document,
    load,
    pretzel_dataset,
    save,
    twobridge_dataset,
)
from slopenorm.cli import STATEMENT_SLOPES, run


@pytest.fixture()
def fig8_path(tmp_path):
    path = tmp_path / "fig8.json"
    save(fig8_dataset(), path)
    return str(path)


@pytest.fixture()
def pretzel_path(tmp_path):
    path = tmp_path / "p7.json"
    save(pretzel_dataset(7), path)
    return str(path)


def test_eval_norm(fig8_path, capsys):
    assert run(["eval", "norm", "-m", fig8_path, "-r", "1/0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_eval_length(fig8_path, capsys):
    assert run(["eval", "length", "-m", fig8_path, "-r", "4/1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("28 ")
    assert "5.29150262213" in out


def test_eval_distance(capsys, fig8_path):
    assert run(["eval", "distance", "-r", "4/1", "-r", "-4/1"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_eval_json_format(fig8_path, capsys):
    assert run(["eval", "norm", "-m", fig8_path, "-r", "4/1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"quantity": "norm", "slope": "4/1", "value": "16"}


def test_verify_thm3(fig8_path, capsys):
    assert run(["verify", "thm3", "-m", fig8_path, "-r", "4/1"]) == 0
    assert "holds: 8 > 4" in capsys.readouterr().out


def test_verify_thm1_range(fig8_path, capsys):
    assert run(["verify", "thm1", "-m", fig8_path, "--range", "20"]) == 0
    out = capsys.readouterr().out
    assert "holds:" in out and "slopes" in out
    passed, total = out.split("holds:")[1].split()[0].split("/")
    assert passed == total


def test_verify_all(fig8_path, capsys):
    assert run(["verify", "all", "-m", fig8_path]) == 0
    out = capsys.readouterr().out
    assert "thm2" in out and "cor-ubdiam" in out
    assert "fails" not in out


def test_verify_all_json(fig8_path, capsys):
    assert run(["verify", "all", "-m", fig8_path, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["status"] != "fails" for r in reports)
    assert {"statement", "status", "lhs", "rhs", "witnesses"} <= set(reports[0])


def test_verify_negative_slope_flags(fig8_path, capsys):
    assert run(["verify", "prop-norm", "-m", fig8_path, "-r", "5/1", "-r", "-5/1"]) == 0
    assert "equality: 10 = 10" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["-r", "--s", "--sl", "--slo", "--slop", "--slope"])
def test_negative_slope_after_every_slope_spelling(fig8_path, capsys, flag):
    # argparse reads each prefix of --slope as --slope, so each takes "-4/1"
    assert run(["verify", "thm3", "-m", fig8_path, flag, "-4/1"]) == 0
    assert capsys.readouterr().out == "thm3(-4/1): holds: 8 > 4\n"
    assert run(["eval", "norm", "-m", fig8_path, flag, "-4/1"]) == 0
    assert capsys.readouterr().out == "16\n"
    # commands that read no slope still reject it
    assert run(["report", "-m", fig8_path, flag, "-4/1"]) == 2
    assert run(["family", "fig8", flag, "-4/1"]) == 2
    assert capsys.readouterr().out == ""


def test_verify_prop4_pretzel(pretzel_path, capsys):
    assert run(["verify", "prop4", "-m", pretzel_path]) == 0
    assert "holds" in capsys.readouterr().out


def test_verify_deterministic_output(fig8_path, capsys):
    run(["verify", "all", "-m", fig8_path])
    first = capsys.readouterr().out
    run(["verify", "all", "-m", fig8_path])
    assert capsys.readouterr().out == first


def test_family_fig8_stdout(capsys):
    assert run(["family", "fig8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert from_document(doc) == fig8_dataset()


def test_family_pretzel_out(tmp_path, capsys):
    out = tmp_path / "p11.json"
    assert run(["family", "pretzel", "--n", "11", "--out", str(out)]) == 0
    assert load(out) == pretzel_dataset(11)


def test_family_twobridge(capsys):
    assert run(["family", "twobridge", "--crossings", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["boundary_slopes"] == ["0/1", "12/1"]


@pytest.mark.parametrize("argv", [["fig8"], ["pretzel", "--n", "13"], ["twobridge", "--crossings", "9"]])
def test_family_stdout_matches_out_file(tmp_path, capsys, argv):
    assert run(["family", *argv]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "family.json"
    assert run(["family", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def test_family_missing_parameter(capsys):
    assert run(["family", "pretzel"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "fig8", "--n", "7"], "fig8 takes no --n"),
        (["family", "fig8", "--crossings", "7"], "fig8 takes no --crossings"),
        (["family", "pretzel", "--n", "7", "--crossings", "5"], "pretzel takes no --crossings"),
        (["family", "twobridge", "--crossings", "5", "--n", "9"], "twobridge takes no --n"),
        (["family", "pretzel", "--crossings", "5"], "pretzel needs --n K"),
        (["family", "twobridge", "--n", "9"], "twobridge needs --crossings C"),
        (["eval", "distance", "-m", "/nonexistent.json", "-r", "1/0", "-r", "0/1"], "distance takes no -m/--manifold"),
    ],
)
def test_unread_options_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    for extra in ([], ["--out", str(out)]) if argv[0] == "family" else ([],):
        assert run(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


def test_plot_unit_ball(fig8_path, tmp_path, capsys):
    out = tmp_path / "ball.svg"
    assert run(["plot", "unit-ball", "-m", fig8_path, "--out", str(out)]) == 0
    tree = ET.parse(out)  # well-formed XML
    ns = "{http://www.w3.org/2000/svg}"
    polygons = tree.getroot().findall(f".//{ns}polygon")
    ellipses = tree.getroot().findall(f".//{ns}ellipse")
    assert len(polygons) == 1
    assert len(ellipses) == 1
    assert out.read_text() == FIG8_SVG


FIG8_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.15 -1.15 2.3 2.3" width="520" height="520">
  <title>figure-eight: norm unit ball scaled by norm(m) = 4, against the unit-length ellipse</title>
  <line x1="-1.15" y1="0" x2="1.15" y2="0" stroke="#bbbbbb" stroke-width="0.00479167"/>
  <line x1="0" y1="-1.15" x2="0" y2="1.15" stroke="#bbbbbb" stroke-width="0.00479167"/>
  <polygon points="1,-0.25 -1,-0.25 -1,0.25 1,0.25" fill="none" stroke="#1f77b4" stroke-width="0.00958333"/>
  <ellipse cx="0" cy="0" rx="0.288675" ry="1" transform="rotate(-90)" fill="none" stroke="#d62728" stroke-width="0.00958333"/>
</svg>
"""


def thin_doc(g_mm, g_ml, g_ll):
    """A figure-eight document with another Gram matrix."""
    doc = json.loads(document_text(fig8_dataset()))
    doc["cusp"] = {"g_mm": g_mm, "g_ml": g_ml, "g_ll": g_ll}
    return doc


@pytest.mark.parametrize(
    "gram",
    [("1", "100000000", "10000000000000001"), ("1", "100000020", "10000004000000401")],
    ids=["cancels-to-zero", "cancels-below-zero"],
)
def test_plot_unit_ball_on_a_thin_lattice(tmp_path, capsys, gram):
    # determinant 1, so the ellipse's area pi*rx*ry is pi/sqrt(det) = pi; the
    # minor eigenvalue as a float difference would cancel to zero or below it
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(thin_doc(*gram)))
    out = tmp_path / "ball.svg"
    assert run(["plot", "unit-ball", "-m", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ellipse = ET.parse(out).getroot().find("{http://www.w3.org/2000/svg}ellipse")
    rx, ry = float(ellipse.get("rx")), float(ellipse.get("ry"))
    det = load(str(path)).cusp.area_squared()
    assert f"{rx * ry:.6g}" == f"{1 / math.sqrt(det):.6g}"


def test_plot_unit_ball_under_the_float_range(tmp_path, capsys):
    # g_mm = 10^-400 is 0.0 as a float; the semi-axis 10^200 is finite, but
    # its eigenvalue 10^-400 is not a positive float
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(thin_doc(f"1/{10**400}", "0", "1")))
    svg = tmp_path / "ball.svg"
    assert run(["plot", "unit-ball", "-m", str(path), "--out", str(svg)]) == 2
    assert capsys.readouterr().err == "error: plot needs cusp and norm values within the float range\n"
    assert not svg.exists()


# a valid document whose squared lengths are past the float range
HUGE_DOC = {
    "name": "huge",
    "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": str(10**309)},
    "culler_shalen": {"terms": [{"slope": "4/1", "weight": 2}, {"slope": "-4/1", "weight": 2}]},
    "boundary_slopes": ["4/1", "-4/1"],
}


def test_decimals_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_DOC))
    length = math.isqrt(10**309 + 16)  # the length of 4/1, to well past 12 digits
    assert run(["eval", "length", "-m", str(path), "-r", "4/1"]) == 0
    assert capsys.readouterr().out == f"{10**309 + 16} (length {length:.12g})\n"
    assert run(["verify", "prop-length", "-m", str(path)]) == 0
    assert f"(decimals: {2 * length:.12g} vs 8)" in capsys.readouterr().out
    for command in (["report"], ["verify", "all"]):
        assert run([*command, "-m", str(path)]) == 1  # thm1 fails at 4/1 and -4/1
        captured = capsys.readouterr()
        assert "thm1(4/1)" in captured.out and "prop-length(4/1, -4/1)" in captured.out
        assert captured.err == ""
    svg = tmp_path / "ball.svg"
    assert run(["plot", "unit-ball", "-m", str(path), "--out", str(svg)]) == 2
    assert capsys.readouterr().err == "error: plot needs cusp and norm values within the float range\n"
    assert not svg.exists()


def test_report(fig8_path, capsys):
    assert run(["report", "-m", fig8_path]) == 0
    out = capsys.readouterr().out
    assert "manifold: figure-eight" in out
    assert "thm3(4/1)" in out


def test_usage_errors(capsys, tmp_path):
    assert run(["verify", "nonsense", "-m", "x.json"]) == 2
    capsys.readouterr()
    assert run(["eval", "norm", "-r", "4/1"]) == 2
    assert "manifold file is required" in capsys.readouterr().err
    assert run(["verify", "thm1", "-m", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_data_error_single_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "boundary_slopes": ["2/4"]}')
    assert run(["verify", "thm1", "-m", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not primitive" in err and err.count("\n") == 1


SLOPE_COMMANDS = [["eval", "distance"], ["verify", "thm1", "-m", "FIG8"]]
BAD_SLOPES = [("2/4", "not primitive"), ("-2/4", "not primitive"), ("x", "not a slope: 'x'")]


@pytest.mark.parametrize(
    "argv, message",
    [  # a slope that does not parse, after the meridian
        pytest.param([*command, "-r", "1/0", "-r", bad], f"-r {bad}: {reason}", id=f"{bad}-{reason}-command{i}")
        for bad, reason in BAD_SLOPES
        for i, command in enumerate(SLOPE_COMMANDS)
    ]
    + [  # slopes that parse but that the check cannot take
        pytest.param(
            ["verify", "thm3", "-m", "FIG8", "-r", "4/1", "-r", "5/1"], "-r 5/1: not a boundary slope", id="thm3-not-boundary"
        ),
        pytest.param(["verify", "thm3", "-m", "FIG8", "-r", "1/0"], "-r 1/0: infinite slope", id="thm3-infinite"),
        pytest.param(
            ["verify", "prop-norm", "-m", "FIG8", "-r", "1/0", "-r", "4/1"], "-r 1/0 -r 4/1: infinite slope", id="prop-norm-infinite"
        ),
        pytest.param(
            ["verify", "thm2", "-m", "FIG8", "-r", "4/1", "-r", "1/0"], "-r 4/1 -r 1/0: infinite slope", id="thm2-infinite"
        ),
    ]
    + [  # a pair check needs two distinct slopes
        pytest.param(
            ["verify", statement, "-m", "FIG8", "-r", "4/1", "-r", "4/1"],
            "-r 4/1 -r 4/1: needs two distinct slopes",
            id=f"{statement}-same-slope",
        )
        for statement in ("thm2", "prop-length", "prop-norm")
    ],
)
def test_bad_slope_argument_named(fig8_path, capsys, argv, message):
    assert run([fig8_path if arg == "FIG8" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("separator", ["\n", "\u2028"], ids=["newline", "U+2028"])
def test_raw_slope_text_keeps_one_error_line(capsys, separator):
    text = f"1{separator}checks: holds 99"
    assert run(["eval", "distance", "-r", text, "-r", "1/1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: -r 1\ufffdchecks: holds 99: not a slope: {text!r}\n"


def test_exit_code_on_failing_check(tmp_path, capsys):
    # inconsistent data: a surface whose slope is too long for the cusp shape
    doc = {
        "name": "inconsistent",
        "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": "400"},
        "boundary_slopes": ["0/1", "1/1"],
        "surfaces": [
            {"slope": "0/1", "euler": -1, "boundary_components": 1},
            {"slope": "1/1", "euler": -1, "boundary_components": 1},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", "all", "-m", str(path)]) == 1
    assert "fails" in capsys.readouterr().out


@pytest.mark.parametrize("statement", ["thm2", "prop-length", "prop-norm"])
@pytest.mark.parametrize("slopes", [["5/1"], ["5/1", "-5/1", "0/1"]])
def test_pair_statements_need_two_slopes(fig8_path, capsys, statement, slopes):
    argv = ["verify", statement, "-m", fig8_path]
    for s in slopes:
        argv += ["-r", s]
    assert run(argv) == 2
    assert "expected 2 slope argument(s)" in capsys.readouterr().err


@pytest.mark.parametrize("statement", ["prop4", "prop6", "cor-ubdiam", "cor-euler", "all"])
def test_slopes_rejected_where_unread(pretzel_path, capsys, statement):
    assert run(["verify", statement, "-m", pretzel_path, "-r", "16/1"]) == 2
    assert "takes no -r/--slope" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "thm1"], ["verify", "all"], ["report"]])
@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_range_must_be_positive(fig8_path, capsys, command, value):
    assert run([*command, "-m", fig8_path, "--range", value]) == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "thm1"], ["verify", "all"], ["report"]])
def test_range_has_a_maximum(fig8_path, capsys, command):
    assert run([*command, "-m", fig8_path, "--range", str(10**10)]) == 2
    assert "argument --range: expected at most 1000000, got '10000000000'" in capsys.readouterr().err


@pytest.mark.parametrize("statement", ["thm2", "thm3", "prop-norm", "prop6"])
def test_range_rejected_where_unread(fig8_path, capsys, statement):
    assert run(["verify", statement, "-m", fig8_path, "--range", "5"]) == 2
    assert "--range applies only to thm1 and all" in capsys.readouterr().err


def test_range_rejected_with_slopes(fig8_path, capsys):
    assert run(["verify", "thm1", "-m", fig8_path, "--range", "5", "-r", "4/1"]) == 2
    assert "without -r/--slope" in capsys.readouterr().err


# surfaces listed against slope order, so pairs taken in file order would differ
OUT_OF_ORDER_DOC = {
    "name": "out-of-order",
    "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": "400", "maximal": True},
    "culler_shalen": {"terms": [{"slope": "20/1", "weight": 2}, {"slope": "16/1", "weight": 2}]},
    "boundary_slopes": ["20/1", "16/1", "1/0"],
    "surfaces": [
        {"slope": "20/1", "euler": -1, "boundary_components": 1, "ideal_point": True},
        {"slope": "16/1", "euler": -3, "boundary_components": 1, "ideal_point": True},
        {"slope": "1/0", "euler": -2, "boundary_components": 2},
    ],
}


# the example document of the README
README_DOC = {
    "name": "figure-eight",
    "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": "12", "maximal": True},
    "culler_shalen": {"terms": [{"slope": "4/1", "weight": 2}, {"slope": "-4/1", "weight": 2}]},
    "boundary_slopes": ["4/1", "-4/1"],
    "surfaces": [{"slope": "4/1", "euler": -1, "boundary_components": 1, "strict": True, "ideal_point": True}],
}

ONE_FINITE_SLOPE_DOC = {
    "name": "one-finite-slope",
    "culler_shalen": {"terms": [{"slope": "3/1", "weight": 2}, {"slope": "1/0", "weight": 2}]},
    "boundary_slopes": ["3/1", "1/0"],
}

CUSP_ONLY_DOC = {
    "name": "cusp-only",
    "cusp": {"g_mm": "1", "g_ml": "1/2", "g_ll": "7"},
    "boundary_slopes": ["0/1", "1/1"],
}

BARE_DOC = {"name": "bare", "boundary_slopes": ["1/1"]}


def _json_reports(capsys, argv):
    code = run([*argv, "--format", "json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == (1 if any(r["status"] == "fails" for r in reports) else 0)
    return reports


@pytest.mark.parametrize(
    "document",
    [
        fig8_dataset(),
        pretzel_dataset(7),
        pretzel_dataset(9),
        twobridge_dataset(6),
        from_document(OUT_OF_ORDER_DOC),
        from_document({**README_DOC, "name": "readme-example"}),
        from_document(ONE_FINITE_SLOPE_DOC),
        from_document(CUSP_ONLY_DOC),
        from_document(BARE_DOC),
    ],
    ids=lambda m: m.name,
)
def test_verify_statement_matches_verify_all(tmp_path, capsys, document):
    path = tmp_path / "m.json"
    save(document, path)
    everything = _json_reports(capsys, ["verify", "all", "-m", str(path)])
    finite = document.boundary_slopes.finite
    for statement in list(STATEMENT_SLOPES)[:-1]:
        expected = [r for r in everything if r["statement"].split("(")[0] == statement] or [
            VerifyReport(statement, NOT_APPLICABLE, detail=f"no {statement} check applies to {document.name}").to_dict()
        ]
        assert _json_reports(capsys, ["verify", statement, "-m", str(path)]) == expected, statement
        if statement in ("prop-length", "prop-norm") and len(finite) >= 2:
            # the extremal pair given with -r is the pair checked without it
            extremal = ["-r", str(finite[-1]), "-r", str(finite[0])]
            assert _json_reports(capsys, ["verify", statement, "-m", str(path), *extremal]) == expected, statement


# ONE_FINITE_SLOPE_DOC on a maximal cusp: its one finite slope is integral
ONE_FINITE_SLOPE_MAXIMAL_DOC = {
    **ONE_FINITE_SLOPE_DOC,
    "name": "one-finite-slope-maximal",
    "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": "12", "maximal": True},
}

H, E, F, NA = "holds", "equality", "fails", NOT_APPLICABLE
# the statuses `verify STMT` prints, in order, for each statement of
# STATEMENT_SLOPES on each document shape
STATEMENT_GRID = {
    "figure-eight": (  # cusp and norm data, no surface pairs
        fig8_dataset(),
        {
            "thm1": [H, H, H], "thm2": [H], "thm3": [H, H], "prop-length": [H], "prop-norm": [E],
            "prop4": [NA], "prop6": [NA], "cor-ubdiam": [E], "cor-euler": [NA], "length-bound": [NA],
            "all": [H, H, H, H, H, E, H, H, E],
        },
    ),
    "readme-example": (  # the figure-eight with one ideal-point surface, at 4/1
        from_document({**README_DOC, "name": "readme-example"}),
        {
            "thm1": [H, H, H], "thm2": [H], "thm3": [H, H], "prop-length": [H], "prop-norm": [E],
            "prop4": [F], "prop6": [NA], "cor-ubdiam": [E], "cor-euler": [NA], "length-bound": [H],
            "all": [H, H, H, H, H, E, H, H, E, F, H],
        },
    ),
    "cusp-only": (  # no norm data
        from_document(CUSP_ONLY_DOC),
        {
            "thm1": [NA], "thm2": [NA], "thm3": [NA], "prop-length": [H], "prop-norm": [NA],
            "prop4": [NA], "prop6": [NA], "cor-ubdiam": [NA], "cor-euler": [NA], "length-bound": [NA],
            "all": [H],
        },
    ),
    "pretzel": (  # no cusp, no norm terms, two surfaces
        pretzel_dataset(7),
        {
            "thm1": [NA], "thm2": [NA], "thm3": [NA], "prop-length": [NA], "prop-norm": [NA],
            "prop4": [H], "prop6": [H], "cor-ubdiam": [NA], "cor-euler": [H], "length-bound": [NA],
            "all": [H, H, H],
        },
    ),
    "one-finite-slope": (  # norm data, no cusp
        from_document(ONE_FINITE_SLOPE_DOC),
        {
            "thm1": [NA], "thm2": [NA], "thm3": [NA], "prop-length": [NA], "prop-norm": [NA],
            "prop4": [NA], "prop6": [NA], "cor-ubdiam": [NA], "cor-euler": [NA], "length-bound": [NA],
            "all": [NA],
        },
    ),
    "one-finite-slope-maximal": (  # thm1 fails at 3/1: 9 * 2^2 < 4 * 21
        from_document(ONE_FINITE_SLOPE_MAXIMAL_DOC),
        {
            "thm1": [F, H], "thm2": [NA], "thm3": [NA], "prop-length": [NA], "prop-norm": [NA],
            "prop4": [NA], "prop6": [NA], "cor-ubdiam": [NA], "cor-euler": [NA], "length-bound": [NA],
            "all": [F, H],
        },
    ),
}


@pytest.mark.parametrize(
    "shape, statement",
    [(shape, statement) for shape in STATEMENT_GRID for statement in STATEMENT_SLOPES],
    ids=lambda value: value,
)
def test_statement_grid(tmp_path, capsys, shape, statement):
    document, expected = STATEMENT_GRID[shape]
    path = tmp_path / "m.json"
    save(document, path)
    assert run(["verify", statement, "-m", str(path), "--format", "json"]) == (1 if F in expected[statement] else 0)
    assert [r["status"] for r in json.loads(capsys.readouterr().out)] == expected[statement]


# a maximal cusp, norm data, two finite boundary slopes and two ideal-point
# surfaces: standard_reports prints a line of every statement on it
EVERY_STATEMENT_DOC = {
    **README_DOC,
    "name": "every-statement",
    "surfaces": [
        {"slope": "4/1", "euler": -1, "boundary_components": 1, "ideal_point": True},
        {"slope": "-4/1", "euler": -2, "boundary_components": 1, "ideal_point": True},
    ],
}


def test_statement_table_drift(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(EVERY_STATEMENT_DOC))
    everything = _json_reports(capsys, ["verify", "all", "-m", str(path)])
    prefixes = list(dict.fromkeys(r["statement"].split("(")[0] for r in everything))
    assert prefixes == [s for s in STATEMENT_SLOPES if s != "all"]
    # each prefix is a verify choice that prints exactly its lines of verify all
    for prefix in prefixes:
        assert _json_reports(capsys, ["verify", prefix, "-m", str(path)]) == [
            r for r in everything if r["statement"].split("(")[0] == prefix
        ], prefix
    # the README's statement table lists the same statements in the same order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| statement "):].split("\n\n")[0]
    assert re.findall(r"^\| `([\w-]+)` ", table, re.M) == prefixes
    assert run(["verify", "length-bound", "-m", str(path), "-r", "4/1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: length-bound takes no -r/--slope arguments\n"


@pytest.mark.parametrize("document", [ONE_FINITE_SLOPE_DOC, ONE_FINITE_SLOPE_MAXIMAL_DOC], ids=lambda d: d["name"])
def test_one_finite_slope_with_slopes(tmp_path, capsys, document):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    assert run(["verify", "thm3", "-m", str(path), "-r", "3/1"]) == 0
    assert capsys.readouterr().out == "thm3(3/1): not-applicable  (needs two finite boundary slopes)\n"
    assert run(["verify", "thm2", "-m", str(path), "-r", "3/1", "-r", "3/1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: -r 3/1 -r 3/1: needs two distinct slopes\n"


# a bad -r slope is rejected on every document, whatever data the check would need
BAD_SLOPE_TABLE = [
    (["verify", "prop-length", "-m", "DOC", "-r", "3/1", "-r", "3/1"], "-r 3/1 -r 3/1: needs two distinct slopes"),
    (["verify", "prop-norm", "-m", "DOC", "-r", "1/0", "-r", "2/1"], "-r 1/0 -r 2/1: infinite slope"),
    (["verify", "thm3", "-m", "DOC", "-r", "5/1"], "-r 5/1: not a boundary slope"),
    (["verify", "thm3", "-m", "DOC", "-r", "1/0"], "-r 1/0: infinite slope"),
]


@pytest.mark.parametrize(
    "document, argv, message",
    [
        pytest.param(document, argv, message, id=f"{document['name']}-{' '.join(argv[:2] + argv[4:])}")
        for document in (README_DOC, ONE_FINITE_SLOPE_DOC, CUSP_ONLY_DOC, BARE_DOC)
        for argv, message in BAD_SLOPE_TABLE
    ]
    + [  # a quantity the document has no data for
        pytest.param(CUSP_ONLY_DOC, ["eval", "norm", "-m", "DOC", "-r", "1/1"], "manifold has no norm data", id="eval-norm"),
        pytest.param(ONE_FINITE_SLOPE_DOC, ["eval", "length", "-m", "DOC", "-r", "3/1"], "manifold has no cusp data", id="eval-length"),
        pytest.param(CUSP_ONLY_DOC, ["plot", "unit-ball", "-m", "DOC", "--out", "OUT"], "plot needs both norm and cusp data", id="plot-no-norm"),
        pytest.param(
            ONE_FINITE_SLOPE_DOC, ["plot", "unit-ball", "-m", "DOC", "--out", "OUT"], "plot needs both norm and cusp data", id="plot-no-cusp"
        ),
    ],
)
def test_rejected_on_the_document(tmp_path, capsys, document, argv, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "ball.svg"
    assert run([{"DOC": str(path), "OUT": str(out)}.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


def test_verify_thm1_with_slopes(fig8_path, capsys):
    assert run(["verify", "thm1", "-m", fig8_path, "-r", "4/1", "-r", "1/0"]) == 0
    assert capsys.readouterr().out == (
        "thm1(4/1): holds: 2304 > 112  (norm = 16, squared length = 28)\n"
        "thm1(1/0): holds: 144 > 4  (norm = 4, squared length = 1)\n"
    )


def test_report_json_is_verify_all(fig8_path, capsys):
    assert run(["report", "-m", fig8_path, "--format", "json"]) == 0
    report = capsys.readouterr().out
    assert run(["verify", "all", "-m", fig8_path, "--format", "json"]) == 0
    assert report == capsys.readouterr().out and len(json.loads(report)) == 9


@pytest.mark.parametrize("name", ["a<b & c", "ctl\u0001x", "Möbius ∞ <knot>", "lone \ud800 surrogate"])
def test_plot_title_is_xml_text(tmp_path, capsys, name):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**README_DOC, "name": name}))
    out = tmp_path / "ball.svg"
    assert run(["plot", "unit-ball", "-m", str(path), "--out", str(out)]) == 0
    title = ET.parse(out).getroot().find("{http://www.w3.org/2000/svg}title").text
    # a character XML 1.0 cannot hold reads back as U+FFFD
    want = name.replace("\u0001", "\ufffd").replace("\ud800", "\ufffd")
    assert title.startswith(f"{want}: norm unit ball")


LONE_SURROGATE_DOCS = {
    "failing": {  # the inconsistent document of test_exit_code_on_failing_check
        "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": "400"},
        "boundary_slopes": ["0/1", "1/1"],
        "surfaces": [
            {"slope": "0/1", "euler": -1, "boundary_components": 1},
            {"slope": "1/1", "euler": -1, "boundary_components": 1},
        ],
    },
    "readme": README_DOC,
    "bare": BARE_DOC,
}


@pytest.mark.parametrize(
    "argv, document, code, line",
    [
        (["report"], "failing", 1, "manifold: \ufffd"),
        (["verify", "prop6"], "readme", 0, "prop6: not-applicable  (no prop6 check applies to \ufffd)"),
        (["verify", "all"], "bare", 0, "all: not-applicable  (no all check applies to \ufffd)"),
        (["report"], "bare", 0, "manifold: \ufffd"),
    ],
    ids=["report-failing", "prop6", "all-bare", "report-bare"],
)
def test_text_output_writes_unencodable_characters_as_replacement(tmp_path, monkeypatch, argv, document, code, line):
    # a name JSON can hold but UTF-8 cannot encode, through a strict UTF-8 stdout
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**LONE_SURROGATE_DOCS[document], "name": "\ud800"}))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run([*argv, "-m", str(path)]) == code
    assert line in stdout.buffer.getvalue().decode("utf-8").splitlines()


CONTROLS = "".join(map(chr, [*range(0x20), 0x7F, *range(0x80, 0xA0), 0x2028, 0x2029]))


@pytest.mark.parametrize(
    "name, shown",
    [
        ("a\nchecks: holds 99", "a\ufffdchecks: holds 99"),
        ("a\u2028checks: holds 99\x85b", "a\ufffdchecks: holds 99\ufffdb"),
        (f"x{CONTROLS}y", "x" + "\ufffd" * len(CONTROLS) + "y"),
    ],
    ids=["newline", "separators", "every-control"],
)
def test_text_output_writes_control_characters_as_replacement(tmp_path, capsys, name, shown):
    # a name must add no line that reads as the report's own, for print or for str.splitlines
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": name, "boundary_slopes": ["3/1", "1/0"]}))
    assert run(["report", "-m", str(path)]) == 0
    assert capsys.readouterr().out == f"manifold: {shown}\nchecks: not-applicable 1\n  all  not-applicable\n"
    assert run(["verify", "prop6", "-m", str(path)]) == 0
    assert capsys.readouterr().out == f"prop6: not-applicable  (no prop6 check applies to {shown})\n"


def test_json_output_keeps_a_lone_surrogate_escaped(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**BARE_DOC, "name": "\ud800"}))
    assert run(["report", "-m", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "no all check applies to \\ud800" in out and json.loads(out)[0]["detail"] == "no all check applies to \ud800"
