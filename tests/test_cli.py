import json
import xml.etree.ElementTree as ET

import pytest

from slopenorm import fig8_dataset, from_document, load, pretzel_dataset, save, twobridge_dataset
from slopenorm.cli import VERIFY_STATEMENTS, run


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


def _json_reports(capsys, argv):
    assert run([*argv, "--format", "json"]) in (0, 1)
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "document",
    [
        fig8_dataset(),
        pretzel_dataset(7),
        pretzel_dataset(9),
        twobridge_dataset(6),
        from_document(OUT_OF_ORDER_DOC),
    ],
    ids=lambda m: m.name,
)
def test_verify_statement_matches_verify_all(tmp_path, capsys, document):
    path = tmp_path / "m.json"
    save(document, path)
    everything = _json_reports(capsys, ["verify", "all", "-m", str(path)])
    for statement in VERIFY_STATEMENTS[:-1]:
        expected = [r for r in everything if r["statement"].split("(")[0] == statement]
        if expected:
            assert _json_reports(capsys, ["verify", statement, "-m", str(path)]) == expected, statement
