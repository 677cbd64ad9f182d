import errno
import json
import os
import random
import threading
from fractions import Fraction

import pytest

from slopenorm import (
    BoundarySlopeSet,
    CSNormData,
    CuspLattice,
    ManifoldData,
    ManifoldFormatError,
    MERIDIAN,
    Slope,
    SurfaceData,
    document_text,
    fig8_dataset,
    from_document,
    load,
    pretzel_dataset,
    save,
    to_document,
    twobridge_dataset,
)
from slopenorm import manifold
from slopenorm.cli import run
from slopenorm.manifold import _consistency_problems as consistency_problems

from randgen import random_lattice, random_norm_data, random_slope

FIG8_DOC = {
    "name": "figure-eight",
    "cusp": {"g_mm": "1", "g_ml": "0", "g_ll": "12", "maximal": True},
    "culler_shalen": {
        "terms": [{"slope": "4/1", "weight": 2}, {"slope": "-4/1", "weight": 2}]
    },
    "boundary_slopes": ["4/1", "-4/1"],
}


def test_fig8_roundtrip(tmp_path):
    m = fig8_dataset()
    path = tmp_path / "fig8.json"
    save(m, path)
    assert load(path) == m


def test_from_document_matches_builtin():
    assert from_document(FIG8_DOC) == fig8_dataset()


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(fig8_dataset(), p1)
    # same data assembled in a different input order
    other = ManifoldData(
        name="figure-eight",
        boundary_slopes=BoundarySlopeSet((Slope(-4, 1), Slope(4, 1))),
        cusp=CuspLattice(1, 0, 12, maximal=True),
        norm=CSNormData(((Slope(-4, 1), 2), (Slope(4, 1), 2))),
    )
    save(other, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rationals_and_slopes_serialized_as_strings(tmp_path):
    path = tmp_path / "fig8.json"
    save(fig8_dataset(), path)
    text = path.read_text()
    assert '"12"' in text
    assert "12.0" not in text
    assert '"-4/1"' in text


def test_odd_weight_rejected():
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["culler_shalen"]["terms"][0]["weight"] = 3
    with pytest.raises(ManifoldFormatError, match="weight must be positive even"):
        from_document(doc)


def test_maximal_flag_checked_on_load():
    doc = {
        "name": "tiny",
        "cusp": {"g_mm": "1/4", "g_ml": "0", "g_ll": "1/4", "maximal": True},
        "boundary_slopes": ["0/1", "1/1"],
    }
    with pytest.raises(ManifoldFormatError, match="maximal flag violates length >= 1"):
        from_document(doc)


def test_norm_slope_membership_checked():
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["boundary_slopes"] = ["4/1", "0/1"]
    with pytest.raises(ManifoldFormatError, match="norm slope -4/1 not in boundary_slopes"):
        from_document(doc)


def test_all_violations_reported_together():
    doc = {
        "name": "",
        "cusp": {"g_mm": "1", "g_ml": "5", "g_ll": "1", "maximal": False},
        "culler_shalen": {"terms": [{"slope": "2/4", "weight": 3}, "4/1"]},
        "boundary_slopes": ["4/1", "x"],
        "surfaces": [["4/1", -1, 1]],
    }
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    message = str(err.value)
    assert "missing or empty name" in message
    assert "not positive definite" in message
    assert "weight must be positive even" in message
    assert "not a slope" in message
    assert "norm term 1 must be an object" in message
    assert "surface 0 must be an object" in message
    assert len(err.value.problems) >= 6


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ManifoldFormatError, match="malformed JSON"):
        load(path)


FIG8_TEXT = document_text(fig8_dataset())
# the name key unquoted: malformed JSON at the start of line 24
FIG8_BAD_TEXT = FIG8_TEXT.replace('"name"', "name")
FIG8_BAD_MESSAGE = (
    "invalid manifold document: malformed JSON: "
    "Expecting property name enclosed in double quotes: line 24 column 3 (char 312)"
)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_translates_newlines(tmp_path, newline):
    # as a file opened in text mode reads them, so a malformed document is
    # reported at the same line, column and character whatever its newlines
    path = tmp_path / "m.json"
    path.write_bytes(FIG8_TEXT.replace("\n", newline).encode())
    assert load(path) == fig8_dataset()
    path.write_bytes(FIG8_BAD_TEXT.replace("\n", newline).encode())
    with pytest.raises(ManifoldFormatError) as err:
        load(path)
    assert str(err.value) == FIG8_BAD_MESSAGE


@pytest.mark.parametrize(
    "data, error, message",
    [
        pytest.param(
            b"\xef\xbb\xbf" + FIG8_TEXT.encode(), ManifoldFormatError,
            "invalid manifold document: malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
            id="bom",
        ),
        pytest.param(
            b"\xff\xfe" + FIG8_TEXT.encode("utf-16-le"), UnicodeDecodeError,
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            id="utf-16",
        ),
        pytest.param(
            FIG8_TEXT.encode().replace(b"figure", b"fig\xffure"), UnicodeDecodeError,
            "'utf-8' codec can't decode byte 0xff in position 324: invalid start byte",
            id="invalid-utf-8",
        ),
    ],
)
def test_load_reads_utf8_only(tmp_path, capsys, data, error, message):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value) == message
    assert run(["report", "-m", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda d: d["boundary_slopes"].__setitem__(1, -4), "boundary slope 1: slope must be a string"),
        (lambda d: d["boundary_slopes"].__setitem__(1, True), "boundary slope 1: slope must be a string"),
        (lambda d: d["boundary_slopes"].__setitem__(1, None), "boundary slope 1: missing slope"),
        (lambda d: d["culler_shalen"]["terms"][0].pop("slope"), "norm term 0: missing slope"),
        (lambda d: d["culler_shalen"]["terms"][0].__setitem__("slope", 4), "norm term 0: slope must be a string"),
        (lambda d: d["culler_shalen"]["terms"][0].__setitem__("slope", 4.0), "norm term 0: slope must be a string"),
        (lambda d: d["surfaces"][0].pop("slope"), "surface 0: missing slope"),
        (lambda d: d["surfaces"][0].__setitem__("slope", [4, 1]), "surface 0: slope must be a string"),
    ],
    ids=["number", "true", "null", "term-missing", "term-number", "term-float", "surface-missing", "surface-list"],
)
def test_slopes_are_json_strings(change, problem):
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["surfaces"] = [{"slope": "4/1", "euler": -1, "boundary_components": 1}]
    change(doc)
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    assert problem in err.value.problems


def test_each_slope_text_parsed_once(monkeypatch):
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["surfaces"] = [{"slope": "4/1", "euler": -1, "boundary_components": 1}]
    parse = Slope.parse.__func__
    texts = []

    def counted(cls, text):
        texts.append(text)
        return parse(cls, text)

    monkeypatch.setattr(Slope, "parse", classmethod(counted))
    m = from_document(doc)
    assert sorted(texts) == ["-4/1", "4/1"]
    # one Slope per text, shared by the boundary set, the norm and the surface
    assert m.surfaces[0].slope is m.boundary_slopes.finite[-1] is m.norm.support[-1]


def test_missing_boundary_slopes():
    with pytest.raises(ManifoldFormatError, match="boundary_slopes"):
        from_document({"name": "x"})


def test_non_positive_definite_gram():
    doc = {
        "name": "x",
        "cusp": {"g_mm": "1", "g_ml": "2", "g_ll": "1"},
        "boundary_slopes": ["0/1", "1/1"],
    }
    with pytest.raises(ManifoldFormatError, match="positive definite"):
        from_document(doc)


def test_surfaces_roundtrip(tmp_path):
    m = pretzel_dataset(7)
    path = tmp_path / "p7.json"
    save(m, path)
    back = load(path)
    assert back == m
    assert back.meridian_norm_certificate == 12
    assert back.surfaces[0].euler == -1 or back.surfaces[1].euler == -1


def test_surface_membership_checked():
    doc = {
        "name": "x",
        "boundary_slopes": ["0/1", "1/1"],
        "surfaces": [
            {"slope": "3/1", "euler": -1, "boundary_components": 1}
        ],
    }
    with pytest.raises(ManifoldFormatError, match="surface slope 3/1 not in boundary_slopes"):
        from_document(doc)


def test_direct_construction_validates_membership():
    with pytest.raises(ValueError, match="norm slope"):
        ManifoldData(
            name="x",
            boundary_slopes=BoundarySlopeSet((Slope(0, 1), Slope(1, 1))),
            norm=CSNormData(((Slope(0, 1), 2), (Slope(3, 1), 2))),
        )
    # the error load raises, with the same problems and text
    with pytest.raises(ManifoldFormatError) as err:
        ManifoldData(name="", boundary_slopes=BoundarySlopeSet((Slope(0, 1),)), meridian_norm_certificate=0)
    assert err.value.problems == ["missing or empty name", "meridian_norm_certificate must be positive"]
    assert str(err.value) == "invalid manifold document: missing or empty name; meridian_norm_certificate must be positive"
    with pytest.raises(ValueError, match="surface slope"):
        ManifoldData(
            name="x",
            boundary_slopes=BoundarySlopeSet((Slope(0, 1), Slope(1, 1))),
            surfaces=(SurfaceData(Slope(5, 1), euler=-1, b=1),),
        )


def test_surface_data_validation():
    with pytest.raises(ValueError, match="positive integer"):
        SurfaceData(Slope(0, 1), euler=-1, b=0)
    with pytest.raises(ValueError, match="integer"):
        SurfaceData(Slope(0, 1), euler=None, b=1)


def test_rational_strings_strict():
    doc = {
        "name": "x",
        "cusp": {"g_mm": "1.5", "g_ml": "0", "g_ll": "2"},
        "boundary_slopes": ["0/1", "1/1"],
    }
    with pytest.raises(ManifoldFormatError, match="not a rational"):
        from_document(doc)


def document_oracle(m: ManifoldData) -> dict:
    """The plain-JSON object from_document reads, built key by key; the text
    document_text writes must be json.dumps of it."""
    doc: dict = {
        "name": m.name,
        "boundary_slopes": [str(s) for s in m.boundary_slopes],
    }
    if m.cusp is not None:
        doc["cusp"] = {
            "g_mm": str(m.cusp.g_mm),
            "g_ml": str(m.cusp.g_ml),
            "g_ll": str(m.cusp.g_ll),
            "maximal": m.cusp.maximal,
        }
    if m.norm is not None:
        doc["culler_shalen"] = {
            "terms": [{"slope": str(s), "weight": a} for s, a in m.norm.terms]
        }
    if m.surfaces:
        doc["surfaces"] = [
            {
                "slope": str(s.slope),
                "euler": s.euler,
                "boundary_components": s.b,
                "strict": s.strict,
                "ideal_point": s.ideal_point,
            }
            for s in m.surfaces
        ]
    if m.meridian_norm_certificate is not None:
        doc["meridian_norm_certificate"] = m.meridian_norm_certificate
    return doc


def test_to_document_shape():
    doc = to_document(fig8_dataset())
    assert set(doc) == {"name", "boundary_slopes", "cusp", "culler_shalen"}
    assert doc["cusp"]["g_ll"] == "12"
    assert doc["boundary_slopes"] == ["-4/1", "4/1"]
    assert doc["culler_shalen"]["terms"][0] == {"slope": "-4/1", "weight": 2}


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("surface", "strict", "false"),
        ("surface", "ideal_point", 1),
        ("cusp", "maximal", "true"),
    ],
)
def test_flags_must_be_booleans(section, key, value):
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["surfaces"] = [{"slope": "4/1", "euler": -1, "boundary_components": 1}]
    target = doc["surfaces"][0] if section == "surface" else doc["cusp"]
    target[key] = value
    owner = "surface 0" if section == "surface" else "cusp"
    with pytest.raises(ManifoldFormatError, match=f"{owner} {key} flag must be a boolean"):
        from_document(doc)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CuspLattice(1, 0, 12, maximal=1), "cusp maximal flag must be a boolean"),
        (lambda: SurfaceData(Slope(4, 1), -1, 1, strict="no"), "surface strict flag must be a boolean"),
        (lambda: SurfaceData(Slope(4, 1), -1, 1, ideal_point=None), "surface ideal_point flag must be a boolean"),
    ],
)
def test_constructors_reject_flags_the_loader_rejects(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_boolean_flags_round_trip(tmp_path):
    m = ManifoldData(
        "flags",
        BoundarySlopeSet((Slope(4, 1), Slope(-4, 1))),
        cusp=CuspLattice(1, 0, 12, maximal=True),
        surfaces=(SurfaceData(Slope(4, 1), -1, 1, strict=True, ideal_point=False),),
    )
    path = tmp_path / "flags.json"
    save(m, path)
    assert load(path) == m


@pytest.mark.parametrize("certificate", [0, -12])
def test_certificate_must_be_positive(certificate):
    doc = to_document(pretzel_dataset(7))
    doc["meridian_norm_certificate"] = certificate
    with pytest.raises(ManifoldFormatError, match="meridian_norm_certificate must be positive"):
        from_document(doc)


def test_certificate_must_match_norm():
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["meridian_norm_certificate"] = 4
    assert from_document(doc).meridian_norm_certificate == 4
    doc["meridian_norm_certificate"] = 6
    with pytest.raises(ManifoldFormatError, match=r"certificate 6 differs from norm\(m\) = 4"):
        from_document(doc)
    with pytest.raises(ValueError, match="differs from norm"):
        ManifoldData(
            name="x",
            boundary_slopes=BoundarySlopeSet((Slope(4, 1), Slope(-4, 1))),
            norm=CSNormData(((Slope(4, 1), 2), (Slope(-4, 1), 2))),
            meridian_norm_certificate=6,
        )


def test_duplicate_keys_rejected(tmp_path):
    path = tmp_path / "dup.json"
    text = json.dumps(FIG8_DOC)
    text = text.replace('"name": "figure-eight"', '"name": "a", "name": "figure-eight"')
    text = text.replace('"g_ll": "12"', '"g_ll": "12", "g_ll": "1"')
    path.write_text(text)
    with pytest.raises(ManifoldFormatError) as err:
        load(path)
    assert sorted(err.value.problems) == ["duplicate key 'g_ll'", "duplicate key 'name'"]


@pytest.mark.parametrize("text", ["12", "+3", "-0/5", " 7/2 ", "-14/4", "0", "٣", "٣/7", 5, -8])
def test_rational_parse_matches_fraction(text):
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["cusp"].update(g_mm="1000", g_ml=text, maximal=False)
    value = from_document(doc).cusp.g_ml
    assert type(value) is Fraction and value == Fraction(text.strip() if isinstance(text, str) else text)


def count_consistency_checks(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return consistency_problems(*args)

    monkeypatch.setattr(manifold, "_consistency_problems", counted)
    return calls


def test_consistency_checked_once_per_load(monkeypatch):
    calls = count_consistency_checks(monkeypatch)
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["surfaces"] = [{"slope": "4/1", "euler": -1, "boundary_components": 1}]
    assert from_document(doc).surfaces[0].slope == Slope(4, 1)
    assert len(calls) == 1
    # inconsistent documents: the problems still come as one list, in order
    doc["surfaces"].append({"slope": "3/1", "euler": -1, "boundary_components": 1})
    doc["meridian_norm_certificate"] = 6
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    assert err.value.problems == [
        "meridian_norm_certificate 6 differs from norm(m) = 4",
        "surface slope 3/1 not in boundary_slopes",
    ]
    assert str(err.value) == "invalid manifold document: " + "; ".join(err.value.problems)
    assert len(calls) == 2
    # an empty name is a consistency problem too, and it is reported first
    doc["name"] = ""
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    assert err.value.problems[0] == "missing or empty name" and len(err.value.problems) == 3
    assert len(calls) == 3


def renamed(m: ManifoldData, name) -> ManifoldData:
    """m with its name replaced, built anew through the constructor."""
    return ManifoldData(name, m.boundary_slopes, m.cusp, m.norm, m.surfaces, m.meridian_norm_certificate)


@pytest.mark.parametrize("name", ["", 7, None, b"fig8"])
def test_constructor_rejects_a_name_the_loader_rejects(name):
    with pytest.raises(ValueError, match="missing or empty name"):
        renamed(fig8_dataset(), name)


def test_consistency_problems_come_before_parse_problems():
    doc = json.loads(json.dumps(FIG8_DOC))
    doc["name"] = 7
    doc["boundary_slopes"].append("x")
    doc["meridian_norm_certificate"] = 6
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    assert err.value.problems == [
        "missing or empty name",
        "meridian_norm_certificate 6 differs from norm(m) = 4",
        "boundary slope 2: not a slope: 'x'",
    ]


def random_manifold(rng: random.Random) -> ManifoldData:
    """A ManifoldData with each optional part present or not: a lattice,
    maximal where its systole allows, a norm with or without a meridian
    term, surfaces with random flags, and a certificate."""
    norm = random_norm_data(rng)
    if rng.random() < 0.3:
        norm = CSNormData(norm.terms + ((MERIDIAN, rng.choice((2, 4))),))
    slopes = set(norm.support) | {random_slope(rng, finite=True) for _ in range(rng.randint(0, 3))}
    lattice = random_lattice(rng)
    if rng.random() < 0.5 and lattice.systole_squared()[0] >= 1:
        lattice = CuspLattice(lattice.g_mm, lattice.g_ml, lattice.g_ll, maximal=True)
    surfaces = tuple(
        SurfaceData(s, rng.randint(-9, 2), rng.randint(1, 4), rng.random() < 0.5, rng.random() < 0.5)
        for s in rng.sample(sorted(slopes, key=str), rng.randint(0, 2))
    )
    with_norm = rng.random() < 0.8
    return ManifoldData(
        f"random-{rng.randrange(1000)}",
        BoundarySlopeSet(tuple(slopes)),
        cusp=lattice if rng.random() < 0.8 else None,
        norm=norm if with_norm else None,
        surfaces=surfaces,
        meridian_norm_certificate=norm.meridian_norm() if with_norm and rng.random() < 0.3 else None,
    )


def test_document_text_matches_json_dumps():
    rng = random.Random(61)
    manifolds = [
        fig8_dataset(),
        *(pretzel_dataset(n) for n in range(7, 30, 2)),
        *(twobridge_dataset(c) for c in range(4, 16)),
        *(random_manifold(rng) for _ in range(200)),
    ]
    names = ['say "hi"', "back\\slash\\", "tab\tline\nnul\x00\x1f\x7f", "Möbius–Thurston ∞ 結び目", "\ud800", "/"]
    assert {m.surfaces != () for m in manifolds} == {True, False}
    assert {m.meridian_norm_certificate is None for m in manifolds} == {True, False}
    assert {m.cusp.maximal for m in manifolds if m.cusp} == {True, False}
    for m in manifolds:
        for name in (m.name, rng.choice(names)):
            named = renamed(m, name)
            oracle = document_oracle(named)
            assert document_text(named) == json.dumps(oracle, indent=2, sort_keys=True) + "\n"
            assert to_document(named) == oracle


# -- saving over what is there -----------------------------------------------------


@pytest.mark.parametrize("old_size", ["longer", "equal", "shorter"])
def test_save_overwrites_any_old_size(tmp_path, old_size):
    m = fig8_dataset()
    new = document_text(m).encode("utf-8")
    old = {"longer": b"x" * (3 * len(new)), "equal": b"y" * len(new), "shorter": b"{}"}[old_size]
    path = tmp_path / "m.json"
    path.write_bytes(old)
    save(m, path)
    assert path.read_bytes() == new


def test_save_to_special_files(tmp_path):
    m = pretzel_dataset(9)
    save(m, os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save(m, fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [document_text(m).encode("utf-8")]


def test_save_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("x" * 5000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    save(fig8_dataset(), link)
    assert link.is_symlink()
    assert target.read_text() == document_text(fig8_dataset())


def _make_read_only(path, monkeypatch) -> None:
    # where file modes do not bind (a root user), an os.open that refuses to
    # write to path stands in for the kernel's refusal
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        real_open = os.open

        def refusing_open(target, flags, *args, **kwargs):
            if os.fspath(target) == os.fspath(path) and flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(target))
            return real_open(target, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing_open)


def test_save_to_read_only_target(tmp_path, monkeypatch, capsys):
    path = tmp_path / "kept.json"
    path.write_text("old bytes")
    _make_read_only(path, monkeypatch)
    with pytest.raises(PermissionError):
        save(fig8_dataset(), path)
    assert path.read_text() == "old bytes"
    assert run(["family", "fig8", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert path.read_text() == "old bytes"


def test_plot_overwrites_a_longer_file(tmp_path):
    source = tmp_path / "fig8.json"
    save(fig8_dataset(), source)
    fresh, reused = tmp_path / "fresh.svg", tmp_path / "reused.svg"
    reused.write_text("<!-- old -->\n" * 1000)
    for out in (fresh, reused):
        assert run(["plot", "unit-ball", "-m", str(source), "--out", str(out)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_files_are_never_opened_truncating(tmp_path, monkeypatch):
    # truncating on open is what overwriting in place avoids: it frees the
    # old blocks, which costs far more than writing the new bytes over them
    real_open = os.open
    flags_seen = []

    def recording_open(target, flags, *args, **kwargs):
        flags_seen.append(flags)
        return real_open(target, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    source = tmp_path / "fig8.json"
    save(pretzel_dataset(99), source)
    save(fig8_dataset(), source)
    assert run(["plot", "unit-ball", "-m", str(source), "--out", str(tmp_path / "ball.svg")]) == 0
    assert len(flags_seen) == 3
    assert not any(flags & os.O_TRUNC for flags in flags_seen)
