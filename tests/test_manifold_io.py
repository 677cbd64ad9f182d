import json
from fractions import Fraction

import pytest

from slopenorm import (
    BoundarySlopeSet,
    CSNormData,
    CuspLattice,
    ManifoldData,
    ManifoldFormatError,
    Slope,
    SurfaceData,
    fig8_dataset,
    from_document,
    load,
    pretzel_dataset,
    save,
    to_document,
)
from slopenorm import manifold
from slopenorm.manifold import _consistency_problems as consistency_problems

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
        "culler_shalen": {"terms": [{"slope": "2/4", "weight": 3}]},
        "boundary_slopes": ["4/1", "x"],
    }
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    message = str(err.value)
    assert "missing or empty name" in message
    assert "not positive definite" in message
    assert "weight must be positive even" in message
    assert "not a slope" in message
    assert len(err.value.problems) >= 4


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ManifoldFormatError, match="malformed JSON"):
        load(path)


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
    # with a parse problem too, the consistency problems follow it
    doc["name"] = ""
    with pytest.raises(ManifoldFormatError) as err:
        from_document(doc)
    assert err.value.problems[0] == "missing or empty name" and len(err.value.problems) == 3
    assert len(calls) == 3
