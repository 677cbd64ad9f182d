"""The record contract of the six value classes, their constructor type
checks, and the README's library quick tour.

The records are plain classes: equality and hash go by class and field
tuple, repr lists the fields by name, and nothing can be assigned or
deleted.  The repr strings below are the ones the same records printed
when they were frozen dataclasses."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from slopenorm import (
    BoundarySlopeSet,
    CSNormData,
    CuspLattice,
    ManifoldData,
    Slope,
    SurfaceData,
    fig8_dataset,
    pretzel_dataset,
    save,
)

README = Path(__file__).resolve().parent.parent / "README.md"

S4, S_4 = Slope(4, 1), Slope(-4, 1)
BSET = BoundarySlopeSet((S4, S_4))
NORM = CSNormData(((S4, 2), (S_4, 2)))
FIG8_CUSP = CuspLattice(1, 0, 12, maximal=True)

# (instance, its repr, a twin built by keyword, a record differing in one field)
RECORDS = {
    "Slope": (Slope(4, -1), "Slope(p=-4, q=1)", Slope(p=-4, q=1), Slope(4, 1)),
    "CuspLattice": (
        FIG8_CUSP,
        "CuspLattice(g_mm=Fraction(1, 1), g_ml=Fraction(0, 1), g_ll=Fraction(12, 1), maximal=True)",
        CuspLattice(g_mm="1", g_ml=Fraction(0), g_ll=12, maximal=True),
        CuspLattice(1, 0, 12),
    ),
    "CSNormData": (
        NORM,
        "CSNormData(terms=((Slope(p=-4, q=1), 2), (Slope(p=4, q=1), 2)))",
        CSNormData(terms=((S_4, 2), (S4, 2))),
        CSNormData(((S4, 2), (S_4, 4))),
    ),
    "BoundarySlopeSet": (
        BSET,
        "BoundarySlopeSet(slopes=(Slope(p=-4, q=1), Slope(p=4, q=1)))",
        BoundarySlopeSet(slopes=[S_4, S4]),
        BoundarySlopeSet((S4,)),
    ),
    "SurfaceData": (
        SurfaceData(S4, -2, 1, strict=True),
        "SurfaceData(slope=Slope(p=4, q=1), euler=-2, b=1, strict=True, ideal_point=False)",
        SurfaceData(slope=S4, euler=-2, b=1, strict=True),
        SurfaceData(S4, -2, 1),
    ),
    "ManifoldData": (
        pretzel_dataset(7),
        "ManifoldData(name='pretzel(-2,3,7)', boundary_slopes=BoundarySlopeSet(slopes=(Slope(p=16, q=1), "
        "Slope(p=20, q=1))), cusp=None, norm=None, surfaces=(SurfaceData(slope=Slope(p=16, q=1), euler=-1, "
        "b=1, strict=True, ideal_point=True), SurfaceData(slope=Slope(p=20, q=1), euler=-1, b=1, strict=True, "
        "ideal_point=True)), meridian_norm_certificate=12)",
        ManifoldData(
            name="pretzel(-2,3,7)",
            boundary_slopes=BoundarySlopeSet((Slope(20, 1), Slope(16, 1))),
            surfaces=[
                SurfaceData(Slope(16, 1), -1, 1, strict=True, ideal_point=True),
                SurfaceData(Slope(20, 1), -1, 1, strict=True, ideal_point=True),
            ],
            meridian_norm_certificate=12,
        ),
        ManifoldData("pretzel(-2,3,7)", BoundarySlopeSet((Slope(16, 1), Slope(20, 1)))),
    ),
}


def field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    record, text, _, _ = RECORDS[name]
    assert repr(record) == text
    assert type(record).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_go_by_the_fields(name):
    record, _, twin, other = RECORDS[name]
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(field_values(record))
    assert record != other and field_values(record) != field_values(other)
    assert {record, twin, other} == {record, other}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_needs_the_same_class(name):
    record = RECORDS[name][0]
    subclass = type("Sub" + name, (type(record),), {})
    copy = subclass(*field_values(record))
    assert field_values(copy) == field_values(record)
    assert record != copy and copy != record
    assert record != field_values(record) and field_values(record) != record
    others = [r for n, (r, *_) in RECORDS.items() if n != name]
    assert all(record != r for r in others)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]
    before = field_values(record)
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert field_values(record) == before


def test_kept_values_stay_outside_equality_hash_and_repr():
    s, t = Slope(4, 1), Slope(4, 1)
    str(s)
    assert "_text" in vars(s) and "_text" not in vars(t)
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
    a, b = CuspLattice(1, 0, 12), CuspLattice(1, 0, 12)
    a.systole_squared()
    assert "_systole" in vars(a) and "_systole" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_keyword_defaults():
    assert CuspLattice(g_mm=1, g_ml=0, g_ll=12).maximal is False
    surface = SurfaceData(slope=S4, euler=-1, b=2)
    assert (surface.strict, surface.ideal_point) == (False, False)
    m = ManifoldData(name="bare", boundary_slopes=BSET)
    assert (m.cusp, m.norm, m.surfaces, m.meridian_norm_certificate) == (None, None, (), None)


@pytest.mark.parametrize("name", RECORDS)
def test_each_record_has_its_own_init(name):
    # benchmarks/tracing.py wraps vars(cls)["__init__"] of Slope, CuspLattice and CSNormData
    assert "__init__" in vars(type(RECORDS[name][0]))


# -- constructor type checks -----------------------------------------------------


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SurfaceData("4/1", -1, 1), TypeError),
        (lambda: SurfaceData(None, -1, 1), TypeError),
        (lambda: ManifoldData("x", None), TypeError),
        (lambda: ManifoldData("x", (Slope(1, 1),)), TypeError),
        (lambda: ManifoldData("x", BSET, cusp="c"), TypeError),
        (lambda: ManifoldData("x", BSET, cusp=NORM), TypeError),
        (lambda: ManifoldData("x", BSET, norm="n"), TypeError),
        (lambda: ManifoldData("x", BSET, norm=((S4, 2), (S_4, 2))), TypeError),
        (lambda: ManifoldData("x", BSET, surfaces=(S4,)), TypeError),
        (lambda: ManifoldData("x", BSET, surfaces=[None]), TypeError),
        (lambda: BoundarySlopeSet(("1/1",)), TypeError),
        (lambda: BoundarySlopeSet((S4, (1, 0))), TypeError),
        (lambda: CuspLattice(True, 0, 12), TypeError),
        (lambda: CuspLattice(1, False, 12), TypeError),
        (lambda: CuspLattice(1.5, 0, 12), TypeError),
        (lambda: CuspLattice(1, 0, 12.0), TypeError),
        (lambda: CuspLattice(1, None, 12), TypeError),
    ],
    ids=[
        "surface-text-slope", "surface-none-slope", "manifold-none-set", "manifold-tuple-set",
        "manifold-text-cusp", "manifold-norm-as-cusp", "manifold-text-norm", "manifold-tuple-norm",
        "manifold-slope-surface", "manifold-none-surface", "set-text-slope", "set-tuple-slope",
        "cusp-true", "cusp-false", "cusp-float", "cusp-float-ll", "cusp-none",
    ],
)
def test_constructor_rejects_a_part_of_the_wrong_type(build, error):
    with pytest.raises(error):
        build()


def test_constructor_still_reads_rational_text():
    assert CuspLattice("1/2", " 0 ", "3") == CuspLattice(Fraction(1, 2), 0, 3)
    assert ManifoldData("x", BSET, FIG8_CUSP, NORM).norm is NORM


# -- the README quick tour -------------------------------------------------------


def quick_tour() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    return block.splitlines()


def test_readme_quick_tour_values(tmp_path, capsys):
    lines = quick_tour()
    start = next(i for i, line in enumerate(lines) if line.startswith("m = "))
    scope: dict = {}
    exec("\n".join(lines[:start]), scope)
    checked = 0
    for line in lines[start:]:
        code, _, comment = line.partition("  # ")
        code = code.strip()
        if code.startswith("m = "):
            exec(code, scope)
            continue
        value = eval(code, scope)
        if code.startswith("print("):
            # the JSON document, as save writes it
            save(scope["m"], tmp_path / "m.json")
            assert capsys.readouterr().out == (tmp_path / "m.json").read_text(encoding="utf-8")
            continue
        shown = repr(value)
        assert comment.startswith(shown) and comment[len(shown):len(shown) + 1] in ("", ",", ":"), (code, comment)
        checked += 1
    assert checked == 8
    assert scope["m"] == fig8_dataset()
