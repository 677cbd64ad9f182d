"""Manifold data bundles and their on-disk JSON form.

A ManifoldData ties together a name, the boundary-slope set, and whatever
else is known: the cusp lattice, the norm data, essential-surface records,
and an optional certified meridian-norm value.  Loading re-validates every
invariant and reports all violations at once; saving is deterministic, with
rationals written as exact "p/q" strings, never as floats.  document_text
is the one place that writes the format's keys: it prints the JSON text
straight from a ManifoldData, and to_document parses that text back.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cusp import CuspLattice
from .norm import BoundarySlopeSet, CSNormData, is_norm_weight
from .slopes import _SLOPE_TEXT, Slope, _Record

__all__ = [
    "SurfaceData",
    "ManifoldData",
    "ManifoldFormatError",
    "load",
    "save",
    "document_text",
    "to_document",
    "from_document",
]


def _parse_rational(text) -> Fraction:
    """An int, or a text in the slope grammar (slopes._SLOPE_TEXT) whose
    denominator, if any, begins with an ASCII 1-9."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    s = text.strip() if isinstance(text, str) else ""
    num, _, den = s.partition("/")
    if not _SLOPE_TEXT.fullmatch(s) or (den and den[0] not in "123456789"):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(int(num), int(den or 1))


class SurfaceData(_Record):
    """Record of one essential surface: slope, Euler characteristic,
    boundary-component count, and the strict / ideal-point flags."""

    _fields = ("slope", "euler", "b", "strict", "ideal_point")
    slope: Slope
    euler: int
    b: int
    strict: bool
    ideal_point: bool

    def __init__(self, slope: Slope, euler: int, b: int, strict: bool = False, ideal_point: bool = False) -> None:
        if not isinstance(slope, Slope):
            raise TypeError("surface slope must be a Slope")
        if not isinstance(b, int) or isinstance(b, bool) or b < 1:
            raise ValueError("boundary component count must be a positive integer")
        if not isinstance(euler, int) or isinstance(euler, bool):
            raise ValueError("Euler characteristic must be an integer")
        for key, flag in (("strict", strict), ("ideal_point", ideal_point)):
            if not isinstance(flag, bool):
                raise ValueError(f"surface {key} flag must be a boolean")
        for name, value in zip(self._fields, (slope, euler, b, strict, ideal_point)):
            object.__setattr__(self, name, value)


class ManifoldData(_Record):
    """Named bundle of everything known about one manifold boundary.

    Each part must be of its own type, or None where it may be absent: a
    wrong type raises TypeError, a violated invariant ManifoldFormatError."""

    _fields = ("name", "boundary_slopes", "cusp", "norm", "surfaces", "meridian_norm_certificate")
    name: str
    boundary_slopes: BoundarySlopeSet
    cusp: CuspLattice | None
    norm: CSNormData | None
    surfaces: tuple[SurfaceData, ...]
    meridian_norm_certificate: int | None

    def __init__(
        self,
        name: str,
        boundary_slopes: BoundarySlopeSet,
        cusp: CuspLattice | None = None,
        norm: CSNormData | None = None,
        surfaces: tuple[SurfaceData, ...] = (),
        meridian_norm_certificate: int | None = None,
    ) -> None:
        surfaces = tuple(surfaces)
        if not isinstance(boundary_slopes, BoundarySlopeSet):
            raise TypeError("boundary_slopes must be a BoundarySlopeSet")
        if cusp is not None and not isinstance(cusp, CuspLattice):
            raise TypeError("cusp must be a CuspLattice or None")
        if norm is not None and not isinstance(norm, CSNormData):
            raise TypeError("norm must be a CSNormData or None")
        for surf in surfaces:
            if not isinstance(surf, SurfaceData):
                raise TypeError("each surface must be a SurfaceData")
        problems = _consistency_problems(name, boundary_slopes, norm, surfaces, meridian_norm_certificate)
        if problems:
            raise ManifoldFormatError(problems)
        for key, value in zip(self._fields, (name, boundary_slopes, cusp, norm, surfaces, meridian_norm_certificate)):
            object.__setattr__(self, key, value)


def _consistency_problems(name, bset, norm, surfaces, certificate) -> list[str]:
    """Invariants of a ManifoldData beyond its parts' own: a non-empty string
    name, the meridian norm certificate, and boundary-slope membership
    (skipped without a set)."""
    problems = [] if isinstance(name, str) and name else ["missing or empty name"]
    if certificate is not None:
        if not isinstance(certificate, int) or isinstance(certificate, bool):
            problems.append("meridian_norm_certificate must be an integer")
        elif certificate < 1:
            problems.append("meridian_norm_certificate must be positive")
        elif norm is not None and certificate != norm.meridian_norm():
            problems.append(
                f"meridian_norm_certificate {certificate} differs from norm(m) = {norm.meridian_norm()}"
            )
    if bset is not None:
        if norm is not None:
            problems += [f"norm slope {s} not in boundary_slopes" for s in norm.support if s not in bset]
        problems += [
            f"surface slope {surf.slope} not in boundary_slopes" for surf in surfaces if surf.slope not in bset
        ]
    return problems


class ManifoldFormatError(ValueError):
    """Raised on load, and by ManifoldData, with the full list of violated
    invariants."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid manifold document: " + "; ".join(self.problems))


def _slope(text, parsed: dict) -> Slope:
    """The slope a JSON string names (None: a missing or null slope), each
    distinct text parsed once per document: parsed maps text to Slope."""
    if not isinstance(text, str):
        raise ValueError("missing slope" if text is None else "slope must be a string")
    if text not in parsed:
        parsed[text] = Slope.parse(text)
    return parsed[text]


def _parse_flag(doc: dict, key: str, owner: str, problems: list[str]) -> bool:
    value = doc.get(key, False)
    if not isinstance(value, bool):
        problems.append(f"{owner} {key} flag must be a boolean")
        return False
    return value


def _parse_cusp(doc, problems: list[str]) -> CuspLattice | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        problems.append("cusp must be an object")
        return None
    entries = {}
    for key in ("g_mm", "g_ml", "g_ll"):
        if key not in doc:
            problems.append(f"cusp missing {key}")
            continue
        try:
            entries[key] = _parse_rational(doc[key])
        except ValueError as exc:
            problems.append(f"cusp {key}: {exc}")
    maximal = _parse_flag(doc, "maximal", "cusp", problems)
    if len(entries) != 3:
        return None
    try:
        return CuspLattice(entries["g_mm"], entries["g_ml"], entries["g_ll"], maximal=maximal)
    except ValueError as exc:
        problems.append(str(exc))
        return None


def _parse_norm(doc, parsed: dict, problems: list[str]) -> CSNormData | None:
    if doc is None:
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        problems.append("culler_shalen must be an object with a terms list")
        return None
    local: list[str] = []
    terms = []
    for i, entry in enumerate(doc["terms"]):
        if not isinstance(entry, dict):
            local.append(f"norm term {i} must be an object")
            continue
        slope = None
        try:
            slope = _slope(entry.get("slope"), parsed)
        except ValueError as exc:
            local.append(f"norm term {i}: {exc}")
        weight = entry.get("weight")
        if not is_norm_weight(weight):
            local.append(f"norm term {i}: weight must be positive even")
            weight = None
        if slope is not None and weight is not None:
            terms.append((slope, weight))
    if local:
        problems.extend(local)
        return None
    try:
        return CSNormData(tuple(terms))
    except ValueError as exc:
        problems.append(str(exc))
        return None


def _parse_surfaces(doc, parsed: dict, problems: list[str]) -> tuple[SurfaceData, ...]:
    if doc is None:
        return ()
    if not isinstance(doc, list):
        problems.append("surfaces must be a list")
        return ()
    surfaces = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            problems.append(f"surface {i} must be an object")
            continue
        strict = _parse_flag(entry, "strict", f"surface {i}", problems)
        ideal_point = _parse_flag(entry, "ideal_point", f"surface {i}", problems)
        try:
            surfaces.append(
                SurfaceData(
                    slope=_slope(entry.get("slope"), parsed),
                    euler=entry.get("euler"),
                    b=entry.get("boundary_components"),
                    strict=strict,
                    ideal_point=ideal_point,
                )
            )
        except (TypeError, ValueError) as exc:
            problems.append(f"surface {i}: {exc}")
    return tuple(surfaces)


def from_document(doc) -> ManifoldData:
    """Build a validated ManifoldData from a parsed JSON document.

    Rejection is total: every violated invariant is collected and reported
    in one ManifoldFormatError, the consistency problems (a bad name first)
    before the parse problems, and no partial object escapes.
    """
    if not isinstance(doc, dict):
        raise ManifoldFormatError(["document must be a JSON object"])
    problems: list[str] = []
    parsed: dict[str, Slope] = {}

    slopes = []
    raw_slopes = doc.get("boundary_slopes")
    if not isinstance(raw_slopes, list) or not raw_slopes:
        problems.append("missing boundary_slopes list")
    else:
        for i, text in enumerate(raw_slopes):
            try:
                slopes.append(_slope(text, parsed))
            except ValueError as exc:
                problems.append(f"boundary slope {i}: {exc}")

    bset = None
    if slopes:
        try:
            bset = BoundarySlopeSet(tuple(slopes))
        except ValueError as exc:
            problems.append(str(exc))

    cusp = _parse_cusp(doc.get("cusp"), problems)
    norm = _parse_norm(doc.get("culler_shalen"), parsed, problems)
    surfaces = _parse_surfaces(doc.get("surfaces"), parsed, problems)

    name = doc.get("name")
    certificate = doc.get("meridian_norm_certificate")
    if problems:
        raise ManifoldFormatError(_consistency_problems(name, bset, norm, surfaces, certificate) + problems)
    return ManifoldData(name, bset, cusp, norm, surfaces, certificate)  # which checks the consistency problems


def to_document(m: ManifoldData) -> dict:
    """Plain-JSON form of a ManifoldData; inverse of from_document."""
    return json.loads(document_text(m))


def load(path) -> ManifoldData:
    """Read and validate a manifold document from a UTF-8 JSON file.

    A key repeated within one JSON object makes the document ambiguous, so
    every repetition is reported instead of letting the last value win.
    """
    duplicates: list[str] = []

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            duplicates.extend(f"duplicate key {key!r}" for key in doc if keys.count(key) > 1)
        return doc

    with open(path, "rb", buffering=0) as handle:  # one read, then text mode's decoding and newlines
        text = handle.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError([f"malformed JSON: {exc}"]) from exc
    if duplicates:
        raise ManifoldFormatError(duplicates)
    return from_document(doc)


def document_text(m: ManifoldData) -> str:
    """The document as JSON text: byte for byte json.dumps(doc, indent=2,
    sort_keys=True) + "\n" of the object from_document reads, so equal
    inputs give equal text.  The keys are written here in sorted order;
    slopes and rationals are "p/q" strings that need no escaping, and the
    name is quoted by the function json.dumps itself quotes strings with."""
    parts = ['{\n  "boundary_slopes": [\n    "', '",\n    "'.join(map(str, m.boundary_slopes)), '"\n  ]']
    if m.norm is not None:
        terms = ",\n".join(f'      {{\n        "slope": "{s}",\n        "weight": {_int(a)}\n      }}' for s, a in m.norm.terms)
        parts.append(f',\n  "culler_shalen": {{\n    "terms": [\n{terms}\n    ]\n  }}')
    if m.cusp is not None:
        c = m.cusp
        parts.append(
            f',\n  "cusp": {{\n    "g_ll": "{c.g_ll!s}",\n    "g_ml": "{c.g_ml!s}",\n    "g_mm": "{c.g_mm!s}",\n'
            f'    "maximal": {_BOOL[c.maximal]}\n  }}'
        )
    if m.meridian_norm_certificate is not None:
        parts.append(f',\n  "meridian_norm_certificate": {_int(m.meridian_norm_certificate)}')
    parts.append(f',\n  "name": {encode_basestring_ascii(m.name)}')
    if m.surfaces:
        surfaces = ",\n".join(
            f'    {{\n      "boundary_components": {_int(s.b)},\n      "euler": {_int(s.euler)},\n'
            f'      "ideal_point": {_BOOL[s.ideal_point]},\n      "slope": "{s.slope}",\n      "strict": {_BOOL[s.strict]}\n    }}'
            for s in m.surfaces
        )
        parts.append(f',\n  "surfaces": [\n{surfaces}\n  ]')
    parts.append("\n}\n")
    return "".join(parts)


# how json.dumps writes an int (subclasses included) and a boolean
_int = int.__repr__
_BOOL = {True: "true", False: "false"}


def save(m: ManifoldData, path) -> None:
    """Write document_text(m) to path, overwriting it in place (not atomic)."""
    _overwrite(path, document_text(m))


def _overwrite(path, text: str) -> None:
    """Leave path holding exactly the UTF-8 bytes of text, as open(path, "w")
    would, without truncating it first: the bytes go over the old ones, and
    the file is cut only where the old one was longer.  On an ext4 file
    system mounted with discard, truncating on open made a save of a
    few-hundred-byte document 5-8 times slower.  A special file (a device,
    a FIFO) has size 0, so it is never cut."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        longer = os.fstat(handle.fileno()).st_size > len(data)
        handle.write(data)
        if longer:
            handle.truncate()
