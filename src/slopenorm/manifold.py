"""Manifold data bundles and their on-disk JSON form.

A ManifoldData ties together a name, the boundary-slope set, and whatever
else is known: the cusp lattice, the norm data, essential-surface records,
and an optional certified meridian-norm value.  Loading re-validates every
invariant and reports all violations at once; saving is deterministic, with
rationals written as exact "p/q" strings, never as floats.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cusp import CuspLattice
from .norm import BoundarySlopeSet, CSNormData, is_norm_weight
from .slopes import Slope

__all__ = [
    "SurfaceData",
    "ManifoldData",
    "ManifoldFormatError",
    "load",
    "save",
    "to_document",
    "from_document",
]

_RATIONAL_TEXT = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def _parse_rational(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_TEXT.fullmatch(text.strip()):
        raise ValueError(f"not a rational: {text!r}")
    num, _, den = text.strip().partition("/")
    return Fraction(int(num), int(den or 1))


@dataclass(frozen=True)
class SurfaceData:
    """Record of one essential surface: slope, Euler characteristic,
    boundary-component count, and the strict / ideal-point flags."""

    slope: Slope
    euler: int
    b: int
    strict: bool = False
    ideal_point: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.b, int) or isinstance(self.b, bool) or self.b < 1:
            raise ValueError("boundary component count must be a positive integer")
        if not isinstance(self.euler, int) or isinstance(self.euler, bool):
            raise ValueError("Euler characteristic must be an integer")
        for key in ("strict", "ideal_point"):
            if not isinstance(getattr(self, key), bool):
                raise ValueError(f"surface {key} flag must be a boolean")


@dataclass(frozen=True)
class ManifoldData:
    """Named bundle of everything known about one manifold boundary."""

    name: str
    boundary_slopes: BoundarySlopeSet
    cusp: CuspLattice | None = None
    norm: CSNormData | None = None
    surfaces: tuple[SurfaceData, ...] = field(default=())
    meridian_norm_certificate: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        problems = _consistency_problems(
            self.boundary_slopes, self.norm, self.surfaces, self.meridian_norm_certificate
        )
        if problems:
            raise _Inconsistent(problems)


class _Inconsistent(ValueError):
    # the problems ManifoldData rejects, kept as a list for from_document
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def _consistency_problems(bset, norm, surfaces, certificate) -> list[str]:
    """Invariants tying the parts of a ManifoldData together: the meridian
    norm certificate, and boundary-slope membership (skipped without a set)."""
    problems = []
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
    """Raised on load with the full list of violated invariants."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid manifold document: " + "; ".join(self.problems))


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


def _parse_norm(doc, problems: list[str]) -> CSNormData | None:
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
            slope = Slope.parse(str(entry.get("slope")))
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


def _parse_surfaces(doc, problems: list[str]) -> tuple[SurfaceData, ...]:
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
                    slope=Slope.parse(str(entry.get("slope"))),
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
    in one ManifoldFormatError, and no partial object escapes.
    """
    if not isinstance(doc, dict):
        raise ManifoldFormatError(["document must be a JSON object"])
    problems: list[str] = []

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("missing or empty name")

    slopes = []
    raw_slopes = doc.get("boundary_slopes")
    if not isinstance(raw_slopes, list) or not raw_slopes:
        problems.append("missing boundary_slopes list")
    else:
        for i, text in enumerate(raw_slopes):
            try:
                slopes.append(Slope.parse(str(text)))
            except ValueError as exc:
                problems.append(f"boundary slope {i}: {exc}")

    bset = None
    if slopes:
        try:
            bset = BoundarySlopeSet(tuple(slopes))
        except ValueError as exc:
            problems.append(str(exc))

    cusp = _parse_cusp(doc.get("cusp"), problems)
    norm = _parse_norm(doc.get("culler_shalen"), problems)
    surfaces = _parse_surfaces(doc.get("surfaces"), problems)

    certificate = doc.get("meridian_norm_certificate")
    if problems:
        raise ManifoldFormatError(problems + _consistency_problems(bset, norm, surfaces, certificate))
    try:  # ManifoldData checks the consistency problems, once
        return ManifoldData(name, bset, cusp, norm, surfaces, certificate)
    except _Inconsistent as exc:
        raise ManifoldFormatError(exc.problems) from None


def to_document(m: ManifoldData) -> dict:
    """Plain-JSON form of a ManifoldData; inverse of from_document."""
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


def load(path) -> ManifoldData:
    """Read and validate a manifold document from a JSON file.

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

    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ManifoldFormatError([f"malformed JSON: {exc}"]) from exc
    if duplicates:
        raise ManifoldFormatError(duplicates)
    return from_document(doc)


def save(m: ManifoldData, path) -> None:
    """Write the document form with sorted keys; equal inputs give equal bytes."""
    text = json.dumps(to_document(m), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
