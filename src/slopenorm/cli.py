"""Command-line front end: exact evaluation, verification reports, family
dataset emission, and a static SVG plot of the norm unit ball against the
length ellipse.

Exit codes: 0 when no check fails (a statement with nothing to check prints
one not-applicable line), 1 when some check fails, 2 on usage errors and
rejected input: an unreadable or invalid document, or a -r slope that the
check cannot take.  Pass/fail is always decided on exact values; decimals
in the output are annotations.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction

from . import families
from .manifold import ManifoldData, _overwrite, document_text, load, save
from .slopes import _SLOPE_TEXT, Slope, distance
from .verify import STATEMENTS, VerifyReport, _dec, _not_applicable, check, standard_reports, sweep_norm_vs_length

__all__ = ["run", "main"]

# each verify statement and the number of -r slopes it reads (None: any, 0: none)
STATEMENT_SLOPES = {**{s.name: s.arity for s in STATEMENTS.values()}, "all": 0}

# each family kind: its builder in .families and the one option it reads, if
# any; a builder is looked up when called, so that a wrapper installed on
# .families (as benchmarks/tracing.py installs one) is the one that runs
FAMILIES = {
    "fig8": ("fig8_dataset", None),
    "pretzel": ("pretzel_dataset", "n"),
    "twobridge": ("twobridge_dataset", "crossings"),
}
FAMILY_OPTIONS = {"n": "K", "crossings": "C"}  # option -> metavar

# the largest --range: a sweep with a failing row sieves the prime factors
# of 1..N (N + 1 ints); one that holds sieves nothing
MAX_RANGE = 10**6


def _merge_slope_flags(argv: list[str]) -> list[str]:
    # argparse mistakes "-4/1" for an option; fold it into "--slope=-4/1"
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("-r", "--slope") and i + 1 < len(argv) and argv[i + 1].startswith("-") and _SLOPE_TEXT.fullmatch(argv[i + 1]):
            out.append(f"--slope={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value > MAX_RANGE:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_RANGE}, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopenorm",
        description="Exact slope lengths, boundary-slope norms and diameter bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print an exact value")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("quantity", choices=["length", "norm", "distance"])
    p_eval.add_argument("-m", "--manifold", metavar="PATH")
    p_eval.add_argument("-r", "--slope", action="append", default=[], metavar="P/Q")
    p_eval.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = sub.add_parser("verify", help="run a verification report")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("statement", choices=STATEMENT_SLOPES)
    p_verify.add_argument("-m", "--manifold", required=True, metavar="PATH")
    p_verify.add_argument("-r", "--slope", action="append", default=[], metavar="P/Q")
    p_verify.add_argument("--range", type=_positive_int, dest="sweep", metavar="N")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")

    p_family = sub.add_parser("family", help="emit a built-in dataset")
    p_family.set_defaults(handler=_cmd_family)
    p_family.add_argument("which", choices=FAMILIES)
    for option, metavar in FAMILY_OPTIONS.items():
        p_family.add_argument(f"--{option}", type=int, metavar=metavar)
    p_family.add_argument("--out", metavar="PATH")

    p_plot = sub.add_parser("plot", help="write a static SVG figure")
    p_plot.set_defaults(handler=_cmd_plot)
    p_plot.add_argument("what", choices=["unit-ball"])
    p_plot.add_argument("-m", "--manifold", required=True, metavar="PATH")
    p_plot.add_argument("--out", required=True, metavar="FILE.svg")

    p_report = sub.add_parser("report", help="summarize every check on a manifold")
    p_report.set_defaults(handler=_cmd_report)
    p_report.add_argument("-m", "--manifold", required=True, metavar="PATH")
    p_report.add_argument("--range", type=_positive_int, dest="sweep", metavar="N")
    p_report.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _parse_slopes(texts: list[str], want: int | None) -> list[Slope]:
    slopes = []
    for text in texts:
        try:
            slopes.append(Slope.parse(text))
        except ValueError as exc:
            raise ValueError(f"-r {text}: {exc}") from None
    if want is not None and len(slopes) != want:
        raise ValueError(f"expected {want} slope argument(s), got {len(slopes)}")
    return slopes


def _emit_reports(reports: list[VerifyReport], fmt: str) -> int:
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            line = f"{r.statement}: {r.summary}"
            if r.detail:
                line += f"  ({r.detail})"
            print(_printable(line))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_eval(args) -> int:
    if args.quantity == "distance":
        if args.manifold is not None:
            raise ValueError("distance takes no -m/--manifold")
        r, s = _parse_slopes(args.slope, 2)
        payload = {"quantity": "distance", "slopes": [str(r), str(s)], "value": str(distance(r, s))}
    else:
        if args.manifold is None:
            raise ValueError("a manifold file is required (-m/--manifold)")
        m = load(args.manifold)
        (r,) = _parse_slopes(args.slope, 1)
        if args.quantity == "norm":
            if m.norm is None:
                raise ValueError("manifold has no norm data")
            payload = {"quantity": "norm", "slope": str(r), "value": str(m.norm.evaluate(r))}
        else:
            if m.cusp is None:
                raise ValueError("manifold has no cusp data")
            sq = m.cusp.squared_length(r)
            payload = {
                "quantity": "squared_length",
                "slope": str(r),
                "value": str(sq),
                "decimal_length": _dec(sq.denominator, sq.numerator),
            }
    text = payload["value"]
    if args.quantity == "length":
        text += f" (length {payload['decimal_length']})"
    print(json.dumps(payload, sort_keys=True) if args.format == "json" else text)
    return 0


def _cmd_verify(args) -> int:
    stmt = args.statement
    if args.slope and STATEMENT_SLOPES[stmt] == 0:
        raise ValueError(f"{stmt} takes no -r/--slope arguments")
    if args.sweep is not None and (stmt not in ("thm1", "all") or args.slope):
        raise ValueError("--range applies only to thm1 and all, without -r/--slope")
    slopes = _parse_slopes(args.slope, STATEMENT_SLOPES[stmt] if args.slope else None)
    m = load(args.manifold)

    if stmt == "thm1" and args.sweep:
        reports = [sweep_norm_vs_length(m, args.sweep)]
    elif slopes:  # each -r slope, or the -r pair; a check's error names the slopes it was given
        reports = []
        for group in [[r] for r in slopes] if STATEMENT_SLOPES[stmt] is None else [slopes]:
            try:
                reports.append(check(stmt, m, *group))
            except ValueError as exc:
                raise ValueError(" ".join(f"-r {r}" for r in group) + f": {exc}") from None
    else:  # the lines of standard_reports whose statement is stmt
        reports = standard_reports(m, sweep_range=args.sweep)
        if stmt != "all":
            reports = [r for r in reports if r.statement.split("(")[0] == stmt]
    return _emit_reports(reports or [_not_applicable(stmt, m)], args.format)


def _cmd_family(args) -> int:
    builder, wanted = FAMILIES[args.which]
    if wanted and getattr(args, wanted) is None:
        raise ValueError(f"{args.which} needs --{wanted} {FAMILY_OPTIONS[wanted]}")
    for option in FAMILY_OPTIONS:
        if option != wanted and getattr(args, option) is not None:
            raise ValueError(f"{args.which} takes no --{option}")
    params = [getattr(args, wanted)] if wanted else []
    m = getattr(families, builder)(*params)
    if args.out:
        save(m, args.out)
    else:
        sys.stdout.write(document_text(m))
    return 0


def _cmd_plot(args) -> int:
    m = load(args.manifold)
    if m.norm is None or m.cusp is None:
        raise ValueError("plot needs both norm and cusp data")
    try:
        _write_unit_ball_svg(m, args.out)
    except OverflowError:
        raise ValueError("plot needs cusp and norm values within the float range") from None
    return 0


def _cmd_report(args) -> int:
    m = load(args.manifold)
    reports = standard_reports(m, sweep_range=args.sweep) or [_not_applicable("all", m)]
    if args.format == "json":
        return _emit_reports(reports, "json")
    print(_printable(f"manifold: {m.name}"))
    counts = Counter(r.status for r in reports)
    print("checks: " + ", ".join(f"{status} {n}" for status, n in sorted(counts.items())))
    width = max(len(r.statement) for r in reports)
    for r in reports:
        print(_printable(f"  {r.statement:<{width}}  {r.summary}"))
    return 0 if all(r.ok for r in reports) else 1


def _write_unit_ball_svg(m: ManifoldData, path: str) -> None:
    """One polygon (the unit ball scaled by norm(m)) and one ellipse (the
    unit-length level set of the cusp metric), drawn to scale."""
    nm = m.norm.meridian_norm()
    points = [(float(x) * nm, -float(y) * nm) for x, y in m.norm.unit_ball_vertices()]

    a = float(m.cusp.g_mm)
    b = float(m.cusp.g_ml)
    c = float(m.cusp.g_ll)
    theta = 0.5 * math.atan2(2 * b, a - c)
    # the larger eigenvalue, along theta, has no cancellation, and the smaller
    # one is the exact determinant over it; Fraction raises OverflowError on an
    # infinite lam1, and an underflow leaves lam1 or lam2 zero
    lam1 = (a + c) / 2 + math.hypot((a - c) / 2, b)
    lam2 = float(m.cusp.area_squared() / Fraction(lam1)) if lam1 else 0.0
    if not lam2:
        raise OverflowError("an axis of the unit-length ellipse is past the float range")
    rx, ry = 1.0 / math.sqrt(lam1), 1.0 / math.sqrt(lam2)

    extent = max(
        [abs(v) for p in points for v in p] + [rx, ry]
    )
    half = extent * 1.15
    stroke = half / 120.0
    point_text = " ".join(f"{x:.6g},{y:.6g}" for x, y in points)
    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-half:.6g} {-half:.6g} {2 * half:.6g} {2 * half:.6g}" width="520" height="520">',
        f"  <title>{_xml_text(m.name)}: norm unit ball scaled by norm(m) = {nm}, against the unit-length ellipse</title>",
        f'  <line x1="{-half:.6g}" y1="0" x2="{half:.6g}" y2="0" stroke="#bbbbbb" stroke-width="{stroke / 2:.6g}"/>',
        f'  <line x1="0" y1="{-half:.6g}" x2="0" y2="{half:.6g}" stroke="#bbbbbb" stroke-width="{stroke / 2:.6g}"/>',
        f'  <polygon points="{point_text}" fill="none" stroke="#1f77b4" stroke-width="{stroke:.6g}"/>',
        f'  <ellipse cx="0" cy="0" rx="{rx:.6g}" ry="{ry:.6g}" transform="rotate({-math.degrees(theta):.6g})" fill="none" stroke="#d62728" stroke-width="{stroke:.6g}"/>',
        "</svg>",
    ]
    _overwrite(path, "\n".join(svg) + "\n")


def _printable(text: str, unfit: str = r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]") -> str:
    """text with each character of the class unfit written as U+FFFD, as a
    document name may hold them; by default the C0 and C1 controls, DEL and
    U+2028 and U+2029, which can start a line of their own, and the lone
    surrogates, which UTF-8 cannot encode."""
    return re.sub(unfit, "\ufffd", text)


def _xml_text(text: str) -> str:
    """text as XML 1.0 character data: &, < and > escaped, and each
    character that XML 1.0 cannot hold written as U+FFFD."""
    text = _printable(text, "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def run(argv=None) -> int:
    """Parse and execute one command line; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_slope_flags(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # as text output does, so that raw -r text cannot split the line
        print(_printable(f"error: {exc}"), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
