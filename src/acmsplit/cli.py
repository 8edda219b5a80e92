"""Command-line front end.

Subcommands:

    report      evaluate every case for one degree and render the table
    check-case  evaluate a single (c1, c2) case and print its verdict
    kmr         h^0 of the normal bundle from a resolution
    hilbert     h^0 of the twisted ideal sheaf from a resolution
    solve-c2    eliminate c2 on the two boundary lines via Euler characteristics

Exit status: 0 when every evaluated case is conclusive, 1 when any case
is inconclusive, 2 on bad input.  Output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Callable, Sequence

from .euler import solve_c2_boundary
from .incidence import (
    CONCLUSIVE_VERDICTS,
    CatalogError,
    generate_report,
    json_text,
    load_catalog_file,
    render_report_json,
    render_report_markdown,
    row_to_jsonable,
)
from .normal_bundle import _kmr
from .proj_cohomology import AMBIENT_DIM, h0_pn
from .resolutions import (
    MAX_TWIST,
    GorensteinResolution,
    checked_resolution,
    parse_resolution,
    term_sum,
)

_GRID_RE = re.compile(r"(-?\d+)\.\.(-?\d+)", re.ASCII)
_INT_RE = re.compile(r"-?\d+", re.ASCII)


class _Parser(argparse.ArgumentParser):
    """Argument parser with one-line diagnostics instead of usage dumps."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_int(text: str) -> int:
    """An integer option in ASCII digits, of absolute value at most MAX_TWIST.

    int() alone reads every Unicode digit, and past 4,300 digits raises a
    message that names no option; the digits are never echoed.
    """
    if _INT_RE.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, not {text!r}")
    if len(text.lstrip("-").lstrip("0")) > len(str(MAX_TWIST)) or abs(int(text)) > MAX_TWIST:
        raise argparse.ArgumentTypeError(
            f"expected an integer of absolute value at most {MAX_TWIST}"
        )
    return int(text)


def _parse_grid(text: str) -> range:
    match = _GRID_RE.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"grid must look like LO..HI (for example 2..5), not {text!r}"
        )
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
    return range(lo, hi + 1)


def _load_resolution(source: str) -> GorensteinResolution:
    """Accept either inline JSON or a path to a JSON file."""
    text = source.strip()
    if text.startswith("{"):
        data = json.loads(text)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    return parse_resolution(data)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _scalar_text(args: argparse.Namespace, payload: dict, key: str) -> str:
    if args.format == "json":
        return json_text(payload) + "\n"
    return f"{payload[key]}\n"


def _cmd_report(args: argparse.Namespace) -> int:
    cases = None
    if args.catalog is not None:
        cases = load_catalog_file(args.catalog, args.degree)
    report = generate_report(args.degree, cases)
    if args.format == "json":
        text = render_report_json(report)
    else:
        text = render_report_markdown(report)
    _emit(text, args.out)
    return 0 if report.conclusive else 1


def _cmd_check_case(args: argparse.Namespace) -> int:
    cases = None
    if args.catalog is not None:
        cases = load_catalog_file(args.catalog, args.degree)
    for row in generate_report(args.degree, cases).rows:
        if row.case is not None and (row.case.c1, row.case.c2) == (args.c1, args.c2):
            break
    else:
        raise CatalogError(
            f"no case (c1={args.c1}, c2={args.c2}) in the degree-{args.degree}"
            " catalog"
        )
    if args.format == "json":
        payload = {"degree": args.degree, "moduli_dim": row.moduli_dim, **row_to_jsonable(row)}
        text = json_text(payload) + "\n"
    else:
        lines = [
            f"case (c1={args.c1}, c2={args.c2}) on the general"
            f" degree-{args.degree} hypersurface",
            f"verdict: {row.verdict}",
        ]
        if row.genus is not None:
            lines.append(f"sectional genus: {row.genus}")
        if row.bound is not None:
            lines.append(
                f"incidence bound: {row.bound} against moduli dimension"
                f" {row.moduli_dim}"
            )
        lines.extend(f"note: {note}" for note in row.notes)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if row.verdict in CONCLUSIVE_VERDICTS else 1


def _cmd_kmr(args: argparse.Namespace) -> int:
    res = _load_resolution(args.resolution)
    blocks, _ = checked_resolution(res, args.grid)
    value = _kmr(*blocks, res.socle_twist)
    _emit(_scalar_text(args, {"h0_normal": value}, "h0_normal"), args.out)
    return 0


def _cmd_hilbert(args: argparse.Namespace) -> int:
    res = _load_resolution(args.resolution)
    blocks, surface = checked_resolution(res, args.grid)
    t = args.twist
    ideal = term_sum(*blocks, res.socle_twist, t)
    payload = {
        "twist": t,
        "h0_ideal": ideal,
        "h0_structure": h0_pn(AMBIENT_DIM, t) - ideal if t >= 0 else 0,
        "chi_structure": surface.chi(t),
    }
    _emit(_scalar_text(args, payload, "h0_ideal"), args.out)
    return 0


def _cmd_solve_c2(args: argparse.Namespace) -> int:
    value = solve_c2_boundary(args.degree, args.c1)
    _emit(_scalar_text(args, {"c1": args.c1, "c2": value}, "c2"), args.out)
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "report": _cmd_report,
    "check-case": _cmd_check_case,
    "kmr": _cmd_kmr,
    "hilbert": _cmd_hilbert,
    "solve-c2": _cmd_solve_c2,
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="acmsplit",
        description="Exact-arithmetic case analysis for ACM rank-2 bundles"
        " on hypersurfaces in P^5.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("markdown", "json"),
        default="markdown",
        help="output format (markdown keeps scalars as bare numbers)",
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    resolved = _Parser(add_help=False)
    resolved.add_argument(
        "--resolution",
        required=True,
        metavar="FILE_OR_JSON",
        help="resolution as a JSON file path or an inline JSON object",
    )
    resolved.add_argument(
        "--grid",
        type=_parse_grid,
        metavar="LO..HI",
        help="inclusive parameter grid for parametric resolutions"
        " (default: every value that keeps each multiplicity >= 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    report = sub.add_parser(
        "report",
        parents=[common],
        help="evaluate every case for one degree",
    )
    report.add_argument("--degree", type=_parse_int, required=True)
    report.add_argument("--catalog", metavar="FILE", help="JSON case catalog")

    check = sub.add_parser(
        "check-case",
        parents=[common],
        help="evaluate one (c1, c2) case",
    )
    check.add_argument("--degree", type=_parse_int, required=True)
    check.add_argument("--c1", type=_parse_int, required=True)
    check.add_argument("--c2", type=_parse_int, required=True)
    check.add_argument("--catalog", metavar="FILE", help="JSON case catalog")

    sub.add_parser(
        "kmr",
        parents=[common, resolved],
        help="h^0 of the normal bundle from a resolution",
    )

    hilbert = sub.add_parser(
        "hilbert",
        parents=[common, resolved],
        help="h^0 of the twisted ideal sheaf from a resolution",
    )
    hilbert.add_argument("--twist", type=_parse_int, required=True)

    solve = sub.add_parser(
        "solve-c2",
        parents=[common],
        help="eliminate c2 on a boundary line via Euler characteristics",
    )
    solve.add_argument("--degree", type=_parse_int, required=True)
    solve.add_argument("--c1", type=_parse_int, required=True)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"acmsplit: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
