"""Case catalogs, the verdict cascade, and the dimension-count report.

The exclusion engine: a candidate (c1, c2) with a known surface
resolution contributes an incidence variety of dimension at most

    h^0(I_S(r)) - 1 + h^0(N_S)

inside the moduli space of degree-r hypersurfaces; when that bound is
below binom(r+5, 5) - 1 the general hypersurface carries no such
bundle.  Cases without a count fall to structural exclusions (plane,
pfaffian pair, genus parity) or are reported inconclusive.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import catalog as _catalog
from .combinatorics import Count
from .euler import ParityError, pfaffian_c2, sectional_genus
from .normal_bundle import _kmr
from .proj_cohomology import moduli_dim
from .resolutions import (
    GorensteinResolution,
    ResolutionValidationError,
    _read_int,
    _short,
    checked_resolution,
    h0_ideal,  # noqa: F401  (perfbench's tracer wraps the incidence.h0_ideal alias)
    parse_resolution,
    term_sum,
)

class CatalogError(ValueError):
    """A case catalog is malformed or internally inconsistent."""


class Verdict(enum.Enum):
    """A report row's verdict; its text is the member's _value_.

    The report path reads _value_ directly: Enum.value is a property, a call per read.
    """

    SPLITS_BY_RANGE = "SplitsByRange"
    EXCLUDED_PLANE = "ExcludedPlane"
    EXCLUDED_PFAFFIAN = "ExcludedPfaffian"
    EXCLUDED_BY_DIMENSION_COUNT = "ExcludedByDimensionCount"
    INCONCLUSIVE_COUNT = "InconclusiveCount"
    REDUCED_TO_THREEFOLD = "ReducedToThreefold"
    ARITHMETICALLY_IMPOSSIBLE = "ArithmeticallyImpossible"

    def __str__(self) -> str:
        return self.value


#: Verdicts that close their case; only an inconclusive count exits nonzero.
CONCLUSIVE_VERDICTS = frozenset(
    v for v in Verdict if v is not Verdict.INCONCLUSIVE_COUNT
)


class CaseRecord(namedtuple("CaseRecord", "r c1 c2 resolution provenance")):
    """One candidate Chern pair on a degree-r hypersurface; __new__ checks c2."""

    __slots__ = ()

    def __new__(
        cls,
        r: int,
        c1: int,
        c2: int,
        resolution: GorensteinResolution | None = None,
        provenance: str = "",
    ) -> CaseRecord:
        if c2 < 1:
            raise CatalogError(f"case ({c1}, {c2}): c2 must be >= 1")
        return super().__new__(cls, r, c1, c2, resolution, provenance)

    @property
    def label(self) -> str:
        return f"(c1={self.c1}, c2={self.c2})"


def resolve_parameters(res: GorensteinResolution) -> GorensteinResolution:
    """Identity, called by nothing: perfbench/tracer.py patches this name (ROADMAP item 7)."""
    return res


class ReportRow(NamedTuple):
    """One line of the case report; None marks a quantity with no meaning."""

    case: CaseRecord | None
    genus: int | None
    h0_ideal_at_r: Count | None
    h0_normal: Count | None
    bound: Count | None
    moduli_dim: Count
    verdict: Verdict
    notes: tuple[str, ...] = ()


class Report(NamedTuple):
    degree: int
    moduli_dim: Count
    rows: tuple[ReportRow, ...]

    @property
    def conclusive(self) -> bool:
        return all(row.verdict in CONCLUSIVE_VERDICTS for row in self.rows)


def load_catalog(data: Mapping, expected_degree: int | None = None) -> list[CaseRecord]:
    """Parse and shape-check a catalog document into case records.

    A key the engine does not read, at any level, is refused by name.
    """
    if not isinstance(data, Mapping):
        raise CatalogError("catalog must be a JSON object")
    if "degree" not in data or "cases" not in data:
        raise CatalogError("catalog needs 'degree' and 'cases' keys")
    unknown = [key for key in data if key not in ("degree", "cases")]
    if unknown:
        keys = _short(repr(unknown))
        raise CatalogError(f"catalog has unknown keys {keys}; it takes only degree and cases")
    degree = data["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise CatalogError("catalog degree must be an integer")
    if expected_degree is not None and degree != expected_degree:
        raise CatalogError(
            f"catalog is for degree {degree}, expected degree {expected_degree}"
        )
    raw_cases = data["cases"]
    if not isinstance(raw_cases, Sequence) or isinstance(raw_cases, (str, bytes)):
        raise CatalogError("catalog 'cases' must be a list")
    cases = []
    for idx, raw in enumerate(raw_cases):
        label = f"case #{idx}"
        if not isinstance(raw, Mapping):
            raise CatalogError(f"{label} must be an object")
        for key in ("c1", "c2"):
            if isinstance(raw.get(key), bool) or not isinstance(raw.get(key), int):
                raise CatalogError(f"{label}: {key} must be an integer")
        label = f"case #{idx} (c1={raw['c1']}, c2={raw['c2']})"
        unknown = [key for key in raw if key not in ("c1", "c2", "resolution", "provenance")]
        if unknown:
            raise CatalogError(
                f"{label} has unknown keys {_short(repr(unknown))};"
                " a case takes only c1, c2, resolution and provenance"
            )
        resolution = None
        if raw.get("resolution") is not None:
            try:
                resolution = parse_resolution(raw["resolution"])
            except ValueError as exc:
                raise CatalogError(f"{label}: {exc}") from exc
        provenance = raw.get("provenance", "")
        if not isinstance(provenance, str):
            raise CatalogError(f"{label}: provenance must be a string")
        cases.append(
            CaseRecord(
                r=degree,
                c1=raw["c1"],
                c2=raw["c2"],
                resolution=resolution,
                provenance=provenance,
            )
        )
    return cases


def load_catalog_file(path: str, expected_degree: int | None = None) -> list[CaseRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(
                handle, parse_int=lambda d: _read_int(d, f"catalog {path}", CatalogError)
            )
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog {path} is not valid JSON: {exc}") from exc
    return load_catalog(data, expected_degree)


#: The built-in catalogs, parsed once at import; their records are immutable, so calls share them.
_BUILTIN_CASES = {
    degree: load_catalog(doc, degree) for degree, doc in _catalog.BUILTIN_CATALOGS.items()
}


def builtin_catalog(degree: int) -> list[CaseRecord]:
    """The built-in classification for degrees 3 through 6, as a new list."""
    if degree not in _BUILTIN_CASES:
        raise CatalogError(f"no built-in catalog for degree {degree}")
    return list(_BUILTIN_CASES[degree])


#: The boundary quadric's (1,1,2) complete-intersection resolution, parsed once at import.
_QUADRIC = parse_resolution(_catalog.QUADRIC_RESOLUTION)


def _boundary_cases(r: int) -> list[CaseRecord]:
    """The two boundary cases, stated rather than stored in a catalog.

    c1 = 3 - r forces c2 = 1 (a plane).  c1 = 4 - r forces c2 = 2, a
    quadric surface, which is a (1,1,2) complete intersection because
    degree 2 plus the no-planes property forces it to be reduced; the
    quadric case therefore carries that resolution.  The proof of both
    values of c2 is the two-twist Euler elimination,
    euler.solve_c2_boundary; tests/test_euler.py::test_boundary_c2_solving
    runs it for every degree r in 1..200.
    """
    return [
        CaseRecord(
            r=r,
            c1=3 - r,
            c2=1,
            provenance="boundary case: c2 forced by the two-twist Euler elimination",
        ),
        CaseRecord(
            r=r,
            c1=4 - r,
            c2=2,
            resolution=_QUADRIC,
            provenance="boundary case: c2 forced by the two-twist Euler elimination;"
            " the degree-2 locus is a (1,1,2) complete intersection quadric",
        ),
    ]


def _check_window(degree: int, has_cases: bool) -> None:
    """Refuse a degree no report covers, and any case of degree 6, as generate_report does."""
    if not 3 <= degree <= 6:
        raise CatalogError(f"reports cover degrees 3 through 6, not {degree}")
    if degree == 6 and has_cases:
        raise CatalogError(
            "degree 6 is decided by reduction to the sextic threefold,"
            " so its catalog takes no cases"
        )


def _cascade(
    case: CaseRecord, genus: int | None, ideal: Count | None, normal: Count | None,
    bound: Count | None, moduli: Count,
) -> tuple[Verdict, str]:
    """The verdict of the first cascade rule that decides the case, and the note that proves it.

    Rules in order: splitting range 2 - r < c1 < r (so c1 = 3 - r reaches
    the plane rule), plane, pfaffian pair, genus parity (genus None),
    dimension count (bound = ideal - 1 + normal, None without a
    resolution), inconclusive.
    """
    r = case.r
    if not 2 - r < case.c1 < r:
        return Verdict.SPLITS_BY_RANGE, (
            "c1 lies outside the window 2 - r < c1 < r, so the bundle splits outright"
        )
    if case.c2 == 1:
        return Verdict.EXCLUDED_PLANE, (
            "a degree-1 zero locus is a plane, and the general hypersurface of"
            " degree >= 3 contains no planes"
        )
    if case.c1 == r - 1 and case.c2 == pfaffian_c2(r):
        return Verdict.EXCLUDED_PFAFFIAN, (
            "the Chern pair is the pfaffian pair (c1, c2) = (r - 1, r(r-1)(2r-1)/6),"
            " and the general hypersurface of degree >= 3 is not pfaffian"
        )
    if genus is None:
        return Verdict.ARITHMETICALLY_IMPOSSIBLE, (
            "the sectional genus of the zero locus is not an integer"
        )
    if bound is not None and bound < moduli:
        return Verdict.EXCLUDED_BY_DIMENSION_COUNT, (
            f"incidence bound {bound} = {ideal} - 1 + {normal} is below the"
            f" moduli dimension {moduli}"
        )
    if bound is None:
        return Verdict.INCONCLUSIVE_COUNT, "no resolution is available for a dimension count"
    return Verdict.INCONCLUSIVE_COUNT, (
        f"incidence bound {bound} does not beat the moduli dimension {moduli}"
    )


def evaluate_case(case: CaseRecord, grid: range | None = None) -> ReportRow:
    """One report row for a case: checked, counted, decided and explained in one walk.

    A degree the report refuses is refused with its message.  A
    resolution is validated on its admissible interval, which a grid,
    when one is given, must lie inside, and counted on its generator
    blocks (see checked_resolution); a resolution without a parameter
    ignores the grid.  Invalid twist data, a parameter that moves a net
    count, a grid that leaves the interval or a Hilbert numerator that
    is no surface's included, is refused first; then a Chern pair whose
    sectional genus is not an integer, then a surface degree or genus
    that differs from the pair's.  Each refusal names the case and
    raises CatalogError.  The row's first note is the one of the cascade
    rule that decided it; a catalog annotation for the case and that
    verdict follows.
    """
    r, c1, c2, res, _ = case
    _check_window(r, has_cases=True)
    moduli = moduli_dim(r)
    try:
        genus: int | None = sectional_genus(r, c1, c2)
    except ParityError as exc:
        genus, parity = None, str(exc)
    ideal = normal = bound = None
    if res is not None:
        try:
            gens, surface = checked_resolution(res, grid)
            if genus is None:
                raise CatalogError(parity)
            if surface.degree != c2:
                raise CatalogError(f"resolution has surface degree {surface.degree}, not c2")
            if surface.sectional_genus != genus:
                raise CatalogError(
                    f"resolution sectional genus {surface.sectional_genus}"
                    f" != {genus} from the Chern pair"
                )
        except (CatalogError, ResolutionValidationError) as exc:
            raise CatalogError(f"case {case.label}: {exc}") from exc
        ideal = term_sum(gens, res.socle_twist, r)
        normal = _kmr(gens, res.socle_twist)
        bound = ideal - 1 + normal
    decided, note = _cascade(case, genus, ideal, normal, bound, moduli)
    annotations = _catalog.REPORT_ANNOTATIONS.get((r, c1, c2, decided._value_), ())
    return ReportRow(case, genus, ideal, normal, bound, moduli, decided, (note, *annotations))


def verdict(case: CaseRecord) -> Verdict:
    """The verdict the report prints for the case; total on valid cases and deterministic.

    The case is checked as the report checks it (see evaluate_case), so
    a degree outside 3..5, or a resolution whose degree or genus is not
    the Chern pair's, raises CatalogError.
    """
    return evaluate_case(case).verdict


def dimension_bound(case: CaseRecord) -> Count:
    """h^0(I_S(r)) - 1 + h^0(N_S), the incidence-variety bound the report prints for the case.

    The case is checked as verdict checks it; a case without a
    resolution has no bound and raises CatalogError.
    """
    if case.resolution is None:
        raise CatalogError(f"case {case.label} has no resolution to count with")
    return evaluate_case(case).bound


def generate_report(
    degree: int,
    cases: Sequence[CaseRecord] | None = None,
    grid_override: range | None = None,
) -> Report:
    """Evaluate every case for one degree, boundary cases included.

    Reports cover degrees 3 through 6.  Degree 6 yields the single
    reduction row and no computation, and refuses any case.  Every
    case, boundary cases first and then the catalog's in its order, is
    evaluated by evaluate_case on grid_override, so the first faulty one
    is named.  Rows are then ordered by (c1, c2), and a repeated Chern
    pair is refused.
    """
    _check_window(degree, has_cases=bool(cases))
    moduli = moduli_dim(degree)
    if degree == 6:
        reduction = ReportRow(
            None, None, None, None, None, moduli, Verdict.REDUCED_TO_THREEFOLD,
            (
                "hyperplane sections reduce the sextic fourfold to the general sextic"
                " threefold, where every rank-2 ACM bundle splits",
            ),
        )
        return Report(degree, moduli, (reduction,))
    if cases is None:
        cases = builtin_catalog(degree)
    for case in cases:
        if case.r != degree:
            raise CatalogError(f"case {case.label} is for degree {case.r}, not {degree}")
    rows = [evaluate_case(c, grid_override) for c in _boundary_cases(degree) + list(cases)]
    rows.sort(key=lambda row: (row.case.c1, row.case.c2))
    for row, following in zip(rows, rows[1:]):
        if (row.case.c1, row.case.c2) == (following.case.c1, following.case.c2):
            raise CatalogError(
                f"case {row.case.label} appears twice; boundary cases are derived, not listed"
            )
    return Report(degree, moduli, tuple(rows))


def render_report_markdown(report: Report) -> str:
    """Deterministic Markdown rendering of a report; None prints as "-"."""
    lines = [
        f"# ACM rank-2 case report: degree {report.degree} hypersurfaces in P^5",
        "",
        f"Moduli dimension: dim P({report.degree}) = {report.moduli_dim}",
        "",
        "| c1 | c2 | g | h0 I_S(r) | h0 N_S | bound | dim P(r) | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    notes: list[str] = []
    for case, genus, ideal, normal, bound, moduli, decided, row_notes in report.rows:
        if case is None:
            c1 = c2 = "-"
            where = "- (reduction): "
        else:
            c1, c2 = case.c1, case.c2
            where = f"- (c1={c1}, c2={c2}): "
        lines.append(
            f"| {c1} | {c2} | {'-' if genus is None else genus}"
            f" | {'-' if ideal is None else ideal} | {'-' if normal is None else normal}"
            f" | {'-' if bound is None else bound} | {moduli} | {decided._value_} |"
        )
        notes += [where + note for note in row_notes]
    if notes:
        lines += ["", "Notes:", "", *notes]
    lines.append("")
    return "\n".join(lines)


def row_to_jsonable(row: ReportRow) -> dict:
    """One row as the JSON object that both report and check-case print."""
    case = row.case
    return {
        "c1": None if case is None else case.c1,
        "c2": None if case is None else case.c2,
        "genus": row.genus,
        "h0_ideal": row.h0_ideal_at_r,
        "h0_normal": row.h0_normal,
        "bound": row.bound,
        "verdict": row.verdict._value_,
        "notes": list(row.notes),
    }


def report_to_jsonable(report: Report) -> dict:
    return {
        "degree": report.degree,
        "moduli_dim": report.moduli_dim,
        "rows": [row_to_jsonable(row) for row in report.rows],
    }


#: json_text of a leaf, by its exact type; str goes through json's C escaper, as ensure_ascii
#: does, and an exact int's repr is what json.dumps prints.
_LEAF_TEXT = {str: encode_basestring_ascii, int: repr, type(None): lambda _: "null"}


def json_text(value: object, newline_indent: str = "\n") -> str:
    """json.dumps(value, indent=2) of str-keyed dicts, lists, str, int and None; else TypeError.

    A container writes its leaves through _LEAF_TEXT directly and recurses only into
    the containers it holds.
    """
    kind = type(value)
    leaf = _LEAF_TEXT.get(kind)
    if leaf is not None:
        return leaf(value)
    if kind is not list and kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "[]" if kind is list else "{}"
    inner = newline_indent + "  "
    get = _LEAF_TEXT.get
    if kind is list:
        items = [
            text(item) if (text := get(type(item))) else json_text(item, inner) for item in value
        ]
        return "[" + inner + f",{inner}".join(items) + newline_indent + "]"
    items = [
        f"{encode_basestring_ascii(key)}: "
        f"{text(item) if (text := get(type(item))) else json_text(item, inner)}"
        for key, item in value.items()
    ]
    return "{" + inner + f",{inner}".join(items) + newline_indent + "}"


def render_report_json(report: Report) -> str:
    """The report through json_text plus a newline; re-rendering a parse is byte-identical."""
    return json_text(report_to_jsonable(report)) + "\n"
