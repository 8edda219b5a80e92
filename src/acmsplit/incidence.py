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
from typing import NamedTuple

from . import catalog as _catalog
from .combinatorics import Count
from .euler import ParityError, pfaffian_c2, sectional_genus, solve_c2_boundary
from .normal_bundle import kmr_h0_normal
from .proj_cohomology import HypersurfaceContext
from .resolutions import (
    AffineExpr,
    DegenerateResolutionError,
    GorensteinResolution,
    SurfaceInvariants,
    admissible,
    degree_balance_form,
    h0_ideal,
    parse_resolution,
    scan_constant,
    scan_points,
    surface_invariants,
    validate,
)

class CatalogError(ValueError):
    """A case catalog is malformed or internally inconsistent."""


class Verdict(enum.Enum):
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


class CaseRecord(namedtuple("CaseRecord", "r c1 c2 resolution parameter_grid provenance")):
    """One candidate Chern pair on a degree-r hypersurface.

    __new__ checks c2; _replace skips that check.
    """

    __slots__ = ()

    def __new__(
        cls,
        r: int,
        c1: int,
        c2: int,
        resolution: GorensteinResolution | None = None,
        parameter_grid: range | None = None,
        provenance: str = "",
    ) -> CaseRecord:
        if c2 < 1:
            raise CatalogError(f"case ({c1}, {c2}): c2 must be >= 1")
        return super().__new__(cls, r, c1, c2, resolution, parameter_grid, provenance)

    @property
    def label(self) -> str:
        return f"(c1={self.c1}, c2={self.c2})"


class BalanceRelation(NamedTuple):
    """The linear relation among resolution parameters forced by balance.

    A trivial relation (dependent None) means the twist data balances
    identically.
    """

    dependent: str | None = None
    expression: AffineExpr | None = None

    @property
    def is_trivial(self) -> bool:
        return self.dependent is None

    def __str__(self) -> str:
        if self.is_trivial:
            return "0 = 0"
        return f"{self.dependent} = {self.expression}"


def solve_balance(res: GorensteinResolution) -> BalanceRelation:
    """Solve Sum(n_i) - Sum(m_j) + socle = 0 for one parameter.

    With two parameters the dependent one is chosen so its solved
    expression has a non-positive constant offset (so it is the
    parameter bounded by the other); the built-in families come out as
    c = b - 2 and b = c - 1.
    """
    const, coeffs = degree_balance_form(res)
    if not coeffs:
        if const != 0:
            raise CatalogError(
                f"degree balance is inconsistent: residual constant {const}"
            )
        return BalanceRelation()
    if len(coeffs) == 1:
        ((name, coeff),) = coeffs.items()
        if const % coeff:
            raise CatalogError(
                f"degree balance {coeff}*{name} + {const} = 0 has no integer solution"
            )
        return BalanceRelation(name, AffineExpr(const=-const // coeff))
    if len(coeffs) > 2:
        raise CatalogError(
            "degree balance involves more than two parameters: "
            + ", ".join(sorted(coeffs))
        )
    (p1, k1), (p2, k2) = sorted(coeffs.items())
    for dep_name, dep_coeff, other_name, other_coeff in (
        (p1, k1, p2, k2),
        (p2, k2, p1, k1),
    ):
        if other_coeff % dep_coeff:
            continue
        solved = AffineExpr(
            const=-const // dep_coeff,
            coeff=-other_coeff // dep_coeff,
            param=other_name,
        )
        if const % dep_coeff == 0 and solved.const <= 0:
            return BalanceRelation(dep_name, solved)
    raise CatalogError(
        f"degree balance {k1}*{p1} {k2:+d}*{p2} {const:+d} = 0 has no"
        " integer solution with non-positive offset"
    )


def resolve_parameters(
    res: GorensteinResolution,
) -> tuple[GorensteinResolution, BalanceRelation]:
    """Reduce a two-parameter resolution to one via its balance relation."""
    if len(res.free_parameters()) < 2:
        return res, BalanceRelation()
    relation = solve_balance(res)
    if relation.is_trivial:
        raise CatalogError("two free parameters but a trivial balance relation")
    return res.substitute(relation.dependent, relation.expression), relation


def checked_resolution(
    res: GorensteinResolution,
    grid: range | None = None,
    label: str | None = None,
) -> tuple[GorensteinResolution, list[int | None], list[SurfaceInvariants]]:
    """Balance and validate a resolution; return it, its scan points and their invariants.

    This is the one path from raw twist data to counts: case preparation
    and the kmr and hilbert commands take it.  Invalid twist data raises
    CatalogError; a Hilbert polynomial that is no surface at a scan point,
    or whose degree falls toward the open end of a half-line (see
    scan_points), raises DegenerateResolutionError.  Both name the case
    when a label is given.
    """
    where = "" if label is None else f"case {label}: "
    try:
        res, _ = resolve_parameters(res)
    except CatalogError as exc:
        raise CatalogError(f"{where}{exc}") from exc
    problems = validate(res, grid)
    if problems:
        raise CatalogError(
            f"{where}invalid resolution: " + "; ".join(str(p) for p in problems)
        )
    points = scan_points(res, grid)
    try:
        found = [surface_invariants(res, x) for x in points]
    except DegenerateResolutionError as exc:
        raise DegenerateResolutionError(f"{where}{exc}") from exc
    # points run outward from a half-line's finite end: a falling degree reaches 0
    if len(found) > 1 and grid is None and None in admissible(res):
        if found[1].degree < found[0].degree:
            raise DegenerateResolutionError(
                f"{where}surface degree falls from {found[0].degree} at x={points[0]}"
                f" to {found[1].degree} at x={points[1]}, so it is <= 0 further out"
            )
    return res, points, found


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
        raise CatalogError(f"catalog has unknown keys {unknown}; it takes only degree and cases")
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
                f"{label} has unknown keys {unknown};"
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
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog {path} is not valid JSON: {exc}") from exc
    return load_catalog(data, expected_degree)


def builtin_catalog(degree: int) -> list[CaseRecord]:
    """The built-in classification for degrees 3 through 6."""
    if degree not in _catalog.BUILTIN_CATALOGS:
        raise CatalogError(f"no built-in catalog for degree {degree}")
    return load_catalog(_catalog.BUILTIN_CATALOGS[degree], degree)


def _prepare_case(case: CaseRecord) -> CaseRecord:
    """Balance and validate; refuse a genus or degree not the case's, naming it.

    A scan point with no surface is refused first, then a Chern pair
    whose sectional genus is not an integer, then a surface degree or
    genus that differs from the pair's.
    """
    if case.resolution is None:
        return case
    resolution, _, found = checked_resolution(case.resolution, case.parameter_grid, case.label)
    try:
        expected_genus = sectional_genus(case.r, case.c1, case.c2)
    except ParityError as exc:
        raise CatalogError(f"case {case.label}: {exc}") from exc
    for invariants in found:
        if invariants.degree != case.c2:
            raise CatalogError(
                f"case {case.label}: resolution has surface degree"
                f" {invariants.degree}, not c2"
            )
        if invariants.sectional_genus != expected_genus:
            raise CatalogError(
                f"case {case.label}: resolution sectional genus"
                f" {invariants.sectional_genus} != {expected_genus} from the Chern pair"
            )
    return case._replace(resolution=resolution)


def _boundary_cases(ctx: HypersurfaceContext) -> list[CaseRecord]:
    """Re-derive the two boundary cases instead of storing them.

    c1 = 3 - r forces c2 = 1 (a plane).  c1 = 4 - r forces c2 = 2, a
    quadric surface, which is a (1,1,2) complete intersection because
    degree 2 plus the no-planes property forces it to be reduced; the
    quadric case therefore carries that resolution.
    """
    r = ctx.degree
    plane_c2 = solve_c2_boundary(ctx, 3 - r)
    quadric_c2 = solve_c2_boundary(ctx, 4 - r)
    if (plane_c2, quadric_c2) != (1, 2):
        raise CatalogError(
            f"boundary elimination returned ({plane_c2}, {quadric_c2}), expected (1, 2)"
        )
    return [
        CaseRecord(
            r=r,
            c1=3 - r,
            c2=plane_c2,
            provenance="boundary case: c2 forced by the two-twist Euler elimination",
        ),
        CaseRecord(
            r=r,
            c1=4 - r,
            c2=quadric_c2,
            resolution=parse_resolution(_catalog.QUADRIC_RESOLUTION),
            provenance="boundary case: c2 forced by the two-twist Euler elimination;"
            " the degree-2 locus is a (1,1,2) complete intersection quadric",
        ),
    ]


#: The note of the degree-6 rule, on its report row and on a cascade verdict alike.
_REDUCTION_NOTE = (
    "hyperplane sections reduce the sextic fourfold to the general sextic threefold,"
    " where every rank-2 ACM bundle splits"
)


def _cascade(
    case: CaseRecord, genus: int | None, ideal: Count | None, normal: Count | None,
    bound: Count | None, moduli: Count,
) -> tuple[Verdict, str]:
    """The verdict of the first cascade rule that decides the case, and the note that proves it.

    Rules in order: splitting range 2 - r < c1 < r (so c1 = 3 - r reaches
    the plane rule), plane, pfaffian pair, genus parity (genus None),
    dimension count (bound = ideal - 1 + normal, None without a
    resolution), degree-6 reduction, inconclusive.
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
    if r == 6:
        return Verdict.REDUCED_TO_THREEFOLD, _REDUCTION_NOTE
    if bound is None:
        return Verdict.INCONCLUSIVE_COUNT, "no resolution is available for a dimension count"
    return Verdict.INCONCLUSIVE_COUNT, (
        f"incidence bound {bound} does not beat the moduli dimension {moduli}"
    )


def evaluate_case(case: CaseRecord) -> ReportRow:
    """One report row for a prepared case (see report_cases): counted, decided, explained.

    Each count is taken once.  The row's first note is the one of the
    cascade rule that decided it; a catalog annotation for the case and
    that verdict follows.
    """
    moduli = HypersurfaceContext(case.r).moduli_dim
    try:
        genus: int | None = sectional_genus(case.r, case.c1, case.c2)
    except ParityError:
        genus = None
    ideal = normal = bound = None
    res = case.resolution
    if res is not None:
        points = scan_points(res, case.parameter_grid)
        ideal = scan_constant(
            lambda x: h0_ideal(res, case.r, x), points, f"h^0(I_S({case.r})) for case {case.label}"
        )
        normal = scan_constant(
            lambda x: kmr_h0_normal(res, x), points, f"h^0(N_S) for case {case.label}"
        )
        bound = ideal - 1 + normal
    decided, note = _cascade(case, genus, ideal, normal, bound, moduli)
    annotations = _catalog.REPORT_ANNOTATIONS.get((case.r, case.c1, case.c2, decided.value), ())
    return ReportRow(case, genus, ideal, normal, bound, moduli, decided, (note, *annotations))


def verdict(case: CaseRecord) -> Verdict:
    """The verdict the report prints for the case; total on valid cases and deterministic.

    The case is prepared as the report prepares it (see _prepare_case),
    so a resolution whose degree or genus is not the Chern pair's raises
    CatalogError naming the case.
    """
    return evaluate_case(_prepare_case(case)).verdict


def dimension_bound(case: CaseRecord) -> Count:
    """h^0(I_S(r)) - 1 + h^0(N_S), the incidence-variety bound the report prints for the case.

    The case is prepared as verdict prepares it; a case without a
    resolution has no bound and raises CatalogError.
    """
    if case.resolution is None:
        raise CatalogError(f"case {case.label} has no resolution to count with")
    return evaluate_case(_prepare_case(case)).bound


def report_cases(
    degree: int,
    cases: Sequence[CaseRecord] | None = None,
    grid_override: range | None = None,
) -> list[CaseRecord]:
    """The prepared cases of one degree, boundary cases included.

    Cases are balanced, validated and ordered by (c1, c2); catalog
    inconsistencies, a repeated Chern pair among them, abort with the
    offending case named.  Degree 6 has none, and refuses any: its
    report is the single reduction row.
    """
    ctx = HypersurfaceContext(degree)
    if degree == 6:
        if cases:
            raise CatalogError(
                "degree 6 is decided by reduction to the sextic threefold,"
                " so its catalog takes no cases"
            )
        return []
    if degree < 3:
        raise CatalogError(f"reports cover degrees 3 through 6, not {degree}")
    if cases is None:
        cases = builtin_catalog(degree)
    for case in cases:
        if case.r != degree:
            raise CatalogError(f"case {case.label} is for degree {case.r}, not {degree}")
    if grid_override is not None:
        cases = [
            c._replace(parameter_grid=grid_override)
            if c.resolution is not None and c.resolution.is_parametric
            else c
            for c in cases
        ]
    all_cases = _boundary_cases(ctx) + [_prepare_case(c) for c in cases]
    all_cases.sort(key=lambda c: (c.c1, c.c2))
    for case, following in zip(all_cases, all_cases[1:]):
        if (case.c1, case.c2) == (following.c1, following.c2):
            raise CatalogError(
                f"case {case.label} appears twice; boundary cases are derived, not listed"
            )
    return all_cases


def generate_report(
    degree: int,
    cases: Sequence[CaseRecord] | None = None,
    grid_override: range | None = None,
) -> Report:
    """Evaluate every case for one degree, boundary cases included.

    Degree 6 yields the single reduction row and no computation.  Rows
    are ordered by (c1, c2).  Catalog inconsistencies abort with the
    offending case named.
    """
    moduli = HypersurfaceContext(degree).moduli_dim
    prepared = report_cases(degree, cases, grid_override)
    if degree == 6:
        reduction = ReportRow(
            None, None, None, None, None, moduli, Verdict.REDUCED_TO_THREEFOLD, (_REDUCTION_NOTE,)
        )
        return Report(degree, moduli, (reduction,))
    return Report(degree, moduli, tuple(evaluate_case(c) for c in prepared))


def _cell(value: object) -> str:
    return "-" if value is None else str(value)


def render_report_markdown(report: Report) -> str:
    """Deterministic Markdown rendering of a report."""
    lines = [
        f"# ACM rank-2 case report: degree {report.degree} hypersurfaces in P^5",
        "",
        f"Moduli dimension: dim P({report.degree}) = {report.moduli_dim}",
        "",
        "| c1 | c2 | g | h0 I_S(r) | h0 N_S | bound | dim P(r) | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    notes: list[str] = []
    for row in report.rows:
        c1 = row.case.c1 if row.case is not None else None
        c2 = row.case.c2 if row.case is not None else None
        lines.append(
            "| "
            + " | ".join(
                [
                    _cell(c1),
                    _cell(c2),
                    _cell(row.genus),
                    _cell(row.h0_ideal_at_r),
                    _cell(row.h0_normal),
                    _cell(row.bound),
                    str(row.moduli_dim),
                    row.verdict.value,
                ]
            )
            + " |"
        )
        where = f"(c1={c1}, c2={c2})" if row.case is not None else "(reduction)"
        notes.extend(f"- {where}: {note}" for note in row.notes)
    if notes:
        lines.extend(["", "Notes:", ""])
        lines.extend(notes)
    lines.append("")
    return "\n".join(lines)


def row_to_jsonable(row: ReportRow) -> dict:
    """One row as the JSON object that both report and check-case print."""
    return {
        "c1": row.case.c1 if row.case is not None else None,
        "c2": row.case.c2 if row.case is not None else None,
        "genus": row.genus,
        "h0_ideal": row.h0_ideal_at_r,
        "h0_normal": row.h0_normal,
        "bound": row.bound,
        "verdict": row.verdict.value,
        "notes": list(row.notes),
    }


def report_to_jsonable(report: Report) -> dict:
    return {
        "degree": report.degree,
        "moduli_dim": report.moduli_dim,
        "rows": [row_to_jsonable(row) for row in report.rows],
    }


def render_report_json(report: Report) -> str:
    """Deterministic JSON rendering; re-rendering a parse is byte-identical."""
    return json.dumps(report_to_jsonable(report), indent=2) + "\n"
