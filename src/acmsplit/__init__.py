"""Exact-arithmetic case analysis for ACM rank-2 bundles on hypersurfaces in P^5.

Everything is integer arithmetic: cohomology of twisted line bundles on
P^5 and on a degree-r hypersurface, Hilbert functions from codimension-3
arithmetically Gorenstein resolutions, normal-bundle cohomology, and the
dimension counts that exclude each candidate Chern pair on the general
hypersurface of degree 3, 4 or 5.
"""

from .combinatorics import Count, EulerNumber, binom_poly, binom_trunc
from .euler import (
    ParityError,
    PinningError,
    c1_candidate_range,
    chi_bundle_pinned,
    pfaffian_c2,
    sectional_genus,
    solve_c2_boundary,
)
from .incidence import (
    CatalogError,
    CaseRecord,
    Report,
    ReportRow,
    Verdict,
    builtin_catalog,
    dimension_bound,
    generate_report,
    load_catalog,
    load_catalog_file,
    render_report_json,
    render_report_markdown,
    resolve_parameters,
    solve_balance,
    verdict,
)
from .normal_bundle import (
    ConventionViolation,
    NonConstantScanError,
    kmr_h0_normal,
)
from .proj_cohomology import (
    AMBIENT_DIM,
    HypersurfaceContext,
    chi_hyp,
    chi_pn,
    h0_hyp,
    h0_pn,
    hi_pn,
    moduli_dim,
)
from .resolutions import (
    AffineExpr,
    DegenerateResolutionError,
    GorensteinResolution,
    ResolutionValidationError,
    SurfaceInvariants,
    UnresolvedParameterError,
    chi_structure_poly,
    h0_ideal,
    h0_structure,
    parse_affine,
    parse_resolution,
    surface_invariants,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AMBIENT_DIM",
    "AffineExpr",
    "CaseRecord",
    "CatalogError",
    "ConventionViolation",
    "Count",
    "DegenerateResolutionError",
    "EulerNumber",
    "GorensteinResolution",
    "HypersurfaceContext",
    "NonConstantScanError",
    "ParityError",
    "PinningError",
    "Report",
    "ReportRow",
    "ResolutionValidationError",
    "SurfaceInvariants",
    "UnresolvedParameterError",
    "Verdict",
    "binom_poly",
    "binom_trunc",
    "builtin_catalog",
    "c1_candidate_range",
    "chi_bundle_pinned",
    "chi_hyp",
    "chi_pn",
    "chi_structure_poly",
    "dimension_bound",
    "generate_report",
    "h0_hyp",
    "h0_ideal",
    "h0_pn",
    "h0_structure",
    "hi_pn",
    "kmr_h0_normal",
    "load_catalog",
    "load_catalog_file",
    "moduli_dim",
    "parse_affine",
    "parse_resolution",
    "pfaffian_c2",
    "render_report_json",
    "render_report_markdown",
    "resolve_parameters",
    "sectional_genus",
    "solve_balance",
    "solve_c2_boundary",
    "surface_invariants",
    "validate",
    "verdict",
]
