"""Exact-arithmetic case analysis for ACM rank-2 bundles on hypersurfaces in P^5.

Everything is integer arithmetic: cohomology of twisted line bundles on
P^5 and on a degree-r hypersurface, Hilbert functions from codimension-3
arithmetically Gorenstein resolutions, normal-bundle cohomology, and the
dimension counts that exclude each candidate Chern pair on the general
hypersurface of degree 3, 4 or 5.
"""

from .euler import pfaffian_c2, sectional_genus, solve_c2_boundary
from .incidence import (
    CaseRecord,
    CatalogError,
    Report,
    ReportRow,
    Verdict,
    builtin_catalog,
    dimension_bound,
    generate_report,
    render_report_json,
    render_report_markdown,
    verdict,
)
from .normal_bundle import kmr_h0_normal
from .proj_cohomology import HypersurfaceContext
from .resolutions import (
    GorensteinResolution,
    NonConstantScanError,
    h0_ideal,
    parse_resolution,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CaseRecord",
    "CatalogError",
    "GorensteinResolution",
    "HypersurfaceContext",
    "NonConstantScanError",
    "Report",
    "ReportRow",
    "Verdict",
    "builtin_catalog",
    "dimension_bound",
    "generate_report",
    "h0_ideal",
    "kmr_h0_normal",
    "parse_resolution",
    "pfaffian_c2",
    "render_report_json",
    "render_report_markdown",
    "sectional_genus",
    "solve_c2_boundary",
    "validate",
    "verdict",
]
