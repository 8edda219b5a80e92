"""Shared exact-arithmetic oracles and catalog iterators for the tests."""

import itertools
from collections import Counter
from dataclasses import dataclass

from acmsplit.catalog import BUILTIN_CATALOGS
from acmsplit.combinatorics import binom_trunc
from acmsplit.euler import sectional_genus
from acmsplit.incidence import builtin_catalog, resolve_parameters
from acmsplit.proj_cohomology import HypersurfaceContext, chi_pn, h0_pn
from acmsplit.resolutions import (
    DegenerateResolutionError,
    ResolutionValidationError,
    SurfaceInvariants,
    UnresolvedParameterError,
    Violation,
    degree_balance_form,
)

#: Complete-intersection types appearing in the built-in catalogs.
CI_TYPES = [(1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 1, 4), (1, 2, 3)]

#: Surface degree 8 - x on the admissible half-line x >= 0: a surface for x <= 7 only.
FALLING_DEGREE = {
    "gens": [[1, 1], [2, 1], [4, 1], [4, "3*x"], [2, "x"]],
    "syz": [[6, 1], [5, 1], [3, 1], [3, "3*x"], [5, "x"]],
    "socle": 7,
}

#: Admissible on -3 <= x <= 0, with degree 4 and 2 at x = -3 and -2, and no surface at x = -1.
DEGENERATES_PARTWAY = {
    "gens": [[4, "2*x+7"], [5, "-2*x"], [1, "-x+5"]],
    "syz": [[2, "2*x+7"], [1, "-2*x"], [5, "-x+5"]],
    "socle": 6,
}

#: Multiplicities x and -x - 1 are never both >= 0: the admissible interval is empty.
EMPTY_DOMAIN = {
    "gens": [[2, 3], [3, "x"], [3, "-x-1"]],
    "syz": [[3, "x"], [3, "-x-1"], [4, 3]],
    "socle": 6,
}


def _group(twists):
    return [[t, mult] for t, mult in sorted(Counter(twists).items())]


def ci_resolution(a, b, c):
    """Resolution of a complete intersection of degrees (a, b, c).

    Built from first principles: generators at the three degrees,
    syzygies at the pairwise sums, socle at the total.
    """
    return {
        "gens": _group((a, b, c)),
        "syz": _group((a + b, a + c, b + c)),
        "socle": a + b + c,
    }


def count_monomials(nvars, degree, keep):
    if degree < 0:
        return 0
    total = 0
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exponents = [0] * nvars
        for var in combo:
            exponents[var] += 1
        if keep(exponents):
            total += 1
    return total


def koszul_ideal_dim(ci_degrees, t):
    """Degree-t dimension of the monomial ideal (x0^a, x1^b, x2^c) in P^5.

    Pure enumeration, independent of any resolution bookkeeping; a
    monomial lies in the ideal exactly when one generator divides it.
    """
    gens = list(enumerate(ci_degrees))
    return count_monomials(6, t, lambda e: any(e[i] >= d for i, d in gens))


def builtin_cases():
    for degree in sorted(BUILTIN_CATALOGS):
        yield from builtin_catalog(degree)


#: Parameter values searched for admissible points; the built-in and drawn
#: families have their finite ends well inside it.
WINDOW = range(-100, 101)


def admissible_search(res):
    """Every x in WINDOW at which each multiplicity evaluates to >= 0."""
    mults = [mult for _, mult in res.generators + res.syzygies]
    return [x for x in WINDOW if all(mult.evaluate(x) >= 0 for mult in mults)]


def is_half_line(res):
    """Whether the admissible values of a family run off an edge of WINDOW."""
    found = admissible_search(res)
    return bool(found) and (found[0] == WINDOW[0] or found[-1] == WINDOW[-1])


def walk_points(res, grid=None, count=40):
    """The points a plain walk visits, independent of the package's scan.

    [None] without a parameter; else every point of the grid, or without
    one the first count admissible values from the finite end.
    """
    if not res.is_parametric:
        return [None]
    if grid is not None:
        return grid
    found = admissible_search(res)
    return found[::-1][:count] if found[:1] == [WINDOW[0]] else found[:count]


def case_points(case):
    """Points to walk for one case, after parameter resolution: six without a grid."""
    res, _ = resolve_parameters(case.resolution)
    return res, walk_points(res, case.parameter_grid, 6)


def resolved_points():
    """(case, single-parameter resolution, grid point) across the catalog."""
    for case in builtin_cases():
        if case.resolution is None:
            continue
        res, points = case_points(case)
        for x in points:
            yield case, res, x


# ------------------------------------------------ cohomology on P^n and X


def hi_pn(n, k, i):
    """h^i(O_{P^n}(k)) by Bott: only i = 0 and i = n can be nonzero."""
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    if not 0 <= i <= n:
        raise ValueError(f"cohomological degree must lie in [0, {n}], got {i}")
    if i == 0:
        return binom_trunc(k + n, n)
    if i == n:
        return binom_trunc(-k - 1, n)
    return 0


def canonical_twist(degree):
    """Twist t with omega_X = O_X(t) on a degree-r hypersurface; adjunction gives r - 6."""
    return degree - 6


# ------------------------------------------------ flat reference formulas
#
# The positional O(rank^2) formulas over multiplicity-expanded twist
# lists.  The package counts block by block; these are the oracle it is
# compared against.


def flat_twists(res, x=None):
    """(generators, syzygies) expanded entry by entry, in record order."""
    if len(res.free_parameters()) > 1:
        raise UnresolvedParameterError("apply the balance relation first")
    out = []
    for vector in (res.generators, res.syzygies):
        twists = []
        for twist, mult in vector:
            count = mult.evaluate(x)
            if count < 0:
                raise ResolutionValidationError(
                    f"multiplicity {mult} of twist {twist} is {count} at x={x}"
                )
            twists.extend([twist] * count)
        out.append(twists)
    return out[0], out[1]


def _flat_alternating_sum(value, res, t, x):
    gens, syz = flat_twists(res, x)
    total = sum(value(5, t - n) for n in gens)
    total -= sum(value(5, t - m) for m in syz)
    return total + value(5, t - res.socle_twist)


def flat_h0_ideal(res, t, x=None):
    return _flat_alternating_sum(h0_pn, res, t, x)


def flat_h0_structure(res, t, x=None):
    return 0 if t < 0 else h0_pn(5, t) - flat_h0_ideal(res, t, x)


def flat_chi_structure_poly(res, t, x=None):
    return chi_pn(5, t) - _flat_alternating_sum(chi_pn, res, t, x)


def flat_surface_invariants(res, x=None):
    """surface_invariants() from the flat chi values, with the same refusals."""
    values = [flat_chi_structure_poly(res, t, x) for t in range(-2, 4)]
    third = [values[i + 3] - 3 * values[i + 2] + 3 * values[i + 1] - values[i] for i in range(3)]
    if any(third):
        raise DegenerateResolutionError(
            f"Hilbert polynomial has degree > 2 (third differences {third})"
        )
    degree = values[3] - 2 * values[2] + values[1]
    if degree <= 0:
        raise DegenerateResolutionError(
            f"Hilbert polynomial has degree < 2 (leading difference {degree})"
        )
    return SurfaceInvariants(degree, 1 - (values[2] - values[1]), values[2])


def sorted_twists(res, x=None):
    """Generators ascending, syzygies descending, so dual twists face each other."""
    gens, syz = flat_twists(res, x)
    return sorted(gens), sorted(syz, reverse=True)


def pair_arguments(res, x=None):
    """Binomial arguments (-n_i + m_j + 5, n_i - m_j + 5) over positions i < j."""
    n, m = sorted_twists(res, x)
    return [
        (-n[i] + m[j] + 5, n[i] - m[j] + 5)
        for i in range(len(n))
        for j in range(i + 1, len(m))
    ]


def flat_kmr_total(res, x=None):
    """The KMR sum term by term; negative totals are returned, not refused."""
    gens, _ = sorted_twists(res, x)
    structure = {n: flat_h0_structure(res, n, x) for n in set(gens)}  # one sum per twist
    total = sum(structure[n] for n in gens)
    for (positive, negative), count in Counter(pair_arguments(res, x)).items():  # terms repeat
        total += count * (binom_trunc(positive, 5) - binom_trunc(negative, 5))
    return total - sum(binom_trunc(n + 5, 5) for n in gens)


def kmr_negative_pair_total(res, x=None):
    """The subtracted pair sum sum_{i<j} C(n_i - m_j + 5, 5) on its own."""
    return sum(binom_trunc(negative, 5) for _, negative in pair_arguments(res, x))


def kmr_min_pair_argument(res, x=None):
    """Smallest binomial argument over both pair sums (0 with no pairs)."""
    pairs = pair_arguments(res, x)
    return min((min(pair) for pair in pairs), default=0)


def flat_validate(res, grid=None):
    """validate() as a walk over walk_points, checking flat twist lists at each point.

    A negative multiplicity is reported at every point and for every
    expression where it is negative.  A generator twist below 1, or a
    syzygy twist at or above the socle, is reported once per distinct
    twist at each point.
    """
    names = res.free_parameters()
    if len(names) > 1:
        return [
            Violation(
                "unresolved-parameters",
                None,
                "parameters " + ", ".join(sorted(names)) + " need a balance relation first",
            )
        ]
    violations = []
    const, coeffs = degree_balance_form(res)
    if const != 0 or coeffs:
        residual = " ".join([str(const)] + [f"{v:+d}*{k}" for k, v in sorted(coeffs.items())])
        violations.append(
            Violation("degree-balance", None, f"twist sums leave residual {residual}")
        )
    points = walk_points(res, grid)
    if not points:
        tag = "empty-domain" if grid is None else "empty-grid"
        return violations + [Violation(tag, None, "no point to walk")]
    dual_shift = res.socle_twist
    for x in points:
        negative = [
            Violation(
                "negative-multiplicity",
                x,
                f"multiplicity {mult} of twist {twist} is {mult.evaluate(x)} at x={x}",
            )
            for twist, mult in res.generators + res.syzygies
            if mult.evaluate(x) < 0
        ]
        if negative:
            violations += negative
            continue
        gens, syz = flat_twists(res, x)
        if not gens:
            violations.append(Violation("trivial-rank", x, "no generators"))
            continue
        if len(gens) != len(syz):
            violations.append(
                Violation("rank-balance", x, f"{len(gens)} generators vs {len(syz)} syzygies")
            )
        if sorted(syz) != sorted(dual_shift - n for n in gens):
            violations.append(
                Violation(
                    "self-duality",
                    x,
                    f"syzygy twists differ from {dual_shift} minus generator twists",
                )
            )
        violations += [
            Violation("twist-range", x, f"generator twist {n} is below 1")
            for n in sorted(set(gens))
            if n < 1
        ]
        violations += [
            Violation("twist-range", x, f"syzygy twist {m} is not below the socle {dual_shift}")
            for m in sorted(set(syz))
            if m >= dual_shift
        ]
    return violations


def located(violations):
    """Each violation as (invariant, its points, detail), to compare a scan with a walk.

    A negative multiplicity keeps only its expression: the scan names a
    range of points once, the walk each point with its value.
    """
    out = []
    for v in violations:
        points = list(v.param_value) if isinstance(v.param_value, range) else [v.param_value]
        negative = v.invariant == "negative-multiplicity"
        out.append((v.invariant, points, v.detail.split(" is ")[0] if negative else v.detail))
    return out


# ------------------------------------------------ bundle diagnostics


@dataclass(frozen=True)
class BundleNumerics:
    """Chern data (c1, c2) of a rank-2 bundle, with normalization offset b."""

    ctx: HypersurfaceContext
    c1: int
    c2: int
    b: int = 0

    def __post_init__(self) -> None:
        if self.c2 < 1:
            raise ValueError(f"c2 must be at least 1, got {self.c2}")

    @property
    def is_normalized(self) -> bool:
        return self.b == 0

    def sectional_genus(self) -> int:
        return sectional_genus(self.ctx.degree, self.c1, self.c2)


def stability_index(bundle: BundleNumerics) -> int:
    """2b - c1: negative for stable, zero on the strictly semistable wall."""
    return 2 * bundle.b - bundle.c1
