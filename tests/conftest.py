"""Shared exact-arithmetic oracles and catalog iterators for the tests."""

import itertools
from collections import Counter
from dataclasses import dataclass

from acmsplit.catalog import BUILTIN_CATALOGS
from acmsplit.combinatorics import binom_trunc
from acmsplit.euler import sectional_genus
from acmsplit.incidence import builtin_catalog
from acmsplit.proj_cohomology import chi_pn, h0_pn
from acmsplit.resolutions import (
    AffineExpr,
    GorensteinResolution,
    ResolutionValidationError,
    SurfaceInvariants,
    UnresolvedParameterError,
    Violation,
)

#: Complete-intersection types appearing in the built-in catalogs.
CI_TYPES = [(1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 1, 4), (1, 2, 3)]

#: Surface degree 8 - x on the admissible half-line x >= 0: a surface for x <= 7 only.  The
#: parameter moves the net count at twists 2, 3, 4 and 5, so validate refuses it.
FALLING_DEGREE = {
    "gens": [[1, 1], [2, 1], [4, 1], [4, "3*x"], [2, "x"]],
    "syz": [[6, 1], [5, 1], [3, 1], [3, "3*x"], [5, "x"]],
    "socle": 7,
}

#: Admissible on -3 <= x <= 0, with degree 4 and 2 at x = -3 and -2, and no surface at x = -1.
#: The parameter moves the net count at twists 1, 2, 4 and 5, so validate refuses it.
DEGENERATES_PARTWAY = {
    "gens": [[4, "2*x+7"], [5, "-2*x"], [1, "-x+5"]],
    "syz": [[2, "2*x+7"], [1, "-2*x"], [5, "-x+5"]],
    "socle": 6,
}

#: DEGENERATES_PARTWAY at x = -1: balanced, self-dual and in range, but its Hilbert
#: polynomial has degree < 2: h = P(z)/(1 - z)^3 = (1 + z)(1 - z)^2 sums to 0.
NO_SURFACE = {"gens": [[4, 5], [5, 2], [1, 6]], "syz": [[2, 5], [1, 2], [5, 6]], "socle": 6}

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
    """Every x in WINDOW at which each multiplicity with the parameter evaluates to >= 0.

    A constant multiplicity takes one value at every x, so it bounds no value.
    """
    mults = [mult for _, mult in res.generators + res.syzygies if mult.param is not None]
    return [x for x in WINDOW if all(mult.evaluate(x) >= 0 for mult in mults)]


def walk_points(res, grid=None, count=40):
    """The points a plain walk visits, independent of the package's scan.

    [None] without a parameter; else every point of the grid, or without
    one the first count admissible values from the finite end.
    """
    if res.parameter() is None:
        return [None]
    if grid is not None:
        return grid
    found = admissible_search(res)
    return found[::-1][:count] if found[:1] == [WINDOW[0]] else found[:count]


def case_points(case):
    """A case's resolution and the points to walk for it: six without a grid."""
    return case.resolution, walk_points(case.resolution, None, 6)


def resolved_points():
    """(case, resolution, grid point) across the catalog."""
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


def subcanonical_e(res):
    """e with omega_S = O_S(e) for a resolution over P^5; equals socle_twist - 6."""
    return res.socle_twist - 6


# ------------------------------------------------ flat reference formulas
#
# The positional O(rank^2) formulas over multiplicity-expanded twist
# lists.  The package counts block by block; these are the oracle it is
# compared against.


def flat_entries(res, x=None):
    """(generators, syzygies) as (twist, count) per record entry, unmerged, in record order."""
    res.parameter()  # a record built directly with two parameters has no value at x
    out = []
    for label, vector in (("gens", res.generators), ("syz", res.syzygies)):
        entries = []
        for twist, mult in vector:
            count = mult.evaluate(x)
            if count < 0:
                where = "" if mult.param is None else f" at x={x}"
                raise ResolutionValidationError(
                    f"{label} multiplicity {mult} of twist {twist} is {count}{where}"
                )
            entries.append((twist, count))
        out.append(entries)
    return out[0], out[1]


def flat_twists(res, x=None):
    """(generators, syzygies) expanded entry by entry, in record order."""
    gens, syz = flat_entries(res, x)
    return [n for n, c in gens for _ in range(c)], [m for m, c in syz for _ in range(c)]


def _flat_alternating_sum(value, res, t, x):
    """sum_i value(t - n_i) - sum_j value(t - m_j) + value(t - socle), entry by entry.

    Each entry adds count times its term, so a count of 10**20 costs what a
    count of 1 does.
    """
    gens, syz = flat_entries(res, x)
    total = sum(c * value(5, t - n) for n, c in gens)
    total -= sum(c * value(5, t - m) for m, c in syz)
    return total + value(5, t - res.socle_twist)


def flat_h0_ideal(res, t, x=None):
    return _flat_alternating_sum(h0_pn, res, t, x)


def flat_h0_structure(res, t, x=None):
    return 0 if t < 0 else h0_pn(5, t) - flat_h0_ideal(res, t, x)


def flat_chi_structure_poly(res, t, x=None):
    return chi_pn(5, t) - _flat_alternating_sum(chi_pn, res, t, x)


def flat_surface_invariants(res, x=None):
    """surface_invariants() from the flat chi values: second and first differences and chi(O_S)."""
    values = [flat_chi_structure_poly(res, t, x) for t in range(-1, 2)]
    degree = values[2] - 2 * values[1] + values[0]
    return SurfaceInvariants(degree, 1 - (values[1] - values[0]), values[1])


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


def degree_balance_form(res):
    """Sum(n_i) - Sum(m_j) + socle as (const, coeff): const + coeff * x in the one parameter.

    The identity must vanish for the twist data to come from an actual
    resolution, so both parts are 0 on a balanced record.
    """
    const, coeff = res.socle_twist, 0
    for sign, vector in ((1, res.generators), (-1, res.syzygies)):
        for twist, mult in vector:
            const += sign * twist * mult.const
            coeff += sign * twist * mult.coeff
    return const, coeff


def net_counts(res, x):
    """Generators minus syzygies at each twist at x, entry by entry; negative counts allowed."""
    net = Counter()
    for sign, vector in ((1, res.generators), (-1, res.syzygies)):
        for twist, mult in vector:
            net[twist] += sign * mult.evaluate(x)
    return net


def flat_blocks(res, x=None):
    """(generators, syzygies) at x as blocks: twists ascending, equal ones merged, zeros dropped."""
    out = []
    for entries in flat_entries(res, x):
        tally = Counter()
        for twist, count in entries:
            tally[twist] += count
        out.append(sorted((t, c) for t, c in tally.items() if c))
    return out[0], out[1]


def canonical_record(res, x=None):
    """The record at x with each twist's generators and syzygies cancelled down to its net count."""
    net = sorted(net_counts(res, x).items())
    return GorensteinResolution(
        tuple((t, AffineExpr(c)) for t, c in net if c > 0),
        tuple((t, AffineExpr(-c)) for t, c in net if c < 0),
        res.socle_twist,
    )


def self_dual_in_range(res, x=None):
    """The shape the positional KMR sum needs at x: syzygies socle - n, generators in 1..s - 1."""
    gens, syz = flat_blocks(res, x)
    s = res.socle_twist
    return syz == [(s - n, c) for n, c in reversed(gens)] and all(0 < n < s for n, _ in gens)


def moving_twists(res):
    """The twists whose net count differs between x = 0 and 1, ascending; [] without a parameter.

    Each count is affine in x, so two values of x show every twist it moves.
    """
    if res.parameter() is None:
        return []
    at0, at1 = net_counts(res, 0), net_counts(res, 1)
    return sorted(t for t in at0.keys() | at1.keys() if at0[t] != at1[t])


def cancelling_pairs(name, twists):
    """The violation of a parameter that moves the net count at the twists, as validate words it."""
    detail = (
        f"{name} moves the net count of generators minus syzygies at twists"
        f" {', '.join(map(str, twists))}; a parameter may only add cancelling pairs"
    )
    return Violation("cancelling-pairs", detail)


def grid_points(grid):
    """The points of a grid that a plain walk visits.

    Every point of a grid of at most 10,000 points.  Of a longer one, its
    first and last 100 points and its points in WINDOW, where every drawn
    family's multiplicities change sign.
    """
    if not grid[10_000:]:
        return list(grid)
    return [*grid[:100], *(x for x in WINDOW if x in grid), *grid[-100:]]


def flat_validate(res, grid=None):
    """validate() as a walk over points, checking each point's record entries.

    A parameter that moves the net count at some twist is reported once,
    with those twists (moving_twists).  On a family, an empty grid and a
    window without an admissible value (admissible_search) are one
    violation each and end the walk.  Each negative constant is reported
    once, naming no point.  On a family with a grid, the walk visits the
    grid's points (grid_points) and reports one negative multiplicity,
    naming no point, when an expression with the parameter is negative at
    one of them.  When none of these is found, the Hilbert function is
    tested at the first walked point (flat_numerator_test).  Twists are
    tallied entry by entry, never expanded, so a count of 10**20 costs
    what a count of 1 does.
    """
    try:
        name = res.parameter()
    except UnresolvedParameterError as exc:
        return [Violation("unresolved-parameters", str(exc))]
    violations = []
    moving = moving_twists(res)
    if moving:
        violations.append(cancelling_pairs(name, moving))
    if name is not None:
        if grid is not None and not grid:
            return violations + [Violation("empty-grid", "no point to walk")]
        if not admissible_search(res):
            return violations + [Violation("empty-domain", "no point to walk")]
    entries = [
        (side, twist, mult)
        for side, vector in (("gens", res.generators), ("syz", res.syzygies))
        for twist, mult in vector
    ]
    negative = [
        Violation(
            "negative-multiplicity",
            f"{side} multiplicity {mult} of twist {twist} is {mult.const}",
        )
        for side, twist, mult in entries
        if mult.param is None and mult.const < 0
    ]
    if name is not None and grid is not None and any(
        mult.evaluate(x) < 0
        for x in grid_points(grid)
        for _, _, mult in entries
        if mult.param is not None
    ):
        negative.append(Violation("negative-multiplicity", "negative at a grid point"))
    if violations or negative:
        return violations + negative
    return flat_numerator_test(res, walk_points(res, grid)[0])


def flat_numerator_test(res, x=None):
    """validate's Hilbert-numerator test by a separate route: no polynomial division.

    h_j is the third difference H(j) - 3H(j-1) + 3H(j-2) - H(j-3) of the
    flat Hilbert function H(t) = h^0(O_P5(t)) - flat_h0_ideal(res, t, x).
    Each term of P/(1 - z)^6 adds a quintic in t above its twist, so h_j
    is a quadratic in j between consecutive record twists (0 and the
    socle s included): a piece is zero, or two pieces agree, when they
    do at the first three points of each piece.  So h is read at a
    handful of points, whatever the size of the twists.  The failed
    part is returned as the detail, without validate's P(z).
    """
    s = res.socle_twist

    def hilbert(t):
        return h0_pn(5, t) - flat_h0_ideal(res, t, x)

    def h(j):
        return hilbert(j) - 3 * hilbert(j - 1) + 3 * hilbert(j - 2) - hilbert(j - 3)

    def starts(bases, lo, hi):
        """The first three points of each piece that starts at a base, within lo..hi."""
        return sorted({b + d for b in bases for d in range(3) if lo <= b + d <= hi})

    powers = {0, s, *(twist for twist, _ in res.generators + res.syzygies)}
    top, bottom = max(powers), min(powers)
    if any(h(j) for j in (top, top + 1, top + 2)):  # the quadratic past every twist
        failed = "h is not a polynomial"
    elif any(h(j) for j in starts(powers, bottom, -1)) or h(0) != 1:
        failed = "h does not start with h_0 = 1 at z^0"
    elif h(s - 3) == 0 or any(h(j) for j in starts(powers | {s - 2}, s - 2, top + 2)):
        failed = f"h does not have length socle - 2 = {s - 2}"
    elif any(
        h(j) != h(s - 3 - j) for j in starts(powers | {s - 2 - e for e in powers}, 0, s - 3)
    ):
        failed = "h is not symmetric"
    else:
        degree = hilbert(top + 2) - 2 * hilbert(top + 1) + hilbert(top)  # sum h, as top >= deg h
        if degree > 0:
            return []
        failed = f"h sums to {degree}, not a positive surface degree"
    return [Violation("hilbert-numerator", failed)]


def located(violations):
    """Each violation as (invariant, part), to compare validate with a walk.

    A negative constant keeps its expression, and a grid that leaves the
    admissible interval only its kind: validate names the grid and the
    interval, the walk neither.  A Hilbert-numerator violation keeps only
    its failed part, not P(z), and an empty grid or interval only its
    kind.
    """
    out = []
    for v in violations:
        part = v.detail
        if v.invariant == "negative-multiplicity":
            part = part.split(" is ")[0] if " of twist " in part else ""
        elif v.invariant == "hilbert-numerator":
            part = part.split(", with h = ")[0]
        elif v.invariant in ("empty-grid", "empty-domain"):
            part = ""
        out.append((v.invariant, part))
    return out


# ------------------------------------------------ bundle diagnostics


@dataclass(frozen=True)
class BundleNumerics:
    """Chern data (c1, c2) of a rank-2 bundle on X_r, with normalization offset b."""

    r: int
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
        return sectional_genus(self.r, self.c1, self.c2)


def stability_index(bundle: BundleNumerics) -> int:
    """2b - c1: negative for stable, zero on the strictly semistable wall."""
    return 2 * bundle.b - bundle.c1
