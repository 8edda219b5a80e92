"""Shared exact-arithmetic oracles and catalog iterators for the tests."""

import itertools
from collections import Counter

from acmsplit.catalog import BUILTIN_CATALOGS
from acmsplit.incidence import builtin_catalog, resolve_parameters
from acmsplit.resolutions import scan_points

#: Complete-intersection types appearing in the built-in catalogs.
CI_TYPES = [(1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 1, 4), (1, 2, 3)]


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


def case_points(case):
    """Grid points to scan for one case, after parameter resolution."""
    res, _ = resolve_parameters(case.resolution)
    return res, scan_points(res, case.parameter_grid)


def resolved_points():
    """(case, single-parameter resolution, grid point) across the catalog."""
    for case in builtin_cases():
        if case.resolution is None:
            continue
        res, points = case_points(case)
        for x in points:
            yield case, res, x
