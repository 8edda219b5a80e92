"""Chern-class numerics of normalized rank-2 ACM bundles on X_r in P^5.

solve_c2_boundary solves for c2 at the two boundary values of c1 where
every twist of the bundle entering chi is pinned by ACM vanishing plus
Serre duality, so Riemann-Roch on the zero locus S of a general section
becomes a two-point linear system for the degree of S.  It gives c2 = 1
at c1 = 3 - r and c2 = 2 at c1 = 4 - r.  The report states these two
rows (incidence._boundary_cases) rather than solving for them;
tests/test_euler.py::test_boundary_c2_solving derives them again with
this elimination for every degree r in 1..200.
"""

from __future__ import annotations

from .combinatorics import Count
from .proj_cohomology import chi_hyp, h0_hyp


class ParityError(ArithmeticError):
    """The sectional genus of the would-be zero locus is not an integer."""


class PinningError(ValueError):
    """chi of the requested twist is not determined by ACM data alone."""


def sectional_genus(r: int, c1: int, c2: int) -> int:
    """Genus of the zero-locus section curve: g = 1 + c2 (c1 + r - 5) / 2.

    An odd product c2 * (c1 + r - 5) means no such surface exists; that
    parity failure is the arithmetic impossibility the verdict logic
    reports.
    """
    product = c2 * (c1 + r - 5)
    if product % 2:
        raise ParityError(
            f"c2 (c1 + r - 5) = {product} is odd; sectional genus is not integral"
        )
    return 1 + product // 2


def pfaffian_c2(r: int) -> Count:
    """c2 = r (r - 1) (2r - 1) / 6 forced when c1 = r - 1 (pfaffian pair).

    The division is exact for every integer r: r (r - 1) (2r - 1) = 6 sum_{k<r} k^2.
    """
    return r * (r - 1) * (2 * r - 1) // 6


def chi_bundle_pinned(r: int, c1: int, n: int) -> Count:
    """chi(E(n)) for ACM E on X_r with Chern class c1, when both ends are pinned.

    ACM kills h^1 and h^2; Serre duality for E = E^v (c1) converts h^3
    and h^4 into h^1 and h^0 of the twist nu = -c1 - n + r - 6.  When
    n + c1 <= 0 and nu + c1 <= 0, the section spaces of E(n) and E(nu)
    reduce to sections of O_X, giving
    chi(E(n)) = h^0(O_X(n)) + h^0(O_X(nu)).
    """
    nu = -c1 - n + r - 6
    if n + c1 > 0 or nu + c1 > 0:
        raise PinningError(
            f"twist n={n} with c1={c1} is not pinned (need n + c1 <= 0 and nu + c1 <= 0)"
        )
    return h0_hyp(r, n) + h0_hyp(r, nu)


def solve_c2_boundary(r: int, c1: int) -> Count:
    """Second Chern class forced on X_r at the boundary values c1 = 3 - r, 4 - r.

    With S the zero locus of a section of E(-c1), the twisted Serre
    sequence gives chi(O_S(t)) = chi(O_X(t - c1)) + chi(O_X(t)) -
    chi(E(t - c1)) for t = 0, -1, where every bundle chi is pinned.
    Riemann-Roch on S then yields deg S = 2 (chi_S(-1) - chi_S(0)) /
    (1 + e) with e = c1 + r - 6, and deg S = c2.  A degree below 1 is
    refused before c1 is read.
    """
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    if c1 not in (3 - r, 4 - r):
        raise ValueError(f"c1 must be 3 - r or 4 - r for degree {r}, got {c1}")
    n0 = -c1
    chi_s_0 = chi_hyp(r, n0) + chi_hyp(r, 0) - chi_bundle_pinned(r, c1, n0)
    chi_s_minus1 = chi_hyp(r, n0 - 1) + chi_hyp(r, -1) - chi_bundle_pinned(r, c1, n0 - 1)
    e = c1 + r - 6
    numerator = 2 * (chi_s_minus1 - chi_s_0)
    if e == -1 or numerator % (1 + e):
        raise ArithmeticError(
            f"degree of the zero locus is not integral: 2 ({chi_s_minus1} - {chi_s_0}) / (1 + {e})"
        )
    c2 = numerator // (1 + e)
    if c2 < 1:
        raise ArithmeticError(f"solved c2 = {c2} is not a positive surface degree")
    return c2
