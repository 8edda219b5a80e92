"""Global sections of the normal bundle of an arithmetically Gorenstein
surface in P^5, by a closed formula over the resolution twists.

With generator twists sorted ascending (n_1 <= ... <= n_r) and syzygy
twists sorted descending (m_1 >= ... >= m_r),

    h^0(N_S) =  sum_i h^0(O_S(n_i))
              + sum_{i<j} C(-n_i + m_j + 5, 5)
              - sum_{i<j} C( n_i - m_j + 5, 5)
              - sum_i C(n_i + 5, 5)

where every binomial is the truncated dimension-count convention.  On
the built-in resolutions no binomial argument is ever negative, so the
polynomial convention would agree term by term; the truncation is still
mandatory, since a negative argument fed to the polynomial convention
would inject a spurious signed term.
"""

from __future__ import annotations

from .combinatorics import Count, binom_trunc
from .proj_cohomology import AMBIENT_DIM, h0_pn
from .resolutions import GorensteinResolution, term_sum


class ConventionViolation(ArithmeticError):
    """The formula produced a negative section count; a convention bug."""


def _pairs_before(a: int, b: int) -> int:
    """#{(i, j) : 0 <= i < a, 0 <= j < b, i < j}."""
    if b <= a:
        return b * (b - 1) // 2
    return a * (a - 1) // 2 + (b - a) * a


def kmr_h0_normal(res: GorensteinResolution, x: int | None = None) -> Count:
    """h^0(N_S) from the resolution twists alone.

    The sums run block against block, so a point costs O(blocks^2)
    whatever the multiplicities.  A generator block at ascending
    positions [i0, i1) and a syzygy block at descending positions
    [j0, j1) share exactly the i < j pairs counted by inclusion-exclusion
    over _pairs_before, which equals the positional sum on any input.
    """
    gens, syz = res.blocks(x)
    socle = res.socle_twist
    total = 0
    i0 = 0
    for n, count in gens:
        i1 = i0 + count
        if n >= 0:
            total += count * (h0_pn(AMBIENT_DIM, n) - term_sum(h0_pn, gens, syz, socle, n))
        total -= count * binom_trunc(n + 5, 5)
        j0 = 0
        for m, syz_count in reversed(syz):
            j1 = j0 + syz_count
            pairs = (
                _pairs_before(i1, j1) - _pairs_before(i0, j1)
                - _pairs_before(i1, j0) + _pairs_before(i0, j0)
            )
            total += pairs * (binom_trunc(-n + m + 5, 5) - binom_trunc(n - m + 5, 5))
            j0 = j1
        i0 = i1
    if total < 0:
        raise ConventionViolation(f"h^0(N_S) computed as {total} < 0")
    return total
