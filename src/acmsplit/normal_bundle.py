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

The sums are evaluated in the collapsed form

    h^0(N_S) = - sum_{n_i >= 0} h^0(I_S(n_i))
               + sum_{i<j} [C(d + 5, 5) if d > 0, -C(5 - d, 5) if d < 0, 0 if d = 0],

with d = m_j - n_i.  Proof: h^0(O_S(n)) = C(n + 5, 5) - h^0(I_S(n)) for
n >= 0, and both h^0(O_S(n)) and C(n + 5, 5) vanish for n < 0; of the two
truncated pair binomials at most one is nonzero, and both are 1 at d = 0.
"""

from __future__ import annotations

from math import comb

from .combinatorics import Count
from .resolutions import Blocks, GorensteinResolution, _at, checked_resolution, term_sum


class ConventionViolation(ArithmeticError):
    """The formula produced a negative section count; a convention bug."""


def _block_pairs(i0: int, i1: int, j0: int, j1: int) -> int:
    """#{(i, j) : i0 <= i < i1, j0 <= j < j1, i < j}, in closed form.

    Each i below j0 pairs with all j1 - j0 values of j.  Each i in
    [lo, hi) = [max(i0, j0), min(i1, j1)) pairs with the j1 - 1 - i values
    after it, an arithmetic series.
    """
    before = (i1 if i1 < j0 else j0) - i0
    pairs = before * (j1 - j0) if before > 0 else 0
    lo = i0 if i0 > j0 else j0
    hi = i1 if i1 < j1 else j1
    if hi > lo:
        pairs += (hi - lo) * (2 * j1 - lo - hi - 1) // 2
    return pairs


def kmr_h0_normal(res: GorensteinResolution, x: int | None = None) -> Count:
    """h^0(N_S) of the checked resolution at x, from its twists alone (see _kmr)."""
    return _kmr(*checked_resolution(res, _at(x))[0], res.socle_twist)


def _kmr(gens: Blocks, syz: Blocks, socle: int) -> Count:
    """kmr_h0_normal on a record's canonical blocks (see resolutions._walk).

    The sums run block against block, so a point costs O(blocks^2)
    whatever the multiplicities.  A generator block at ascending
    positions [i0, i1) and a syzygy block at descending positions
    [j0, j1) share the _block_pairs(i0, i1, j0, j1) pairs i < j of the
    positional sum, counted in closed form.

    Lemma: a cancelling ("ghost") pair {t, s - t}, 1 <= t <= s - 1 with
    s the socle, added to both gens and syz of a self-dual resolution
    with generator twists in 1..s - 1 changes no count.  The pair term
    is f(d) = C(d+5, 5)+ - C(5-d, 5)+ at d = m_j - n_i, and m_j = s - n_j,
    so the pair sum is sum f(s - n_i - n_j) over unordered pairs of
    generator positions.  The ghost adds sum_i [f(t - n_i) + f(s - t - n_i)]
    to it (and f(0) = 0 for the new pair), which is h^0(I_S(t)) +
    h^0(I_S(s - t)): the truncated terms at t - s and -t vanish.  That is
    what the -sum h^0(I_S(n_i)) term loses, as I_S keeps its Hilbert
    function.  The one ghost at t = s/2 adds sum_i f(t - n_i) = h^0(I_S(t))
    and loses it the same way.  A record validate accepts is its
    canonical blocks plus pairs of one twist; where it is self-dual in
    range those come as such ghosts, so its count is the canonical one.
    """
    total = 0
    i0 = 0
    for n, count in gens:
        i1 = i0 + count
        if n >= 0:
            total -= count * term_sum(gens, syz, socle, n)
        j1 = 0
        for m, syz_count in reversed(syz):
            j0, j1 = j1, j1 + syz_count
            d = m - n
            if j1 <= i0 or not d:  # no pair i < j, or a zero term
                continue
            pairs = _block_pairs(i0, i1, j0, j1)
            total += pairs * (comb(d + 5, 5) if d > 0 else -comb(5 - d, 5))
        i0 = i1
    if total < 0:
        raise ConventionViolation(f"h^0(N_S) computed as {total} < 0")
    return total
