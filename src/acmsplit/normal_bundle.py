"""Global sections of the normal bundle of an arithmetically Gorenstein
surface in P^5, by a closed formula over the resolution twists.

With generator twists sorted ascending (n_1 <= ... <= n_r) and syzygy
twists sorted descending (m_1 >= ... >= m_r),

    h^0(N_S) =  sum_i h^0(O_S(n_i))
              + sum_{i<j} C(-n_i + m_j + 5, 5)
              - sum_{i<j} C( n_i - m_j + 5, 5)
              - sum_i C(n_i + 5, 5)

where every binomial is the truncated dimension-count convention.  On
the built-in resolutions no binomial argument is ever negative, but a
negative one fed to the polynomial convention would inject a spurious
signed term.

The sums are evaluated in the generator-pair form.  A validated record's
syzygy twists are the duals m_j = s - n_j of its generator twists, s the
socle (see resolutions._walk), so with f(d) = C(d + 5, 5) if d > 0,
-C(5 - d, 5) if d < 0 and f(0) = 0,

    h^0(N_S) = - sum_i h^0(I_S(n_i)) + sum_{i<j} f(s - n_i - n_j),

over unordered pairs of generator positions.  Proof: h^0(O_S(n)) =
C(n + 5, 5) - h^0(I_S(n)) for n >= 0, and every generator twist is >= 1;
of the two truncated pair binomials at d = m_j - n_i at most one is
nonzero, and both are 1 at d = 0.
"""

from __future__ import annotations

from math import comb

from .combinatorics import Count
from .resolutions import Blocks, GorensteinResolution, _at, checked_resolution, term_sum


class ConventionViolation(ArithmeticError):
    """The formula produced a negative section count; a convention bug."""


def kmr_h0_normal(res: GorensteinResolution, x: int | None = None) -> Count:
    """h^0(N_S) of the checked resolution at x, from its twists alone (see _kmr)."""
    return _kmr(checked_resolution(res, _at(x))[0], res.socle_twist)


def _kmr(gens: Blocks, socle: int) -> Count:
    """kmr_h0_normal on a validated record's generator blocks (see resolutions._walk).

    The pair sum of the module docstring runs block against block, so a
    point costs O(blocks^2) whatever the multiplicities: a block of count
    c holds C(c, 2) pairs of generator positions, two blocks c c'.

    Lemma: a cancelling ("ghost") pair {t, s - t}, 1 <= t <= s - 1 with
    s the socle, added to both gens and syz of a self-dual resolution
    with generator twists in 1..s - 1 changes no count.  It adds
    sum_i [f(t - n_i) + f(s - t - n_i)] to the pair sum sum_{i<j}
    f(s - n_i - n_j) (and f(0) = 0 for the new pair), which is h^0(I_S(t)) +
    h^0(I_S(s - t)): the truncated terms at t - s and -t vanish.  That is
    what the -sum h^0(I_S(n_i)) term loses, as I_S keeps its Hilbert
    function.  The one ghost at t = s/2 adds sum_i f(t - n_i) = h^0(I_S(t))
    and loses it the same way.  A record validate accepts is its
    canonical blocks plus pairs of one twist; where it is self-dual in
    range those come as such ghosts, so its count is the canonical one.
    """
    total = 0
    for k, (n, c) in enumerate(gens):
        total -= c * term_sum(gens, socle, n)
        for other, c_other in gens[k:]:
            d = socle - n - other
            if d:
                pairs = c * (c - 1) // 2 if other == n else c * c_other
                total += pairs * (comb(d + 5, 5) if d > 0 else -comb(5 - d, 5))
    if total < 0:
        raise ConventionViolation(f"h^0(N_S) computed as {total} < 0")
    return total
