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

from dataclasses import dataclass

from .combinatorics import Count, binom_trunc
from .resolutions import GorensteinResolution, h0_structure
from .resolutions import NonConstantScanError  # noqa: F401  (re-exported)


class ConventionViolation(ArithmeticError):
    """The formula produced a negative section count; a convention bug."""


@dataclass(frozen=True)
class KmrInput:
    """Sorted twist data feeding the closed formula.

    Sorting is part of the formula, not a convenience: generators
    ascending, syzygies descending, so dual twists face each other.
    """

    resolution: GorensteinResolution
    parameter: int | None
    sorted_gens: tuple[int, ...]
    sorted_syz: tuple[int, ...]

    @classmethod
    def from_resolution(
        cls, res: GorensteinResolution, x: int | None = None
    ) -> "KmrInput":
        gens, syz = res.expand(x)
        return cls(
            resolution=res,
            parameter=x,
            sorted_gens=tuple(sorted(gens)),
            sorted_syz=tuple(sorted(syz, reverse=True)),
        )

    @property
    def rank(self) -> int:
        return len(self.sorted_gens)

    def pair_arguments(self) -> list[tuple[int, int]]:
        """Binomial arguments (-n_i + m_j + 5, n_i - m_j + 5) over i < j."""
        n, m = self.sorted_gens, self.sorted_syz
        return [
            (-n[i] + m[j] + 5, n[i] - m[j] + 5)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
        ]


def kmr_h0_normal(res: GorensteinResolution, x: int | None = None) -> Count:
    """h^0(N_S) from the resolution twists alone."""
    data = KmrInput.from_resolution(res, x)
    total = sum(h0_structure(res, n, x) for n in data.sorted_gens)
    for pos_arg, neg_arg in data.pair_arguments():
        total += binom_trunc(pos_arg, 5)
        total -= binom_trunc(neg_arg, 5)
    total -= sum(binom_trunc(n + 5, 5) for n in data.sorted_gens)
    if total < 0:
        raise ConventionViolation(f"h^0(N_S) computed as {total} < 0")
    return total


def kmr_negative_pair_total(res: GorensteinResolution, x: int | None = None) -> Count:
    """The subtracted pair sum sum_{i<j} C(n_i - m_j + 5, 5) on its own.

    Zero on every non-parametric built-in resolution; genuinely nonzero
    at larger parameter values of the parametric families, where it is
    needed to keep the total constant.
    """
    data = KmrInput.from_resolution(res, x)
    return sum(binom_trunc(neg_arg, 5) for _, neg_arg in data.pair_arguments())


def kmr_min_pair_argument(res: GorensteinResolution, x: int | None = None) -> int:
    """Smallest binomial argument over both pair sums.

    Non-negative on the whole built-in catalog, which is what makes the
    truncated and polynomial binomial conventions agree there.
    """
    data = KmrInput.from_resolution(res, x)
    pairs = data.pair_arguments()
    if not pairs:
        return 0
    return min(min(pos, neg) for pos, neg in pairs)
