"""Line-bundle cohomology on projective space and on hypersurfaces in P^5.

Everything is a closed-form binomial evaluation: h^0 and h^N on P^N come
from Bott's formula, the middle cohomology of line bundles vanishes, and
twists on an ACM hypersurface are computed through its defining short
exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import Count, EulerNumber, binom_poly, binom_trunc

#: Every computation in this package lives in P^5.
AMBIENT_DIM = 5


@dataclass(frozen=True)
class HypersurfaceContext:
    """A general smooth degree-r hypersurface in P^5.

    Carries only the degree; generality assumptions (no planes, not
    pfaffian for r >= 3) enter through verdict annotations, not here.
    """

    degree: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree}")

    @property
    def canonical_twist(self) -> int:
        """Twist t with omega_X = O_X(t); adjunction gives r - 6."""
        return self.degree - 6

    @property
    def moduli_dim(self) -> Count:
        """Dimension of the projective space of degree-r forms in 6 variables."""
        return binom_trunc(self.degree + AMBIENT_DIM, AMBIENT_DIM) - 1


def h0_pn(n: int, k: int) -> Count:
    """h^0(O_{P^n}(k)): sections are the degree-k forms in n + 1 variables."""
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    return binom_trunc(k + n, n)


def hi_pn(n: int, k: int, i: int) -> Count:
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


def chi_pn(n: int, k: int) -> EulerNumber:
    """chi(O_{P^n}(k)) as a polynomial in k, valid for every integer twist."""
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    return binom_poly(k + n, n)


def h0_hyp(ctx: HypersurfaceContext, n: int) -> Count:
    """h^0(O_X(n)) from 0 -> O(n - r) -> O(n) -> O_X(n) -> 0 on P^5.

    Restriction is surjective on sections because h^1 of line bundles
    on P^5 vanishes, so the count is an exact difference.
    """
    return h0_pn(AMBIENT_DIM, n) - h0_pn(AMBIENT_DIM, n - ctx.degree)


def chi_hyp(ctx: HypersurfaceContext, n: int) -> EulerNumber:
    """chi(O_X(n)) as the difference of two ambient Euler characteristics."""
    return chi_pn(AMBIENT_DIM, n) - chi_pn(AMBIENT_DIM, n - ctx.degree)
