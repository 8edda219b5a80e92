"""Line-bundle cohomology on projective space and on hypersurfaces in P^5.

Everything is a closed-form binomial evaluation: h^0 and chi on P^N come
from Bott's formula, the middle cohomology of line bundles vanishes, and
twists on an ACM hypersurface are computed through its defining short
exact sequence.
"""

from __future__ import annotations

from math import comb

from .combinatorics import Count, EulerNumber, binom_poly, binom_trunc

#: Every computation in this package lives in P^5.
AMBIENT_DIM = 5


def moduli_dim(degree: int) -> Count:
    """dim P(r) = binom(r + 5, 5) - 1 for a degree r >= 1: the degree-r forms, projectivized."""
    return comb(degree + AMBIENT_DIM, AMBIENT_DIM) - 1


def h0_pn(n: int, k: int) -> Count:
    """h^0(O_{P^n}(k)): sections are the degree-k forms in n + 1 variables."""
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    return binom_trunc(k + n, n)


def chi_pn(n: int, k: int) -> EulerNumber:
    """chi(O_{P^n}(k)) as a polynomial in k, valid for every integer twist."""
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    return binom_poly(k + n, n)


def h0_hyp(r: int, n: int) -> Count:
    """h^0(O_X(n)) on X of degree r, from 0 -> O(n - r) -> O(n) -> O_X(n) -> 0 on P^5.

    Restriction is surjective on sections because h^1 of line bundles
    on P^5 vanishes, so the count is an exact difference.
    """
    return h0_pn(AMBIENT_DIM, n) - h0_pn(AMBIENT_DIM, n - r)


def chi_hyp(r: int, n: int) -> EulerNumber:
    """chi(O_X(n)) on X of degree r, as the difference of two ambient Euler characteristics."""
    return chi_pn(AMBIENT_DIM, n) - chi_pn(AMBIENT_DIM, n - r)
