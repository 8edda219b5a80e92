import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmsplit.proj_cohomology import (
    AMBIENT_DIM,
    chi_hyp,
    chi_pn,
    h0_hyp,
    h0_pn,
    moduli_dim,
)
from conftest import canonical_twist, count_monomials, hi_pn

TWISTS = st.integers(min_value=-15, max_value=15)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", range(-2, 9))
def test_h0_counts_monomials(n, k):
    assert h0_pn(n, k) == count_monomials(n + 1, k, lambda e: True)


@given(k=TWISTS)
@settings(max_examples=60, deadline=None)
def test_serre_duality_on_p5(k):
    for i in range(AMBIENT_DIM + 1):
        assert hi_pn(5, k, i) == hi_pn(5, -k - 6, 5 - i)


@given(k=TWISTS)
@settings(max_examples=60, deadline=None)
def test_middle_cohomology_vanishes(k):
    for i in range(1, AMBIENT_DIM):
        assert hi_pn(5, k, i) == 0


@given(k=TWISTS)
@settings(max_examples=60, deadline=None)
def test_chi_is_the_alternating_sum(k):
    total = sum((-1) ** i * hi_pn(5, k, i) for i in range(6))
    assert chi_pn(5, k) == total


def test_chi_is_a_polynomial_in_the_twist():
    # degree 5 with leading coefficient 1/120, exact at every integer
    for k in range(-12, 13):
        product = 1
        for i in range(1, 6):
            product *= k + i
        assert 120 * chi_pn(5, k) == product


def test_degree_out_of_range_rejected():
    with pytest.raises(ValueError):
        hi_pn(5, 0, 6)
    with pytest.raises(ValueError):
        hi_pn(5, 0, -1)


@pytest.mark.parametrize(
    "degree, expected",
    [(3, 55), (4, 125), (5, 251), (6, 461)],
)
def test_moduli_dimension(degree, expected):
    assert moduli_dim(degree) == expected
    # the degree-r forms in 6 variables, counted one monomial at a time
    assert moduli_dim(degree) == count_monomials(6, degree, lambda e: True) - 1


def test_canonical_twist():
    assert canonical_twist(3) == -3
    assert canonical_twist(6) == 0


@pytest.mark.parametrize(
    "degree, n, expected",
    [
        (3, 0, 1),
        (3, 1, 6),
        (3, 3, 55),
        (4, 4, 125),
        (5, 5, 251),
        (3, -1, 0),
    ],
)
def test_hypersurface_sections(degree, n, expected):
    assert h0_hyp(degree, n) == expected


@given(n=TWISTS, degree=st.integers(min_value=3, max_value=6))
@settings(max_examples=60, deadline=None)
def test_chi_hyp_serre_duality(n, degree):
    """chi(O_X(n)) = chi(O_X(r - 6 - n)): the canonical twist is r - 6."""
    assert chi_hyp(degree, n) == chi_hyp(degree, canonical_twist(degree) - n)


@given(n=st.integers(min_value=1, max_value=12), degree=st.integers(min_value=3, max_value=6))
@settings(max_examples=60, deadline=None)
def test_sections_match_chi_in_the_stable_range(n, degree):
    # no higher cohomology once n > canonical_twist, and r - 6 <= 0 here
    assert h0_hyp(degree, n) == chi_hyp(degree, n)


def test_trivial_canonical_class_on_the_sextic():
    # n = 0 on degree 6 keeps an h^4 = h^0(K) = 1, so chi exceeds h^0
    assert h0_hyp(6, 0) == 1
    assert chi_hyp(6, 0) == 2
