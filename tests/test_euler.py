import pytest

from acmsplit.euler import (
    ParityError,
    PinningError,
    chi_bundle_pinned,
    pfaffian_c2,
    sectional_genus,
    solve_c2_boundary,
)
from acmsplit.proj_cohomology import h0_hyp

from conftest import BundleNumerics, stability_index


@pytest.mark.parametrize("r", range(1, 201))
def test_boundary_c2_solving(r):
    """The two boundary lines force c2 = 1 and c2 = 2 for every degree.

    incidence._boundary_cases states these two rows; this elimination is their proof.
    """
    assert solve_c2_boundary(r, 3 - r) == 1
    assert solve_c2_boundary(r, 4 - r) == 2


def test_solver_rejects_interior_c1():
    for c1 in (0, 1, 2, 5):
        with pytest.raises(ValueError):
            solve_c2_boundary(5, c1)


@pytest.mark.parametrize("r", [0, -1, -7])
def test_solver_refuses_a_nonpositive_degree_before_reading_c1(r):
    for c1 in (3 - r, 4 - r, 0):
        with pytest.raises(ValueError, match=f"^degree must be positive, got {r}$"):
            solve_c2_boundary(r, c1)


def test_pinned_chi_is_two_section_counts():
    c1 = 0
    for n in (-3, -2, -1, 0):
        nu = -c1 - n + 4 - 6
        if n + c1 <= 0 and nu + c1 <= 0:
            assert chi_bundle_pinned(4, c1, n) == h0_hyp(4, n) + h0_hyp(4, nu)


def test_pinning_enforced():
    with pytest.raises(PinningError):
        chi_bundle_pinned(5, 2, 0)
    with pytest.raises(PinningError):
        chi_bundle_pinned(5, -1, -9)


@pytest.mark.parametrize("r, expected", [(3, 5), (4, 14), (5, 30)])
def test_pfaffian_pair(r, expected):
    assert pfaffian_c2(r) == expected


def test_pfaffian_divisibility_identity():
    for r in range(1, 101):
        assert 6 * pfaffian_c2(r) == r * (r - 1) * (2 * r - 1)


@pytest.mark.parametrize(
    "r, c1, c2, expected",
    [
        (3, 1, 2, 0),
        (4, 0, 2, 0),
        (4, 1, 3, 1),
        (4, 2, 8, 5),
        (4, 3, 14, 15),
        (5, 2, 11, 12),
        (5, 3, 20, 31),
    ],
)
def test_sectional_genus(r, c1, c2, expected):
    assert sectional_genus(r, c1, c2) == expected


def test_genus_parity_failure():
    # c2 (c1 + r - 5) odd leaves no integer genus
    with pytest.raises(ParityError):
        sectional_genus(4, 0, 3)
    with pytest.raises(ParityError):
        sectional_genus(5, 1, 5)


def test_bundle_numerics():
    bundle = BundleNumerics(5, c1=2, c2=11)
    assert bundle.is_normalized
    assert bundle.sectional_genus() == 12
    assert stability_index(bundle) == -2
    shifted = BundleNumerics(5, c1=2, c2=11, b=3)
    assert not shifted.is_normalized
    assert stability_index(shifted) == 4
    with pytest.raises(ValueError):
        BundleNumerics(5, c1=2, c2=0)
