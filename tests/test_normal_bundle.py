import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmsplit.combinatorics import binom_poly, binom_trunc
from acmsplit.normal_bundle import ConventionViolation, kmr_h0_normal
from acmsplit.resolutions import (
    AffineExpr,
    GorensteinResolution,
    NonConstantScanError,
    ResolutionValidationError,
    chi_structure_poly,
    h0_ideal,
    h0_structure,
    parse_resolution,
    scan_constant,
    scan_points,
    validate,
)
from conftest import (
    ci_resolution,
    flat_chi_structure_poly,
    flat_h0_ideal,
    flat_kmr_total,
    flat_validate,
    kmr_min_pair_argument,
    kmr_negative_pair_total,
    located,
    pair_arguments,
    resolved_points,
    sorted_twists,
)

RESOLVED = list(resolved_points())
RESOLVED_IDS = [f"r{c.r}-c1_{c.c1}-c2_{c.c2}-x_{x}" for c, _, x in RESOLVED]

DEG8 = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
DEG11 = {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
DEG12 = {"gens": [[2, 2], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 2]], "socle": 7}
DEG13 = {"gens": [[2, 1], [3, 4]], "syz": [[4, 4], [5, 1]], "socle": 7}
DEG14 = {"gens": [[3, 7]], "syz": [[4, 7]], "socle": 7}
DEG20 = {"gens": [[3, 4]], "syz": [[5, 4]], "socle": 8}
QUINTIC = {"gens": [[2, 5]], "syz": [[3, 5]], "socle": 5}


def test_input_ordering():
    res = parse_resolution(ci_resolution(1, 1, 2))
    assert sorted_twists(res) == ([1, 1, 2], [3, 3, 2])
    assert pair_arguments(res) == [(7, 3), (6, 4), (6, 4)]


@pytest.mark.parametrize(
    "ci, expected",
    [((1, 1, 2), 17), ((1, 1, 3), 27), ((1, 2, 2), 31), ((1, 1, 4), 42), ((1, 2, 3), 48)],
    ids=["ci112", "ci113", "ci122", "ci114", "ci123"],
)
def test_complete_intersection_normal_sections(ci, expected):
    assert kmr_h0_normal(parse_resolution(ci_resolution(*ci))) == expected


def test_elliptic_quintic_normal_sections():
    assert kmr_h0_normal(parse_resolution(QUINTIC)) == 35


@pytest.mark.parametrize(
    "shape, expected",
    [(DEG13, 79), (DEG14, 77), (DEG20, 110)],
    ids=["c2_13", "c2_14", "c2_20"],
)
def test_constant_resolutions(shape, expected):
    assert kmr_h0_normal(parse_resolution(shape)) == expected


def kmr_scan(res, grid):
    """h^0(N_S) through the shared scan: constant over the grid's points."""
    return scan_constant(lambda x: kmr_h0_normal(res, x), scan_points(res, grid), "h^0(N_S)")


def test_octic_family_scan():
    res = parse_resolution(DEG8)
    assert kmr_scan(res, range(0, 6)) == 54


def test_octic_family_at_a_billion_cubics():
    """Blockwise counting never builds the rank-10^9 twist lists."""
    assert kmr_h0_normal(parse_resolution(DEG8), 10**9) == 54


def test_two_parameter_families_scan():
    from acmsplit.incidence import resolve_parameters

    res11, rel11 = resolve_parameters(parse_resolution(DEG11))
    assert str(rel11) == "c = b - 2"
    assert kmr_scan(res11, range(2, 6)) == 83

    res12, rel12 = resolve_parameters(parse_resolution(DEG12))
    assert str(rel12) == "b = c - 1"
    assert kmr_scan(res12, range(1, 3)) == 81


def test_scan_on_constant_resolution_is_a_single_evaluation():
    assert kmr_scan(parse_resolution(ci_resolution(1, 1, 2)), range(0, 6)) == 17


def test_scan_rejects_empty_grid_and_nonconstant_values():
    stretched = parse_resolution({"gens": [[2, "x"]], "syz": [[3, "x"]], "socle": 5})
    # 2x^2 - 3x: the elliptic quintic value 35 appears at x = 5 only
    assert kmr_h0_normal(stretched, 5) == 35
    assert kmr_h0_normal(stretched, 2) == 2
    with pytest.raises(NonConstantScanError):
        kmr_scan(stretched, range(2, 6))
    with pytest.raises(ValueError):
        kmr_scan(stretched, range(5, 5))


def test_nonconstant_scan_names_the_certificate_points():
    stretched = parse_resolution({"gens": [[2, "x"]], "syz": [[3, "x"]], "socle": 5})
    message = "h^0(N_S) varies across the certificate points: {2: 2, 4: 20, 5: 35}"
    with pytest.raises(NonConstantScanError, match=re.escape(message)):
        kmr_scan(stretched, range(2, 6))


def test_scan_refuses_a_family_equal_at_both_ends_of_its_grid():
    """KMR is quadratic in x, so two end points do not certify it; the middle does."""
    gens = [[1, "4*x+10"], [5, "10-2*x"], [6, "7*x+8"]]
    res = parse_resolution({"gens": gens, "syz": [[8 - n, m] for n, m in gens], "socle": 8})
    assert validate(res, range(0, 5)) == []
    message = "varies across the certificate points: {0: 37, 2: 5, 4: 37}"
    with pytest.raises(NonConstantScanError, match=re.escape(message)):
        kmr_scan(res, range(0, 5))


def test_negative_total_refused():
    # a single degree-5 generator: the formula goes below zero
    res = parse_resolution({"gens": [[5, 1]], "syz": [[6, 1]], "socle": 11})
    with pytest.raises(ConventionViolation):
        kmr_h0_normal(res)


# ---------------------------------------------------- convention safety

@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_no_pair_argument_goes_negative(case, res, x):
    """Every pair binomial argument is >= 0, so nothing is truncated away."""
    assert kmr_min_pair_argument(res, x) >= 0


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_truncated_and_polynomial_conventions_agree(case, res, x):
    gens, _ = sorted_twists(res, x)
    total = sum(h0_structure(res, n, x) for n in gens)
    for positive, negative in pair_arguments(res, x):
        total += binom_poly(positive, 5) - binom_poly(negative, 5)
    total -= sum(binom_trunc(n + 5, 5) for n in gens)
    assert total == kmr_h0_normal(res, x)


NEGATIVE_PAIR_TOTALS = {
    "octic": (DEG8, "x", {0: 0, 1: 0, 2: 1, 3: 3, 4: 6, 5: 10}),
    "c2_11": (DEG11, "b", {2: 6, 3: 21, 4: 44, 5: 75}),
    "c2_12": (DEG12, "c", {1: 0, 2: 2}),
}


@pytest.mark.parametrize("shape, param, expected", NEGATIVE_PAIR_TOTALS.values(),
                         ids=NEGATIVE_PAIR_TOTALS.keys())
def test_subtracted_pair_sums_vary_but_the_total_does_not(shape, param, expected):
    """The subtracted pair binomials are genuinely nonzero on the families.

    They cancel against the added pair sum point by point, keeping the
    full count constant; dropping them would break the frozen values.
    """
    from acmsplit.incidence import resolve_parameters

    res, _ = resolve_parameters(parse_resolution(shape))
    assert res.free_parameters() <= {param}
    for x, total in expected.items():
        assert kmr_negative_pair_total(res, x) == total
    values = {kmr_h0_normal(res, x) for x in expected}
    assert len(values) == 1


@pytest.mark.parametrize(
    "shape",
    [ci_resolution(1, 1, 2), ci_resolution(1, 2, 3), QUINTIC, DEG13, DEG14, DEG20],
    ids=["ci112", "ci123", "quintic", "c2_13", "c2_14", "c2_20"],
)
def test_subtracted_pair_sums_vanish_without_parameters(shape):
    assert kmr_negative_pair_total(parse_resolution(shape)) == 0


# ------------------------------------------------------ ghost pairs


def _with_ghost_pair(res, t, count):
    """res with count more twists t and s - t on both sides: still balanced and self-dual."""
    ghost = ((t, AffineExpr(const=count)), (res.socle_twist - t, AffineExpr(const=count)))
    return res._replace(generators=res.generators + ghost, syzygies=res.syzygies + ghost)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RESOLVED), st.data())
def test_a_ghost_pair_inside_the_twist_range_changes_no_count(drawn, data):
    """Twists 1 <= t <= s - 1 leave every count alone; outside, validate refuses the pair."""
    _, res, x = drawn
    socle = res.socle_twist
    count = data.draw(st.integers(1, 4), label="count")
    grid = None if x is None else range(x, x + 1)
    ghosted = _with_ghost_pair(res, data.draw(st.integers(1, socle - 1), label="t"), count)
    assert validate(ghosted, grid) == []
    assert kmr_h0_normal(ghosted, x) == kmr_h0_normal(res, x)
    for t in range(-2, 10):
        assert h0_ideal(ghosted, t, x) == h0_ideal(res, t, x)
        assert chi_structure_poly(ghosted, t, x) == chi_structure_poly(res, t, x)
    outside = data.draw(st.integers(-3, 0) | st.integers(socle, socle + 3), label="outside")
    invariants = {v.invariant for v in validate(_with_ghost_pair(res, outside, count), grid)}
    assert invariants == {"twist-range"}


# ---------------------------------------------- blockwise against flat

_BLOCKS = st.lists(
    st.tuples(st.integers(-2, 8), st.integers(0, 30), st.integers(-1, 2)),
    min_size=1,
    max_size=4,
)


@st.composite
def block_resolutions(draw):
    """Random twist blocks with duplicate twists, in random order.

    Multiplicities are c + k*x; half the draws are self-dual (syzygies
    at socle minus each generator twist, shuffled), half are not.
    """
    gens = draw(_BLOCKS)
    socle = draw(st.integers(0, 14))
    if draw(st.booleans()):
        syz = draw(st.permutations([(socle - n, c, k) for n, c, k in gens]))
    else:
        syz = draw(_BLOCKS)

    def vector(blocks):
        return tuple((t, AffineExpr(const=c, coeff=k, param="x" if k else None))
                     for t, c, k in blocks)

    res = GorensteinResolution(vector(gens), vector(syz), socle)
    return res, draw(st.integers(0, 5))


@settings(max_examples=150, deadline=None)
@given(block_resolutions())
def test_blockwise_counts_match_the_flat_reference(drawn):
    res, x = drawn
    for point in range(0, 6):
        grid = range(point, point + 1)
        assert located(validate(res, grid)) == located(flat_validate(res, grid))
    try:
        expected = flat_kmr_total(res, x)
    except ResolutionValidationError as exc:
        with pytest.raises(ResolutionValidationError, match=re.escape(str(exc))):
            kmr_h0_normal(res, x)
        return
    for t in range(-2, 10):
        assert h0_ideal(res, t, x) == flat_h0_ideal(res, t, x)
        assert chi_structure_poly(res, t, x) == flat_chi_structure_poly(res, t, x)
    if expected < 0:
        with pytest.raises(ConventionViolation, match=f"computed as {expected} < 0"):
            kmr_h0_normal(res, x)
    else:
        assert kmr_h0_normal(res, x) == expected
