import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acmsplit.catalog import QUADRIC_RESOLUTION
from acmsplit.combinatorics import binom_poly, binom_trunc
from acmsplit.incidence import checked_resolution
from acmsplit.normal_bundle import ConventionViolation, _kmr, kmr_h0_normal
from acmsplit.proj_cohomology import h0_pn
from acmsplit.resolutions import (
    AffineExpr,
    GorensteinResolution,
    ResolutionValidationError,
    h0_ideal,
    parse_resolution,
    surface_invariants,
    term_sum,
    validate,
)
from conftest import (
    cancelling_pairs,
    canonical_record,
    ci_resolution,
    flat_blocks,
    flat_chi_structure_poly,
    flat_h0_ideal,
    flat_h0_structure,
    flat_kmr_total,
    flat_validate,
    kmr_min_pair_argument,
    kmr_negative_pair_total,
    located,
    pair_arguments,
    resolved_points,
    self_dual_in_range,
    sorted_twists,
)
from test_resolutions import accepted_resolutions

RESOLVED = list(resolved_points())
RESOLVED_IDS = [f"r{c.r}-c1_{c.c1}-c2_{c.c2}-x_{x}" for c, _, x in RESOLVED]

DEG8 = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
DEG11 = {"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}
DEG12 = {"gens": [[2, 2], [3, "c"], [4, "c-1"]], "syz": [[3, "c-1"], [4, "c"], [5, 2]], "socle": 7}
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


def kmr_counted(res, grid):
    """h^0(N_S) as the kmr command counts it: the generator blocks, once validated."""
    gens, _ = checked_resolution(res, grid)
    return _kmr(gens, res.socle_twist)


def test_octic_family_scan():
    res = parse_resolution(DEG8)
    assert kmr_counted(res, range(0, 6)) == 54


def test_octic_family_at_a_billion_cubics():
    """Blockwise counting never builds the rank-10^9 twist lists."""
    assert kmr_h0_normal(parse_resolution(DEG8), 10**9) == 54


def test_two_parameter_families_scan():
    """The degree-11 and degree-12 families: two generator counts, recorded balanced as one."""
    assert kmr_counted(parse_resolution(DEG11), range(2, 6)) == 83
    assert kmr_counted(parse_resolution(DEG12), range(1, 3)) == 81


def test_scan_on_constant_resolution_is_a_single_evaluation():
    assert kmr_counted(parse_resolution(ci_resolution(1, 1, 2)), range(0, 6)) == 17


#: x generators of twist 2 against x syzygies of twist 3, balanced at x = 5 alone: the
#: parameter moves the net count at twists 2 and 3, and with it KMR, 2x^2 - 3x.
STRETCHED = {"gens": [[2, "x"]], "syz": [[3, "x"]], "socle": 5}
MOVES_2_AND_3 = f"invalid resolution: {cancelling_pairs('x', [2, 3])}"


def test_scan_rejects_empty_grid_and_nonconstant_values():
    stretched = parse_resolution(STRETCHED)
    # the elliptic quintic value 35 appears at x = 5 only
    assert flat_kmr_total(stretched, 5) == 35
    assert flat_kmr_total(stretched, 2) == 2
    with pytest.raises(ResolutionValidationError):
        kmr_counted(stretched, range(2, 6))
    with pytest.raises(ValueError):
        kmr_counted(stretched, range(5, 5))


def test_a_moving_kmr_count_is_refused_naming_the_twists_that_move_it():
    """A family whose KMR count moves is refused at validation, naming the twists that move it."""
    stretched = parse_resolution(STRETCHED)
    assert [flat_kmr_total(stretched, x) for x in (2, 4, 5)] == [2, 20, 35]
    with pytest.raises(ResolutionValidationError, match="^" + re.escape(MOVES_2_AND_3) + "$"):
        kmr_counted(stretched, range(2, 6))
    # a one-point grid leaves the parameter in the record, so it is refused too, and so is
    # every count at one value of x
    refusals = (lambda: kmr_counted(stretched, range(5, 6)), lambda: kmr_h0_normal(stretched, 5))
    for refused in refusals:
        with pytest.raises(ResolutionValidationError, match="^" + re.escape(MOVES_2_AND_3) + "$"):
            refused()


def test_a_kmr_count_equal_at_both_ends_of_its_grid_is_still_refused():
    """KMR is 37 at both ends of 0..4 and 5 in the middle; its moving net counts refuse it."""
    gens = [[1, "4*x+10"], [5, "10-2*x"], [6, "7*x+8"]]
    res = parse_resolution({"gens": gens, "syz": [[8 - n, m] for n, m in gens], "socle": 8})
    assert [flat_kmr_total(res, x) for x in (0, 2, 4)] == [37, 5, 37]
    moved = cancelling_pairs("x", [1, 2, 3, 5, 6, 7])
    assert validate(res, range(0, 5)) == [moved]
    with pytest.raises(ResolutionValidationError, match=re.escape(str(moved))):
        kmr_counted(res, range(0, 5))


#: A record validate accepts whose KMR sum is -7: h = (1, -3, 3, 3, -3, 1), socle 8, is
#: symmetric with sum 2 but describes no surface, so the count exposes the convention.
NEGATIVE_KMR = {"gens": [[1, 6], [3, 16], [6, 15]], "syz": [[2, 15], [5, 16], [7, 6]], "socle": 8}


def test_negative_total_refused():
    res = parse_resolution(NEGATIVE_KMR)
    assert validate(res) == [] and flat_kmr_total(res) == -7
    for count in (lambda: kmr_h0_normal(res), lambda: kmr_counted(res, None)):
        with pytest.raises(ConventionViolation, match=r"^h\^0\(N_S\) computed as -7 < 0$"):
            count()
    # a single degree-5 generator: validation refuses it before any count, as
    # P = 1 - z^5 + z^6 - z^11 has P'(1) = -10
    res = parse_resolution({"gens": [[5, 1]], "syz": [[6, 1]], "socle": 11})
    with pytest.raises(ResolutionValidationError, match=re.escape("h is not a polynomial")):
        kmr_h0_normal(res)


# ---------------------------------------------------- convention safety

@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_no_pair_argument_goes_negative(case, res, x):
    """Every pair binomial argument is >= 0, so nothing is truncated away."""
    assert kmr_min_pair_argument(res, x) >= 0


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_truncated_and_polynomial_conventions_agree(case, res, x):
    gens, _ = sorted_twists(res, x)
    assert min(gens) >= 1  # so h^0(O_S(n)) = h^0(O_{P^5}(n)) - h^0(I_S(n)) for every twist
    total = sum(h0_pn(5, n) - h0_ideal(res, n, x) for n in gens)
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
    res = parse_resolution(shape)
    assert res.parameter() == param
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
    """res with count more twists t and s - t on both sides: still balanced and self-dual.

    count is an int, or an AffineExpr in the parameter of res for a ghost block.
    """
    mult = count if isinstance(count, AffineExpr) else AffineExpr(const=count)
    ghost = ((t, mult), (res.socle_twist - t, mult))
    return res._replace(generators=res.generators + ghost, syzygies=res.syzygies + ghost)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RESOLVED), st.data())
def test_a_ghost_pair_inside_the_twist_range_changes_no_count(drawn, data):
    """Twists 1 <= t <= s - 1 leave every count alone; so do twists outside, pair by pair.

    The count reaches 10**20, as arbitrary_blocks draws it, so the blockwise kernels
    are checked where no multiplicity-expanded twist list could be built.  A third of the
    draws make the ghost a block count + k (y - x) in the record's parameter y (x for a
    record without one), k = +-1, evaluated at y = x.
    """
    _, res, x = drawn
    socle = res.socle_twist
    count = data.draw(st.integers(1, 10**20), label="count")
    grid = None if x is None else range(x, x + 1)
    slope = data.draw(st.sampled_from([0, 1, -1]), label="slope")
    at = 0 if x is None else x
    block = AffineExpr(count - slope * at, slope, res.parameter() or "x")
    ghosted = _with_ghost_pair(res, data.draw(st.integers(1, socle - 1), label="t"), block)
    y = None if ghosted.parameter() is None else at
    assert validate(ghosted, None if y is None else range(y, y + 1)) == []
    assert kmr_h0_normal(ghosted, y) == kmr_h0_normal(res, x)
    chi, ghosted_chi = surface_invariants(res, x).chi, surface_invariants(ghosted, y).chi
    for t in range(-2, 10):
        assert h0_ideal(ghosted, t, y) == h0_ideal(res, t, x)
        assert ghosted_chi(t) == chi(t)
    outside = data.draw(st.integers(-3, 0) | st.integers(socle, socle + 3), label="outside")
    padded = _with_ghost_pair(res, outside, count)
    assert validate(padded, grid) == []
    assert checked_resolution(padded, grid) == checked_resolution(res, grid)


def _pair_term(d):
    """The KMR pair term f(d) = C(d+5, 5)+ - C(5-d, 5)+ (see _kmr)."""
    return binom_trunc(d + 5, 5) - binom_trunc(5 - d, 5)


@settings(max_examples=200, deadline=None)
@given(accepted_resolutions())
def test_a_ghost_pair_adds_to_the_pair_sum_what_the_ideal_term_loses(drawn):
    """The lemma in _kmr, on the flat oracles of conftest, for every t in 1..s - 1.

    The pair sum is sum f(s - n_i - n_j) over unordered pairs of generator positions.
    A ghost pair {t, s - t} adds sum_i [f(t - n_i) + f(s - t - n_i)] to it, which is
    h^0(I_S(t)) + h^0(I_S(s - t)); the one ghost at t = s/2 adds sum_i f(t - n_i) =
    h^0(I_S(t)).  So neither moves flat_kmr_total.  The lemma is taken on the drawn
    record's canonical record, which is self-dual in range.
    """
    res, x = canonical_record(drawn[0], 0), None
    assert self_dual_in_range(res)
    s = res.socle_twist
    n, _ = sorted_twists(res, x)
    pair_sum = sum(binom_trunc(p, 5) - binom_trunc(q, 5) for p, q in pair_arguments(res, x))
    assert pair_sum == sum(
        _pair_term(s - n[i] - n[j]) for i in range(len(n)) for j in range(i + 1, len(n))
    )
    total = flat_kmr_total(res, x)
    for t in range(1, s):
        added = sum(_pair_term(t - ni) + _pair_term(s - t - ni) for ni in n)
        assert added == flat_h0_ideal(res, t, x) + flat_h0_ideal(res, s - t, x)
        assert flat_kmr_total(_with_ghost_pair(res, t, 1), x) == total
    if s % 2 == 0:
        t = s // 2
        assert sum(_pair_term(t - ni) for ni in n) == flat_h0_ideal(res, t, x)
        one = ((t, AffineExpr(const=1)),)
        ghost = res._replace(generators=res.generators + one, syzygies=res.syzygies + one)
        assert flat_kmr_total(ghost, x) == total


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
    """_kmr on a validated record's generator blocks is the flat KMR sum of its canonical record.

    On a one-point grid validate reports what the flat walk reports
    there.  Where it refuses, so do the (res, x) wrappers, which covers
    every draw that is not self-dual.  Where it accepts, _kmr and the
    wrappers count what the flat oracles count: the KMR sum on the
    canonical record (pairs of one twist cancelled), the ideal and Euler
    sums on the record's own entries.
    """
    res, x = drawn
    for point in range(0, 6):
        grid = range(point, point + 1)
        assert located(validate(res, grid)) == located(flat_validate(res, grid))
    grid = range(x, x + 1)
    if validate(res, grid):
        for count in (kmr_h0_normal, h0_ideal, surface_invariants):
            args = (res, 0, x) if count is h0_ideal else (res, x)
            with pytest.raises(ResolutionValidationError):
                count(*args)
        return
    gens, invariants = checked_resolution(res, grid)
    expected = flat_kmr_total(canonical_record(res, x))
    if expected < 0:
        for count in (lambda: _kmr(gens, res.socle_twist), lambda: kmr_h0_normal(res, x)):
            with pytest.raises(ConventionViolation, match=f"computed as {expected} < 0$"):
                count()
    else:
        assert _kmr(gens, res.socle_twist) == kmr_h0_normal(res, x) == expected
    assert invariants == surface_invariants(res, x)
    for t in range(-2, 10):
        assert h0_ideal(res, t, x) == flat_h0_ideal(res, t, x)
        assert invariants.chi(t) == flat_chi_structure_poly(res, t, x)


def _pairs_before(a, b):
    """#{(i, j) : 0 <= i < a, 0 <= j < b, i < j}."""
    if b <= a:
        return b * (b - 1) // 2
    return a * (a - 1) // 2 + (b - a) * a


def positional_kmr_total(res, x):
    """flat_kmr_total on the record's own entries at x, its positions counted, not enumerated.

    Generators ascending at positions i, syzygies descending at positions
    j, as in the module docstring's sum over i < j.  The pairs i < j
    between a run of generators [i0, i1) and a run of syzygies [j0, j1)
    are the four-term inclusion-exclusion over _pairs_before, so a count
    of 10**20 costs what a count of 1 does.
    """
    gens, syz = flat_blocks(res, x)
    total = sum(c * (flat_h0_structure(res, n, x) - binom_trunc(n + 5, 5)) for n, c in gens)
    i0 = 0
    for n, c in gens:
        i1, j0 = i0 + c, 0
        for m, c_syz in reversed(syz):
            j1 = j0 + c_syz
            pairs = (
                _pairs_before(i1, j1) - _pairs_before(i0, j1)
                - _pairs_before(i1, j0) + _pairs_before(i0, j0)
            )
            total += pairs * (binom_trunc(m - n + 5, 5) - binom_trunc(n - m + 5, 5))
            j0 = j1
        i0 = i1
    return total


_H_ENTRY = st.integers(-3, 6) | st.integers(0, 10**20)


@st.composite
def validated_records(draw):
    """A record validate accepts at x, with counts up to 10**20, and x.

    It is drawn from its h-vector: symmetric, of length s - 2, with h_0 = 1
    and its other entries in -3..10**20, of positive sum.  P = h (1 - z)^3
    gives -P_t generators of twist t where P_t < 0 and P_t syzygies where
    P_t > 0, 0 < t < s, and up to two ghost pairs {t, s - t}, 1 <= t <= s - 1,
    add a count up to 10**20, constant or c + k (y - x) in a parameter y.
    h may have negative entries, so some draws have a negative KMR total.
    """
    socle = draw(st.integers(3, 12))
    half = [1] + [draw(_H_ENTRY) for _ in range((socle - 3) // 2)]
    h = half + half[::-1][(socle - 2) % 2 :]
    assume(sum(h) > 0)
    numerator = [0] * (socle + 1)
    for j, hj in enumerate(h):
        for k, step in enumerate((1, -3, 3, -1)):
            numerator[j + k] += hj * step
    gens = [(t, AffineExpr(-c)) for t, c in enumerate(numerator[1:-1], start=1) if c < 0]
    syz = [(t, AffineExpr(c)) for t, c in enumerate(numerator[1:-1], start=1) if c > 0]
    x = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 2))):
        t, count = draw(st.integers(1, socle - 1)), draw(st.integers(0, 10**20))
        slope = draw(st.sampled_from([0, 1, -1]))
        mult = AffineExpr(count - slope * x, slope, "y")
        gens += [(t, mult), (socle - t, mult)]
        syz += [(socle - t, mult), (t, mult)]
    syz = draw(st.permutations(syz))
    return GorensteinResolution(tuple(gens), tuple(syz), socle), x


@settings(max_examples=300, deadline=None)
@given(validated_records())
@example((parse_resolution(NEGATIVE_KMR), 0))
def test_the_generator_pair_kernels_equal_the_flat_positional_formulas(drawn):
    """term_sum and _kmr on the generator blocks equal the flat formulas over the record.

    The record at x, ghost pairs included, is summed entry by entry:
    h^0(I_S(t)) for t = -2..s + 2, and the positional KMR sum, whose pairs
    of positions are counted in closed form, and on records of rank up to
    40 enumerated one by one too.  A negative KMR total raises
    ConventionViolation with that number.
    """
    res, x = drawn
    grid = range(x, x + 1)
    assert validate(res, grid) == []
    gens, _ = checked_resolution(res, grid)
    socle = res.socle_twist
    for t in range(-2, socle + 3):
        assert term_sum(gens, socle, t) == flat_h0_ideal(res, t, x)
    expected = positional_kmr_total(res, x)
    if sum(mult.evaluate(x) for _, mult in res.generators) <= 40:
        assert flat_kmr_total(res, x) == expected
    if expected < 0:
        message = f"h^0(N_S) computed as {expected} < 0"
        with pytest.raises(ConventionViolation, match="^" + re.escape(message) + "$"):
            _kmr(gens, socle)
    else:
        assert _kmr(gens, socle) == expected


# ------------------------------------- known families on the cubic fourfold


def _fiber_corrected_gap(res, c1, bound, fiber):
    """h^0(I_S(3)) - 1 + h^0(N_S) - h^0(I_S(c1)) - dim P(3) for a surface on a cubic fourfold.

    The fiber term h^0(I_S(c1)) = h^0(E) - 1 counts the sections of the
    bundle E beyond the one that cuts S; it is 0 when c1 <= 0.  The plain
    bound and the fiber term are pinned, then the gap is returned.
    """
    assert validate(res) == []
    assert h0_ideal(res, 3) - 1 + kmr_h0_normal(res) == bound
    assert (h0_ideal(res, c1) if c1 > 0 else 0) == fiber
    return bound - fiber - (h0_pn(5, 3) - 1)


def test_cubic_fourfolds_containing_a_plane_form_a_divisor():
    """The plane, (c1, c2) = (0, 1): the incidence count falls exactly one short of dim P(3).

    Cubic fourfolds containing a plane form Voisin's divisor (Invent.
    Math. 86, 1986), Hassett's C_8 (Compositio Math. 120, 2000), so the
    fiber-corrected count can at best reach codimension 1.  The test
    pins equality: a gap of exactly -1, not merely a negative one.
    """
    plane = parse_resolution({"gens": [[1, 3]], "syz": [[2, 3]], "socle": 3})
    assert _fiber_corrected_gap(plane, 0, 54, 0) == -1


def test_cubic_fourfolds_containing_a_quadric_surface_form_a_divisor():
    """The (1,1,2) quadric, (c1, c2) = (1, 2): its bound 56, less the fiber 2, is dim P(3) - 1.

    A quadric surface spans a P^3 that cuts the cubic in the quadric and
    a residual plane, so these cubics are again Voisin's divisor (Invent.
    Math. 86, 1986), Hassett's C_8 (Compositio Math. 120, 2000).  The
    test pins equality: a gap of exactly -1, not merely a negative one.
    """
    quadric = parse_resolution(QUADRIC_RESOLUTION)  # the report's boundary row
    assert _fiber_corrected_gap(quadric, 1, 56, 2) == -1


def test_pfaffian_cubic_fourfolds_form_a_divisor():
    """The quintic del Pezzo surface, (c1, c2) = (2, 5): its bound 59, less the fiber 5, is 54.

    Pfaffian cubic fourfolds, which contain such a surface, form the
    divisor of Beauville and Donagi (C. R. Acad. Sci. Paris 301, 1985),
    Hassett's C_14 (Compositio Math. 120, 2000).  The test pins
    equality: a gap of exactly -1, not merely a negative one.
    """
    pfaffian = parse_resolution({"gens": [[2, 5]], "syz": [[3, 5]], "socle": 5})
    assert _fiber_corrected_gap(pfaffian, 2, 59, 5) == -1
