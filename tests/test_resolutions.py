import re
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acmsplit.incidence import checked_resolution
from acmsplit.normal_bundle import ConventionViolation, _kmr
from acmsplit.proj_cohomology import h0_pn
from acmsplit.resolutions import (
    AffineExpr,
    GorensteinResolution,
    ResolutionValidationError,
    SurfaceInvariants,
    UnresolvedParameterError,
    _walk,
    h0_ideal,
    parse_affine,
    parse_multiplicity,
    parse_resolution,
    surface_invariants,
    term_sum,
    validate,
)
from conftest import (
    CI_TYPES,
    EMPTY_DOMAIN,
    FALLING_DEGREE,
    NO_SURFACE,
    WINDOW,
    admissible_search,
    canonical_record,
    ci_resolution,
    flat_chi_structure_poly,
    flat_h0_ideal,
    flat_kmr_total,
    flat_surface_invariants,
    flat_validate,
    grid_points,
    hi_pn,
    koszul_ideal_dim,
    located,
    net_counts,
    resolved_points,
    self_dual_in_range,
    subcanonical_e,
    walk_points,
)

RESOLVED = list(resolved_points())
RESOLVED_IDS = [f"r{c.r}-c1_{c.c1}-c2_{c.c2}-x_{x}" for c, _, x in RESOLVED]


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize(
    "text, const, coeff, param",
    [
        ("3", 3, 0, None),
        ("-2", -2, 0, None),
        ("x", 0, 1, "x"),
        ("-x", 0, -1, "x"),
        ("2*b", 0, 2, "b"),
        ("b-2", -2, 1, "b"),
        ("1+2*x", 1, 2, "x"),
    ],
)
def test_parse_affine(text, const, coeff, param):
    expr = parse_affine(text)
    assert (expr.const, expr.coeff, expr.param) == (const, coeff, param)


@pytest.mark.parametrize("text", ["", "b+c", "b*2", "--3", "2b", "x^2"])
def test_parse_affine_rejects(text):
    with pytest.raises(ValueError):
        parse_affine(text)


def test_affine_round_trip_through_str():
    for text in ["3", "x", "-x", "2*b", "b-2", "-2*b+1"]:
        expr = parse_affine(text)
        assert parse_affine(str(expr)) == expr


def test_affine_evaluate():
    expr = parse_affine("b-2")
    assert expr.evaluate(5) == 3
    with pytest.raises(UnresolvedParameterError):
        expr.evaluate()


def test_multiplicity_rejects_bool_and_junk():
    assert parse_multiplicity(3) == AffineExpr(const=3)
    with pytest.raises(ValueError):
        parse_multiplicity(True)
    with pytest.raises(ValueError):
        parse_multiplicity(2.5)


def test_parse_resolution_shape_errors():
    with pytest.raises(ValueError):
        parse_resolution({"gens": [[1, 2]], "syz": [[3, 2]]})
    with pytest.raises(ValueError):
        parse_resolution({"gens": [[1]], "syz": [[3, 1]], "socle": 4})
    with pytest.raises(ValueError):
        parse_resolution({"gens": [[1, 1]], "syz": [[3, 1]], "socle": "?"})


# ------------------------------------------------------------- structure

def quadric():
    return parse_resolution(ci_resolution(1, 1, 2))


def test_expand_and_parameters():
    res = parse_resolution(ci_resolution(1, 1, 2))
    assert res.parameter() is None
    assert subcanonical_e(res) == -2
    assert res.expand() == ([1, 1, 2], [2, 3, 3])

    family = parse_resolution(
        {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
    )
    assert family.parameter() == "x"
    gens, syz = family.expand(2)
    assert gens == [2, 2, 2, 3, 3]
    assert syz == [3, 3, 4, 4, 4]
    with pytest.raises(ResolutionValidationError):
        family.expand(-1)


def test_blocks_merge_sort_and_drop_empty_twists():
    """expand merges and sorts one point's twists; the canonical blocks also cancel them.

    The octic written out of order, with a zero count and x + 1 cubic
    pairs: its net counts are 3 at twist 2, 0 at 3 and -3 at 4.
    """
    messy = GorensteinResolution(
        generators=((3, parse_affine("x")), (2, AffineExpr(const=2)), (4, AffineExpr(const=0)),
                    (2, AffineExpr(const=1)), (3, AffineExpr(const=1))),
        syzygies=((4, AffineExpr(const=1)), (3, parse_affine("x")), (4, AffineExpr(const=2)),
                  (3, AffineExpr(const=1))),
        socle_twist=6,
    )
    assert checked_resolution(messy)[0] == [(2, 3)]
    assert messy.expand(1) == ([2, 2, 2, 3, 3], [3, 3, 4, 4, 4])
    res = GorensteinResolution(
        generators=((3, parse_affine("x")), (2, AffineExpr(const=2)), (3, AffineExpr(const=1)),
                    (4, AffineExpr(const=0))),
        syzygies=((4, AffineExpr(const=1)), (3, parse_affine("x")), (4, AffineExpr(const=2))),
        socle_twist=6,
    )
    assert res.expand(2) == ([2, 2, 3, 3, 3], [3, 3, 4, 4, 4])
    assert res.expand(0) == ([2, 2, 3], [4, 4, 4])
    with pytest.raises(ResolutionValidationError, match="multiplicity x of twist 3 is -1 at x=-1"):
        res.expand(-1)
    with pytest.raises(UnresolvedParameterError):
        res.expand()


#: The degree-8 surface's generator blocks and invariants: x counts cubic pairs it drops.
OCTIC_CASE = ([(2, 3)], SurfaceInvariants(8, 5, 2))


def test_a_family_is_checked_and_counted_at_one_point():
    """_walk returns the positive net counts as generator blocks, the same on every grid.

    Each twist's generators and syzygies cancel down to its net count, so
    the blocks keep no parameter and stand for every point, whatever the
    grid's order, step or size; a record without a parameter ignores the
    grid.
    """
    family = parse_resolution({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})
    for grid in (
        range(0, 10), range(9, -1, -1), range(1, 10, 3), range(10, 0, -3),
        range(10**30),  # past sys.maxsize
        range(3, 5),
        None,  # the admissible half-line x >= 0
    ):
        assert _walk(family, grid) == ([], OCTIC_CASE)
    falling = parse_resolution(
        {"gens": [[2, 3], [3, "4-x"]], "syz": [[3, "4-x"], [4, 3]], "socle": 6}
    )
    assert _walk(falling) == ([], OCTIC_CASE)  # the half-line x <= 4
    both = parse_resolution({
        "gens": [[2, 3], [3, "x"], [1, "5-x"], [5, "5-x"]],
        "syz": [[3, "x"], [4, 3], [5, "5-x"], [1, "5-x"]],
        "socle": 6,
    })
    assert _walk(both) == ([], OCTIC_CASE)  # 0 <= x <= 5
    quadric_case = ([(1, 2)], SurfaceInvariants(2, 0, 1))
    assert _walk(quadric(), range(10**12)) == ([], quadric_case)


def test_an_empty_admissible_interval_is_one_violation():
    res = parse_resolution(EMPTY_DOMAIN)
    assert [str(v) for v in validate(res)] == [
        "empty-domain: no value of x makes every multiplicity >= 0 (0 <= x <= -1 is empty)"
    ]


#: The degree-11 family before its degree balance c = b - 2 is substituted.
RAW11 = {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}


def _built_directly(doc):
    """The record parse_resolution would build, without its one-parameter rule."""
    def vector(key):
        return tuple((t, parse_multiplicity(m)) for t, m in doc[key])

    return GorensteinResolution(vector("gens"), vector("syz"), doc["socle"])


def test_expand_refuses_two_parameters():
    """So do parse_resolution and every evaluation of a record built directly, with one message."""
    message = (
        "resolution has parameters b, c; a record takes at most one,"
        " so substitute the degree-balance relation for one of them"
    )
    with pytest.raises(UnresolvedParameterError, match=re.escape(message)):
        parse_resolution(RAW11)
    res = _built_directly(RAW11)
    with pytest.raises(UnresolvedParameterError, match=re.escape(message)):
        res.expand(2)
    assert [str(v) for v in validate(res)] == [f"unresolved-parameters: {message}"]


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_builtin_resolutions_validate(case, res, x):
    assert validate(res, None if x is None else range(x, x + 1)) == []


def _numerator(failed, polynomial):
    """The violation of a Hilbert numerator that is no surface's, as validate words it."""
    detail = f"{failed}, with h = P(z)/(1 - z)^3 and P(z) = {polynomial}"
    return [f"hilbert-numerator: {detail}"]


def test_degree_balance_violation():
    # seven cubics against seven quartics with socle 6 misses balance by 1: P'(1) = 1
    res = parse_resolution({"gens": [[3, 7]], "syz": [[4, 7]], "socle": 6})
    assert [str(v) for v in validate(res)] == _numerator(
        "h is not a polynomial", "1 - 7z^3 + 7z^4 - z^6"
    )


def test_self_duality_and_rank_violations():
    res = GorensteinResolution(
        generators=((1, AffineExpr(const=2)), (2, AffineExpr(const=1))),
        syzygies=((3, AffineExpr(const=3)),),
        socle_twist=4,
    )
    assert [str(v) for v in validate(res)] == _numerator(
        "h is not a polynomial", "1 - 2z - z^2 + 3z^3 - z^4"
    )


def test_negative_multiplicity_reported_per_expression():
    """A negative constant is reported once per expression, a grid that leaves the interval once.

    Each multiplicity is affine in the parameter, so it is negative somewhere on a grid
    exactly when it is at the grid's min or max, whatever the grid's order and step.
    """
    res = parse_resolution(
        {"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}
    )
    leaves = "leaves 2 <= b, where every multiplicity is >= 0"
    assert [str(v) for v in validate(res, range(0, 100_000))] == [
        f"negative-multiplicity: grid 0..99999 {leaves}"
    ]
    assert [str(v) for v in validate(res, range(9, -4, -2))] == [
        f"negative-multiplicity: grid 9..-3 step -2 {leaves}"
    ]
    assert [str(v) for v in validate(res, range(1, 2))] == [f"negative-multiplicity: x=1 {leaves}"]
    assert validate(res, range(2, 6)) == validate(res, range(10**30, 1, -7)) == []
    assert validate(res) == []
    # a constant is negative at every point
    negative = parse_resolution({"gens": [[2, -1]], "syz": [[3, -1]], "socle": 5})
    assert [str(v) for v in validate(negative) if v.invariant == "negative-multiplicity"] == [
        f"negative-multiplicity: {side} multiplicity -1 of twist {twist} is negative"
        for side, twist in (("gens", 2), ("syz", 3))
    ]
    # an interval bounded on both sides; a negative constant comes before the grid
    bounded = parse_resolution({
        "gens": [[2, 3], [3, "x"], [1, "5-x"], [6, -1]],
        "syz": [[3, "x"], [4, 3], [1, "5-x"]],
        "socle": 6,
    })
    assert [str(v) for v in validate(bounded, range(-1, 7))] == [
        "negative-multiplicity: gens multiplicity -1 of twist 6 is negative",
        "negative-multiplicity: grid -1..6 leaves 0 <= x <= 5, where every multiplicity is >= 0",
    ]


def test_unresolved_and_empty_grid():
    assert [v.invariant for v in validate(_built_directly(RAW11))] == ["unresolved-parameters"]
    family = parse_resolution(
        {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
    )
    assert [v.invariant for v in validate(family, range(5, 5))] == ["empty-grid"]


def test_a_grid_that_is_not_a_range_is_refused_by_its_type():
    """A grid is read by its two ends and its step, so only a range is one.

    On the degree-11 family, admissible for b >= 2, the list [5, 0, 9] passes b = 0
    between its ends and [0, 5] leaves the interval at its first; both raise TypeError
    naming the list, as does a tuple on a record without a parameter.
    """
    deg11 = parse_resolution(
        {"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}
    )
    for res, grid in ((deg11, [5, 0, 9]), (deg11, [0, 5]), (quadric(), (0, 1))):
        kind = type(grid).__name__
        for call in (validate, checked_resolution):
            with pytest.raises(TypeError, match=f"^a parameter grid is a range, not {kind}$"):
                call(res, grid)


# ---------------------------------------------------------- section counts

@pytest.mark.parametrize("ci", CI_TYPES, ids=lambda ci: "".join(map(str, ci)))
def test_ideal_sections_match_monomial_count(ci):
    """Koszul oracle: enumerate monomials divisible by x0^a, x1^b or x2^c."""
    res = parse_resolution(ci_resolution(*ci))
    for t in range(0, 11):
        assert h0_ideal(res, t) == koszul_ideal_dim(ci, t)


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_alternating_sum_equals_kernel_chase(case, res, x):
    """Peel the resolution in two steps, carrying the correction terms.

    Both corrections are h^1/h^2 of line bundles on P^5, included
    explicitly so their vanishing is checked rather than assumed.
    """
    s = res.socle_twist
    for t in range(0, 11):
        gens, syz = res.expand(x)
        h1_tail = hi_pn(5, t - s, 1)
        h2_tail = hi_pn(5, t - s, 2)
        h1_mid = sum(hi_pn(5, t - m, 1) for m in syz)
        assert h1_tail == 0 and h2_tail == 0 and h1_mid == 0
        h0_kernel = sum(h0_pn(5, t - m) for m in syz) - h0_pn(5, t - s) + h1_tail
        h1_kernel = h1_mid + h2_tail
        chased = sum(h0_pn(5, t - n) for n in gens) - h0_kernel + h1_kernel
        assert h0_ideal(res, t, x) == chased


@pytest.mark.parametrize(
    "shape, t, expected",
    [
        ({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}, 4, 60),
        ({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}, 5, 150),
        ({"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}, 5, 135),
        ({"gens": [[2, 2], [3, "c"], [4, "c-1"]], "syz": [[3, "c-1"], [4, "c"], [5, 2]], "socle": 7}, 5, 125),
    ],
)
def test_ideal_sections_do_not_depend_on_the_parameter(shape, t, expected):
    res = parse_resolution(shape)
    lo = 0
    while True:
        try:
            res.expand(lo)
            break
        except ResolutionValidationError:
            lo += 1
    values = {h0_ideal(res, t, x) for x in range(lo, lo + 6)}
    assert values == {expected}


def structure_sections(res, t, x=None):
    """h^0(O_S(t)) as hilbert computes it: h^0(O_{P^5}(t)) - h^0(I_S(t)), and 0 for t < 0."""
    return h0_pn(5, t) - h0_ideal(res, t, x) if t >= 0 else 0


def test_structure_sections():
    res = quadric()
    assert structure_sections(res, -1) == 0
    assert structure_sections(res, 0) == 1
    assert structure_sections(res, 1) == 4
    assert structure_sections(res, 2) == surface_invariants(res).chi(2) == 9


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_chi_matches_sections_above_the_canonical_twist(case, res, x):
    e = subcanonical_e(res)
    invariants = surface_invariants(res, x)
    for t in range(e + 1, e + 8):
        assert invariants.chi(t) == structure_sections(res, t, x)


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_chi_serre_duality_on_the_surface(case, res, x):
    e = subcanonical_e(res)
    invariants = surface_invariants(res, x)
    for t in range(-5, 6):
        assert invariants.chi(t) == invariants.chi(e - t)


# ------------------------------------------------------ surface invariants

@pytest.mark.parametrize("ci", CI_TYPES, ids=lambda ci: "".join(map(str, ci)))
def test_complete_intersection_invariants(ci):
    a, b, c = ci
    inv = surface_invariants(parse_resolution(ci_resolution(a, b, c)))
    assert inv.degree == a * b * c
    assert inv.sectional_genus == 1 + a * b * c * (a + b + c - 5) // 2


FROZEN_INVARIANTS = {
    (3, 2, 5): None,
    (4, 1, 3): (3, 1, 1),
    (4, 1, 4): (4, 1, 1),
    (4, 1, 5): (5, 1, 1),
    (4, 2, 8): (8, 5, 2),
    (5, 0, 3): (3, 1, 1),
    (5, 0, 4): (4, 1, 1),
    (5, 0, 5): (5, 1, 1),
    (5, 1, 4): (4, 3, 2),
    (5, 1, 6): (6, 4, 2),
    (5, 1, 8): (8, 5, 2),
    (5, 2, 11): (11, 12, 7),
    (5, 2, 12): (12, 13, 7),
    (5, 2, 13): (13, 14, 7),
    (5, 2, 14): (14, 15, 7),
    (5, 3, 20): (20, 31, 22),
}


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_catalog_surface_invariants(case, res, x):
    expected = FROZEN_INVARIANTS[(case.r, case.c1, case.c2)]
    inv = surface_invariants(res, x)
    assert (inv.degree, inv.sectional_genus, inv.chi_structure) == expected


def test_degenerate_hilbert_polynomial_rejected():
    # one linear form alone cuts a threefold: P = (1 - z)^2 (1 + z + ... + z^4), no multiple of
    # (1 - z)^3
    res = GorensteinResolution(
        generators=((1, AffineExpr(const=1)),),
        syzygies=((5, AffineExpr(const=1)),),
        socle_twist=6,
    )
    with pytest.raises(ResolutionValidationError, match=re.escape("h is not a polynomial")):
        surface_invariants(res)


def test_unit_ideal_rejected():
    # twist-0 generator kills everything: P = 0, so h_0 = 0
    res = parse_resolution({"gens": [[0, 1]], "syz": [[4, 1]], "socle": 4})
    message = "h does not start with h_0 = 1 at z^0, with h = P(z)/(1 - z)^3 and P(z) = 0"
    with pytest.raises(ResolutionValidationError, match=re.escape(message)):
        surface_invariants(res)


@pytest.mark.parametrize(
    "doc, failed, polynomial",
    [
        # rank- and degree-balanced, so P(1) = P'(1) = 0, but not self-dual: P''(1) = 4
        ({"gens": [[2, 4]], "syz": [[3, 4]], "socle": 4},
         "h is not a polynomial", "1 - 4z^2 + 4z^3 - z^4"),
        ({"gens": [[1, 5], [5, 1]], "syz": [[-1, 1], [3, 5]], "socle": 4},
         "h does not start with h_0 = 1 at z^0", "z^-1 + 1 - 5z + 5z^3 - z^4 - z^5"),
        # the plane's P = (1 - z)^3 under socle 4: h = 1 has length 1
        ({"gens": [[1, 3], [3, 1]], "syz": [[2, 3], [4, 1]], "socle": 4},
         "h does not have length socle - 2 = 2", "1 - 3z + 3z^2 - z^3"),
        # P = (1 - z)^3 (1 + 2z): h = 1 + 2z
        ({"gens": [[1, 1], [2, 3], [4, 1]], "syz": [[3, 5]], "socle": 4},
         "h is not symmetric", "1 - z - 3z^2 + 5z^3 - 2z^4"),
        (NO_SURFACE, "h sums to 0, not a positive surface degree",
         "1 - 4z + 5z^2 - 5z^4 + 4z^5 - z^6"),
    ],
    ids=["second-moment", "negative-power", "length", "symmetry", "degree"],
)
def test_each_part_of_the_numerator_test_names_itself_and_prints_p(doc, failed, polynomial):
    assert [str(v) for v in validate(parse_resolution(doc))] == _numerator(failed, polynomial)


# -------------------------------------------------- parameter certificate


def _count(const, coeff):
    return AffineExpr(const=const, coeff=coeff, param="x" if coeff else None)


@st.composite
def certificate_families(draw):
    """A balanced, self-dual one-parameter resolution and a grid.

    A complete intersection (a, b, c) with socle s = a + b + c carries
    ghost pairs, twists n and s - n in 0..s with one affine count on both
    lists, which cancel twist by twist, so validate accepts them and they
    move no count, and free pairs, twists n1 > s/2 > n2 with counts
    (|w2| y, w1 y) / gcd(w1, w2) for w = 2n - s and y affine, which keep
    the degree balance but move the net count at n1 and n2, so validate
    refuses them.  The grid is an arithmetic progression, ascending or
    descending, on which every count is >= 0, or one that runs past that
    range, anywhere or by one step beyond one end, or None, so that the
    family is scanned on its admissible interval: a half-line, a bounded
    interval or an empty one.
    """
    a, b, c = draw(st.tuples(*[st.integers(1, 3)] * 3))
    socle = a + b + c
    gens = [(a, _count(1, 0)), (b, _count(1, 0)), (c, _count(1, 0))]
    for _ in range(draw(st.integers(0, 2))):
        n, u, k = draw(st.integers(0, socle)), draw(st.integers(0, 5)), draw(st.sampled_from([-1, 1]))
        gens += [(n, _count(u, k)), (socle - n, _count(u, k))]
    if draw(st.booleans()):
        n1 = socle // 2 + draw(st.integers(1, 2))
        n2 = (socle + 1) // 2 - draw(st.integers(1, 2))
        w1, w2 = 2 * n1 - socle, socle - 2 * n2
        u, t = draw(st.integers(0, 5)), draw(st.sampled_from([-1, 1]))
        g = gcd(w1, w2)
        gens += [(n1, _count(w2 // g * u, w2 // g * t)), (n2, _count(w1 // g * u, w1 // g * t))]
    syz = draw(st.permutations([(socle - n, mult) for n, mult in gens]))
    res = GorensteinResolution(tuple(gens), tuple(syz), socle)

    low, high = -6, 6
    for _, mult in gens:
        if mult.coeff > 0:
            low = max(low, -(mult.const // mult.coeff))
        elif mult.coeff < 0:
            high = min(high, mult.const // -mult.coeff)
    mode = draw(st.sampled_from(["inside", "inside", "past", "one-step-past", "no-grid"]))
    if mode == "no-grid":
        return res, None
    if low > high or mode == "past":
        low, high = -6, 6
    step = draw(st.integers(1, 2))
    size = min(draw(st.integers(1, 12)), (high - low) // step + 1)
    start = draw(st.integers(low, high - (size - 1) * step))
    if mode == "one-step-past":
        # the range itself and one point beyond one of its ends
        size = (high - low) // step + 2
        start = low - step if draw(st.booleans()) else low
    grid = range(start, start + size * step, step)
    return res, grid[::-1] if draw(st.booleans()) else grid


def _raised(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _one_point(x):
    return None if x is None else range(x, x + 1)


def _assert_counts(res, x, case):
    """A checked case's blocks count what the flat oracles count on the record at x.

    The invariants and h^0(I_S(t)) come from the record's own entries.  The
    KMR sum is taken on the record with its pairs of one twist cancelled
    (canonical_record), and where the record is self-dual in range on the
    record itself too (the lemma in _kmr).
    """
    gens, invariants = case
    socle = res.socle_twist
    assert invariants == flat_surface_invariants(res, x)
    assert [term_sum(gens, socle, t) for t in range(-2, socle + 3)] == [
        flat_h0_ideal(res, t, x) for t in range(-2, socle + 3)
    ]
    kmr = flat_kmr_total(canonical_record(res, x))
    if self_dual_in_range(res, x):
        assert flat_kmr_total(res, x) == kmr
    assert _raised(lambda: _kmr(gens, socle)) == (
        kmr if kmr >= 0 else (ConventionViolation, f"h^0(N_S) computed as {kmr} < 0")
    )


@settings(max_examples=200, deadline=None)
@given(certificate_families())
@example((parse_resolution(FALLING_DEGREE), None))
@example((parse_resolution(EMPTY_DOMAIN), None))
@example((parse_resolution(FALLING_DEGREE), range(3, 4)))
def test_certificate_agrees_with_the_full_walk(drawn):
    """validate and checked_resolution agree with a plain walk over every point.

    validate refuses exactly what flat_validate refuses, in its order and
    kinds, with its words where the walk has them (located): a grid that
    leaves the admissible interval is refused exactly when the walk finds
    a negative multiplicity at one of its points.  validate names
    cancelling pairs exactly when the net count, generators minus
    syzygies, at some twist differs between two walked points; the walk
    reads one point past its first as well.  On a family it accepts,
    every walked point counts what checked_resolution's canonical blocks
    count (_assert_counts).
    """
    res, grid = drawn
    found = validate(res, grid)
    assert located(found) == located(flat_validate(res, grid))
    walked = walk_points(res, grid)
    certified = _raised(lambda: checked_resolution(res, grid))
    if res.parameter() is not None and walked:
        nets = [net_counts(res, x) for x in (*walked, walked[0] + 1)]
        moved = any(net != nets[0] for net in nets)
        assert moved == any(v.invariant == "cancelling-pairs" for v in found)
    if found:
        assert certified[0] is ResolutionValidationError
        return
    for x in walked:
        _assert_counts(res, x, certified)


# ------------------------------------------- closed-form Hilbert kernel

_TWISTS = st.one_of(st.integers(-12, 12), st.sampled_from([-(10**30), 10**30]))
_COUNTS = st.one_of(st.integers(0, 6), st.just(10**20))


@st.composite
def arbitrary_blocks(draw):
    """Twist data at a parameter value x, with no structure imposed, and x.

    Either free (not self-dual, unbalanced, possibly with no generators,
    negative twists or a count negative at x), or self-dual and
    degree-balanced with an odd number of generators plus ghost pairs
    (twists n and socle - n with one count), so honest surfaces are met
    too.  Twists reach +-10**30 and counts 10**20.
    """
    x = draw(st.integers(-3, 3))

    def mult():
        return _count(draw(_COUNTS), draw(st.sampled_from([0, 0, 1, -1])))

    if draw(st.booleans()):
        gens = tuple((draw(_TWISTS), mult()) for _ in range(draw(st.integers(0, 4))))
        syz = tuple((draw(_TWISTS), mult()) for _ in range(draw(st.integers(0, 4))))
        return GorensteinResolution(gens, syz, draw(_TWISTS)), x
    socle, k = draw(_TWISTS), draw(st.integers(0, 2))
    twists = [draw(_TWISTS) for _ in range(2 * k)]
    twists.append(socle * k - sum(twists))  # 2 sum(n) = socle (rank - 1)
    gens = [(n, _count(1, 0)) for n in twists]
    for _ in range(draw(st.integers(0, 2))):
        n, count = draw(_TWISTS), _count(draw(_COUNTS), 0)
        gens += [(n, count), (socle - n, count)]
    syz = [(socle - n, count) for n, count in gens]
    return GorensteinResolution(tuple(gens), tuple(syz), socle), x


_GHOSTS = ((10**30, _count(10**20, 0)), (4 - 10**30, _count(10**20, 0)))
#: The (1, 1, 2) quadric plus a ghost pair: twists 10**30 and 4 - 10**30, count 10**20 each.
_HUGE_CI = GorensteinResolution(
    ((1, _count(2, 0)), (2, _count(1, 0)), *_GHOSTS),
    ((2, _count(1, 0)), (3, _count(2, 0)), *_GHOSTS[::-1]),
    4,
)
#: The (1, 1, K) complete intersection at K = 10**30: h = 1 + z + ... + z^(K - 1).
_HUGE_SOCLE = GorensteinResolution(
    ((1, _count(2, 0)), (10**30, _count(1, 0))),
    ((10**30 + 1, _count(2, 0)), (2, _count(1, 0))),
    10**30 + 2,
)


@settings(max_examples=400, deadline=None)
@given(arbitrary_blocks())
@example((_HUGE_CI, 0))
@example((_HUGE_SOCLE, 0))
@example((GorensteinResolution(  # balanced: 2 sum(n) = socle (rank - 1) with rank 2*10**20 + 1
    ((10**30 + 5, _count(10**20, 0)), (-5, _count(10**20, 0)), (0, _count(1, 0))),
    ((-5, _count(10**20, 0)), (10**30 + 5, _count(10**20, 0)), (10**30, _count(1, 0))),
    10**30,
), 0))
@example((GorensteinResolution(
    ((-(10**30), _count(10**20, 0)),), ((10**30, _count(3, 0)),), -(10**30)
), 0))
@example((GorensteinResolution((), ((10**30, _count(10**20, 0)),), 10**30), 0))
@example((GorensteinResolution(((1, _count(10**20, -1)),), (), 2), 1))
def test_the_closed_form_kernel_equals_the_finite_differences(drawn):
    """surface_invariants equals the flat oracle's chi values and differences.

    surface_invariants reads x as a one-point grid, so it refuses what
    flat_validate refuses there, with ResolutionValidationError.  Else
    the invariants give chi(O_S(t)) at every twist, as hilbert reads it.
    """
    res, x = drawn
    package = _raised(lambda: surface_invariants(res, x))
    if flat_validate(res, _one_point(x)):
        assert package[0] is ResolutionValidationError
        return
    assert package == flat_surface_invariants(res, x)
    if res is _HUGE_CI:
        assert package == SurfaceInvariants(2, 0, 1)
    if res is _HUGE_SOCLE:
        assert package.degree == 10**30
    for t in (-(10**30), -7, -1, 0, 1, 4, 9, 10**30):
        assert package.chi(t) == flat_chi_structure_poly(res, t, x)


@settings(max_examples=300, deadline=None)
@given(arbitrary_blocks())
@example((_HUGE_CI, 0))
@example((GorensteinResolution(((1, _count(10**20, -1)),), (), 2), 1))
def test_the_inline_term_sum_equals_the_flat_h0_sum(drawn):
    """term_sum on the checked generator blocks is the flat entry-by-entry sum of h0_pn terms.

    Where validate accepts the record at x, term_sum and h0_ideal count
    what the flat sum over the record's own entries counts, whatever its
    ghost pairs; elsewhere h0_ideal refuses it.
    """
    res, x = drawn
    accepted = not flat_validate(res, _one_point(x))
    gens = checked_resolution(res, _one_point(x))[0] if accepted else None
    for t in (*range(-3, 13), -(10**30), 10**30):
        package = _raised(lambda: h0_ideal(res, t, x))
        if accepted:
            assert term_sum(gens, res.socle_twist, t) == package == flat_h0_ideal(res, t, x)
        else:
            assert package[0] is ResolutionValidationError


@settings(max_examples=400, deadline=None)
@given(arbitrary_blocks())
@example((_HUGE_CI, 0))
@example((_HUGE_SOCLE, 0))
@example((GorensteinResolution(  # constant, with negative constants in both lists
    ((2, _count(-1, 0)), (1, _count(2, 0))), ((3, _count(-2, 0)),), 5
), 0))
@example((GorensteinResolution(  # one parameter, with negative constants in both lists
    ((2, _count(-1, 0)), (3, _count(0, 1))), ((3, _count(0, 1)), (4, _count(-2, 0))), 6
), 0))
@example((GorensteinResolution(((1, _count(3, -1)),), (), 2), 0))  # no generators at x = 3
@example((GorensteinResolution((), ((10**30, _count(10**20, 0)),), -(10**30)), 0))
def test_validate_off_a_grid_equals_the_flat_walk(drawn):
    """validate(res) with no grid reports what the flat walk reports, in its order and kinds.

    The walk visits up to 40 admissible values of the window it searches,
    from the finite end, and reads the Hilbert function at the first.
    """
    res, _ = drawn
    assert located(validate(res)) == located(flat_validate(res))


@st.composite
def accepted_resolutions(draw):
    """A surface's resolution drawn from its h-vector, plus pairs of one twist.

    h is symmetric of length s - 2 with h_0 = 1 and entries in 0..3, so its
    sum, the degree, is positive.  The record holds P = h (1 - z)^3 as
    -P_t generators of twist t where P_t < 0 and P_t syzygies where
    P_t > 0, 0 < t < s: self-dual, balanced, with every twist in 1..s - 1.
    Up to two pairs then add a generator and a syzygy of one twist t in
    -3..s + 3 with one count, constant or c + k x.  validate accepts every
    draw, so no caller discards one.
    """
    socle = draw(st.integers(3, 9))
    half = [1] + [draw(st.integers(0, 3)) for _ in range((socle - 3) // 2)]
    h = half + half[::-1][(socle - 2) % 2 :]  # symmetric, of length socle - 2
    numerator = [0] * (socle + 1)
    for j, hj in enumerate(h):
        for k, step in enumerate((1, -3, 3, -1)):
            numerator[j + k] += hj * step
    gens, syz = [], []
    for t, c in enumerate(numerator[1:-1], start=1):
        if c:
            (gens if c < 0 else syz).append((t, _count(abs(c), 0)))
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.integers(-3, socle + 3))
        count = _count(draw(st.integers(0, 4)), draw(st.sampled_from([0, 1, -1])))
        gens.append((t, count))
        syz.append((t, count))
    return GorensteinResolution(tuple(gens), tuple(draw(st.permutations(syz))), socle), None


def _admissible(res):
    """(low, high): the admissible values of x in -6..6; every count drawn here is >= 0 at 0."""
    low, high = -6, 6
    for _, mult in res.generators + res.syzygies:
        if mult.coeff > 0:
            low = max(low, -(mult.const // mult.coeff))
        elif mult.coeff < 0:
            high = min(high, mult.const // -mult.coeff)
    return low, high


def _with(res, gens=(), syz=()):
    """res with the (twist, count) entries added to its generators and syzygies."""
    return res._replace(generators=res.generators + gens, syzygies=res.syzygies + syz)


@settings(max_examples=200, deadline=None)
@given(accepted_resolutions(), st.data())
def test_pairs_of_one_twist_are_accepted_on_any_grid_and_move_no_count(drawn, data):
    """Generator/syzygy pairs at random equal twists, with count c or c + k x, change nothing.

    validate accepts the record before and after, on every grid inside
    the admissible interval and without one, with the same canonical
    blocks and invariants, so _kmr and term_sum for t = -2..s + 2 read
    the same values.  Where the record before is self-dual in range, its
    flat KMR sum is the canonical one.
    """
    res, _ = drawn
    socle = res.socle_twist
    before = checked_resolution(res)
    padded = res
    for _ in range(data.draw(st.integers(1, 3))):
        t = data.draw(st.integers(-3, socle + 3))
        count = _count(data.draw(st.integers(0, 4)), data.draw(st.sampled_from([0, 1, -1, 2])))
        padded = _with(padded, ((t, count),), ((t, count),))
    low, high = _admissible(padded)
    start = data.draw(st.integers(low, high))
    stop = data.draw(st.integers(start, high)) + 1
    grid = data.draw(st.sampled_from([None, range(start, stop)]))
    gens, invariants = after = checked_resolution(padded, grid)
    assert after == before
    assert _kmr(gens, socle) == _kmr(before[0], socle)
    for t in range(-2, socle + 3):
        assert term_sum(gens, socle, t) == term_sum(before[0], socle, t)
    for x in range(start, stop):
        _assert_counts(padded, x, after)


@settings(max_examples=200, deadline=None)
@given(accepted_resolutions(), st.data())
def test_a_parametric_ghost_pair_is_accepted_on_any_grid_and_moves_no_count(drawn, data):
    """A ghost pair {t, s - t}, added to both lists with count c + k x, at any twist t.

    validate accepts it on every grid inside the admissible interval and
    without one, and the canonical blocks and invariants do not move, so
    no count does.  Where 1 <= t <= s - 1 the record stays self-dual in
    range, and its flat KMR sum stays the canonical one (the lemma in
    _kmr); outside, or at t alone on both lists, the pairs still cancel
    twist by twist.
    """
    res, _ = drawn
    socle = res.socle_twist
    before = checked_resolution(res)
    t = data.draw(st.integers(-3, socle + 3))
    count = _count(data.draw(st.integers(0, 4)), data.draw(st.integers(1, 3)))
    ghosted = _with(res, ((t, count), (socle - t, count)), ((socle - t, count), (t, count)))
    alone = _with(res, ((t, count),), ((t, count),))
    low, high = _admissible(ghosted)
    for grid in (None, range(low, low + 1), range(low, high + 1)):
        assert validate(ghosted, grid) == validate(alone, grid) == []
        assert checked_resolution(ghosted, grid) == checked_resolution(alone, grid) == before
    for x in range(low, high + 1):
        if 1 <= t <= socle - 1 and self_dual_in_range(res, x):
            assert flat_kmr_total(ghosted, x) == flat_kmr_total(res, x)


_GRID_ENDS = st.one_of(st.integers(-8, 8), st.sampled_from([-(10**30), 10**30]))


@st.composite
def grids(draw):
    """A nonempty arithmetic progression from one drawn end towards the other.

    Either order, step 1 to 3, one point when the ends agree, and ends up to +-10**30.
    """
    first, last = draw(_GRID_ENDS), draw(_GRID_ENDS)
    step = draw(st.integers(1, 3)) * (1 if last >= first else -1)
    return range(first, last + step, step)


@settings(max_examples=400, deadline=None)
@given(accepted_resolutions(), st.data())
def test_a_grid_is_accepted_exactly_when_the_walk_finds_no_negative_multiplicity(drawn, data):
    """On a one-parameter record that is valid off a grid, a grid decides acceptance alone.

    The record is a surface plus one to three pairs of one twist with
    count c + k x, c in -6..6 and k != 0, so its admissible interval may
    be a half-line, bounded or empty.  validate accepts a grid exactly
    when the flat walk over its points (grid_points) finds no negative
    multiplicity, and then counts what it counts without one.  Else it
    names an empty interval, or the grid and the interval, whose finite
    ends admissible_search finds by trying each value of WINDOW.
    """
    res, _ = drawn
    for _ in range(data.draw(st.integers(1, 3))):
        t = data.draw(st.integers(-3, res.socle_twist + 3))
        slope = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        count = _count(data.draw(st.integers(-6, 6)), slope)
        res = _with(res, ((t, count),), ((t, count),))
    grid = data.draw(grids())
    walked = grid_points(grid)
    mults = [mult for _, mult in res.generators + res.syzygies]
    found = [str(v) for v in validate(res, grid)]
    assert (found == []) == all(mult.evaluate(x) >= 0 for x in walked for mult in mults)
    admissible = admissible_search(res)
    if not found:
        assert checked_resolution(res, grid) == checked_resolution(res)
    elif not admissible:
        assert found[0].startswith("empty-domain: no value of x makes every multiplicity >= 0")
    else:
        lo = None if admissible[0] == WINDOW[0] else admissible[0]
        hi = None if admissible[-1] == WINDOW[-1] else admissible[-1]
        interval = " <= ".join(str(part) for part in (lo, "x", hi) if part is not None)
        step = "" if grid.step == 1 else f" step {grid.step}"
        where = f"x={grid[0]}" if len(walked) == 1 else f"grid {grid[0]}..{grid[-1]}{step}"
        assert found == [
            f"negative-multiplicity: {where} leaves {interval}, where every multiplicity is >= 0"
        ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(accepted_resolutions(), certificate_families()))
def test_a_validated_resolution_never_has_degree_above_2(drawn):
    """What validate accepts is a surface: the flat chi polynomial has degree exactly 2.

    Its third differences vanish and its second, the degree, is positive,
    at every walked point; that is the exact division and the positive
    sum of the Hilbert-numerator test, read off the flat oracle.
    """
    res, grid = drawn
    if validate(res, grid):
        return
    for x in walk_points(res, grid)[:6]:
        chi = [flat_chi_structure_poly(res, t, x) for t in range(-2, 4)]
        assert [chi[i + 3] - 3 * chi[i + 2] + 3 * chi[i + 1] - chi[i] for i in range(3)] == [0] * 3
        assert chi[4] - 2 * chi[3] + chi[2] == checked_resolution(res, grid)[1].degree > 0
