from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmsplit.incidence import CatalogError, checked_resolution
from acmsplit.normal_bundle import ConventionViolation, kmr_h0_normal
from acmsplit.proj_cohomology import h0_pn, hi_pn
from acmsplit.resolutions import (
    AffineExpr,
    DegenerateResolutionError,
    GorensteinResolution,
    NonConstantScanError,
    ResolutionValidationError,
    MAX_SCAN_POINTS,
    SurfaceInvariants,
    UnresolvedParameterError,
    chi_structure_poly,
    h0_ideal,
    h0_structure,
    parse_affine,
    parse_multiplicity,
    parse_resolution,
    scan_constant,
    scan_points,
    surface_invariants,
    validate,
)
from conftest import (
    CI_TYPES,
    ci_resolution,
    flat_chi_structure_poly,
    flat_h0_ideal,
    flat_kmr_total,
    flat_surface_invariants,
    flat_validate,
    koszul_ideal_dim,
    resolved_points,
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


def test_affine_evaluate_and_substitute():
    expr = parse_affine("b-2")
    assert expr.evaluate(5) == 3
    with pytest.raises(UnresolvedParameterError):
        expr.evaluate()
    swapped = expr.substitute("b", parse_affine("c+1"))
    assert swapped == parse_affine("c-1")
    untouched = expr.substitute("q", AffineExpr(const=9))
    assert untouched == expr


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
    assert not res.is_parametric
    assert res.subcanonical_e == -2
    assert res.expand() == ([1, 1, 2], [2, 3, 3])

    family = parse_resolution(
        {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
    )
    assert family.free_parameters() == {"x"}
    gens, syz = family.expand(2)
    assert gens == [2, 2, 2, 3, 3]
    assert syz == [3, 3, 4, 4, 4]
    with pytest.raises(ResolutionValidationError):
        family.expand(-1)


def test_blocks_merge_sort_and_drop_empty_twists():
    res = GorensteinResolution(
        generators=((3, parse_affine("x")), (2, AffineExpr(const=2)), (3, AffineExpr(const=1)),
                    (4, AffineExpr(const=0))),
        syzygies=((4, AffineExpr(const=1)), (3, parse_affine("x")), (4, AffineExpr(const=2))),
        socle_twist=6,
    )
    assert res.blocks(2) == ([(2, 2), (3, 3)], [(3, 2), (4, 3)])
    assert res.blocks(0) == ([(2, 2), (3, 1)], [(4, 3)])
    assert res.expand(2) == ([2, 2, 3, 3, 3], [3, 3, 4, 4, 4])
    with pytest.raises(ResolutionValidationError, match="multiplicity x of twist 3 is -1 at x=-1"):
        res.blocks(-1)
    with pytest.raises(UnresolvedParameterError):
        res.blocks()


def test_scan_points_refuses_a_grid_past_the_cap():
    family = parse_resolution({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})
    assert len(scan_points(family, range(MAX_SCAN_POINTS))) == MAX_SCAN_POINTS
    # the grid itself is the scan domain, not a copy of it
    assert scan_points(family, range(2, 100_001)) == range(2, 100_001)
    for grid in (range(MAX_SCAN_POINTS + 1), range(10**30)):
        with pytest.raises(ValueError, match="more than 100000 points"):
            scan_points(family, grid)
    assert [v.invariant for v in validate(family, range(10**12))] == ["wide-grid"]
    # a non-parametric resolution is evaluated once, whatever the grid
    assert scan_points(parse_resolution(ci_resolution(1, 1, 2)), range(10**12)) == [None]


def test_expand_refuses_two_parameters():
    res = parse_resolution(
        {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
    )
    with pytest.raises(UnresolvedParameterError):
        res.expand(2)


# ------------------------------------------------------------- validation

@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_builtin_resolutions_validate(case, res, x):
    assert validate(res, [x] if x is not None else None) == []


def test_degree_balance_violation():
    # seven cubics against seven quartics with socle 6 misses balance by 1
    res = parse_resolution({"gens": [[3, 7]], "syz": [[4, 7]], "socle": 6})
    tags = {v.invariant for v in validate(res)}
    assert "degree-balance" in tags


def test_self_duality_and_rank_violations():
    res = GorensteinResolution(
        generators=((1, AffineExpr(const=2)), (2, AffineExpr(const=1))),
        syzygies=((3, AffineExpr(const=3)),),
        socle_twist=4,
    )
    tags = {v.invariant for v in validate(res)}
    assert "self-duality" in tags
    assert "degree-balance" in tags


def test_negative_multiplicity_reported_per_point():
    raw = parse_resolution(
        {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
    )
    res = raw.substitute("c", parse_affine("b-2"))
    bad = [v for v in validate(res, range(0, 6)) if v.invariant == "negative-multiplicity"]
    assert sorted(v.param_value for v in bad) == [0, 1]
    assert validate(res, range(2, 6)) == []


def test_unresolved_and_empty_grid():
    raw = parse_resolution(
        {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
    )
    assert [v.invariant for v in validate(raw)] == ["unresolved-parameters"]
    family = parse_resolution(
        {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
    )
    assert [v.invariant for v in validate(family, [])] == ["empty-grid"]


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


def test_structure_sections():
    res = quadric()
    assert h0_structure(res, -1) == 0
    assert h0_structure(res, 0) == 1
    assert h0_structure(res, 1) == 4
    assert h0_structure(res, 2) == h0_pn(5, 2) - h0_ideal(res, 2)


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_chi_matches_sections_above_the_canonical_twist(case, res, x):
    e = res.subcanonical_e
    for t in range(e + 1, e + 8):
        assert chi_structure_poly(res, t, x) == h0_structure(res, t, x)


@pytest.mark.parametrize("case, res, x", RESOLVED, ids=RESOLVED_IDS)
def test_chi_serre_duality_on_the_surface(case, res, x):
    e = res.subcanonical_e
    for t in range(-5, 6):
        assert chi_structure_poly(res, t, x) == chi_structure_poly(res, e - t, x)


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
    # one linear form alone cuts a threefold: P(t) stays cubic
    res = GorensteinResolution(
        generators=((1, AffineExpr(const=1)),),
        syzygies=((5, AffineExpr(const=1)),),
        socle_twist=6,
    )
    with pytest.raises(DegenerateResolutionError):
        surface_invariants(res)


def test_unit_ideal_rejected():
    # twist-0 generator kills everything: P(t) = 0, no surface degree
    res = parse_resolution({"gens": [[0, 1]], "syz": [[4, 1]], "socle": 4})
    with pytest.raises(DegenerateResolutionError):
        surface_invariants(res)


# -------------------------------------------------- parameter certificate


def _count(const, coeff):
    return AffineExpr(const=const, coeff=coeff, param="x" if coeff else None)


@st.composite
def certificate_families(draw):
    """A balanced, self-dual one-parameter resolution and a grid.

    A complete intersection (a, b, c) with socle s = a + b + c carries
    ghost pairs, twists n and s - n with one affine count, which move
    only the KMR count, and free pairs, twists n1 > s/2 > n2 with counts
    (|w2| y, w1 y) / gcd(w1, w2) for w = 2n - s and y affine, which keep
    the degree balance but move the Hilbert polynomial.  The grid is an
    arithmetic progression, ascending or descending, on which every
    count is >= 0, or one that runs past that range, anywhere or by one
    step beyond one end.
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
    mode = draw(st.sampled_from(["inside", "inside", "past", "one-step-past"]))
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
    return res, grid[::-1] if draw(st.booleans()) else grid, draw(st.integers(0, 8))


def _outcome(call):
    """The value of call(), or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _walk_constant(evaluate, points, what):
    """scan_constant as a plain walk over every point."""
    values = {x: evaluate(x) for x in points}
    if len(set(values.values())) != 1:
        raise NonConstantScanError(f"{what} varies across the parameter grid: {values}")
    return values[points[0]]


def _flat_kmr(res, x):
    total = flat_kmr_total(res, x)
    if total < 0:
        raise ConventionViolation(f"h^0(N_S) computed as {total} < 0")
    return total


def _walk_checked_resolution(res, grid, check):
    """checked_resolution as a plain walk over every point, on the flat references."""
    problems = flat_validate(res, grid)
    if problems:
        raise CatalogError("invalid resolution: " + "; ".join(str(p) for p in problems))
    points = scan_points(res, grid)
    for found in [flat_surface_invariants(res, x) for x in points]:
        check(found)
    return res, points


@settings(max_examples=200, deadline=None)
@given(certificate_families())
def test_certificate_agrees_with_the_full_walk(drawn):
    res, grid, pin = drawn
    problems = flat_validate(res, grid)
    assert validate(res, grid) == problems

    # refuse every degree but the one at a drawn point, as _prepare_case refuses c2
    pinned = _outcome(lambda: flat_surface_invariants(res, grid[pin % len(grid)]))

    def check(found):
        if isinstance(pinned, SurfaceInvariants) and found.degree != pinned.degree:
            raise CatalogError(f"resolution has surface degree {found.degree}, not c2")

    assert _outcome(lambda: checked_resolution(res, grid, check=check)) == _outcome(
        lambda: _walk_checked_resolution(res, grid, check)
    )
    if problems:
        return

    points = scan_points(res, grid)
    quantities = [("h^0(N_S)", lambda x: kmr_h0_normal(res, x), lambda x: _flat_kmr(res, x))]
    for t in (1, 3, 5):
        quantities += [
            (f"h^0(I_S({t}))", lambda x, t=t: h0_ideal(res, t, x),
             lambda x, t=t: flat_h0_ideal(res, t, x)),
            (f"chi(O_S({t}))", lambda x, t=t: chi_structure_poly(res, t, x),
             lambda x, t=t: flat_chi_structure_poly(res, t, x)),
        ]
    for what, package, flat in quantities:
        assert _outcome(lambda: scan_constant(package, points, what)) == _outcome(
            lambda: _walk_constant(flat, points, what)
        )

    # the degree <= 2 fact the certificate rests on, at equally spaced points
    totals = [flat_kmr_total(res, x) for x in points]
    assert all(
        totals[i + 3] - 3 * totals[i + 2] + 3 * totals[i + 1] - totals[i] == 0
        for i in range(len(totals) - 3)
    )
