"""Acceptance gate: one test per numbered criterion, exact integers only.

Each test prints a PASS marker so a verbose run reads as a checklist.
The whole suite stays well under the five-second budget.
"""

import json
import math

from acmsplit.cli import run
from acmsplit.combinatorics import binom_poly, binom_trunc
from acmsplit.euler import pfaffian_c2, sectional_genus, solve_c2_boundary
from acmsplit.incidence import (
    Verdict,
    builtin_catalog,
    dimension_bound,
    generate_report,
    verdict,
)
from acmsplit.normal_bundle import kmr_h0_normal
from acmsplit.proj_cohomology import moduli_dim
from acmsplit.resolutions import h0_ideal, parse_resolution, surface_invariants
from conftest import (
    CI_TYPES,
    case_points,
    ci_resolution,
    kmr_min_pair_argument,
    koszul_ideal_dim,
)


def _case(degree, c1, c2):
    return next(c for c in builtin_catalog(degree) if (c.c1, c.c2) == (c1, c2))


def _scan(degree, c1, c2, func):
    res, points = case_points(_case(degree, c1, c2))
    values = {func(res, x) for x in points}
    assert len(values) == 1, f"({c1}, {c2}): values vary across the grid: {values}"
    return values.pop()


def test_criterion_01_moduli_dimensions():
    assert moduli_dim(4) == 125
    assert moduli_dim(5) == 251
    assert moduli_dim(3) == 55
    print("CRITERION 1: PASS")


def test_criterion_02_boundary_c2():
    for r in (3, 4, 5, 6):
        assert solve_c2_boundary(r, 3 - r) == 1
        assert solve_c2_boundary(r, 4 - r) == 2
    print("CRITERION 2: PASS")


def test_criterion_03_pfaffian_pairs():
    assert pfaffian_c2(4) == 14
    assert verdict(_case(4, 3, 14)) == Verdict.EXCLUDED_PFAFFIAN
    assert pfaffian_c2(3) == 5
    assert pfaffian_c2(5) == 30
    print("CRITERION 3: PASS")


def test_criterion_04_normal_bundle_sections():
    assert kmr_h0_normal(parse_resolution(ci_resolution(1, 1, 2))) == 17
    assert kmr_h0_normal(parse_resolution(ci_resolution(1, 1, 3))) == 27
    assert kmr_h0_normal(parse_resolution(ci_resolution(1, 2, 2))) == 31
    assert _scan(4, 1, 5, kmr_h0_normal) == 35
    assert kmr_h0_normal(parse_resolution(ci_resolution(1, 1, 4))) == 42
    assert kmr_h0_normal(parse_resolution(ci_resolution(1, 2, 3))) == 48
    assert _scan(4, 2, 8, kmr_h0_normal) == 54
    assert _scan(5, 2, 11, kmr_h0_normal) == 83
    assert _scan(5, 2, 12, kmr_h0_normal) == 81
    assert _scan(5, 2, 13, kmr_h0_normal) == 79
    assert _scan(5, 2, 14, kmr_h0_normal) == 77
    assert _scan(5, 3, 20, kmr_h0_normal) == 110
    print("CRITERION 4: PASS")


QUARTIC_IDEAL_DIMS = {(1, 3): 95, (1, 4): 85, (1, 5): 75, (2, 8): 60}
QUINTIC_IDEAL_DIMS = {
    (0, 3): 206, (0, 4): 191, (0, 5): 176,
    (1, 4): 200, (1, 6): 175, (1, 8): 150,
    (2, 11): 135, (2, 12): 125, (2, 13): 115, (2, 14): 105,
    (3, 20): 80,
}


def test_criterion_05_ideal_sections_at_the_degree():
    for (c1, c2), expected in QUARTIC_IDEAL_DIMS.items():
        assert _scan(4, c1, c2, lambda res, x: h0_ideal(res, 4, x)) == expected
    for (c1, c2), expected in QUINTIC_IDEAL_DIMS.items():
        assert _scan(5, c1, c2, lambda res, x: h0_ideal(res, 5, x)) == expected
        if c1 == 2:
            assert expected == 245 - 10 * c2
    print("CRITERION 5: PASS")


QUARTIC_BOUNDS = {(1, 3): 121, (1, 4): 115, (1, 5): 109, (2, 8): 113}
QUINTIC_BOUNDS = {
    (0, 3): 232, (0, 4): 221, (0, 5): 210,
    (1, 4): 241, (1, 6): 222, (1, 8): 203,
    (2, 11): 217, (2, 12): 205, (2, 13): 193, (2, 14): 181,
    (3, 20): 189,
}


def test_criterion_06_dimension_bounds():
    for (c1, c2), expected in QUARTIC_BOUNDS.items():
        assert dimension_bound(_case(4, c1, c2)) == expected
        assert expected < 125
    for (c1, c2), expected in QUINTIC_BOUNDS.items():
        assert dimension_bound(_case(5, c1, c2)) == expected
        assert expected < 251
    # the 217 entry supersedes a commonly quoted 214; the report says so
    row = next(
        r for r in generate_report(5).rows
        if r.case is not None and (r.case.c1, r.case.c2) == (2, 11)
    )
    assert row.bound == 217
    assert any("217" in note and "214" in note for note in row.notes)
    print("CRITERION 6: PASS")


def test_criterion_07_normal_bound_equivalence():
    comparisons = {11: 83, 12: 81, 13: 79, 14: 77}
    for c2, h0_normal in comparisons.items():
        assert _scan(5, 2, c2, kmr_h0_normal) == h0_normal
        assert h0_normal < 10 * c2 + 7
        bound = dimension_bound(_case(5, 2, c2))
        assert (bound < 251) == (h0_normal < 10 * c2 + 7)
    print("CRITERION 7: PASS")


#: The degree-11 and degree-12 sections as classified: cubic count c, quartic count b.
RAW_11 = {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
RAW_12 = {"gens": [[2, 2], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 2]], "socle": 7}


def _twist_sum(raw, values):
    """Sum(n_i) - Sum(m_j) + socle over the expanded twists, at integer parameter values."""
    def total(vector):
        return sum(t * values.get(m, m) for t, m in vector)

    return total(raw["gens"]) - total(raw["syz"]) + raw["socle"]


def _substituted(raw, name, expression):
    """raw with the multiplicity name replaced by the expression text."""
    def vector(key):
        return [[t, expression if m == name else m] for t, m in raw[key]]

    return {"gens": vector("gens"), "syz": vector("syz"), "socle": raw["socle"]}


def test_criterion_08_balance_relations():
    """The built-in records are the raw ones with the degree balance substituted by hand."""
    for b in range(-5, 6):
        for c in range(-5, 6):
            assert (_twist_sum(RAW_11, {"b": b, "c": c}) == 0) == (c == b - 2)
            assert (_twist_sum(RAW_12, {"b": b, "c": c}) == 0) == (b == c - 1)
    assert _case(5, 2, 11).resolution == parse_resolution(_substituted(RAW_11, "c", "b-2"))
    assert _case(5, 2, 12).resolution == parse_resolution(_substituted(RAW_12, "b", "c-1"))
    print("CRITERION 8: PASS")


def test_criterion_09_catalog_self_consistency():
    genus_seen = {3: [], 4: [], 5: []}
    for degree in (3, 4, 5):
        for case in builtin_catalog(degree):
            if case.resolution is None:
                continue
            res, points = case_points(case)
            for x in points:
                inv = surface_invariants(res, x)
                assert inv.degree == case.c2
                assert inv.sectional_genus == sectional_genus(degree, case.c1, case.c2)
            genus_seen[degree].append(
                surface_invariants(res, points[0]).sectional_genus
            )
    assert genus_seen[4] == [1, 1, 1, 5]
    assert genus_seen[5] == [1, 1, 1, 3, 4, 5, 12, 13, 14, 15, 31]
    print("CRITERION 9: PASS")


def test_criterion_10a_koszul_oracle():
    for ci in CI_TYPES:
        res = parse_resolution(ci_resolution(*ci))
        for t in range(0, 11):
            assert h0_ideal(res, t) == koszul_ideal_dim(ci, t)
    print("CRITERION 10a: PASS")


def test_criterion_10b_no_truncated_pair_binomials():
    """No pair argument is negative anywhere in the catalog.

    Binomials at negative arguments vanish under the truncated
    convention; because no argument ever goes below zero, nothing is
    silently discarded and the polynomial convention gives the same
    normal-bundle counts.
    """
    for degree in (3, 4, 5):
        for case in builtin_catalog(degree):
            if case.resolution is None:
                continue
            res, points = case_points(case)
            for x in points:
                assert kmr_min_pair_argument(res, x) >= 0
    print("CRITERION 10b: PASS")


def test_criterion_10c_binomial_properties():
    for a in range(-50, 51):
        for k in range(0, 9):
            falling = 1
            for i in range(k):
                falling *= a - i
            assert binom_poly(a, k) * math.factorial(k) == falling
            if k >= 1:
                assert binom_poly(a, k) == binom_poly(a - 1, k) + binom_poly(a - 1, k - 1)
            if a >= 0:
                assert binom_trunc(a, k) == binom_poly(a, k)
            else:
                assert binom_trunc(a, k) == 0
                assert binom_poly(a, k) == (-1) ** k * binom_trunc(k - a - 1, k)
    print("CRITERION 10c: PASS")


def test_criterion_11_end_to_end(capsys):
    for degree in (4, 5):
        code = run(["report", "--degree", str(degree), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(row["verdict"] != "InconclusiveCount" for row in payload["rows"])

    code = run(["report", "--degree", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    stuck = [row for row in payload["rows"] if row["verdict"] == "InconclusiveCount"]
    assert len(stuck) == 1
    assert any("plane-exclusion" in note for note in stuck[0]["notes"])

    code = run(["report", "--degree", "6", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["verdict"] for row in payload["rows"]] == ["ReducedToThreefold"]
    print("CRITERION 11: PASS")
