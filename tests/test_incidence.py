import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acmsplit.catalog import BUILTIN_CATALOGS
from acmsplit.incidence import (
    CatalogError,
    CaseRecord,
    Verdict,
    _cascade,
    builtin_catalog,
    checked_resolution,
    dimension_bound,
    evaluate_case,
    generate_report,
    json_text,
    load_catalog,
    render_report_json,
    render_report_markdown,
    report_to_jsonable,
    verdict,
)
from acmsplit.normal_bundle import kmr_h0_normal
from acmsplit.resolutions import (
    AffineExpr,
    GorensteinResolution,
    ResolutionValidationError,
    SurfaceInvariants,
    h0_ideal,
    parse_resolution,
    validate,
)
from conftest import (
    DEGENERATES_PARTWAY,
    FALLING_DEGREE,
    NO_SURFACE,
    cancelling_pairs,
    case_points,
    ci_resolution,
    degree_balance_form,
    flat_h0_ideal,
    flat_kmr_total,
    flat_surface_invariants,
)

DEG11 = {"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}
DEG12 = {"gens": [[2, 2], [3, "c"], [4, "c-1"]], "syz": [[3, "c-1"], [4, "c"], [5, 2]], "socle": 7}
DEG14 = {"gens": [[3, 7]], "syz": [[4, 7]], "socle": 7}
#: DEG11 before its degree balance c = b - 2 is substituted: two parameters.
RAW11 = {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
TWO_PARAMETERS = (
    "resolution has parameters b, c; a record takes at most one,"
    " so substitute the degree-balance relation for one of them"
)


# ------------------------------------------------------------ balance

def test_balance_relations():
    """The built-in families balance identically; their raw two-parameter form is refused."""
    for c1, c2 in ((2, 11), (2, 12)):
        (case,) = [c for c in builtin_catalog(5) if (c.c1, c.c2) == (c1, c2)]
        assert degree_balance_form(case.resolution) == (0, 0)
    assert degree_balance_form(parse_resolution(DEG11)) == (0, 0)
    with pytest.raises(ValueError, match=re.escape(TWO_PARAMETERS)):
        parse_resolution(RAW11)


def test_balance_trivial_cases():
    assert degree_balance_form(parse_resolution(DEG14)) == (0, 0)
    octic = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
    assert degree_balance_form(parse_resolution(octic)) == (0, 0)


def test_balance_single_parameter_and_inconsistency():
    pinned = parse_resolution({"gens": [[2, "x"]], "syz": [[3, "x"]], "socle": 4})
    assert degree_balance_form(pinned) == (4, -1)
    off_by_two = parse_resolution({"gens": [[3, 7]], "syz": [[4, 7]], "socle": 5})
    assert degree_balance_form(off_by_two) == (-2, 0)
    # x moves the net counts, and the constant record's P(z) has P'(1) = 2
    assert [str(v) for v in validate(pinned) + validate(off_by_two)] == [
        str(cancelling_pairs("x", [2, 3])),
        "hilbert-numerator: h is not a polynomial, with h = P(z)/(1 - z)^3"
        " and P(z) = 1 - 7z^3 + 7z^4 - z^5",
    ]


def test_resolved_family_is_self_dual_on_its_grid():
    res = parse_resolution(DEG11)
    assert res.parameter() == "b"
    assert validate(res, range(2, 6)) == []


# ------------------------------------------------------------ verdicts

def _case(r, c1, c2, shape=None):
    res = parse_resolution(shape) if shape is not None else None
    return CaseRecord(r=r, c1=c1, c2=c2, resolution=res)


@pytest.mark.parametrize(
    "case, expected",
    [
        (_case(3, 2, 5), Verdict.EXCLUDED_PFAFFIAN),
        (_case(4, 1, 5, {"gens": [[2, 5]], "syz": [[3, 5]], "socle": 5}),
         Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (_case(3, 1, 2, ci_resolution(1, 1, 2)), Verdict.INCONCLUSIVE_COUNT),
        (_case(4, -1, 1), Verdict.EXCLUDED_PLANE),
        (_case(4, -2, 1), Verdict.SPLITS_BY_RANGE),
        (_case(4, 4, 30), Verdict.SPLITS_BY_RANGE),
        (_case(4, 0, 3), Verdict.ARITHMETICALLY_IMPOSSIBLE),
        (_case(4, 1, 3), Verdict.INCONCLUSIVE_COUNT),
    ],
    ids=[
        "pfaffian", "count", "inconclusive", "plane", "below-window",
        "above-window", "odd-genus", "no-resolution",
    ],
)
def test_verdict_cascade(case, expected):
    assert verdict(case) == expected


@pytest.mark.parametrize(
    "r, message",
    [
        (6, "degree 6 is decided by reduction to the sextic threefold,"
            " so its catalog takes no cases"),
        (7, "reports cover degrees 3 through 6, not 7"),
        (2, "reports cover degrees 3 through 6, not 2"),
        (0, "reports cover degrees 3 through 6, not 0"),
    ],
    ids=["sextic", "degree-7", "degree-2", "degree-0"],
)
def test_verdict_and_bound_refuse_the_degrees_the_report_refuses(r, message):
    """verdict and dimension_bound are the report's: a case it refuses, they refuse too."""
    case = _case(r, 1, 3, ci_resolution(1, 1, 3))
    for decide in (verdict, dimension_bound, lambda c: generate_report(r, [c])):
        with pytest.raises(CatalogError, match="^" + re.escape(message) + "$"):
            decide(case)


def test_the_count_rule_excludes_only_below_the_moduli_dimension():
    """dim P(4) = 125: a bound of 124 excludes the case, 125 does not."""
    case = _case(4, 1, 3, ci_resolution(1, 1, 3))
    row = evaluate_case(case)
    assert (row.genus, row.bound, row.moduli_dim) == (1, 121, 125)
    assert _cascade(case, 1, 95, 30, 124, 125) == (
        Verdict.EXCLUDED_BY_DIMENSION_COUNT,
        "incidence bound 124 = 95 - 1 + 30 is below the moduli dimension 125",
    )
    assert _cascade(case, 1, 95, 31, 125, 125) == (
        Verdict.INCONCLUSIVE_COUNT, "incidence bound 125 does not beat the moduli dimension 125"
    )


def test_verdict_and_bound_are_the_report_rows():
    for degree in (3, 4, 5):
        for row in generate_report(degree).rows:
            assert verdict(row.case) == row.verdict
            if row.bound is not None:
                assert dimension_bound(row.case) == row.bound


def test_verdict_is_deterministic():
    case = _case(4, 2, 8, {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})
    assert verdict(case) == verdict(case) == Verdict.EXCLUDED_BY_DIMENSION_COUNT
    assert evaluate_case(case, range(0, 6)).verdict == Verdict.EXCLUDED_BY_DIMENSION_COUNT


@pytest.mark.parametrize(
    "case, expected",
    [
        (_case(4, 1, 3, ci_resolution(1, 1, 3)), 121),
        (_case(5, 0, 5, {"gens": [[2, 5]], "syz": [[3, 5]], "socle": 5}), 210),
        (_case(4, 2, 8, {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}), 113),
    ],
    ids=["ci113", "quintic", "octic"],
)
def test_dimension_bound(case, expected):
    assert dimension_bound(case) == expected


def test_dimension_bound_needs_a_resolution():
    with pytest.raises(CatalogError):
        dimension_bound(_case(4, 1, 3))


def test_dimension_bound_refuses_a_two_parameter_record_built_directly():
    """parse_resolution refuses such a record; one built by hand fails validation, named."""
    raw = GorensteinResolution(
        generators=((2, AffineExpr(3)), (3, AffineExpr(0, 1, "c")), (4, AffineExpr(0, 1, "b"))),
        syzygies=((3, AffineExpr(0, 1, "b")), (4, AffineExpr(0, 1, "c")), (5, AffineExpr(3))),
        socle_twist=7,
    )
    message = f"case (c1=2, c2=11): invalid resolution: unresolved-parameters: {TWO_PARAMETERS}"
    with pytest.raises(CatalogError, match="^" + re.escape(message) + "$"):
        dimension_bound(CaseRecord(r=5, c1=2, c2=11, resolution=raw))
    case = _case(5, 2, 11, DEG11)
    assert dimension_bound(case) == evaluate_case(case, range(2, 6)).bound == 217


def test_a_resolution_without_a_parameter_ignores_the_grid():
    """So generate_report hands grid_override to every case, even an empty grid."""
    case = _case(4, 1, 3, ci_resolution(1, 1, 3))
    assert evaluate_case(case, range(5, 5)) == evaluate_case(case)


OCTIC = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}


@pytest.mark.parametrize(
    "case, message",
    [
        (_case(5, 2, 11, DEG12), "case (c1=2, c2=11): resolution has surface degree 12, not c2"),
        (_case(5, 0, 3, DEG14), "case (c1=0, c2=3): resolution has surface degree 14, not c2"),
        (_case(5, 3, 8, OCTIC),
         "case (c1=3, c2=8): resolution sectional genus 5 != 13 from the Chern pair"),
    ],
    ids=["degree-12-as-11", "degree-14-as-3", "genus-5-as-13"],
)
def test_dimension_bound_and_verdict_refuse_what_the_report_refuses(case, message):
    """Both prepare a case as generate_report does, with the same error."""
    for decide in (dimension_bound, verdict, lambda c: generate_report(5, [c])):
        with pytest.raises(CatalogError, match=re.escape(message)):
            decide(case)


def test_a_report_walks_each_resolution_once(monkeypatch):
    """The walk validates each resolution once, whether or not it has a parameter.

    A degree-5 report counts 12 resolutions, so it walks 12 times, with the
    report's grid, None.
    """
    import acmsplit.resolutions as resolutions
    from acmsplit.catalog import QUADRIC_RESOLUTION

    resolved = [parse_resolution(QUADRIC_RESOLUTION)] + [
        c.resolution for c in builtin_catalog(5) if c.resolution is not None
    ]
    walk = resolutions._walk
    walked = []

    def counted_walk(res, grid=None):
        walked.append((res, grid))
        return walk(res, grid)

    monkeypatch.setattr(resolutions, "_walk", counted_walk)
    generate_report(5)
    assert Counter(walked) == Counter((res, None) for res in resolved)
    assert len(walked) == 12


def test_a_report_counts_each_case_with_a_resolution_once(monkeypatch):
    """evaluate_case reads the invariants, h^0(I_S(r)) and h^0(N_S) once per case.

    The four built-in family cases are counted once too, not once per parameter value.
    """
    import acmsplit.incidence as incidence

    calls = Counter()
    for name in ("_kmr", "checked_resolution", "term_sum"):

        def counted(*args, name=name, kernel=getattr(incidence, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(incidence, name, counted)
    rows = [row for degree in (3, 4, 5, 6) for row in generate_report(degree).rows]
    assert sum(row.case is not None and row.case.resolution is not None for row in rows) == 18
    assert calls == {"_kmr": 18, "checked_resolution": 18, "term_sum": 18}


def test_a_report_reads_each_records_parameter_once(monkeypatch):
    """One parameter() per record a degree-5 report walks; no check asks it again."""
    from acmsplit.catalog import QUADRIC_RESOLUTION

    resolved = [parse_resolution(QUADRIC_RESOLUTION)] + [
        c.resolution for c in builtin_catalog(5) if c.resolution is not None
    ]
    parameter = GorensteinResolution.parameter
    asked = []

    def counted_parameter(self):
        asked.append(self)
        return parameter(self)

    monkeypatch.setattr(GorensteinResolution, "parameter", counted_parameter)
    generate_report(5)
    assert Counter(asked) == Counter(resolved) and len(asked) == 12


def test_case_record_validation():
    with pytest.raises(CatalogError):
        _case(4, 1, 0)


# ------------------------------------------------------------- reports

def _row_tuples(report):
    return [
        (
            row.case.c1 if row.case else None,
            row.case.c2 if row.case else None,
            row.genus,
            row.h0_ideal_at_r,
            row.h0_normal,
            row.bound,
            row.verdict,
        )
        for row in report.rows
    ]


def test_cubic_report():
    report = generate_report(3)
    assert report.moduli_dim == 55
    assert _row_tuples(report) == [
        (0, 1, 0, None, None, None, Verdict.EXCLUDED_PLANE),
        (1, 2, 0, 40, 17, 56, Verdict.INCONCLUSIVE_COUNT),
        (2, 5, 1, None, None, None, Verdict.EXCLUDED_PFAFFIAN),
    ]
    assert not report.conclusive
    assert report.rows[1].notes == (
        "incidence bound 56 does not beat the moduli dimension 55",
        "exclusion falls back on: plane-exclusion",
    )


def test_quartic_report():
    report = generate_report(4)
    assert report.moduli_dim == 125
    assert _row_tuples(report) == [
        (-1, 1, 0, None, None, None, Verdict.EXCLUDED_PLANE),
        (0, 2, 0, 101, 17, 117, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (1, 3, 1, 95, 27, 121, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (1, 4, 1, 85, 31, 115, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (1, 5, 1, 75, 35, 109, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (2, 8, 5, 60, 54, 113, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (3, 14, 15, None, None, None, Verdict.EXCLUDED_PFAFFIAN),
    ]
    assert report.conclusive


def test_quintic_report():
    report = generate_report(5)
    assert report.moduli_dim == 251
    assert _row_tuples(report) == [
        (-2, 1, 0, None, None, None, Verdict.EXCLUDED_PLANE),
        (-1, 2, 0, 216, 17, 232, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (0, 3, 1, 206, 27, 232, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (0, 4, 1, 191, 31, 221, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (0, 5, 1, 176, 35, 210, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (1, 4, 3, 200, 42, 241, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (1, 6, 4, 175, 48, 222, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (1, 8, 5, 150, 54, 203, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (2, 11, 12, 135, 83, 217, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (2, 12, 13, 125, 81, 205, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (2, 13, 14, 115, 79, 193, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (2, 14, 15, 105, 77, 181, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
        (3, 20, 31, 80, 110, 189, Verdict.EXCLUDED_BY_DIMENSION_COUNT),
    ]
    assert report.conclusive
    row_2_11 = next(r for r in report.rows if r.case and (r.case.c1, r.case.c2) == (2, 11))
    assert any("217" in note and "214" in note for note in row_2_11.notes)


def test_sextic_report():
    report = generate_report(6)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.case is None
    assert row.verdict == Verdict.REDUCED_TO_THREEFOLD
    assert report.conclusive


def test_report_degree_window():
    with pytest.raises(CatalogError):
        generate_report(2)
    with pytest.raises(CatalogError):
        generate_report(7)


def test_the_boundary_quadric_is_checked_as_a_catalog_case(monkeypatch):
    """A (1,1,3) complete intersection has degree 3, not the quadric's c2 = 2."""
    import acmsplit.incidence as incidence

    monkeypatch.setattr(incidence, "_QUADRIC", parse_resolution(ci_resolution(1, 1, 3)))
    message = "case (c1=0, c2=2): resolution has surface degree 3, not c2"
    with pytest.raises(CatalogError, match=re.escape(message)):
        generate_report(4)


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_every_counted_row_agrees_with_the_flat_oracles(degree):
    """The report's counts, at six walked points, against the positional formulas of conftest."""
    counted = [row for row in generate_report(degree).rows if row.case.resolution is not None]
    assert counted
    for row in counted:
        res, points = case_points(row.case)
        for x in points:
            assert row.h0_ideal_at_r == flat_h0_ideal(res, degree, x)
            assert row.h0_normal == flat_kmr_total(res, x)
            assert row.genus == flat_surface_invariants(res, x).sectional_genus
        assert row.bound == row.h0_ideal_at_r - 1 + row.h0_normal


def test_verdict_bound_contract():
    for degree in (3, 4, 5):
        report = generate_report(degree)
        for row in report.rows:
            if row.verdict == Verdict.EXCLUDED_BY_DIMENSION_COUNT:
                assert row.bound is not None and row.bound < row.moduli_dim
            if row.verdict == Verdict.INCONCLUSIVE_COUNT:
                assert row.bound is None or row.bound >= row.moduli_dim
            if row.bound is not None:
                assert row.bound == row.h0_ideal_at_r - 1 + row.h0_normal


def test_normal_bound_criterion_for_quintic_c1_2():
    """Counting succeeds exactly when h0 of the normal bundle is small."""
    for case in builtin_catalog(5):
        if case.c1 != 2:
            continue
        res, points = case_points(case)
        ideal = {h0_ideal(res, 5, x) for x in points}
        normal = {kmr_h0_normal(res, x) for x in points}
        assert ideal == {245 - 10 * case.c2}
        assert len(normal) == 1
        h0_normal = normal.pop()
        assert (dimension_bound(case) < 251) == (h0_normal < 10 * case.c2 + 7)


def test_catalog_order_does_not_matter():
    from acmsplit.catalog import BUILTIN_CATALOGS

    doc = dict(BUILTIN_CATALOGS[4])
    doc["cases"] = list(reversed(doc["cases"]))
    shuffled = load_catalog(doc, 4)
    assert generate_report(4, shuffled).rows == generate_report(4).rows


def test_grid_override_keeps_constant_values():
    report = generate_report(4, grid_override=range(1, 4))
    assert _row_tuples(report) == _row_tuples(generate_report(4))


# ------------------------------------------------------- catalog loading

@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_builtin_catalog_is_its_document_parsed_and_each_call_is_a_new_list(degree):
    first = builtin_catalog(degree)
    assert first == load_catalog(BUILTIN_CATALOGS[degree], degree)
    second = builtin_catalog(degree)
    assert second is not first
    first.append(CaseRecord(degree, 1, 99))
    assert builtin_catalog(degree) == second == load_catalog(BUILTIN_CATALOGS[degree], degree)


def test_a_report_parses_no_built_in_catalog(monkeypatch):
    """The built-in catalogs are parsed at import, so a report does not call load_catalog."""
    import acmsplit.incidence as incidence

    expected = render_report_markdown(generate_report(5))

    def refuse(*args, **kwargs):
        raise AssertionError("load_catalog called by a report")

    monkeypatch.setattr(incidence, "load_catalog", refuse)
    report = generate_report(5)
    assert render_report_markdown(report) == expected
    for row in report.rows:
        if row.case.resolution is not None:
            res, points = case_points(row.case)
            for x in points:
                assert row.h0_ideal_at_r == flat_h0_ideal(res, 5, x)
                assert row.h0_normal == flat_kmr_total(res, x)


def test_load_catalog_shape_errors():
    with pytest.raises(CatalogError):
        load_catalog([])
    with pytest.raises(CatalogError):
        load_catalog({"degree": 4})
    with pytest.raises(CatalogError):
        load_catalog({"degree": "4", "cases": []})
    with pytest.raises(CatalogError):
        load_catalog({"degree": 4, "cases": [{"c1": True, "c2": 3}]})
    with pytest.raises(CatalogError):
        load_catalog({"degree": 4, "cases": []}, expected_degree=5)
    # a key the engine does not read is refused by name, at every level
    with pytest.raises(CatalogError, match=r"^catalog has unknown keys \['grid'\]"):
        load_catalog({"degree": 4, "cases": [], "grid": [0, 5]})
    with pytest.raises(CatalogError, match=r"^case #0 \(c1=1, c2=3\) has unknown keys \['grid'\]"):
        load_catalog({"degree": 4, "cases": [{"c1": 1, "c2": 3, "grid": [2, 5]}]})
    with pytest.raises(
        CatalogError, match=r"^case #0 \(c1=1, c2=3\) has unknown keys \['fallback'\]"
    ):
        load_catalog({"degree": 4, "cases": [{"c1": 1, "c2": 3, "fallback": "plane-exclusion"}]})
    with pytest.raises(CatalogError, match=r"^case #1 \(c1=1, c2=3\) has unknown keys \['gird'\]"):
        load_catalog(
            {"degree": 4, "cases": [{"c1": 1, "c2": 4}, {"c1": 1, "c2": 3, "gird": [0, 3]}]}
        )
    resolution = {**ci_resolution(1, 1, 3), "grid": [0, 5]}
    with pytest.raises(
        CatalogError, match=r"^case #0 \(c1=1, c2=3\): resolution has unknown keys \['grid'\]"
    ):
        load_catalog({"degree": 4, "cases": [{"c1": 1, "c2": 3, "resolution": resolution}]})
    # a key of 5,000 characters is quoted by its first 40 and a count of the rest
    long = "k" * 5000
    cut = re.escape(f"['{'k' * 38}... (4964 more characters);")
    with pytest.raises(CatalogError, match=rf"^catalog has unknown keys {cut} it takes"):
        load_catalog({"degree": 4, "cases": [], long: 1})
    with pytest.raises(CatalogError, match=rf"^case #0 \(c1=1, c2=3\) has unknown keys {cut} a"):
        load_catalog({"degree": 4, "cases": [{"c1": 1, "c2": 3, long: 1}]})


def test_report_rejects_foreign_degree_cases():
    case = CaseRecord(r=5, c1=0, c2=3)
    with pytest.raises(CatalogError):
        generate_report(4, [case])


@pytest.mark.parametrize(
    "cases, pair",
    [
        ([CaseRecord(r=3, c1=1, c2=2)], "(c1=1, c2=2)"),
        ([CaseRecord(r=3, c1=0, c2=1, provenance="a plane, listed by hand")], "(c1=0, c2=1)"),
        ([CaseRecord(r=3, c1=2, c2=5), CaseRecord(r=3, c1=2, c2=5)], "(c1=2, c2=5)"),
    ],
    ids=["quadric-boundary", "plane-boundary", "listed-twice"],
)
def test_report_refuses_a_repeated_chern_pair(cases, pair):
    with pytest.raises(CatalogError, match=re.escape(f"case {pair} appears twice")):
        generate_report(3, cases)


def test_evaluate_case_names_the_case_of_a_balance_error_and_checked_resolution_does_not():
    # self-dual and rank-balanced, but 3 * 2 - 3 * 3 + 5 = 2, which is -P'(1)
    unbalanced = parse_resolution({"gens": [[2, 3]], "syz": [[3, 3]], "socle": 5})
    message = (
        "invalid resolution: hilbert-numerator: h is not a polynomial,"
        " with h = P(z)/(1 - z)^3 and P(z) = 1 - 3z^2 + 3z^3 - z^5"
    )
    with pytest.raises(CatalogError, match=re.escape(f"case (c1=2, c2=11): {message}")):
        evaluate_case(CaseRecord(r=5, c1=2, c2=11, resolution=unbalanced))
    with pytest.raises(ResolutionValidationError, match="^" + re.escape(message) + "$"):
        checked_resolution(unbalanced)


def test_report_names_the_inconsistent_case():
    # c2 brands the case as degree 3, the attached surface has degree 4
    bad = {"degree": 4, "cases": [
        {"c1": 1, "c2": 3, "resolution": ci_resolution(1, 2, 2)}
    ]}
    with pytest.raises(CatalogError, match=r"\(c1=1, c2=3\)"):
        generate_report(4, load_catalog(bad))


def test_report_rejects_genus_mismatch():
    # degree matches c2 = 4 but the surface genus 1 is not the pair's 3
    bad = {"degree": 5, "cases": [
        {"c1": 1, "c2": 4, "resolution": ci_resolution(1, 2, 2)}
    ]}
    with pytest.raises(CatalogError, match="genus"):
        generate_report(5, load_catalog(bad))


def test_report_rejects_an_empty_grid_naming_the_case():
    with pytest.raises(CatalogError, match=r"case \(c1=2, c2=8\): .*empty-grid"):
        generate_report(4, grid_override=range(5, 5))


def test_report_rejects_invalid_resolution():
    bad = {"degree": 4, "cases": [
        {"c1": 1, "c2": 3, "resolution": {"gens": [[3, 7]], "syz": [[4, 7]], "socle": 6}}
    ]}
    with pytest.raises(CatalogError, match="invalid resolution"):
        generate_report(4, load_catalog(bad))


DEGENERATE_MESSAGE = (
    "invalid resolution: hilbert-numerator: h sums to 0, not a positive surface degree,"
    " with h = P(z)/(1 - z)^3 and P(z) = 1 - 4z + 5z^2 - 5z^4 + 4z^5 - z^6"
)


def _cancelling_pairs(twists):
    """checked_resolution's refusal when x moves the net count at the twists."""
    return f"invalid resolution: {cancelling_pairs('x', twists)}"


def test_checked_resolution_refuses_a_family_that_degenerates_partway():
    """A family with a surface at some points and none at others moves a net count, so
    validation refuses it; a record without a parameter and no surface is refused as such."""
    res = parse_resolution(DEGENERATES_PARTWAY)
    assert [flat_surface_invariants(res, x).degree for x in (-3, -2)] == [4, 2]
    message = _cancelling_pairs([1, 2, 4, 5])
    assert validate(res, range(-3, 1)) == [cancelling_pairs("x", [1, 2, 4, 5])]
    with pytest.raises(ResolutionValidationError, match="^" + re.escape(message) + "$"):
        checked_resolution(res, range(-3, 1))
    with pytest.raises(ResolutionValidationError, match=re.escape(DEGENERATE_MESSAGE)):
        checked_resolution(parse_resolution(NO_SURFACE))


def test_degeneracy_is_reported_before_a_degree_mismatch():
    """The family's degree is c2 = 4 at x = -3, but its moving net counts are refused first;
    a record that is no surface is refused as such before its degree is compared with c2."""
    case = CaseRecord(r=5, c1=1, c2=4, resolution=parse_resolution(DEGENERATES_PARTWAY))
    message = f"case (c1=1, c2=4): {_cancelling_pairs([1, 2, 4, 5])}"
    with pytest.raises(CatalogError, match="^" + re.escape(message) + "$"):
        evaluate_case(case, range(-3, 1))
    case = case._replace(resolution=parse_resolution(NO_SURFACE))
    message = f"case (c1=1, c2=4): {DEGENERATE_MESSAGE}"
    with pytest.raises(CatalogError, match="^" + re.escape(message) + "$"):
        evaluate_case(case)


def test_checked_resolution_refuses_a_degree_falling_on_a_half_line():
    """The degree 8 - x moves with the net count at twists 2 to 5, so validation refuses it."""
    res = parse_resolution(FALLING_DEGREE)
    assert [flat_surface_invariants(res, x).degree for x in range(8)] == [8, 7, 6, 5, 4, 3, 2, 1]
    message = _cancelling_pairs([2, 3, 4, 5])
    assert validate(res) == [cancelling_pairs("x", [2, 3, 4, 5])]
    # a grid that stops before x = 8 is a surface throughout, and still refused, as is one point
    for grid in (range(0, 8), range(3, 4), None):
        with pytest.raises(ResolutionValidationError, match="^" + re.escape(message) + "$"):
            checked_resolution(res, grid)
    case = CaseRecord(r=5, c1=1, c2=8, resolution=res)
    with pytest.raises(CatalogError, match=re.escape(f"case (c1=1, c2=8): {message}")):
        evaluate_case(case)
    # a family of one surface type, the K3 octic, returns its canonical blocks, without the
    # cubic pairs x counts, and that type
    octic = parse_resolution({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})
    octic_case = ([(2, 3)], SurfaceInvariants(8, 5, 2))
    assert checked_resolution(octic, range(0, 10)) == octic_case
    assert checked_resolution(octic, range(9, -1, -1)) == checked_resolution(octic, range(0, 10))


def test_evaluate_case_refuses_a_degree_that_moves_with_the_parameter():
    """The degree is 64 - 2x: it equals c2 = 58 at x = 3, but it moves, so the case is refused."""
    res = parse_resolution(
        {
            "gens": [[5, "5-x"], [6, "x"], [4, "x+3"], [7, "x+5"]],
            "syz": [[7, "5-x"], [6, "x"], [8, "x+3"], [5, "x+5"]],
            "socle": 12,
        }
    )
    assert [flat_surface_invariants(res, x).degree for x in (0, 3, 5)] == [64, 58, 54]
    case = CaseRecord(r=5, c1=1, c2=58, resolution=res)
    message = f"case (c1=1, c2=58): {_cancelling_pairs([4, 5, 7, 8])}"
    for grid in (range(0, 6), range(3, 4)):
        with pytest.raises(CatalogError, match="^" + re.escape(message) + "$"):
            evaluate_case(case, grid)


def test_a_wide_grid_renders_the_default_report():
    wide = generate_report(5, grid_override=range(2, 100_001))
    default = generate_report(5)
    assert render_report_markdown(wide) == render_report_markdown(default)
    assert render_report_json(wide) == render_report_json(default)


def test_arithmetically_impossible_in_a_report():
    report = generate_report(4, load_catalog(
        {"degree": 4, "cases": [{"c1": 0, "c2": 3, "resolution": None}]}
    ))
    verdicts = {(r.case.c1, r.case.c2): r.verdict for r in report.rows}
    assert verdicts[(0, 3)] == Verdict.ARITHMETICALLY_IMPOSSIBLE
    assert report.conclusive


# ------------------------------------------------------------ rendering

def test_markdown_rendering():
    text = render_report_markdown(generate_report(4))
    lines = text.splitlines()
    assert lines[0].startswith("# ACM rank-2 case report: degree 4")
    table = [line for line in lines if line.startswith("|")]
    assert len(table) == 2 + 7
    assert "| 1 | 3 | 1 | 95 | 27 | 121 | 125 | ExcludedByDimensionCount |" in table
    assert text.endswith("\n")


def test_json_rendering_round_trips():
    report = generate_report(5)
    text = render_report_json(report)
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2) + "\n" == text
    assert parsed["degree"] == 5
    assert parsed["moduli_dim"] == 251
    assert len(parsed["rows"]) == 13
    assert set(parsed["rows"][0]) == {
        "c1", "c2", "genus", "h0_ideal", "h0_normal", "bound", "verdict", "notes"
    }


def test_jsonable_uses_plain_types():
    payload = report_to_jsonable(generate_report(6))
    assert payload["rows"][0]["verdict"] == "ReducedToThreefold"
    assert payload["rows"][0]["c1"] is None


#: What the engine puts in a JSON document: str-keyed dicts and lists of text, ints and None.
JSONABLE = st.recursive(
    st.text() | st.integers(-(10**60), 10**60) | st.none(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSONABLE)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}]})
@example(['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t\r\b\f", "é ∆ 𝔽 \ud800"])
@example({'"': "\\", "\n": None, "é": [-(10**60), 0, 10**60]})
def test_json_text_is_the_stdlib_indent_2_encoding(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [True, False, 1.5, (1,), {1: 2}, {None: 1}, [True], {"a": 0.0}, Verdict.EXCLUDED_PLANE],
    ids=["true", "false", "float", "tuple", "int-key", "none-key", "nested-bool", "nested-float",
         "verdict"],
)
def test_json_text_refuses_what_the_engine_never_emits(value):
    with pytest.raises(TypeError):
        json_text(value)
