import json
import re

import pytest

from acmsplit.incidence import (
    CatalogError,
    CaseRecord,
    Verdict,
    _cascade,
    _prepare_case,
    builtin_catalog,
    checked_resolution,
    dimension_bound,
    evaluate_case,
    generate_report,
    load_catalog,
    render_report_json,
    render_report_markdown,
    report_to_jsonable,
    resolve_parameters,
    solve_balance,
    verdict,
)
from acmsplit.normal_bundle import kmr_h0_normal
from acmsplit.resolutions import (
    DegenerateResolutionError,
    h0_ideal,
    parse_resolution,
    surface_invariants,
    validate,
)
from conftest import DEGENERATES_PARTWAY, FALLING_DEGREE, case_points, ci_resolution

DEG11 = {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
DEG12 = {"gens": [[2, 2], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 2]], "socle": 7}
DEG14 = {"gens": [[3, 7]], "syz": [[4, 7]], "socle": 7}


# ------------------------------------------------------------ balance

def test_balance_relations():
    assert str(solve_balance(parse_resolution(DEG11))) == "c = b - 2"
    assert str(solve_balance(parse_resolution(DEG12))) == "b = c - 1"


def test_balance_trivial_cases():
    assert solve_balance(parse_resolution(DEG14)).is_trivial
    octic = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
    assert str(solve_balance(parse_resolution(octic))) == "0 = 0"


def test_balance_single_parameter_and_inconsistency():
    pinned = parse_resolution({"gens": [[2, "x"]], "syz": [[3, "x"]], "socle": 4})
    assert str(solve_balance(pinned)) == "x = 4"
    off_by_two = parse_resolution({"gens": [[3, 7]], "syz": [[4, 7]], "socle": 5})
    with pytest.raises(CatalogError):
        solve_balance(off_by_two)


def test_resolved_family_is_self_dual_on_its_grid():
    res, relation = resolve_parameters(parse_resolution(DEG11))
    assert not relation.is_trivial
    assert res.free_parameters() == {"b"}
    assert validate(res, range(2, 6)) == []


# ------------------------------------------------------------ verdicts

def _case(r, c1, c2, shape=None, grid=None):
    res = parse_resolution(shape) if shape is not None else None
    grid_range = range(grid[0], grid[1] + 1) if grid else None
    return CaseRecord(r=r, c1=c1, c2=c2, resolution=res, parameter_grid=grid_range)


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
        (_case(6, 1, 7), Verdict.REDUCED_TO_THREEFOLD),
    ],
    ids=[
        "pfaffian", "count", "inconclusive", "plane", "below-window",
        "above-window", "odd-genus", "no-resolution", "sextic",
    ],
)
def test_verdict_cascade(case, expected):
    assert verdict(case) == expected


def test_the_count_rule_excludes_only_below_the_moduli_dimension():
    """dim P(4) = 125: a bound of 124 excludes the case, 125 does not."""
    case = _prepare_case(_case(4, 1, 3, ci_resolution(1, 1, 3)))
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


def test_the_sextic_row_and_the_degree_6_rule_share_their_note():
    (sextic,) = generate_report(6).rows
    assert sextic.notes == (_cascade(_case(6, 1, 7), 8, None, None, None, 461)[1],)


def test_verdict_is_deterministic():
    case = _case(4, 2, 8, {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6},
                 grid=(0, 5))
    assert verdict(case) == verdict(case) == Verdict.EXCLUDED_BY_DIMENSION_COUNT


@pytest.mark.parametrize(
    "case, expected",
    [
        (_case(4, 1, 3, ci_resolution(1, 1, 3)), 121),
        (_case(5, 0, 5, {"gens": [[2, 5]], "syz": [[3, 5]], "socle": 5}), 210),
        (_case(4, 2, 8, {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6},
               grid=(0, 5)), 113),
    ],
    ids=["ci113", "quintic", "octic"],
)
def test_dimension_bound(case, expected):
    assert dimension_bound(case) == expected


def test_dimension_bound_needs_a_resolution():
    with pytest.raises(CatalogError):
        dimension_bound(_case(4, 1, 3))


def test_dimension_bound_balances_a_raw_two_parameter_case():
    assert dimension_bound(_case(5, 2, 11, DEG11, grid=(2, 5))) == 217


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


def test_report_balances_each_case_once(monkeypatch):
    import acmsplit.incidence as incidence

    calls = []

    def counted(res):
        calls.append(res)
        return resolve_parameters(res)

    monkeypatch.setattr(incidence, "resolve_parameters", counted)
    generate_report(5)
    assert len(calls) == sum(c.resolution is not None for c in builtin_catalog(5))


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


def test_checked_resolution_names_the_case_of_a_balance_error():
    unsolvable = parse_resolution(
        {"gens": [[2, 3], [3, "2*c"], [4, "2*b"]], "syz": [[3, "2*b"], [4, "2*c"], [5, 3]],
         "socle": 8}
    )
    message = "degree balance 2*b -2*c -1 = 0 has no integer solution with non-positive offset"
    with pytest.raises(CatalogError, match=re.escape(f"case (c1=2, c2=11): {message}")):
        checked_resolution(unsolvable, label="(c1=2, c2=11)")
    with pytest.raises(CatalogError, match="^" + re.escape(message) + "$"):
        checked_resolution(unsolvable)


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


DEGENERATE_MESSAGE = "Hilbert polynomial has degree < 2 (leading difference 0)"


def test_checked_resolution_names_the_first_degenerate_point():
    res = parse_resolution(DEGENERATES_PARTWAY)
    assert validate(res, range(-3, 1)) == []
    assert [surface_invariants(res, x).degree for x in (-3, -2)] == [4, 2]
    with pytest.raises(DegenerateResolutionError, match=re.escape(DEGENERATE_MESSAGE)):
        checked_resolution(res, range(-3, 1))


def test_degeneracy_is_reported_before_a_degree_mismatch():
    """The degree is c2 = 4 at x = -3, but x = -1 and x = 0 carry no surface at all."""
    res = parse_resolution(DEGENERATES_PARTWAY)
    case = CaseRecord(r=5, c1=1, c2=4, resolution=res, parameter_grid=range(-3, 1))
    with pytest.raises(DegenerateResolutionError, match=re.escape(DEGENERATE_MESSAGE)):
        _prepare_case(case)


def test_checked_resolution_refuses_a_degree_falling_on_a_half_line():
    res = parse_resolution(FALLING_DEGREE)
    assert validate(res) == []
    assert [surface_invariants(res, x).degree for x in range(8)] == [8, 7, 6, 5, 4, 3, 2, 1]
    # a grid that stops before x = 8, such as the old default 0..5, is a surface throughout
    assert checked_resolution(res, range(0, 8)) == (
        res, [0, 4, 7], [surface_invariants(res, x) for x in (0, 4, 7)]
    )
    message = "surface degree falls from 8 at x=0 to 7 at x=1, so it is <= 0 further out"
    with pytest.raises(DegenerateResolutionError, match=re.escape(message)):
        checked_resolution(res)
    # a catalog case without a grid is certified on the whole half-line, so it is refused
    case = CaseRecord(r=5, c1=1, c2=8, resolution=res)
    with pytest.raises(DegenerateResolutionError, match=re.escape(message)):
        _prepare_case(case)


def test_prepare_case_refuses_a_degree_that_moves_with_the_parameter():
    """The degree is 64 - 2x: it equals c2 = 58 only at x = 3, inside the grid."""
    res = parse_resolution(
        {
            "gens": [[5, "5-x"], [6, "x"], [4, "x+3"], [7, "x+5"]],
            "syz": [[7, "5-x"], [6, "x"], [8, "x+3"], [5, "x+5"]],
            "socle": 12,
        }
    )
    assert validate(res, range(0, 6)) == []
    case = CaseRecord(r=5, c1=1, c2=58, resolution=res, parameter_grid=range(0, 6))
    with pytest.raises(CatalogError, match=r"resolution has surface degree 64, not c2"):
        _prepare_case(case)


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
