import json
import subprocess
import sys

import pytest

from acmsplit.cli import run
from conftest import ci_resolution

QUADRIC = json.dumps(ci_resolution(1, 1, 2))
#: Nested past the JSON decoder's recursion limit.
NESTED = '{"gens": ' + "[" * 5000 + "]" * 5000 + ', "syz": [], "socle": 5}'
#: Neither degree-balanced nor self-dual, though the KMR sum still evaluates.
UNBALANCED = '{"gens":[[1,1],[2,1]],"syz":[[3,1],[9,1]],"socle":5}'
#: Balanced and self-dual, but its Hilbert polynomial has degree 0.
DEGENERATE = '{"gens":[[0,1]],"syz":[[4,1]],"socle":4}'
OCTIC = json.dumps({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("degree, expected", [(3, 1), (4, 0), (5, 0), (6, 0)])
def test_report_exit_codes(capsys, degree, expected):
    code, out, err = invoke(capsys, "report", "--degree", str(degree))
    assert code == expected
    assert err == ""
    assert out.startswith("# ACM rank-2 case report")


def test_quartic_bound_column(capsys):
    _, out, _ = invoke(capsys, "report", "--degree", "4")
    for bound in (121, 115, 109, 113):
        assert f" {bound} | 125 | ExcludedByDimensionCount |" in out


def test_output_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "report", "--degree", "5")
    _, second, _ = invoke(capsys, "report", "--degree", "5")
    assert first == second


def test_json_report_round_trips(capsys):
    code, out, _ = invoke(capsys, "report", "--degree", "4", "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, _ = invoke(capsys, "report", "--degree", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("# ACM rank-2 case report")


def test_kmr_inline_and_from_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "kmr", "--resolution", QUADRIC)
    assert (code, out) == (0, "17\n")

    path = tmp_path / "quadric.json"
    path.write_text(QUADRIC, encoding="utf-8")
    code, out, _ = invoke(capsys, "kmr", "--resolution", str(path))
    assert (code, out) == (0, "17\n")


def test_kmr_parametric_grid(capsys):
    code, out, _ = invoke(capsys, "kmr", "--resolution", OCTIC, "--grid", "0..5")
    assert (code, out) == (0, "54\n")


def test_kmr_at_a_billion_cubics(capsys):
    code, out, _ = invoke(
        capsys, "kmr", "--resolution", OCTIC, "--grid", "1000000000..1000000000"
    )
    assert (code, out) == (0, "54\n")


def test_too_wide_grid_is_refused_before_it_is_walked(capsys):
    # 0..10**30 is past sys.maxsize, where len() of the range overflows
    for grid in ("0..100000", f"0..{10**30}"):
        code, out, err = invoke(capsys, "kmr", "--resolution", OCTIC, "--grid", grid)
        assert (code, out) == (2, "")
        assert "wide-grid: parameter grid has more than 100000 points" in err


def test_kmr_cost_does_not_grow_with_the_grid(capsys, monkeypatch):
    """validate, surface_invariants and kmr_h0_normal each take three points."""
    from acmsplit.resolutions import GorensteinResolution

    seen = []
    blocks = GorensteinResolution.blocks

    def counted(self, x=None):
        seen.append(x)
        return blocks(self, x)

    monkeypatch.setattr(GorensteinResolution, "blocks", counted)
    for grid, points in (("0..9", [0, 5, 9]), ("0..99999", [0, 50_000, 99_999])):
        seen.clear()
        assert invoke(capsys, "kmr", "--resolution", OCTIC, "--grid", grid) == (0, "54\n", "")
        assert len(seen) == 9
        assert sorted(set(seen)) == points


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "2"]])
def test_degenerate_resolution_is_refused(capsys, command):
    code, out, err = invoke(capsys, *command, "--resolution", DEGENERATE)
    assert (code, out) == (2, "")
    assert "Hilbert polynomial has degree < 2" in err


def test_solve_c2(capsys):
    code, out, _ = invoke(capsys, "solve-c2", "--degree", "4", "--c1", "0")
    assert (code, out) == (0, "2\n")
    code, out, _ = invoke(capsys, "solve-c2", "--degree", "5", "--c1", "-2")
    assert (code, out) == (0, "1\n")
    code, _, err = invoke(capsys, "solve-c2", "--degree", "5", "--c1", "1")
    assert code == 2
    assert "error" in err


def test_hilbert(capsys):
    cubic_ci = json.dumps(ci_resolution(1, 1, 3))
    code, out, _ = invoke(capsys, "hilbert", "--resolution", cubic_ci, "--twist", "4")
    assert (code, out) == (0, "95\n")

    code, out, _ = invoke(
        capsys, "hilbert", "--resolution", cubic_ci, "--twist", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "twist": 4,
        "h0_ideal": 95,
        "h0_structure": 126 - 95,
        "chi_structure": 31,
    }


def test_check_case_conclusive(capsys):
    code, out, _ = invoke(capsys, "check-case", "--degree", "5", "--c1", "2", "--c2", "11")
    assert code == 0
    assert "verdict: ExcludedByDimensionCount" in out
    assert "incidence bound: 217" in out


def test_check_case_inconclusive(capsys):
    code, out, _ = invoke(capsys, "check-case", "--degree", "3", "--c1", "1", "--c2", "2")
    assert code == 1
    assert "verdict: InconclusiveCount" in out
    assert "plane-exclusion" in out


def test_check_case_json(capsys):
    code, out, _ = invoke(
        capsys, "check-case", "--degree", "4", "--c1", "2", "--c2", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 113
    assert payload["verdict"] == "ExcludedByDimensionCount"


def test_check_case_unknown_pair(capsys):
    code, _, err = invoke(capsys, "check-case", "--degree", "4", "--c1", "2", "--c2", "9")
    assert code == 2
    assert "no case" in err


def test_custom_catalog(tmp_path, capsys):
    doc = {
        "degree": 4,
        "cases": [
            {"c1": 1, "c2": 3, "resolution": ci_resolution(1, 1, 3)},
        ],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(
        capsys, "report", "--degree", "4", "--catalog", str(path), "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["c1"], r["c2"]) for r in rows] == [(-1, 1), (0, 2), (1, 3)]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--degree", "7"],
        ["report", "--degree", "x"],
        ["report"],
        ["report", "--degree", "4", "--grid", "5..1"],
        ["report", "--degree", "4", "--grid", "abc"],
        ["report", "--degree", "4", "--unknown-flag"],
        ["no-such-command"],
        ["kmr", "--resolution", '{"gens": [[1, 1]], "syz": [[3, 1]]}'],
        ["kmr", "--resolution", "/nonexistent/file.json"],
        ["solve-c2", "--degree", "0", "--c1", "3"],
        ["kmr", "--resolution", NESTED],
        ["kmr", "--resolution", UNBALANCED],
        ["hilbert", "--resolution", UNBALANCED, "--twist", "3"],
        ["kmr", "--resolution", DEGENERATE],
        ["hilbert", "--resolution", DEGENERATE, "--twist", "2"],
        ["kmr", "--resolution", OCTIC, "--grid", "0..1000000000000"],
        ["kmr", "--resolution", OCTIC, "--grid", "0..1000000000000000000000000000000"],
    ],
    ids=[
        "degree-range", "degree-type", "degree-missing", "grid-empty",
        "grid-grammar", "unknown-flag", "unknown-command", "bad-resolution",
        "missing-file", "bad-degree", "nested-resolution", "kmr-unvalidated",
        "hilbert-unvalidated", "kmr-degenerate", "hilbert-degenerate", "grid-too-wide",
        "grid-past-maxsize",
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code = run(argv)
    capsys.readouterr()
    assert code == 2


def test_malformed_catalog_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = invoke(capsys, "report", "--degree", "4", "--catalog", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_nested_catalog_file(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"degree": 4, "cases": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    code, out, err = invoke(capsys, "report", "--degree", "4", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("acmsplit: error: ")
    assert err.count("\n") == 1


def test_check_case_evaluates_only_its_row(capsys, monkeypatch):
    import acmsplit.cli

    def no_report(*args, **kwargs):
        raise AssertionError("check-case built the whole report")

    monkeypatch.setattr(acmsplit.cli, "generate_report", no_report)
    code, out, _ = invoke(capsys, "check-case", "--degree", "5", "--c1", "2", "--c2", "11")
    assert code == 0
    assert "incidence bound: 217" in out


def test_check_case_json_is_the_report_row(capsys):
    _, report, _ = invoke(capsys, "report", "--degree", "5", "--format", "json")
    for row in json.loads(report)["rows"]:
        code, out, _ = invoke(
            capsys, "check-case", "--degree", "5", "--c1", str(row["c1"]),
            "--c2", str(row["c2"]), "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"degree": 5, "moduli_dim": 251, **row}


def test_check_case_still_validates_the_other_cases(tmp_path, capsys):
    doc = {"degree": 4, "cases": [
        {"c1": 1, "c2": 3, "resolution": ci_resolution(1, 1, 3)},
        {"c1": 1, "c2": 4, "resolution": {"gens": [[3, 7]], "syz": [[4, 7]], "socle": 6}},
    ]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(
        capsys, "check-case", "--degree", "4", "--c1", "1", "--c2", "3", "--catalog", str(path)
    )
    assert (code, out) == (2, "")
    assert "(c1=1, c2=4): invalid resolution" in err


def test_catalog_degree_mismatch(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"degree": 5, "cases": []}), encoding="utf-8")
    code, _, err = invoke(capsys, "report", "--degree", "4", "--catalog", str(path))
    assert code == 2
    assert "degree 5" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["report", "--help"]) == 0
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "acmsplit.cli", "report", "--degree", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ExcludedByDimensionCount" in proc.stdout


def test_public_api_is_what_the_readme_uses():
    """acmsplit exports only the Library names the README documents."""
    import acmsplit

    assert sorted(acmsplit.__all__) == [
        "CaseRecord", "CatalogError", "GorensteinResolution", "HypersurfaceContext",
        "NonConstantScanError", "Report", "ReportRow", "Verdict", "builtin_catalog",
        "dimension_bound", "generate_report", "h0_ideal", "kmr_h0_normal",
        "parse_resolution", "pfaffian_c2", "render_report_json", "render_report_markdown",
        "sectional_genus", "solve_c2_boundary", "validate", "verdict",
    ]
    for name in acmsplit.__all__:
        assert getattr(acmsplit, name) is not None
