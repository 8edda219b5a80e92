import json
import os
import subprocess
import sys

import pytest

from acmsplit.cli import run
from conftest import DEGENERATES_PARTWAY, EMPTY_DOMAIN, FALLING_DEGREE, ci_resolution

QUADRIC = json.dumps(ci_resolution(1, 1, 2))
#: Nested past the JSON decoder's recursion limit.
NESTED = '{"gens": ' + "[" * 5000 + "]" * 5000 + ', "syz": [], "socle": 5}'
#: Neither degree-balanced nor self-dual, though the KMR sum still evaluates.
UNBALANCED = '{"gens":[[1,1],[2,1]],"syz":[[3,1],[9,1]],"socle":5}'
#: A family with positive twists whose Hilbert polynomial has degree 0 at x = -1.
PARTWAY = json.dumps(DEGENERATES_PARTWAY)
OCTIC = json.dumps({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})
#: The README degree-11 family, admissible for b >= 2.
DEG11 = json.dumps(
    {"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}
)
#: The same family with b replaced by 4 - b, admissible for b <= 2.
DEG11_REVERSED = json.dumps(
    {"gens": [[2, 3], [3, "2-b"], [4, "4-b"]], "syz": [[3, "4-b"], [4, "2-b"], [5, 3]], "socle": 7}
)


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


@pytest.mark.parametrize(
    "grid", ["0..100000", "0..1000000000000", f"0..{10**30}"],
    ids=["grid-1e5", "grid-1e12", "grid-1e30"],
)
def test_a_wide_grid_is_certified(capsys, grid):
    # 0..10**30 is past sys.maxsize, where len() of the range overflows
    assert invoke(capsys, "kmr", "--resolution", OCTIC, "--grid", grid) == (0, "54\n", "")


def test_kmr_cost_does_not_grow_with_the_grid(capsys, monkeypatch):
    """validate, surface_invariants and kmr_h0_normal each take three points."""
    from acmsplit.resolutions import GorensteinResolution

    seen = []
    blocks = GorensteinResolution.blocks

    def counted(self, x=None):
        seen.append(x)
        return blocks(self, x)

    monkeypatch.setattr(GorensteinResolution, "blocks", counted)
    for grid, points in (
        (["--grid", "0..9"], [0, 5, 9]),
        (["--grid", "0..99999"], [0, 50_000, 99_999]),
        (["--grid", f"0..{10**30}"], [0, 5 * 10**29, 10**30]),
        ([], [0, 1, 2]),  # the admissible half-line x >= 0
    ):
        seen.clear()
        assert invoke(capsys, "kmr", "--resolution", OCTIC, *grid) == (0, "54\n", "")
        assert len(seen) == 9
        assert sorted(set(seen)) == points


def test_readme_family_without_a_grid_is_certified_on_its_half_line(capsys):
    """b - 2 >= 0 bounds the family below, so b runs over 2, 3, 4, ... ."""
    assert invoke(capsys, "kmr", "--resolution", DEG11) == (0, "83\n", "")


def test_negative_multiplicities_are_reported_once_per_expression(capsys):
    """Each of the four expressions is negative on a sub-range of the grid."""
    code, out, err = invoke(capsys, "kmr", "--resolution", DEG11_REVERSED, "--grid", "0..99999")
    assert (code, out) == (2, "")
    assert err.count("negative-multiplicity") == 4
    assert "negative-multiplicity at x=3..99999: multiplicity -b + 2 of twist 3 is negative" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "2"]])
def test_degenerate_resolution_is_refused(capsys, command):
    code, out, err = invoke(capsys, *command, "--resolution", PARTWAY)
    assert (code, out) == (2, "")
    assert "Hilbert polynomial has degree < 2" in err


#: The refusal of ghost twists 0 and 4, the socle, on both sides of the quadric.
GHOST_AT_0 = "generator twist 0 is below 1; twist-range: syzygy twist 4 is not below the socle 4"


@pytest.mark.parametrize("t, refused", [
    (1, None), (2, None), (3, None), (0, GHOST_AT_0), (4, GHOST_AT_0),
    (-1, "generator twist -1 is below 1; twist-range: syzygy twist 5 is not below the socle 4"),
])
def test_a_ghost_pair_outside_the_twist_range_is_refused(capsys, t, refused):
    """Ghost twists t and 4 - t on both sides keep the quadric self-dual; KMR needs 1 <= t <= 3.

    Outside that range the positional pair sum is wrong: KMR gives 16 at t = 0, 11 at t = -1.
    """
    quadric = ci_resolution(1, 1, 2)
    ghost = [[t, 1], [4 - t, 1]]
    text = json.dumps({"gens": quadric["gens"] + ghost, "syz": quadric["syz"] + ghost, "socle": 4})
    kmr = invoke(capsys, "kmr", "--resolution", text)
    hilbert = invoke(capsys, "hilbert", "--resolution", text, "--twist", "4")
    if refused is None:
        assert (kmr, hilbert) == ((0, "17\n", ""), (0, "101\n", ""))
    else:
        err = f"acmsplit: error: invalid resolution: twist-range: {refused}\n"
        assert kmr == hilbert == (2, "", err)


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
        ["kmr", "--resolution", OCTIC, "--grid", "5..1"],
        ["kmr", "--resolution", OCTIC, "--grid", "abc"],
        ["report", "--degree", "5", "--grid", "2..5"],
        ["check-case", "--degree", "4", "--c1", "1", "--c2", "3", "--grid", "2..5"],
        ["kmr", "--resolution", '{"gens": [[1, 2], [3, 1]], "syz": [[4, 2], [2, 1]],'
         ' "socle": 5, "grid": [0, 5]}'],
        ["report", "--degree", "4", "--unknown-flag"],
        ["no-such-command"],
        ["kmr", "--resolution", '{"gens": [[1, 1]], "syz": [[3, 1]]}'],
        ["kmr", "--resolution", "/nonexistent/file.json"],
        ["solve-c2", "--degree", "0", "--c1", "3"],
        ["kmr", "--resolution", NESTED],
        ["kmr", "--resolution", UNBALANCED],
        ["hilbert", "--resolution", UNBALANCED, "--twist", "3"],
        ["kmr", "--resolution", PARTWAY],
        ["hilbert", "--resolution", PARTWAY, "--twist", "2"],
        ["hilbert", "--resolution", json.dumps(FALLING_DEGREE), "--twist", "0"],
        ["kmr", "--resolution", json.dumps(EMPTY_DOMAIN)],
    ],
    ids=[
        "degree-range", "degree-type", "degree-missing", "grid-empty",
        "grid-grammar", "report-grid", "check-case-grid", "resolution-unknown-key",
        "unknown-flag", "unknown-command", "bad-resolution",
        "missing-file", "bad-degree", "nested-resolution", "kmr-unvalidated",
        "hilbert-unvalidated", "kmr-degenerate", "hilbert-degenerate", "falling-degree",
        "empty-domain",
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code = run(argv)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "c1, c2, shape, message",
    [
        (1, 8, FALLING_DEGREE,
         "surface degree falls from 8 at x=0 to 7 at x=1, so it is <= 0 further out"),
        (1, 2, DEGENERATES_PARTWAY, "Hilbert polynomial has degree < 2 (leading difference 0)"),
    ],
    ids=["falling-degree", "no-surface"],
)
def test_a_degenerate_catalog_case_is_named(tmp_path, capsys, c1, c2, shape, message):
    path = tmp_path / "catalog.json"
    doc = {"degree": 5, "cases": [{"c1": c1, "c2": c2, "resolution": shape}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, "report", "--degree", "5", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err == f"acmsplit: error: case (c1={c1}, c2={c2}): {message}\n"


#: The degree-11 family with doubled counts: its balance 2*b - 2*c - 1 = 0 has no solution.
UNSOLVABLE = {"gens": [[2, 3], [3, "2*c"], [4, "2*b"]], "syz": [[3, "2*b"], [4, "2*c"], [5, 3]],
              "socle": 8}


@pytest.mark.parametrize(
    "cases, message",
    [
        ([{"c1": -1, "c2": 2}],
         "case (c1=-1, c2=2) appears twice; boundary cases are derived, not listed"),
        ([{"c1": 2, "c2": 14}, {"c1": 2, "c2": 14}],
         "case (c1=2, c2=14) appears twice; boundary cases are derived, not listed"),
        ([{"c1": 2, "c2": 11, "resolution": UNSOLVABLE}],
         "case (c1=2, c2=11): degree balance 2*b -2*c -1 = 0 has no integer solution"
         " with non-positive offset"),
        ([{"c1": 0, "c2": 3, "resolution": {"gens": [[1, "1.5"]], "syz": [[4, 1]], "socle": 5}}],
         "case #0 (c1=0, c2=3): gens: cannot parse multiplicity '1.5'"),
        ([{"c1": 0, "c2": 3}, {"c1": 2, "c2": 11, "grid": [2, 8]}],
         "case #1 (c1=2, c2=11) has unknown keys ['grid'];"
         " a case takes only c1, c2, resolution and provenance"),
        ([{"c1": 2, "c2": 11, "fallback": "plane-exclusion"}],
         "case #0 (c1=2, c2=11) has unknown keys ['fallback'];"
         " a case takes only c1, c2, resolution and provenance"),
        ([{"c1": 1, "c2": 3, "resolution": ci_resolution(1, 1, 3)}],
         "case (c1=1, c2=3): c2 (c1 + r - 5) = 3 is odd; sectional genus is not integral"),
    ],
    ids=["boundary-repeat", "repeat", "balance", "multiplicity", "grid", "fallback", "odd-genus"],
)
@pytest.mark.parametrize("command", ["report", "check-case"])
def test_catalog_errors_name_the_case(tmp_path, capsys, cases, message, command):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"degree": 5, "cases": cases}), encoding="utf-8")
    argv = [command, "--degree", "5", "--catalog", str(path)]
    if command == "check-case":
        argv += ["--c1", "-1", "--c2", "2"]
    assert invoke(capsys, *argv) == (2, "", f"acmsplit: error: {message}\n")


@pytest.mark.parametrize("command", ["report", "check-case"])
def test_a_degree_6_catalog_takes_no_cases(tmp_path, capsys, command):
    path = tmp_path / "catalog.json"
    case = {"c1": 1, "c2": 7, "resolution": {"gens": [[1, 1]], "syz": [[1, 1]], "socle": 99}}
    path.write_text(json.dumps({"degree": 6, "cases": [case]}), encoding="utf-8")
    argv = [command, "--degree", "6", "--catalog", str(path)]
    if command == "check-case":
        argv += ["--c1", "1", "--c2", "7"]
    message = (
        "degree 6 is decided by reduction to the sextic threefold, so its catalog takes no cases"
    )
    assert invoke(capsys, *argv) == (2, "", f"acmsplit: error: {message}\n")
    # an empty degree-6 catalog is the built-in one
    path.write_text(json.dumps({"degree": 6, "cases": []}), encoding="utf-8")
    assert invoke(capsys, "report", "--degree", "6", "--catalog", str(path)) == invoke(
        capsys, "report", "--degree", "6"
    )


@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_an_annotation_prints_only_on_the_verdict_it_describes(tmp_path, capsys, fmt):
    """The (5, 2, 11) note claims an exclusion; a (2, 11) case without a resolution makes none."""
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"degree": 5, "cases": [{"c1": 2, "c2": 11}]}), encoding="utf-8")
    common = ["--degree", "5", "--catalog", str(path), "--format", fmt]
    for argv in (["report", *common], ["check-case", "--c1", "2", "--c2", "11", *common]):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (1, "")
        assert "InconclusiveCount" in out
        assert "217" not in out
    # the built-in (2, 11) row is excluded by its count and keeps the note
    code, out, _ = invoke(capsys, "check-case", "--degree", "5", "--c1", "2", "--c2", "11")
    assert code == 0
    assert "the exclusion is unaffected (217 < 251)" in out


def test_a_document_key_the_engine_does_not_read_exits_2(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"degree": 5, "cases": [], "grid": [0, 8]}), encoding="utf-8")
    message = "catalog has unknown keys ['grid']; it takes only degree and cases"
    assert invoke(capsys, "report", "--degree", "5", "--catalog", str(path)) == (
        2, "", f"acmsplit: error: {message}\n"
    )


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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child(*args):
    """A fresh interpreter that imports acmsplit from this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_dataclass_machinery():
    """Start-up cost: importing the CLI pulls in neither dataclasses nor inspect."""
    probe = (
        "import sys; before = set(sys.modules); import acmsplit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = _child("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point_prints_what_run_prints(capsys):
    proc = _child("-m", "acmsplit.cli", "report", "--degree", "5")
    code, out, err = invoke(capsys, "report", "--degree", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (0, out, "")


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
