import contextlib
import io
import json
import os
import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmsplit.cli import build_parser, main, run
from acmsplit.incidence import checked_resolution, generate_report
from acmsplit.normal_bundle import kmr_h0_normal
from acmsplit.resolutions import (
    MAX_PAIRS,
    MAX_TWIST,
    h0_ideal,
    parse_resolution,
    surface_invariants,
)
from conftest import (
    EMPTY_DOMAIN,
    FALLING_DEGREE,
    NO_SURFACE,
    cancelling_pairs,
    ci_resolution,
    flat_h0_ideal,
    flat_surface_invariants,
    walk_points,
)
from test_resolutions import certificate_families

QUADRIC = json.dumps(ci_resolution(1, 1, 2))
#: Nested past the JSON decoder's recursion limit.
NESTED = '{"gens": ' + "[" * 5000 + "]" * 5000 + ', "syz": [], "socle": 5}'
#: Neither degree-balanced nor self-dual, though the KMR sum still evaluates.
UNBALANCED = '{"gens":[[1,1],[2,1]],"syz":[[3,1],[9,1]],"socle":5}'
#: Balanced, self-dual and in range, with a Hilbert polynomial of degree 0.
DEGENERATE = json.dumps(NO_SURFACE)
#: What kmr and hilbert print for DEGENERATE: h = P(z)/(1 - z)^3 = (1 + z)(1 - z)^2 sums to 0.
NO_SURFACE_ERROR = (
    "acmsplit: error: invalid resolution: hilbert-numerator: h sums to 0, not a positive"
    " surface degree, with h = P(z)/(1 - z)^3 and P(z) = 1 - 4z + 5z^2 - 5z^4 + 4z^5 - z^6\n"
)
OCTIC = json.dumps({"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})
#: The README degree-11 family, admissible for b >= 2.
DEG11 = json.dumps(
    {"gens": [[2, 3], [3, "b-2"], [4, "b"]], "syz": [[3, "b"], [4, "b-2"], [5, 3]], "socle": 7}
)
#: The same family with b replaced by 4 - b, admissible for b <= 2.
DEG11_REVERSED = json.dumps(
    {"gens": [[2, 3], [3, "2-b"], [4, "4-b"]], "syz": [[3, "4-b"], [4, "2-b"], [5, 3]], "socle": 7}
)
#: The degree-11 family before its degree balance c = b - 2 is substituted: two parameters.
RAW11 = {"gens": [[2, 3], [3, "c"], [4, "b"]], "syz": [[3, "b"], [4, "c"], [5, 3]], "socle": 7}
TWO_PARAMETERS = (
    "resolution has parameters b, c; a record takes at most one,"
    " so substitute the degree-balance relation for one of them"
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


@pytest.mark.parametrize(
    "argv, expected",
    [
        *((["report", "--degree", str(degree)], int(degree == 3)) for degree in (3, 4, 5, 6)),
        (["check-case", "--degree", "4", "--c1", "1", "--c2", "3"], 0),
        (["kmr", "--resolution", OCTIC], 0),
        (["hilbert", "--resolution", OCTIC, "--twist", "4"], 0),
        (["solve-c2", "--degree", "5", "--c1", "-2"], 0),
    ],
    ids=["report-3", "report-4", "report-5", "report-6", "check-case", "kmr", "hilbert",
         "solve-c2"],
)
def test_json_output_round_trips(capsys, argv, expected):
    """Every --format json output is what json.dumps(..., indent=2) prints for its parse."""
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (expected, "")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_json_report_to_file_is_what_stdout_prints(tmp_path, capsys):
    argv = ["report", "--degree", "5", "--format", "json"]
    _, out, _ = invoke(capsys, *argv)
    target = tmp_path / "report.json"
    code, written, _ = invoke(capsys, *argv, "--out", str(target))
    assert (code, written) == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


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


def test_a_negative_grid_end_is_given_with_an_equals_sign(capsys):
    """argparse reads a separate -3..0 as an option; --grid=-3..0 passes it as the value."""
    shifted = json.dumps({"gens": [[2, 3], [3, "x+3"]], "syz": [[3, "x+3"], [4, 3]], "socle": 6})
    assert invoke(capsys, "kmr", "--resolution", shifted, "--grid=-3..0") == (0, "54\n", "")
    code, _, err = invoke(capsys, "kmr", "--resolution", shifted, "--grid", "-3..0")
    assert (code, err) == (2, "acmsplit kmr: error: argument --grid: expected one argument\n")


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


def _counted_walks(monkeypatch):
    """The grids of every validating walk from now on, in call order."""
    import acmsplit.resolutions as resolutions

    seen = []
    walk = resolutions._walk

    def counted(res, grid=None):
        seen.append(grid)
        return walk(res, grid)

    monkeypatch.setattr(resolutions, "_walk", counted)
    return seen


def test_kmr_cost_does_not_grow_with_the_grid(capsys, monkeypatch):
    """The command walks the record once, whatever the grid, and counts its canonical blocks."""
    seen = _counted_walks(monkeypatch)
    for grid, walked in (
        (["--grid", "0..9"], [range(0, 10)]),
        (["--grid", "0..99999"], [range(0, 100000)]),
        (["--grid", f"0..{10**30}"], [range(0, 10**30 + 1)]),
        (["--grid", f"3..{10**30}"], [range(3, 10**30 + 1)]),
        ([], [None]),  # the admissible half-line x >= 0
    ):
        seen.clear()
        assert invoke(capsys, "kmr", "--resolution", OCTIC, *grid) == (0, "54\n", "")
        assert seen == walked


def test_hilbert_reads_its_counts_off_the_scan_table(capsys, monkeypatch):
    """Only the validating walk reads the record, once; every count reads its blocks."""
    seen = _counted_walks(monkeypatch)
    argv = ("hilbert", "--resolution", OCTIC, "--twist", "4")
    assert invoke(capsys, *argv) == (0, "60\n", "")
    assert seen == [None]
    seen.clear()
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert (code, json.loads(out), len(seen)) == (0, {
        "twist": 4, "h0_ideal": 60, "h0_structure": 66, "chi_structure": 66
    }, 1)


def _outcome(argv):
    """run(argv) as (exit code, stdout, stderr), without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _expected(count):
    """What a command prints for the value of count(), or for what it raises."""
    try:
        return 0, f"{count()}\n", ""
    except (ValueError, ArithmeticError) as exc:
        return 2, "", f"acmsplit: error: {exc}\n"


@settings(max_examples=100, deadline=None)
@given(certificate_families(), st.integers(-3, 8))
def test_kmr_and_hilbert_print_what_the_public_wrappers_count(drawn, t):
    """The commands count the canonical blocks; the (res, x) wrappers walk the record at x.

    Where checked_resolution accepts the family, the wrappers take one
    value at every point a plain walk visits (walk_points), and both
    commands print it, or exit 2 with the error the wrappers raise;
    elsewhere both exit 2 with checked_resolution's error.
    """
    res, grid = drawn
    if grid is not None:
        grid = range(min(grid), max(grid) + 1)
    text = json.dumps({
        "gens": [[n, str(mult)] for n, mult in res.generators],
        "syz": [[m, str(mult)] for m, mult in res.syzygies],
        "socle": res.socle_twist,
    })
    argv = ["--resolution", text] + ([] if grid is None else [f"--grid={grid[0]}..{grid[-1]}"])

    def kmr():
        checked_resolution(res, grid)
        values = {kmr_h0_normal(res, x) for x in walk_points(res, grid)}
        assert len(values) == 1
        return values.pop()

    def hilbert():
        checked_resolution(res, grid)
        points = walk_points(res, grid)
        ideal = {h0_ideal(res, t, x) for x in points}
        assert len(ideal) == len({surface_invariants(res, x).chi(t) for x in points}) == 1
        return ideal.pop()

    assert _outcome(["kmr", *argv]) == _expected(kmr)
    assert _outcome(["hilbert", "--twist", str(t), *argv]) == _expected(hilbert)


def test_readme_family_without_a_grid_is_certified_on_its_half_line(capsys):
    """b - 2 >= 0 bounds the family below, so b runs over 2, 3, 4, ... ."""
    assert invoke(capsys, "kmr", "--resolution", DEG11) == (0, "83\n", "")


def test_a_negative_multiplicity_at_one_grid_point_names_the_point(capsys):
    """b - 2 is negative at b = 1 alone: the one-point grid 1..1 prints as x=1."""
    code, out, err = invoke(capsys, "kmr", "--resolution", DEG11, "--grid", "1..1")
    assert (code, out) == (2, "")
    assert err == (
        "acmsplit: error: invalid resolution: negative-multiplicity:"
        " x=1 leaves 2 <= b, where every multiplicity is >= 0\n"
    )


def _cancelling_pairs(twists):
    """What kmr and hilbert print when x moves the net count at the twists."""
    return f"acmsplit: error: invalid resolution: {cancelling_pairs('x', twists)}\n"


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "1"]])
def test_a_surface_type_that_moves_on_the_grid_exits_2(capsys, command):
    """FALLING_DEGREE is a surface at every point of 0..7, but of degree 8, 4 and 1 at 0, 4, 7.

    Its parameter moves the net count at twists 2 to 5, so validation refuses it on any
    grid, a one-point grid included, and on its half-line.
    """
    res = parse_resolution(FALLING_DEGREE)
    assert [flat_surface_invariants(res, x).degree for x in (0, 4, 7)] == [8, 4, 1]
    for grid in (["--grid", "0..7"], ["--grid", "3..3"], []):
        argv = [*command, "--resolution", json.dumps(FALLING_DEGREE), *grid]
        assert invoke(capsys, *argv) == (2, "", _cancelling_pairs([2, 3, 4, 5]))


#: A (2,3,5) complete intersection with 40 ghost pairs at each twist 1..9, plus x z(1-z)^6 on
#: gens and its dual on syz: admissible for -2 <= x <= 2, one surface type throughout, but
#: h^0(I_S(1)) and h^0(I_S(3)) move with x.
WOBBLE = {
    "gens": [[1, "40+1*x"], [2, "41-6*x"], [3, "41+15*x"], [4, "40-20*x"], [5, "41+15*x"],
             [6, "40-6*x"], [7, "40+1*x"], [8, 40], [9, 40]],
    "syz": [[9, "40+1*x"], [8, "41-6*x"], [7, "41+15*x"], [6, "40-20*x"], [5, "41+15*x"],
            [4, "40-6*x"], [3, "40+1*x"], [2, 40], [1, 40]],
    "socle": 10,
}


@pytest.mark.parametrize(
    "command", [["kmr"], *(["hilbert", "--twist", str(t)] for t in range(8))],
    ids=["kmr", *(f"hilbert-{t}" for t in range(8))],
)
def test_a_family_of_one_surface_type_whose_hilbert_function_moves_exits_2(capsys, command):
    """Whether the record is refused does not depend on the twist asked for."""
    res = parse_resolution(WOBBLE)
    assert len({flat_surface_invariants(res, x) for x in range(-2, 3)}) == 1
    assert [flat_h0_ideal(res, 1, x) for x in (-2, 2)] == [-2, 2]
    argv = [*command, "--resolution", json.dumps(WOBBLE)]
    assert invoke(capsys, *argv) == (2, "", _cancelling_pairs([1, 2, 3, 4, 6, 7, 8, 9]))


#: x adds one generator and one syzygy at twist 2, so the net counts hold, but twist 2 is not
#: paired with its dual 6 - 2 = 4: the record is self-dual at x = 0 alone.
UNPAIRED = json.dumps(
    {"gens": [[2, 3], [3, "x"], [2, "x"]], "syz": [[3, "x"], [4, 3], [2, "x"]], "socle": 6}
)


@pytest.mark.parametrize(
    "grid", [[], ["--grid", "0..0"], ["--grid", "0..9"]],
    ids=["half-line", "one-point-grid", "ten-point-grid"],
)
def test_a_parameter_that_adds_no_ghost_pair_is_counted_on_the_canonical_blocks(capsys, grid):
    """Its pairs cancel twist by twist, so every grid and the half-line count the octic."""
    assert invoke(capsys, "kmr", "--resolution", UNPAIRED, *grid) == (0, "54\n", "")


def _octic_count(mult):
    """OCTIC with the three cubic generators counted by mult."""
    return json.dumps({"gens": [[2, mult], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6})


_NOT_A_GRID = "acmsplit kmr: error: argument --grid: grid must look like LO..HI (for example 2..5)"


def _not_an_integer(command, option, text):
    return (
        f"acmsplit {command}: error: argument {option}:"
        f" expected an integer in ASCII digits, not {text!r}"
    )


@pytest.mark.parametrize(
    "argv, err",
    [
        (["kmr", "--resolution", OCTIC, "--grid", "\u0660..\u0663"],
         f"{_NOT_A_GRID}, not '\u0660..\u0663'"),
        (["kmr", "--resolution", OCTIC, "--grid", "0..\uff13"], f"{_NOT_A_GRID}, not '0..\uff13'"),
        (["kmr", "--resolution", _octic_count("\u0663")],
         "acmsplit: error: gens: cannot parse multiplicity '\u0663'"),
        (["kmr", "--resolution", _octic_count("2*x\u0663")],
         "acmsplit: error: gens: cannot parse multiplicity '2*x\u0663'"),
        (["solve-c2", "--degree", "\u0664", "--c1", "0"],
         _not_an_integer("solve-c2", "--degree", "\u0664")),
        (["check-case", "--degree", "4", "--c1", "\u0661", "--c2", "3"],
         _not_an_integer("check-case", "--c1", "\u0661")),
        (["check-case", "--degree", "4", "--c1", "1", "--c2", "\uff13"],
         _not_an_integer("check-case", "--c2", "\uff13")),
        (["hilbert", "--resolution", OCTIC, "--twist", "\u0664"],
         _not_an_integer("hilbert", "--twist", "\u0664")),
    ],
    ids=["arabic-indic-grid", "fullwidth-grid", "arabic-indic-count", "name-with-a-digit",
         "arabic-indic-degree", "arabic-indic-c1", "fullwidth-c2", "arabic-indic-twist"],
)
def test_a_non_ascii_digit_exits_2(capsys, argv, err):
    """int() reads every Unicode digit, so every grammar takes ASCII digits only."""
    assert invoke(capsys, *argv) == (2, "", err + "\n")


def test_negative_multiplicities_on_a_grid_are_reported_once(capsys):
    """Four expressions are negative on part of the grid: one line names the grid and interval."""
    code, out, err = invoke(capsys, "kmr", "--resolution", DEG11_REVERSED, "--grid", "0..99999")
    assert (code, out) == (2, "")
    assert err == (
        "acmsplit: error: invalid resolution: negative-multiplicity:"
        " grid 0..99999 leaves b <= 2, where every multiplicity is >= 0\n"
    )


def test_a_long_hilbert_numerator_prints_its_ends_and_a_count(capsys):
    """P with 258 terms prints its first and last five and how many it leaves out."""
    res = json.dumps({
        "gens": [[t, 1] for t in range(1, 128)],
        "syz": [[1000 - t, 1] for t in range(2, 129)],
        "socle": 1000,
    })
    code, out, err = invoke(capsys, "kmr", "--resolution", res)
    assert (code, out) == (2, "")
    assert err.endswith(
        "P(z) = 1 - z - z^2 - z^3 - z^4 ... (246 more terms) ..."
        " + z^995 + z^996 + z^997 + z^998 - z^1000\n"
    )
    assert len(err.encode()) < 1024


_TOO_BIG = "expected an integer of absolute value at most 1000000"


@pytest.mark.parametrize(
    "value", [str(10**6 + 1), str(-(10**6) - 1), "9" * 5000, "-" + "1" * 5000]
)
@pytest.mark.parametrize(
    "command, option",
    [
        (["solve-c2", "--c1", "0"], "--degree"),
        (["check-case", "--degree", "4", "--c2", "3"], "--c1"),
        (["check-case", "--degree", "4", "--c1", "1"], "--c2"),
        (["hilbert", "--resolution", OCTIC], "--twist"),
    ],
    ids=["degree", "c1", "c2", "twist"],
)
def test_an_integer_option_past_max_twist_exits_2_without_echoing_it(
    capsys, command, option, value
):
    """Every integer option takes |n| <= MAX_TWIST, and its refusal names the option and limit."""
    code, out, err = invoke(capsys, *command, f"{option}={value}")
    assert (code, out) == (2, "")
    assert err == f"acmsplit {command[0]}: error: argument {option}: {_TOO_BIG}\n"
    assert len(err.encode()) < 200


def test_an_integer_option_at_max_twist_is_read():
    """Leading zeros count no digit: 0001000000 is MAX_TWIST itself."""
    args = build_parser().parse_args(["solve-c2", "--degree", "0001000000", "--c1", "-1000000"])
    assert (args.degree, args.c1) == (10**6, -(10**6))


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "2"]])
def test_degenerate_resolution_is_refused(capsys, command):
    assert invoke(capsys, *command, "--resolution", DEGENERATE) == (2, "", NO_SURFACE_ERROR)


@pytest.mark.parametrize("t", [1, 2, 3, 0, 4, -1])
def test_a_ghost_pair_at_any_twist_is_counted_on_the_canonical_blocks(capsys, t):
    """Ghost twists t and 4 - t on both sides of the quadric cancel twist by twist.

    So the record reads as the quadric for every t.  The positional pair sum on the
    record itself needs 1 <= t <= 3: it gives 16 at t = 0 and 11 at t = -1.
    """
    quadric = ci_resolution(1, 1, 2)
    ghost = [[t, 1], [4 - t, 1]]
    text = json.dumps({"gens": quadric["gens"] + ghost, "syz": quadric["syz"] + ghost, "socle": 4})
    kmr = invoke(capsys, "kmr", "--resolution", text)
    hilbert = invoke(capsys, "hilbert", "--resolution", text, "--twist", "4")
    assert (kmr, hilbert) == ((0, "17\n", ""), (0, "101\n", ""))


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "0"]])
def test_a_generator_twist_past_the_socle_is_refused(capsys, command):
    """Balanced and self-dual, but its syzygy twist -1 gives the sum h^0(I_S(0)) = -6.

    Its Hilbert numerator has the power z^-1, so h does too.
    """
    text = json.dumps({"gens": [[1, 5], [5, 1]], "syz": [[-1, 1], [3, 5]], "socle": 4})
    err = (
        "invalid resolution: hilbert-numerator: h does not start with h_0 = 1 at z^0,"
        " with h = P(z)/(1 - z)^3 and P(z) = z^-1 + 1 - 5z + 5z^3 - z^4 - z^5"
    )
    assert invoke(capsys, *command, "--resolution", text) == (2, "", f"acmsplit: error: {err}\n")


#: One record the parent rule refused for each violation kind it retired, and what the
#: commands print for it now: a surface's canonical form is counted, anything else is
#: refused by the Hilbert-numerator test.
RETIRED_KINDS = {
    "degree-balance": ({"gens": [[3, 7]], "syz": [[4, 7]], "socle": 6},
                       "h is not a polynomial", "1 - 7z^3 + 7z^4 - z^6"),
    "rank-balance": ({"gens": [[1, 2], [2, 1]], "syz": [[3, 3]], "socle": 4},
                     "h is not a polynomial", "1 - 2z - z^2 + 3z^3 - z^4"),
    "trivial-rank": ({"gens": [], "syz": [], "socle": 0},
                     "h does not start with h_0 = 1 at z^0", "0"),
    "twist-range": ({"gens": [[1, 5], [5, 1]], "syz": [[-1, 1], [3, 5]], "socle": 4},
                    "h does not start with h_0 = 1 at z^0", "z^-1 + 1 - 5z + 5z^3 - z^4 - z^5"),
    # the (1,1,2) quadric's canonical form, h = 1 + z, plus a pair of one twist at the socle
    "self-duality": ({"gens": [[1, 2], [4, 2]], "syz": [[3, 2], [4, 2]], "socle": 4}, 17, 101),
    # the octic plus x pairs of one twist at 2, not paired with its dual 4
    "ghost-pairs": (json.loads(UNPAIRED), 54, 60),
}


@pytest.mark.parametrize("kind", RETIRED_KINDS)
def test_a_record_each_retired_violation_kind_refused_is_pinned(capsys, kind):
    doc, kmr, hilbert = RETIRED_KINDS[kind]
    text = json.dumps(doc)
    got = (
        invoke(capsys, "kmr", "--resolution", text),
        invoke(capsys, "hilbert", "--resolution", text, "--twist", "4"),
    )
    if isinstance(kmr, int):
        assert got == ((0, f"{kmr}\n", ""), (0, f"{hilbert}\n", ""))
    else:
        err = (
            f"acmsplit: error: invalid resolution: hilbert-numerator: {kmr},"
            f" with h = P(z)/(1 - z)^3 and P(z) = {hilbert}\n"
        )
        assert got == ((2, "", err), (2, "", err))


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "4"]])
def test_a_two_parameter_record_exits_2_naming_both_parameters(capsys, command):
    """parse_resolution refuses it; test_catalog_errors_name_the_case covers a catalog case."""
    expected = (2, "", f"acmsplit: error: {TWO_PARAMETERS}\n")
    assert invoke(capsys, *command, "--resolution", json.dumps(RAW11)) == expected


def test_solve_c2(capsys):
    code, out, _ = invoke(capsys, "solve-c2", "--degree", "4", "--c1", "0")
    assert (code, out) == (0, "2\n")
    code, out, _ = invoke(capsys, "solve-c2", "--degree", "5", "--c1", "-2")
    assert (code, out) == (0, "1\n")
    code, _, err = invoke(capsys, "solve-c2", "--degree", "5", "--c1", "1")
    assert code == 2
    assert "error" in err
    expected = (2, "", "acmsplit: error: degree must be positive, got 0\n")
    assert invoke(capsys, "solve-c2", "--degree", "0", "--c1", "3") == expected


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
        ["kmr", "--resolution", DEGENERATE],
        ["hilbert", "--resolution", DEGENERATE, "--twist", "2"],
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


def _padded(doc, ghost, size):
    """doc with ghost pairs [ghost, 1] added to gens and syz until each holds size pairs.

    A ghost pair at half the socle keeps the resolution self-dual and changes no count.
    """
    assert 2 * ghost == doc["socle"]
    return {
        "gens": doc["gens"] + [[ghost, 1]] * (size - len(doc["gens"])),
        "syz": doc["syz"] + [[ghost, 1]] * (size - len(doc["syz"])),
        "socle": doc["socle"],
    }


def test_a_resolution_of_at_most_max_pairs_pairs_is_counted(capsys):
    text = json.dumps(_padded(ci_resolution(1, 1, 2), 2, MAX_PAIRS))
    assert invoke(capsys, "kmr", "--resolution", text) == (0, "17\n", "")
    assert invoke(capsys, "hilbert", "--resolution", text, "--twist", "4") == (0, "101\n", "")


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "4"]])
@pytest.mark.parametrize("side", ["gens", "syz"])
def test_a_resolution_past_max_pairs_is_refused(capsys, command, side):
    """The KMR count is quadratic in the number of twist blocks, so long lists are refused."""
    doc = _padded(ci_resolution(1, 1, 2), 2, MAX_PAIRS)
    doc[side] = doc[side] + [[2, 0]]
    message = (
        f"{side} has {MAX_PAIRS + 1} [twist, mult] pairs; a resolution takes at most {MAX_PAIRS}"
    )
    assert invoke(capsys, *command, "--resolution", json.dumps(doc)) == (
        2, "", f"acmsplit: error: {message}\n"
    )


def test_a_catalog_case_past_max_pairs_is_refused_by_name(tmp_path, capsys):
    """The degree-20 case padded to the limit keeps its row; one pair more names the case."""
    doc = _padded({"gens": [[3, 4]], "syz": [[5, 4]], "socle": 8}, 4, MAX_PAIRS)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"degree": 5, "cases": [{"c1": 3, "c2": 20, "resolution": doc}]}))
    code, out, err = invoke(capsys, "report", "--degree", "5", "--catalog", str(path),
                            "--format", "json")
    assert (code, err) == (0, "")
    _, builtin, _ = invoke(capsys, "report", "--degree", "5", "--format", "json")
    (row,) = [r for r in json.loads(out)["rows"] if (r["c1"], r["c2"]) == (3, 20)]
    assert row in json.loads(builtin)["rows"]

    doc["syz"].append([4, 0])
    path.write_text(json.dumps({"degree": 5, "cases": [{"c1": 3, "c2": 20, "resolution": doc}]}))
    message = (
        f"case #0 (c1=3, c2=20): syz has {MAX_PAIRS + 1} [twist, mult] pairs;"
        f" a resolution takes at most {MAX_PAIRS}"
    )
    assert invoke(capsys, "report", "--degree", "5", "--catalog", str(path)) == (
        2, "", f"acmsplit: error: {message}\n"
    )


def _limit_message(what, value):
    return f"{what} {value} has absolute value above {MAX_TWIST}, the limit a resolution takes"


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "4"]])
def test_a_socle_at_max_twist_is_counted_and_one_past_it_is_refused(capsys, command):
    """A (1,1,K) complete intersection, a degree-K surface in a P^3, has socle K + 2.

    N_S = O_S(1)^2 + O_S(K) gives h^0(N_S) = 2 * 4 + C(K + 3, 3) - 1, and for K > 4 the
    quartics through S are those vanishing on the P^3: h^0(I_S(4)) = 126 - 35.
    """
    k = MAX_TWIST - 2
    expected = comb(k + 3, 3) + 7 if command == ["kmr"] else 91
    at_limit = json.dumps(ci_resolution(1, 1, k))
    assert invoke(capsys, *command, "--resolution", at_limit) == (0, f"{expected}\n", "")
    past = json.dumps(ci_resolution(1, 1, k + 1))
    assert invoke(capsys, *command, "--resolution", past) == (
        2, "", f"acmsplit: error: {_limit_message('socle', MAX_TWIST + 1)}\n"
    )


def test_a_catalog_case_past_max_twist_is_refused_by_name(tmp_path, capsys):
    """At the limit the case is counted (c1 = K - 3 splits by range); one past it is named."""
    path = tmp_path / "catalog.json"

    def report(k):
        case = {"c1": k - 3, "c2": k, "resolution": ci_resolution(1, 1, k)}
        path.write_text(json.dumps({"degree": 5, "cases": [case]}))
        return invoke(capsys, "report", "--degree", "5", "--catalog", str(path), "--format", "json")

    k = MAX_TWIST - 2
    code, out, err = report(k)
    assert (code, err) == (0, "")
    (row,) = [r for r in json.loads(out)["rows"] if r["c2"] == k]
    assert (row["h0_normal"], row["verdict"]) == (comb(k + 3, 3) + 7, "SplitsByRange")
    message = f"case #0 (c1={k - 2}, c2={k + 1}): {_limit_message('socle', MAX_TWIST + 1)}"
    assert report(k + 1) == (2, "", f"acmsplit: error: {message}\n")


@pytest.mark.parametrize("command", [["kmr"], ["hilbert", "--twist", "3"]])
def test_a_twist_past_max_twist_is_refused_whatever_the_socle(capsys, command):
    """The limit is checked at parse, before validation bounds a generator twist by the socle.

    gens [[1, N], [N, 1]] and syz [[4 - N, 1], [3, N]] with socle 4 are balanced and
    self-dual for every N; validation refuses N at the limit, as its Hilbert numerator has
    the power z^(4 - N), and the limit N past it.
    """
    def doc(n):
        return json.dumps({"gens": [[1, n], [n, 1]], "syz": [[4 - n, 1], [3, n]], "socle": 4})

    at = (
        "acmsplit: error: invalid resolution: hilbert-numerator: h does not start with h_0 = 1"
        f" at z^0, with h = P(z)/(1 - z)^3 and P(z) = z^{4 - MAX_TWIST} + 1 - {MAX_TWIST}z"
        f" + {MAX_TWIST}z^3 - z^4 - z^{MAX_TWIST}\n"
    )
    assert invoke(capsys, *command, "--resolution", doc(MAX_TWIST)) == (2, "", at)
    past = f"acmsplit: error: {_limit_message('gens twist', MAX_TWIST + 1)}\n"
    assert invoke(capsys, *command, "--resolution", doc(MAX_TWIST + 1)) == (2, "", past)
    low = json.dumps({"gens": [[1, 1]], "syz": [[-MAX_TWIST - 1, 1]], "socle": 4})
    past = f"acmsplit: error: {_limit_message('syz twist', -MAX_TWIST - 1)}\n"
    assert invoke(capsys, *command, "--resolution", low) == (2, "", past)


@pytest.mark.parametrize(
    "c1, c2, shape, message",
    [
        (1, 8, FALLING_DEGREE, f"invalid resolution: {cancelling_pairs('x', [2, 3, 4, 5])}"),
        (1, 2, NO_SURFACE, NO_SURFACE_ERROR[len("acmsplit: error: "):-1]),
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




@pytest.mark.parametrize(
    "cases, message",
    [
        ([{"c1": -1, "c2": 2}],
         "case (c1=-1, c2=2) appears twice; boundary cases are derived, not listed"),
        ([{"c1": 2, "c2": 14}, {"c1": 2, "c2": 14}],
         "case (c1=2, c2=14) appears twice; boundary cases are derived, not listed"),
        ([{"c1": 2, "c2": 11, "resolution": RAW11}], f"case #0 (c1=2, c2=11): {TWO_PARAMETERS}"),
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


def test_check_case_prints_its_row_of_the_report(capsys, monkeypatch):
    import acmsplit.cli

    reports = []

    def recorded(*args, **kwargs):
        reports.append(generate_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(acmsplit.cli, "generate_report", recorded)
    code, out, _ = invoke(capsys, "check-case", "--degree", "5", "--c1", "2", "--c2", "11")
    assert code == 0
    assert "incidence bound: 217" in out
    (report,) = reports
    (row,) = [r for r in report.rows if (r.case.c1, r.case.c2) == (2, 11)]
    assert f"incidence bound: {row.bound} against moduli dimension {row.moduli_dim}" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--degree", "7"],
        ["report", "--degree", "7", "--catalog"],
        ["check-case", "--degree", "7", "--c1", "-3", "--c2", "2", "--catalog"],
        ["report", "--degree", "0"],
        ["report", "--degree", "-1"],
        ["report", "--degree", "2"],
        ["report", "--degree", "8"],
        ["check-case", "--degree", "0", "--c1", "1", "--c2", "3"],
    ],
    ids=[
        "report", "report-catalog", "check-case-catalog", "report-0", "report--1", "report-2",
        "report-8", "check-case-0",
    ],
)
def test_reports_refuse_degree_7(tmp_path, capsys, argv):
    """An empty degree-7 case list would print only the boundary rows and look conclusive.

    Every degree outside 3..6, zero and negative ones included, gets the same message.
    """
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"degree": 7, "cases": []}), encoding="utf-8")
    if argv[-1] == "--catalog":
        argv = [*argv, str(path)]
    message = f"reports cover degrees 3 through 6, not {argv[2]}"
    assert invoke(capsys, *argv) == (2, "", f"acmsplit: error: {message}\n")


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


@pytest.mark.parametrize("degree, expected", [(3, 1), (4, 0)])
def test_console_script_exits_with_the_code_run_returns(capsys, monkeypatch, degree, expected):
    """acmsplit = acmsplit.cli:main: main reads sys.argv and exits with run's code."""
    argv = ["report", "--degree", str(degree)]
    monkeypatch.setattr(sys, "argv", ["acmsplit", *argv])
    with pytest.raises(SystemExit) as exited:
        main()
    printed = capsys.readouterr()
    assert exited.value.code == run(argv) == expected
    assert capsys.readouterr() == printed


def test_public_api_is_what_the_readme_uses():
    """acmsplit exports only the Library names the README documents."""
    import acmsplit

    assert sorted(acmsplit.__all__) == [
        "CaseRecord", "CatalogError", "GorensteinResolution", "Report", "ReportRow", "Verdict",
        "builtin_catalog", "dimension_bound", "generate_report", "h0_ideal", "kmr_h0_normal",
        "parse_resolution", "pfaffian_c2", "render_report_json", "render_report_markdown",
        "sectional_genus", "solve_c2_boundary", "validate", "verdict",
    ]
    for name in acmsplit.__all__:
        assert getattr(acmsplit, name) is not None
