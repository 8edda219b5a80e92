"""Expected acmsplit outputs, written out by hand.

Row tables follow README.md and tests/test_acceptance.py.  The digests
are SHA-256 of the Markdown and JSON report bytes at the commit that
introduced this benchmark; report bytes must not change, so a later
commit that changes them fails the benchmark.
"""

import hashlib
import json

#: (c1, c2, genus, h0 I_S(r), h0 N_S, bound, verdict) per built-in report row.
ROWS = {
    3: (
        (0, 1, 0, None, None, None, "ExcludedPlane"),
        (1, 2, 0, 40, 17, 56, "InconclusiveCount"),
        (2, 5, 1, None, None, None, "ExcludedPfaffian"),
    ),
    4: (
        (-1, 1, 0, None, None, None, "ExcludedPlane"),
        (0, 2, 0, 101, 17, 117, "ExcludedByDimensionCount"),
        (1, 3, 1, 95, 27, 121, "ExcludedByDimensionCount"),
        (1, 4, 1, 85, 31, 115, "ExcludedByDimensionCount"),
        (1, 5, 1, 75, 35, 109, "ExcludedByDimensionCount"),
        (2, 8, 5, 60, 54, 113, "ExcludedByDimensionCount"),
        (3, 14, 15, None, None, None, "ExcludedPfaffian"),
    ),
    5: (
        (-2, 1, 0, None, None, None, "ExcludedPlane"),
        (-1, 2, 0, 216, 17, 232, "ExcludedByDimensionCount"),
        (0, 3, 1, 206, 27, 232, "ExcludedByDimensionCount"),
        (0, 4, 1, 191, 31, 221, "ExcludedByDimensionCount"),
        (0, 5, 1, 176, 35, 210, "ExcludedByDimensionCount"),
        (1, 4, 3, 200, 42, 241, "ExcludedByDimensionCount"),
        (1, 6, 4, 175, 48, 222, "ExcludedByDimensionCount"),
        (1, 8, 5, 150, 54, 203, "ExcludedByDimensionCount"),
        (2, 11, 12, 135, 83, 217, "ExcludedByDimensionCount"),
        (2, 12, 13, 125, 81, 205, "ExcludedByDimensionCount"),
        (2, 13, 14, 115, 79, 193, "ExcludedByDimensionCount"),
        (2, 14, 15, 105, 77, 181, "ExcludedByDimensionCount"),
        (3, 20, 31, 80, 110, 189, "ExcludedByDimensionCount"),
    ),
    6: ((None, None, None, None, None, None, "ReducedToThreefold"),),
}

MODULI = {3: 55, 4: 125, 5: 251, 6: 461}

#: `acmsplit report` exit status: only degree 3 keeps an inconclusive row.
REPORT_EXIT = {3: 1, 4: 0, 5: 0, 6: 0}

MARKDOWN_SHA256 = {
    3: "52851f9c6a838ed55e1e74001d93ccf70574dfa7ca31fcf85417aa067ef3d104",
    4: "e9f2f3dc53d81c62fd0f851897f49b05e27d2e2b8e7ededb0c65fc3b86933e87",
    5: "343de6c6ec6420fb2d6593029521dbe14c6cdf65f5fccadc75490a8f388ea9ea",
    6: "b47ce897db6115ab2688f34db5e39225751933864a5c5e3f1a2f08d63b7165c3",
}
JSON_SHA256 = {
    3: "909f722bc13ba46cf63c81852d868656d845949599dce91620df6be483530f3a",
    4: "bdd7b9b82ad88815e0398284c2a0b7e3e6abcffeded6d73c275d6187051ec57e",
    5: "fb8522df86051e516360a310ddabc0fb7d53f6d64d9ef614d434c471f009ef5f",
    6: "b65d8b652d7ebb55da6b2146626d3bfb649d7447cc7328de7f7ee5c34ee4a557",
}

_CI_113 = {"gens": [[1, 2], [3, 1]], "syz": [[4, 2], [2, 1]], "socle": 5}
_DEG8_FAMILY = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}
_DEG11_FAMILY = {
    "gens": [[2, 3], [3, "b-2"], [4, "b"]],
    "syz": [[3, "b"], [4, "b-2"], [5, 3]],
    "socle": 7,
}

#: Scalar commands and their exact stdout (README.md, tests/test_cli.py).
SCALAR_COMMANDS = (
    (("kmr", "--resolution", json.dumps(_DEG8_FAMILY)), "54\n"),
    (("kmr", "--resolution", json.dumps(_DEG11_FAMILY), "--grid", "2..5"), "83\n"),
    (("hilbert", "--resolution", json.dumps(_DEG8_FAMILY), "--twist", "4"), "60\n"),
    (("hilbert", "--resolution", json.dumps(_CI_113), "--twist", "4"), "95\n"),
    (("solve-c2", "--degree", "5", "--c1", "-2"), "1\n"),
    (("solve-c2", "--degree", "4", "--c1", "0"), "2\n"),
)

#: The degree-8 family used by the rank probes.
RANK_FAMILY = _DEG8_FAMILY
RANK_FAMILY_H0_NORMAL = 54


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_rows(report) -> tuple:
    return tuple(
        (
            row.case.c1 if row.case is not None else None,
            row.case.c2 if row.case is not None else None,
            row.genus,
            row.h0_ideal_at_r,
            row.h0_normal,
            row.bound,
            row.verdict.value,
        )
        for row in report.rows
    )


def check_report(degree: int, report, markdown: str, json_text: str) -> str | None:
    """None when a rendered report matches the oracle, else what differs."""
    if report.degree != degree or report.moduli_dim != MODULI[degree]:
        return f"degree {degree}: header is ({report.degree}, {report.moduli_dim})"
    if report_rows(report) != ROWS[degree]:
        return f"degree {degree}: rows differ from the oracle table"
    if report.conclusive != (REPORT_EXIT[degree] == 0):
        return f"degree {degree}: conclusive is {report.conclusive}"
    if sha256(markdown) != MARKDOWN_SHA256[degree]:
        return f"degree {degree}: Markdown bytes changed"
    if sha256(json_text) != JSON_SHA256[degree]:
        return f"degree {degree}: JSON bytes changed"
    return None


def case_rows() -> list[tuple[int, tuple]]:
    """(degree, row) for every report row that names a case."""
    return [(d, row) for d in (3, 4, 5) for row in ROWS[d]]


def check_case_stdout(degree: int, row: tuple, fmt: str, code: int, stdout: str) -> str | None:
    """None when `acmsplit check-case` output agrees with the oracle row."""
    c1, c2, genus, ideal, normal, bound, verdict = row
    expected_code = 1 if verdict == "InconclusiveCount" else 0
    if code != expected_code:
        return f"check-case {degree} ({c1}, {c2}): exit {code}, expected {expected_code}"
    if fmt == "json":
        payload = json.loads(stdout)
        expected = {
            "degree": degree,
            "moduli_dim": MODULI[degree],
            "c1": c1,
            "c2": c2,
            "genus": genus,
            "h0_ideal": ideal,
            "h0_normal": normal,
            "bound": bound,
            "verdict": verdict,
        }
        if {k: payload.get(k) for k in expected} != expected:
            return f"check-case {degree} ({c1}, {c2}): JSON fields differ"
        return None
    wanted = [f"verdict: {verdict}"]
    if bound is not None:
        wanted.append(f"incidence bound: {bound} against moduli dimension {MODULI[degree]}")
    lines = stdout.splitlines()
    if any(line not in lines for line in wanted):
        return f"check-case {degree} ({c1}, {c2}): Markdown lines differ"
    return None
