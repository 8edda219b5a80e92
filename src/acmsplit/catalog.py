"""Built-in case catalogs: the classified (c1, c2) pairs per degree.

Each degree maps to the list of normalized rank-2 ACM candidates coming
from the hyperplane-section classifications on threefolds of the same
degree, together with the lifted resolution of the section zero locus
where one is known.  Boundary cases (c1 = 3 - r and 4 - r) are not
stored; the engine re-derives them.  Degree 6 has an empty case list,
and a degree-6 catalog takes no cases: its report is a single reduction
row.

Data layout matches the external catalog JSON schema, so a user file
can override any of these.
"""

from __future__ import annotations

# Complete intersections of type (a, b, c) lift from curve to surface
# keeping their twists: generators (a, b, c), syzygies (b+c, a+c, a+b),
# socle a + b + c.
_CI_112 = {"gens": [[1, 2], [2, 1]], "syz": [[3, 2], [2, 1]], "socle": 4}
_CI_113 = {"gens": [[1, 2], [3, 1]], "syz": [[4, 2], [2, 1]], "socle": 5}
_CI_122 = {"gens": [[1, 1], [2, 2]], "syz": [[3, 2], [4, 1]], "socle": 5}
_CI_114 = {"gens": [[1, 2], [4, 1]], "syz": [[5, 2], [2, 1]], "socle": 6}
_CI_123 = {"gens": [[1, 1], [2, 1], [3, 1]], "syz": [[3, 1], [4, 1], [5, 1]], "socle": 6}

# Degree-5 surface with elliptic-quintic hyperplane sections.
_ELLIPTIC_QUINTIC = {"gens": [[2, 5]], "syz": [[3, 5]], "socle": 5}

# Degree-8 family: x counts a cancelling block of cubic generators and
# cubic syzygies, so every x >= 0 gives the same counts.
_DEG8_FAMILY = {"gens": [[2, 3], [3, "x"]], "syz": [[3, "x"], [4, 3]], "socle": 6}

#: The complete-intersection resolution attached to the synthesized
#: quadric boundary case (c1 = 4 - r, c2 = 2).
QUADRIC_RESOLUTION = _CI_112

BUILTIN_CATALOGS = {
    3: {
        "degree": 3,
        "cases": [
            {
                "c1": 2,
                "c2": 5,
                "resolution": None,
                "provenance": "cubic threefold classification; pfaffian Chern pair",
            },
        ],
    },
    4: {
        "degree": 4,
        "cases": [
            {
                "c1": 1,
                "c2": 3,
                "resolution": _CI_113,
                "provenance": "quartic threefold classification: plane cubic section,"
                " lifting to a (1,1,3) complete intersection surface",
            },
            {
                "c1": 1,
                "c2": 4,
                "resolution": _CI_122,
                "provenance": "quartic threefold classification: quartic curve in a"
                " 3-space section, lifting to a (1,2,2) complete intersection",
            },
            {
                "c1": 1,
                "c2": 5,
                "resolution": _ELLIPTIC_QUINTIC,
                "provenance": "quartic threefold classification: elliptic quintic"
                " curve, resolution lifts twist for twist",
            },
            {
                "c1": 2,
                "c2": 8,
                "resolution": _DEG8_FAMILY,
                "provenance": "quartic threefold classification: degree-8 sections;"
                " cubic generator count enters as the free parameter x",
            },
            {
                "c1": 3,
                "c2": 14,
                "resolution": None,
                "provenance": "quartic threefold classification; pfaffian Chern pair",
            },
        ],
    },
    5: {
        "degree": 5,
        "cases": [
            {
                "c1": 0,
                "c2": 3,
                "resolution": _CI_113,
                "provenance": "quintic threefold classification: plane cubic section,"
                " cubic surface in a 3-space",
            },
            {
                "c1": 0,
                "c2": 4,
                "resolution": _CI_122,
                "provenance": "quintic threefold classification: (2,2) curve section,"
                " lifting to a (1,2,2) complete intersection",
            },
            {
                "c1": 0,
                "c2": 5,
                "resolution": _ELLIPTIC_QUINTIC,
                "provenance": "quintic threefold classification: elliptic quintic"
                " curve, resolution lifts twist for twist",
            },
            {
                "c1": 1,
                "c2": 4,
                "resolution": _CI_114,
                "provenance": "quintic threefold classification: plane quartic"
                " section, lifting to a (1,1,4) complete intersection",
            },
            {
                "c1": 1,
                "c2": 6,
                "resolution": _CI_123,
                "provenance": "quintic threefold classification: (2,3) curve section,"
                " lifting to a (1,2,3) complete intersection",
            },
            {
                "c1": 1,
                "c2": 8,
                "resolution": _DEG8_FAMILY,
                "provenance": "quintic threefold classification: degree-8 sections,"
                " same parametric shape as the quartic degree-8 family",
            },
            {
                "c1": 2,
                "c2": 11,
                "resolution": {
                    "gens": [[2, 3], [3, "b-2"], [4, "b"]],
                    "syz": [[3, "b"], [4, "b-2"], [5, 3]],
                    "socle": 7,
                },
                "provenance": "quintic threefold classification: degree-11 sections;"
                " cubic count c = b - 2 from the degree balance, free parameter b >= 2",
            },
            {
                "c1": 2,
                "c2": 12,
                "resolution": {
                    "gens": [[2, 2], [3, "c"], [4, "c-1"]],
                    "syz": [[3, "c-1"], [4, "c"], [5, 2]],
                    "socle": 7,
                },
                "provenance": "quintic threefold classification: degree-12 sections;"
                " quartic count b = c - 1 from the degree balance, free parameter c >= 1",
            },
            {
                "c1": 2,
                "c2": 13,
                "resolution": {
                    "gens": [[2, 1], [3, 4]],
                    "syz": [[4, 4], [5, 1]],
                    "socle": 7,
                },
                "provenance": "quintic threefold classification: degree-13 sections,"
                " one quadric and four cubic generators",
            },
            {
                "c1": 2,
                "c2": 14,
                "resolution": {"gens": [[3, 7]], "syz": [[4, 7]], "socle": 7},
                "provenance": "quintic threefold classification: degree-14 sections,"
                " seven cubic generators",
            },
            {
                "c1": 3,
                "c2": 20,
                "resolution": {"gens": [[3, 4]], "syz": [[5, 4]], "socle": 8},
                "provenance": "quintic threefold classification: degree-20 sections,"
                " four cubic generators",
            },
        ],
    },
    6: {"degree": 6, "cases": []},
}

#: Report-only footnotes keyed by (degree, c1, c2, verdict), so a note prints
#: only on a row whose verdict it describes.  They annotate a printed value
#: that supersedes a commonly quoted one, and the cubic quadric row, whose
#: bound 56 does not beat 55.
REPORT_ANNOTATIONS = {
    (3, 1, 2, "InconclusiveCount"): ["exclusion falls back on: plane-exclusion"],
    (5, 2, 11, "ExcludedByDimensionCount"): [
        "bound recomputed from its ingredients: 135 - 1 + 83 = 217, superseding"
        " a commonly quoted 214; the exclusion is unaffected (217 < 251)"
    ],
}
