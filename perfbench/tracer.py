"""Layer spans and counters for acmsplit, recorded from outside the package.

The tracer wraps the package's public functions (and
``GorensteinResolution.expand``) and patches each wrapper into every
``acmsplit`` module namespace that holds the original, so calls made
through an imported alias such as ``acmsplit.incidence.h0_ideal`` are
recorded too.  Nothing under ``src/`` is modified.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (or -1), ``op`` the index of the benchmark
op it belongs to, and ``info`` holds what a derived metric needs (the
(resolution, x) key of an expand or KMR call, the report degree).
Leaf functions that run hundreds of times per op are counted, not
spanned, because timing them would swamp them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

#: (span name, module, attribute) for every spanned public function.
SPANNED = (
    ("incidence.generate_report", "acmsplit.incidence", "generate_report"),
    ("incidence.builtin_catalog", "acmsplit.incidence", "builtin_catalog"),
    ("incidence.resolve_parameters", "acmsplit.incidence", "resolve_parameters"),
    ("incidence.dimension_bound", "acmsplit.incidence", "dimension_bound"),
    ("incidence.verdict", "acmsplit.incidence", "verdict"),
    ("incidence.render", "acmsplit.incidence", "render_report_markdown"),
    ("incidence.render", "acmsplit.incidence", "render_report_json"),
    ("resolutions.h0_ideal", "acmsplit.resolutions", "h0_ideal"),
    ("resolutions.validate", "acmsplit.resolutions", "validate"),
    ("resolutions.surface_invariants", "acmsplit.resolutions", "surface_invariants"),
    ("normal_bundle.kmr_h0_normal", "acmsplit.normal_bundle", "kmr_h0_normal"),
    ("euler.solve_c2_boundary", "acmsplit.euler", "solve_c2_boundary"),
    ("euler.sectional_genus", "acmsplit.euler", "sectional_genus"),
)

#: (counter name, module, attribute) for leaves that are counted only.
COUNTED = (
    ("proj_cohomology.h0_pn", "acmsplit.proj_cohomology", "h0_pn"),
    ("proj_cohomology.chi_pn", "acmsplit.proj_cohomology", "chi_pn"),
    ("combinatorics.binom_trunc", "acmsplit.combinatorics", "binom_trunc"),
)

EXPAND = "resolutions.expand"
KMR = "normal_bundle.kmr_h0_normal"
REPORT = "incidence.generate_report"
BOUND = "incidence.dimension_bound"
OP = "op"

#: Spans that carry self time in the per-layer metrics.
SELF_TIMED = (
    REPORT,
    "incidence.builtin_catalog",
    "incidence.verdict",
    "incidence.render",
    EXPAND,
    "resolutions.h0_ideal",
    "resolutions.validate",
    "resolutions.surface_invariants",
    KMR,
    "euler.solve_c2_boundary",
)

#: Spans whose call counts are per-layer metrics.
CALL_COUNTED = (
    "incidence.builtin_catalog",
    "incidence.resolve_parameters",
    BOUND,
    EXPAND,
    "resolutions.h0_ideal",
    "resolutions.validate",
    "resolutions.surface_invariants",
    KMR,
    "euler.solve_c2_boundary",
    "euler.sectional_genus",
)


def _acmsplit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "acmsplit" or name.startswith("acmsplit."))
    ]


class Tracer:
    """Collects spans and leaf counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTED}
        self.ops = 0
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _spanned(self, name, original, info_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, self.ops, None]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info_of is not None:
                span[5] = info_of(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, name, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def op(self):
        """Record one benchmark op as a root span; spans inside carry its index."""
        span = [OP, time.perf_counter(), None, -1, self.ops, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.ops += 1

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the wrappers into every acmsplit namespace; restore on exit."""
        importlib.import_module("acmsplit.cli")
        modules = _acmsplit_modules()
        wrappers = [
            self._spanned(name, getattr(importlib.import_module(module), attr), _info(name))
            for name, module, attr in SPANNED
        ] + [
            self._counted(name, getattr(importlib.import_module(module), attr))
            for name, module, attr in COUNTED
        ]
        restore = []
        try:
            for wrapper in wrappers:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is wrapper.__wrapped__:
                            restore.append((module, key, value))
                            setattr(module, key, wrapper)
            resolution_cls = importlib.import_module("acmsplit.resolutions").GorensteinResolution
            original_expand = resolution_cls.expand
            restore.append((resolution_cls, "expand", original_expand))
            resolution_cls.expand = self._spanned(EXPAND, original_expand, _expand_info)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip); infos are summarised."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, op, info in self.spans:
                if name in (EXPAND, KMR) and info is not None:
                    info = {"x": info[0][1], "size": info[1]}
                handle.write(json.dumps([name, start, end, parent, op, info]) + "\n")
            handle.write(json.dumps(["counts", self.counts]) + "\n")

    # -- metrics -----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [span[2] - span[1] - child[i] for i, span in enumerate(self.spans)]

    def report_of(self) -> list[int]:
        """Index of the enclosing generate_report span of each span, or -1."""
        owner = []
        for i, (name, _, _, parent, _, _) in enumerate(self.spans):
            if name == REPORT:
                owner.append(i)
            else:
                owner.append(owner[parent] if parent >= 0 else -1)
        return owner

    def per_op_metrics(self) -> dict[str, float]:
        """Per-layer metrics averaged over the ops recorded."""
        if self.ops == 0:
            raise ValueError("no traced ops were recorded")
        n = self.ops
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + own

        expand_keys: dict[int, set] = {}
        twists = 0
        pair_terms = 0
        kmr_calls: dict[int, int] = {}
        kmr_keys: dict[int, set] = {}
        owner = self.report_of()
        for i, (name, _, _, _, op, info) in enumerate(self.spans):
            if info is None:
                continue
            if name == EXPAND:
                expand_keys.setdefault(op, set()).add(info[0])
                twists += info[1]
            elif name == KMR:
                pair_terms += info[1] * (info[1] - 1) // 2
                if owner[i] >= 0:
                    kmr_calls[owner[i]] = kmr_calls.get(owner[i], 0) + 1
                    kmr_keys.setdefault(owner[i], set()).add(info[0])

        metrics = {f"{name}.calls": calls.get(name, 0) / n for name in CALL_COUNTED}
        metrics.update(
            {f"{name}.self_ms": 1000.0 * self_s.get(name, 0.0) / n for name in SELF_TIMED}
        )
        metrics.update({f"{name}.calls": count / n for name, count in self.counts.items()})
        metrics["resolutions.expand.twists_emitted"] = twists / n
        metrics["resolutions.expand.distinct_ratio"] = _ratio(
            sum(len(keys) for keys in expand_keys.values()), calls.get(EXPAND, 0)
        )
        metrics["normal_bundle.pair_terms"] = pair_terms / n
        metrics["incidence.bound_reuse_ratio"] = _ratio(
            sum(len(keys) for keys in kmr_keys.values()), sum(kmr_calls.values())
        )
        return metrics

    def per_report(self) -> dict[int, dict[str, float]]:
        """Counts inside one generate_report call, keyed by degree.

        Every report of one degree does the same work, so the first one
        of each degree stands for all of them.
        """
        owner = self.report_of()
        found: dict[int, dict[str, float]] = {}
        first_of_degree: dict[int, int] = {}
        for i, (name, _, _, _, _, info) in enumerate(self.spans):
            if name == REPORT and info not in first_of_degree:
                first_of_degree[info] = i
        for degree, report in first_of_degree.items():
            spans = [s for i, s in enumerate(self.spans) if owner[i] == report and i != report]
            kmr = [s[5][0] for s in spans if s[0] == KMR and s[5] is not None]
            found[degree] = {
                "incidence.dimension_bound.calls": sum(s[0] == BOUND for s in spans),
                "resolutions.expand.calls": sum(s[0] == EXPAND for s in spans),
                "normal_bundle.kmr_h0_normal.calls": len(kmr),
                "incidence.bound_reuse_ratio": _ratio(len(set(kmr)), len(kmr)),
            }
        return found


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 1.0


def _expand_info(args, kwargs, result):
    res = args[0]
    x = args[1] if len(args) > 1 else kwargs.get("x")
    gens, syz = result
    return ((res, x), len(gens) + len(syz))


def _kmr_info(args, kwargs, result):
    res = args[0]
    x = args[1] if len(args) > 1 else kwargs.get("x")
    rank = sum(mult.evaluate(x) for _, mult in res.generators)
    return ((res, x), rank)


def _report_info(args, kwargs, result):
    return args[0] if args else kwargs["degree"]


def _info(name):
    return {KMR: _kmr_info, REPORT: _report_info}.get(name)
