"""Self-tests for the benchmark's tracing wrappers and workload checks.

From the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import acmsplit  # noqa: E402
import acmsplit.cli  # noqa: E402
import acmsplit.incidence as incidence  # noqa: E402
import acmsplit.resolutions as resolutions  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CI_113 = {"gens": [[1, 2], [3, 1]], "syz": [[4, 2], [2, 1]], "socle": 5}


def _rendered():
    return [
        (acmsplit.render_report_markdown(r), acmsplit.render_report_json(r))
        for r in (acmsplit.generate_report(d) for d in workloads.DEGREES)
    ]


def _traced_counts(workload, ops):
    recorder = Tracer()
    workload.start_cycle()
    with recorder.installed():
        for _ in range(ops):
            run, check = workload.next_op(in_process=True)
            with recorder.op():
                output = run()
            assert check(output) is None
    return {k: v for k, v in recorder.per_op_metrics().items() if not k.endswith("_ms")}


def test_traced_and_untraced_reports_are_byte_identical():
    untraced = _rendered()
    with Tracer().installed() as recorder:
        with recorder.op():
            traced = _rendered()
    assert traced == untraced
    assert recorder.spans


def test_wrappers_are_removed_on_exit():
    original = resolutions.h0_ideal
    expand = resolutions.GorensteinResolution.expand
    with Tracer().installed():
        assert incidence.h0_ideal is not original
    assert incidence.h0_ideal is original is resolutions.h0_ideal
    assert resolutions.GorensteinResolution.expand is expand


def test_per_layer_counts_repeat_exactly():
    root = os.path.dirname(HERE)
    for make in (workloads.proof, workloads.CliWorkload):
        first, second = make(7, root), make(7, root)
        assert _traced_counts(first, 2 * first.cycle) == _traced_counts(second, 2 * second.cycle)


def test_calls_through_imported_aliases_are_counted():
    res = acmsplit.parse_resolution(CI_113)
    recorder = Tracer()
    with recorder.installed():
        with recorder.op():
            assert incidence.h0_ideal(res, 4) == 95
            assert acmsplit.cli.kmr_h0_normal(res) == 27
    metrics = recorder.per_op_metrics()
    assert metrics["normal_bundle.kmr_h0_normal.calls"] == 1
    # kmr_h0_normal reaches h0_ideal through resolutions.h0_structure
    assert metrics["resolutions.h0_ideal.calls"] == 1 + 3
    assert metrics["resolutions.expand.calls"] == 1 + 1 + 3
    assert metrics["proj_cohomology.h0_pn.calls"] > 0
    assert metrics["combinatorics.binom_trunc.calls"] > 0


def test_degree_5_report_shows_the_double_count():
    recorder = Tracer()
    with recorder.installed():
        with recorder.op():
            acmsplit.generate_report(5)
    counts = recorder.per_report()[5]
    assert counts["incidence.dimension_bound.calls"] == 12
    assert counts["resolutions.expand.calls"] == 442
    assert counts["incidence.bound_reuse_ratio"] == 0.5


def test_self_time_excludes_children():
    recorder = Tracer()
    with recorder.installed():
        with recorder.op():
            acmsplit.generate_report(4)
    own = recorder.self_seconds()
    for span, self_s in zip(recorder.spans, own):
        assert 0 <= self_s <= span[2] - span[1]
    assert sum(own) == pytest.approx(recorder.spans[0][2] - recorder.spans[0][1])


def test_oracle_rejects_changed_bytes():
    report = acmsplit.generate_report(4)
    markdown = acmsplit.render_report_markdown(report)
    json_text = acmsplit.render_report_json(report)
    assert oracle.check_report(4, report, markdown, json_text) is None
    assert oracle.check_report(4, report, markdown + " ", json_text) is not None
    assert oracle.check_report(5, report, markdown, json_text) is not None


def test_family_grids_reproduce_the_default_reports():
    run, check = workloads.family(3, ".").next_op()
    assert check(run()) is None


def _declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(os.path.dirname(HERE), "src"))
    result = worker.traced_run(workloads.proof(1, "."), "proof", 0.2, 1, str(tmp_path))
    assert result["failed"] == 0, result["failures"]
    assert os.path.isfile(result["trace_file"])
    printed = run.per_layer(result)
    assert {name: m["unit"] for name, m in printed.items()} == _declared("per_layer")


def test_timed_metrics_are_the_declared_end_to_end_metrics():
    result = {"op_s": [0.001 * i for i in range(1, 101)], "loop_s": 5.0, "peak_rss_mb": 20.0}
    printed = run.end_to_end([0.1, 0.2, 0.3], result)
    assert {name: m["unit"] for name, m in printed.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in printed.values())
