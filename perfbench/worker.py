"""One benchmark worker: set up, report ready, then run when told to.

Protocol on stdin/stdout: the worker prints ``ready`` once its set-up
(imports, inputs, oracle check of the inputs, one warm-up op) is done,
then reads one line.  ``go`` runs the measurement and prints one JSON
line; anything else exits.  run.py times set-up from process start to
the ``ready`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import acmsplit

import oracle
import tracer as tracing
from workloads import WORKLOADS

#: Rank probes: (x, calls).  x = 1000 costs about a second per call on
#: the O(rank^2) pair sum, so it runs a fixed three times.
RANK_PROBES = ((10, 50), (100, 10), (1000, 3))
STARTUP_PROBES = 5
#: A timed run keeps going past --seconds until it has this many ops, so
#: that at least ten samples lie beyond p90.
MIN_TIMED_OPS = 100
#: The traced phase stops early past this many spans, to bound memory.
MAX_SPANS = 100_000
MAX_FAILURE_MESSAGES = 5


class Tally:
    """Attempted ops, failures and the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(problem)


def run_op(op, tally: Tally) -> float:
    """Run one op, check it outside the timed region, return seconds."""
    run, check = op
    start = time.perf_counter()
    try:
        output = run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        tally.record(f"{type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    tally.record(check(output))
    return elapsed


def closed_loop(
    workload, seconds, tally, *, in_process, min_ops=1, whole=1, op_context=nullcontext, full=None
):
    """Run ops back to back for `seconds`; return op seconds and loop seconds.

    At least `min_ops` ops run, the count is a multiple of `whole`, and
    the loop ends early (at the next multiple) once `full()` is true.
    """
    times = []
    start = time.perf_counter()
    while (
        len(times) < min_ops
        or len(times) % whole
        or (time.perf_counter() - start < seconds and not (full and full()))
    ):
        op = workload.next_op(in_process=in_process)
        with op_context():
            times.append(run_op(op, tally))
    return times, time.perf_counter() - start


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, name: str, seconds: float) -> dict:
    tally = Tally()
    times, loop_s = closed_loop(workload, seconds, tally, in_process=False, min_ops=MIN_TIMED_OPS)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "op_s": times,
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb(who),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
    }


def _median_ms(samples) -> float:
    return 1000.0 * statistics.median(samples)


def _child_ms(argv, tally: Tally) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    tally.record(None if proc.returncode == 0 else f"{argv}: exit {proc.returncode}")
    return elapsed


def probes(tally: Tally) -> dict[str, float]:
    """Interpreter and import start-up, and KMR cost at fixed ranks."""
    bare = [_child_ms(["-c", "pass"], tally) for _ in range(STARTUP_PROBES)]
    imported = [_child_ms(["-c", "import acmsplit.cli"], tally) for _ in range(STARTUP_PROBES)]
    metrics = {
        "cli.interpreter_ms": _median_ms(bare),
        "cli.import_ms": _median_ms(imported) - _median_ms(bare),
    }
    family = acmsplit.parse_resolution(oracle.RANK_FAMILY)
    for x, calls in RANK_PROBES:
        samples = []
        for _ in range(calls):
            start = time.perf_counter()
            value = acmsplit.kmr_h0_normal(family, x)
            samples.append(time.perf_counter() - start)
            ok = value == oracle.RANK_FAMILY_H0_NORMAL
            tally.record(None if ok else f"kmr at x={x} is {value}")
        metrics[f"normal_bundle.kmr_h0_normal.x{x}_ms"] = _median_ms(samples)
    return metrics


def traced_run(workload, name: str, seconds: float, seed: int, out_dir: str) -> dict:
    """Per-layer metrics: probes, then untraced and traced in-process ops.

    Both phases run the in-process form of the op (for `cli`, the same
    commands through acmsplit.cli.run), so their p50 difference is the
    tracing overhead.
    """
    tally = Tally()
    metrics = probes(tally)
    untraced, _ = closed_loop(workload, seconds / 2, tally, in_process=True)
    recorder = tracing.Tracer()
    workload.start_cycle()
    with recorder.installed():
        traced, _ = closed_loop(
            workload,
            seconds / 2,
            tally,
            in_process=True,
            min_ops=workload.cycle,
            whole=workload.cycle,
            op_context=recorder.op,
            full=lambda: len(recorder.spans) > MAX_SPANS,
        )
    metrics.update(recorder.per_op_metrics())
    metrics["cli.command_ms"] = 1000.0 * statistics.fmean(untraced)
    metrics["trace.overhead_ms"] = _median_ms(traced) - _median_ms(untraced)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl.gz")
    recorder.write(trace_path)
    return {
        "metrics": metrics,
        "per_report": recorder.per_report(),
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
        "spans": len(recorder.spans),
        "trace_file": trace_path,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src") + os.sep
    if not os.path.abspath(acmsplit.__file__).startswith(src):
        print(f"acmsplit was imported from {acmsplit.__file__}, not {src}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](args.seed, args.root)
    checks = Tally()
    for problem in workload.setup_checks:
        checks.record(problem)
    run_op(workload.next_op(in_process=bool(args.trace)), checks)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        result = traced_run(workload, args.workload, args.seconds, args.seed, args.out_dir)
    else:
        result = timed_run(workload, args.workload, args.seconds)
    # set-up checks and the warm-up op count as attempted ops too
    result["attempted"] += checks.attempted
    result["failed"] += checks.failed
    result["failures"] = (checks.messages + result["failures"])[:MAX_FAILURE_MESSAGES]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
