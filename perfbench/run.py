"""acmsplit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {proof,family,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  With ``--trace 0`` it starts fresh
workers, times each one's set-up, lets one of them run a closed loop of
ops for S seconds and prints the end-to-end metrics.  With
``--trace 1`` one worker runs the traced measurement and the per-layer
metrics are printed instead.  Human-readable lines come first; the last
line of stdout is the JSON result.  Results and traces are written to
perfbench/results/.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("proof", "family", "cli")
#: Set-up-only workers started before and again after the measuring
#: worker; with its own set-up that makes 2 * SETUPS_AROUND + 1 samples
#: spread over the run, and their median is setup_s.
SETUPS_AROUND = 4
#: Whole-run budget for one worker after its set-up.
WORKER_TIMEOUT_S = 150


def environment() -> dict:
    """Python version, usable CPUs, platform, commit and source digest."""
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "acmsplit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def start_worker(args) -> subprocess.Popen:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--out-dir", RESULTS,
    ]
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )


def run_worker(args, go: bool) -> tuple[float, dict | None]:
    """Start a worker, time it to `ready`; if `go`, return its result."""
    start = time.perf_counter()
    proc = start_worker(args)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up (said {line.strip()!r})")
        out, _ = proc.communicate("go\n" if go else "exit\n", timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        return setup, (json.loads(out.strip().splitlines()[-1]) if go else None)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def end_to_end(setups: list[float], result: dict) -> dict[str, dict]:
    times_ms = [1000.0 * t for t in result["op_s"]]
    deciles = statistics.quantiles(times_ms, n=10, method="inclusive")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_ms.p50": {"value": statistics.median(times_ms), "unit": "ms"},
        "op_ms.p90": {"value": deciles[8], "unit": "ms"},
        "ops_per_s": {"value": len(times_ms) / result["loop_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


PER_LAYER_UNITS = (("_ms", "ms"), ("_ratio", "ratio"))


def per_layer(result: dict) -> dict[str, dict]:
    metrics = {}
    for name, value in sorted(result["metrics"].items()):
        unit = next((u for suffix, u in PER_LAYER_UNITS if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "acmsplit", "__init__.py")):
        print(f"run.py: no acmsplit sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    try:
        if args.trace:
            _, result = run_worker(args, go=True)
            setups = []
        else:
            setups = [run_worker(args, go=False)[0] for _ in range(SETUPS_AROUND)]
            setup, result = run_worker(args, go=True)
            setups.append(setup)
            setups += [run_worker(args, go=False)[0] for _ in range(SETUPS_AROUND)]
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    metrics = per_layer(result) if args.trace else end_to_end(setups, result)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(
            f"traced {result['traced_ops']} ops after {result['untraced_ops']} untraced;"
            f" {result['spans']} spans in {os.path.relpath(result['trace_file'], ROOT)}"
        )
        for degree, counts in sorted(result["per_report"].items(), key=lambda kv: int(kv[0])):
            text = ", ".join(f"{k} {v:g}" for k, v in counts.items())
            print(f"one degree-{degree} report: {text}")
    else:
        print(f"samples {len(result['op_s'])} ops; set-up timed in {len(setups)} fresh workers")
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6f} {metric['unit']}")
    print(f"{'failed_ratio':<44} {failed / attempted:>14.6f} ({failed} of {attempted} ops)")
    for message in result["failures"]:
        print(f"failure: {message}")

    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
