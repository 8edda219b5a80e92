"""The three benchmark workloads and their output checks.

An op is a pair ``(run, check)``: ``run()`` does the timed work and
returns its output, ``check(output)`` returns None when the output
matches the oracle and a message otherwise.  Each workload draws its
op order (and, for ``cli``, its check-case rows) from the seed; acmsplit
itself only sees the generated inputs.

The package is always called through the ``acmsplit`` namespace at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import acmsplit
import acmsplit.cli

import oracle

DEGREES = (3, 4, 5, 6)
#: Degree-5 families need b >= 2 (the b - 2 multiplicity); rank reaches 27.
FAMILY_GRIDS = ((4, range(0, 25)), (5, range(2, 25)))
CHECK_CASE_ROWS = 4
CHILD_TIMEOUT_S = 60


def _render(degree: int, grid: range | None):
    report = acmsplit.generate_report(degree, grid_override=grid)
    return (
        degree,
        report,
        acmsplit.render_report_markdown(report),
        acmsplit.render_report_json(report),
    )


def _check_reports(outputs) -> str | None:
    for degree, report, markdown, json_text in outputs:
        problem = oracle.check_report(degree, report, markdown, json_text)
        if problem is not None:
            return problem
    return None


class ReportWorkload:
    """One op renders a fixed set of reports, in seed-shuffled order."""

    #: Every op does the same work.
    cycle = 1
    setup_checks = ()

    def __init__(self, seed: int, jobs) -> None:
        self.rng = random.Random(seed)
        self.jobs = list(jobs)

    def start_cycle(self) -> None:
        pass

    def next_op(self, in_process: bool = False):
        jobs = list(self.jobs)
        self.rng.shuffle(jobs)
        return (lambda: [_render(d, grid) for d, grid in jobs]), _check_reports


def proof(seed: int, root: str) -> ReportWorkload:
    """generate_report plus both renderers for degrees 3-6, default grids."""
    return ReportWorkload(seed, [(d, None) for d in DEGREES])


def family(seed: int, root: str) -> ReportWorkload:
    """Degrees 4 and 5 with every parametric family scanned to rank 27.

    Parameter independence is the oracle: the rows and bytes must equal
    the default-grid reports.
    """
    return ReportWorkload(seed, FAMILY_GRIDS)


def run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = acmsplit.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """One op is one `python -m acmsplit.cli` child; the mix cycles.

    Each cycle runs every command once in a seed-shuffled order.  The
    expected (exit code, stdout, stderr) of each command is the
    in-process result, itself checked against the oracle at set-up
    (``setup_checks``).
    """

    def __init__(self, seed: int, root: str) -> None:
        self.rng = random.Random(seed)
        self.root = root
        commands = [
            ("report", "--degree", str(d)) + fmt
            for d in DEGREES
            for fmt in ((), ("--format", "json"))
        ]
        for degree, row in self.rng.sample(oracle.case_rows(), CHECK_CASE_ROWS):
            fmt = self.rng.choice(("markdown", "json"))
            c1, c2 = str(row[0]), str(row[1])
            commands.append(
                ("check-case", "--degree", str(degree), "--c1", c1, "--c2", c2, "--format", fmt)
            )
        commands.extend(argv for argv, _ in oracle.SCALAR_COMMANDS)
        self.expected = {argv: run_in_process(argv) for argv in commands}
        #: One entry per expected output, None where it matches the oracle.
        self.setup_checks = [
            self._check_expected(argv, *out) for argv, out in self.expected.items()
        ]
        self.commands = commands
        #: Ops after which the mix repeats: every command once.
        self.cycle = len(commands)
        self.pending: list[tuple] = []

    @staticmethod
    def _check_expected(argv, code: int, out: str, err: str) -> str | None:
        if err:
            return f"{argv[0]} wrote to stderr: {err!r}"
        if argv[0] == "report":
            degree = int(argv[2])
            digests = oracle.JSON_SHA256 if "json" in argv else oracle.MARKDOWN_SHA256
            if code != oracle.REPORT_EXIT[degree] or oracle.sha256(out) != digests[degree]:
                return f"report {' '.join(argv[1:])} differs from the oracle"
            return None
        if argv[0] == "check-case":
            degree, c1, c2 = int(argv[2]), int(argv[4]), int(argv[6])
            row = next(row for row in oracle.ROWS[degree] if row[:2] == (c1, c2))
            return oracle.check_case_stdout(degree, row, argv[8], code, out)
        expected = dict(oracle.SCALAR_COMMANDS)[argv]
        return None if (code, out) == (0, expected) else f"{argv[0]} printed {out!r}"

    def _run_child(self, argv) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "acmsplit.cli", *argv],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def start_cycle(self) -> None:
        """Drop the rest of the current cycle so the next op starts a new one."""
        self.pending = []

    def next_op(self, in_process: bool = False):
        if not self.pending:
            self.pending = list(self.commands)
            self.rng.shuffle(self.pending)
        argv = self.pending.pop()
        expected = self.expected[argv]

        def check(output) -> str | None:
            return None if output == expected else f"{' '.join(argv[:3])}: output differs"

        if in_process:
            return (lambda: run_in_process(argv)), check
        return (lambda: self._run_child(argv)), check


WORKLOADS = {"proof": proof, "family": family, "cli": CliWorkload}
