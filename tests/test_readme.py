"""Every `$ acmsplit ...` example in README's Command line section prints what it shows,
and every ```python block of its Library section runs.

An example runs in process through `acmsplit.cli.run` and must exit 0
with nothing on stderr.  Its output must equal the lines shown under the
command, or, when a `...` line ends what is shown, begin with the lines
above it.  A command may continue over several lines while a shell quote
is open.  A Library block must run to its end: its asserts are its checks.
"""

import os
import re
import shlex

import pytest

from acmsplit.cli import run

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _fenced_blocks(text, language=""):
    """The lines of each fenced block whose opening fence names the language ("" for none)."""
    blocks, block, keep = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            if block is None:
                block, keep = [], line[3:] == language
            else:
                if keep:
                    blocks.append(block)
                block = None
        elif block is not None:
            block.append(line)
    return blocks


def _section(title):
    with open(README, encoding="utf-8") as handle:
        return handle.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _examples():
    """(argv, shown lines) for each `$ acmsplit` command of the Command line section."""
    section = _section("Command line")
    examples = []
    for block in _fenced_blocks(section):
        for chunk in re.split(r"^\$ ", "\n".join(block), flags=re.M)[1:]:
            lines = chunk.rstrip("\n").split("\n")
            taken = 1
            while True:
                try:
                    argv = shlex.split("\n".join(lines[:taken]))
                    break
                except ValueError:  # an open quote: the command goes on
                    if taken == len(lines):
                        raise
                    taken += 1
            examples.append((argv[1:], lines[taken:]))
    return examples


EXAMPLES = _examples()


def test_every_subcommand_has_an_example():
    assert sorted({argv[0] for argv, _ in EXAMPLES}) == [
        "check-case", "hilbert", "kmr", "report", "solve-c2",
    ]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(EXAMPLES)]
)
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    printed = captured.out.splitlines()
    if "..." in shown:
        shown = shown[: shown.index("...")]
        printed = printed[: len(shown)]
    assert printed == shown


LIBRARY = _fenced_blocks(_section("Library"), "python")


def test_the_library_section_has_python_blocks():
    assert len(LIBRARY) >= 2


@pytest.mark.parametrize("block", LIBRARY, ids=[f"block-{i}" for i in range(len(LIBRARY))])
def test_readme_library_block_runs(block):
    exec(compile("\n".join(block), "README.md", "exec"), {})
