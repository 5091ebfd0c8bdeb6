"""README.md's examples run as written.

Every python block runs to completion, and every `burstcodes ...` line
of the Command line section exits 0 through cli.main.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from burstcodes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def _command_lines() -> list[str]:
    """The burstcodes lines of the Command line section's sh block, with
    backslash continuations joined and comments dropped."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    text = block.replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("burstcodes ")]


COMMANDS = _command_lines()


def test_the_readme_has_examples():
    assert PYTHON_BLOCKS and len(COMMANDS) >= 10


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0])
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_exits_0(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert code == 0, err.getvalue()
