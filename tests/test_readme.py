"""The README's command-line and library examples print what it says."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from poissonore.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _cli_blocks() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for each `$ poisson-ore` sh block.

    A trailing `...` line means the output only has to start with the
    lines above it.
    """
    blocks = re.findall(r"```sh\n\$ (poisson-ore .*?)\n(.*?)```", README, re.S)
    return [(cmd, out.splitlines()) for cmd, out in blocks]


BLOCKS = _cli_blocks()


def test_readme_has_the_examples():
    assert len(BLOCKS) == 4


@pytest.mark.parametrize("cmd,expected", BLOCKS, ids=[cmd for cmd, _ in BLOCKS])
def test_readme_command_output(cmd, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(cmd)[1:])
    assert code == 0
    lines = out.getvalue().splitlines()
    if expected and expected[-1].strip() == "...":
        expected = expected[:-1]
        lines = lines[: len(expected)]
    assert lines == expected


def test_readme_library_snippet():
    section = README.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each commented print states the line it prints
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", snippet, re.M)
    assert expected == ["x*y^2 + x^2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[: len(expected)] == expected
