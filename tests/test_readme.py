"""The README's examples run as written.

Every ```python block is executed, and every `qwc` line of the Command
line section runs through `cli.main` in process and must exit 0, so the
documented API and commands cannot drift from the code.
"""
from __future__ import annotations

import os
import re
import shlex
from pathlib import Path

import pytest

from qwcorona.cli import ENV_PREFIX, main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
COMMAND_SECTION = TEXT.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
QWC_LINES = [
    line.removeprefix("$ ")
    for block in re.findall(r"```sh\n(.*?)```", COMMAND_SECTION, re.S)
    for line in block.splitlines()
    if line.removeprefix("$ ").startswith("qwc ")
]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 4
    assert len(QWC_LINES) >= 6


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=range(len(PYTHON_BLOCKS)))
def test_python_example_runs(block):
    exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("line", QWC_LINES)
def test_command_line_example_exits_zero(line, monkeypatch, capsys):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
