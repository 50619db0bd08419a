"""The README's examples run as documented: every `youngbasis` command
line of its sh blocks exits 0 through `cli.main`, its `\\` continuations
joined, and every python block executes."""

import re
import shlex
from pathlib import Path

import pytest

from youngbasis import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


COMMANDS = [line for block in _blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("youngbasis ")]


def test_readme_has_examples():
    assert len(COMMANDS) >= 10 and _blocks("python")


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("block", _blocks("python"))
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
